"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chainsig.errors import UnsupportedVariant
from chainsig.schemes import VariantDescriptor, by_variant, instantiate
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.stub import StubBackend


def two_pass_mean_std(samples: list[float]) -> tuple[float, float]:
    """Textbook two-pass mean and sample standard deviation.

    Uses exact (fsum) summation in both passes; serves as the oracle for
    bench.summarize, which shares only its first pass with it.
    """
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(variance)


def flip_byte(blob: bytes) -> bytes:
    """blob with one bit of its middle byte flipped."""
    mutated = bytearray(blob)
    mutated[len(blob) // 2] ^= 0x01
    return bytes(mutated)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    """Relative closeness with an absolute floor of 1 for tiny values."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class BrokenStubBackend(StubBackend):
    """Stub whose verify always fails; exercises CorrectnessViolation paths."""

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return False


def make_stub_descriptor(
    variant: str = "Stub-A",
    family: str = "Stub",
    level: int = 1,
    is_pqc: bool = False,
) -> VariantDescriptor:
    return VariantDescriptor(
        family=family,
        variant=variant,
        level=level,
        is_pqc=is_pqc,
    )


def make_stub_instance(
    variant: str = "Stub-A",
    level: int = 1,
    keypair_ms: float = 0.0,
    sign_ms: float = 0.0,
    verify_ms: float = 0.0,
) -> SchemeInstance:
    descriptor = make_stub_descriptor(variant=variant, level=level)
    backend = StubBackend(
        keypair_ms=keypair_ms, sign_ms=sign_ms, verify_ms=verify_ms
    )
    return SchemeInstance(descriptor, backend)


def instantiate_or_skip(variant_name: str) -> SchemeInstance:
    """Instantiate a catalog variant, skipping the test when no backend exists."""
    descriptor = by_variant().get(variant_name)
    if descriptor is None:
        pytest.skip(f"{variant_name} not in catalog")
    try:
        return instantiate(descriptor)
    except UnsupportedVariant as exc:
        pytest.skip(f"{variant_name} unavailable: {exc}")


STANDINS = Path(__file__).parent / "standins"


@pytest.fixture(scope="session")
def liboqs_standins(tmp_path_factory) -> dict[str, str]:
    """Paths of liboqs stand-in builds by version.

    0.12.0 and 0.16.0 have those ABIs' OQS_SIG field order; 0.13.0 is a
    version the binding does not know.
    """
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler to build the liboqs stand-in")
    root = tmp_path_factory.mktemp("liboqs")
    builds = {}
    for version in ("0.12.0", "0.16.0", "0.13.0"):
        target = root / version / "liboqs.so"
        target.parent.mkdir()
        layout = ["-DSTANDIN_SUF_CMA"] if version.startswith("0.16.") else []
        subprocess.run(
            [
                compiler,
                "-shared",
                "-fPIC",
                "-std=c11",
                f'-DSTANDIN_VERSION="{version}"',
                *layout,
                "-o",
                str(target),
                str(STANDINS / "liboqs_standin.c"),
            ],
            check=True,
        )
        builds[version] = str(target)
    return builds


@pytest.fixture
def oqs_standin(liboqs_standins, monkeypatch, tmp_path):
    """Make a fresh OqsProvider over stand-in builds: oqs_standin(primary, cross).

    Each argument is a version of liboqs_standins, or None for a path that
    does not exist. The provider bypasses get_provider's cache, so no test
    that uses the registry sees a stand-in.
    """
    from chainsig.schemes import oqs

    missing = str(tmp_path / "missing" / "liboqs.so")

    def provider(primary: str | None = "0.16.0", cross: str | None = None):
        monkeypatch.setenv(
            "CHAINSIG_LIBOQS", liboqs_standins[primary] if primary else missing
        )
        monkeypatch.setenv(
            "CHAINSIG_LIBOQS_CROSS", liboqs_standins[cross] if cross else missing
        )
        return oqs.OqsProvider()

    return provider


def _pqcrypto_modules() -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == "pqcrypto"]


@pytest.fixture
def pqclean_standin(monkeypatch):
    """A fresh PqcleanProvider that imports the pqcrypto stand-in.

    On teardown every pqcrypto module leaves sys.modules, and any that
    were loaded before come back, so a later get_provider("pqclean")
    never routes rows to the stand-in.
    """
    from chainsig.schemes import pqclean

    for name in _pqcrypto_modules():
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.syspath_prepend(str(STANDINS))
    yield pqclean.PqcleanProvider()
    for name in _pqcrypto_modules():
        del sys.modules[name]
