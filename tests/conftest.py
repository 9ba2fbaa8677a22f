"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import time
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


def has_glibc() -> bool:
    """Whether the C library is glibc, which names its version through confstr."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


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


def _spin(duration_ms: float) -> None:
    """Burn CPU for duration_ms; sleep() is too coarse for sub-ms delays."""
    if duration_ms <= 0:
        return
    deadline = time.perf_counter_ns() + int(duration_ms * 1e6)
    while time.perf_counter_ns() < deadline:
        pass


class DelayedStubBackend(StubBackend):
    """Stub whose operations each busy-wait a fixed time first: a known
    delay for the timing code to recover."""

    def __init__(
        self, keypair_ms: float = 0.0, sign_ms: float = 0.0, verify_ms: float = 0.0
    ) -> None:
        self._keypair_ms = keypair_ms
        self._sign_ms = sign_ms
        self._verify_ms = verify_ms

    def keypair(self) -> tuple[bytes, bytes]:
        _spin(self._keypair_ms)
        return super().keypair()

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        _spin(self._sign_ms)
        return super().sign(secret_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        _spin(self._verify_ms)
        return super().verify(public_key, message, signature)


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
    backend = DelayedStubBackend(
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


def _forget_oqs_searches(oqs) -> None:
    oqs._primary.cache_clear()
    oqs._cross.cache_clear()


@pytest.fixture(autouse=True)
def no_standin_left_loaded():
    """Fail a test that leaves a stand-in where a later test would use it.

    That is a module from tests/standins/ in sys.modules, or a liboqs
    stand-in build held by oqs's library searches, which would serve the
    rows of a later get_provider("oqs"). An autouse fixture is set up
    before the test's other fixtures, so this check runs after their
    teardown and monkeypatch's undo. A leaked pqcrypto stand-in would
    otherwise serve catalog rows in later tests.
    """
    yield
    leaked = sorted(
        name
        for name, module in sys.modules.items()
        if (getattr(module, "__file__", None) or "").startswith(str(STANDINS))
    )
    for name in leaked:
        del sys.modules[name]
    held = set()
    oqs = sys.modules.get("chainsig.schemes.oqs")
    for search in (oqs._primary, oqs._cross) if oqs is not None else ():
        # a search not yet run stays unrun; every stand-in build exports standin_live
        lib = search() if search.cache_info().currsize else None
        if isinstance(lib, oqs._Library) and hasattr(lib.cdll, "standin_live"):
            held.add(lib.path)
    if held:
        _forget_oqs_searches(oqs)
    assert leaked == [], f"stand-in modules left loaded: {leaked}"
    assert not held, f"stand-in liboqs builds left in oqs's searches: {sorted(held)}"


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
def fresh_oqs():
    """The oqs provider module, its library searches forgotten before and after the test.

    So a search runs again under the test's patches, and its result does
    not outlive the test.
    """
    from chainsig.schemes import oqs

    _forget_oqs_searches(oqs)
    yield oqs
    _forget_oqs_searches(oqs)


@pytest.fixture
def oqs_standin(liboqs_standins, monkeypatch, tmp_path, fresh_oqs):
    """Point the oqs provider at stand-in builds: oqs_standin(primary, cross).

    Each argument is a version of liboqs_standins, or None for a path that
    does not exist. Each call forgets the searches made before it, and so
    does teardown, so no later get_provider("oqs") sees a stand-in.
    """
    missing = str(tmp_path / "missing" / "liboqs.so")

    def provider(primary: str | None = "0.16.0", cross: str | None = None):
        monkeypatch.setenv(
            "CHAINSIG_LIBOQS", liboqs_standins[primary] if primary else missing
        )
        monkeypatch.setenv(
            "CHAINSIG_LIBOQS_CROSS", liboqs_standins[cross] if cross else missing
        )
        _forget_oqs_searches(fresh_oqs)
        return fresh_oqs

    return provider


def _pqcrypto_modules() -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == "pqcrypto"]


@pytest.fixture
def pqclean_standin(monkeypatch):
    """The pqclean provider module, importing the pqcrypto stand-in.

    On teardown every pqcrypto module leaves sys.modules, and any that
    were loaded before come back, so a later get_provider("pqclean")
    never routes rows to the stand-in.
    """
    from chainsig.schemes import pqclean

    for name in _pqcrypto_modules():
        monkeypatch.delitem(sys.modules, name)
    monkeypatch.syspath_prepend(str(STANDINS))
    yield pqclean
    for name in _pqcrypto_modules():
        del sys.modules[name]
