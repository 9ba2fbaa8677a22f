"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import math

import pytest

from chainsig.errors import UnsupportedVariant
from chainsig.schemes import VariantDescriptor, by_variant, instantiate
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.stub import StubBackend


def two_pass_mean_std(samples: list[float]) -> tuple[float, float]:
    """Textbook two-pass mean and sample standard deviation.

    Uses exact (fsum) summation; serves as the independent oracle for
    the vectorized implementation.
    """
    n = len(samples)
    mean = math.fsum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = math.fsum((x - mean) ** 2 for x in samples) / (n - 1)
    return mean, math.sqrt(variance)


def close(a: float, b: float, tol: float = 1e-12) -> bool:
    """Relative closeness with an absolute floor of 1 for tiny values."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


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
