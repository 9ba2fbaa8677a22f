"""Scheme instantiation: the one place that picks a variant's backend."""

from __future__ import annotations

import functools
import logging
import os
from typing import TYPE_CHECKING

from ..errors import UnsupportedVariant
from .base import Provider, SchemeInstance
from .ecdsa import EcdsaProvider
from .oqs import OqsProvider
from .pqclean import PqcleanProvider
from .stub import StubProvider

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

logger = logging.getLogger(__name__)

#: set this to a provider name to force every variant onto one backend
PROVIDER_ENV = "CHAINSIG_PROVIDER"

_PROVIDERS: dict[str, type[Provider]] = {
    "ecdsa": EcdsaProvider,
    "oqs": OqsProvider,
    "pqclean": PqcleanProvider,
    "stub": StubProvider,
}

# post-quantum variants are tried in preference order: liboqs first
# (optimized code, full coverage), the PQClean wheels as fallback
_PQC_CANDIDATES = ("oqs", "pqclean")


@functools.cache
def get_provider(name: str) -> Provider:
    """Return the provider registered under name, built once per process."""
    factory = _PROVIDERS.get(name)
    if factory is None:
        raise UnsupportedVariant(f"no provider registered under {name!r}")
    return factory()


def _candidates(descriptor: "VariantDescriptor") -> tuple[str, ...]:
    override = os.environ.get(PROVIDER_ENV)
    if override:
        return (override,)
    if descriptor.family == "ECDSA":
        return ("ecdsa",)
    return _PQC_CANDIDATES


def instantiate(descriptor: "VariantDescriptor") -> SchemeInstance:
    """Bind a catalog entry to the first candidate backend that serves it.

    Raises UnsupportedVariant, with one "<provider>: <reason>" part per
    candidate, when none does; callers skip the variant in that case.
    """
    reasons = []
    for name in _candidates(descriptor):
        try:
            backend = get_provider(name).create(descriptor)
        except UnsupportedVariant as exc:
            reasons.append(f"{name}: {exc}")
            continue
        logger.info("%s via %s", descriptor.variant, name)
        return SchemeInstance(descriptor, backend)
    raise UnsupportedVariant("; ".join(reasons))
