"""Scheme instantiation: the one place that picks a variant's backend."""

from __future__ import annotations

import importlib
import logging
import os
from types import ModuleType
from typing import TYPE_CHECKING

from ..errors import UnsupportedVariant
from .base import SchemeInstance

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

logger = logging.getLogger(__name__)

#: set this to a provider name to force every variant onto one backend
PROVIDER_ENV = "CHAINSIG_PROVIDER"

# post-quantum variants are tried in preference order: liboqs first
# (optimized code, full coverage), the PQClean wheels as fallback
_PQC_CANDIDATES = ("oqs", "pqclean")
_ECDSA_CANDIDATES = ("ecdsa",)

# each provider is the module of that name in this package, and its
# create(descriptor) returns a SchemeBackend or raises UnsupportedVariant
# with a one-line reason. A module is imported on the first get_provider
# call for its name, so a run that never asks for ECDSA or liboqs never
# loads `cryptography` or the liboqs binding.
_PROVIDERS = (*_ECDSA_CANDIDATES, *_PQC_CANDIDATES, "stub")


def get_provider(name: str) -> ModuleType:
    """Return the provider module registered under name; sys.modules keeps it."""
    if name not in _PROVIDERS:
        raise UnsupportedVariant(
            f"no provider registered under {name!r}; registered: {', '.join(_PROVIDERS)}"
        )
    return importlib.import_module(f".{name}", __package__)


def _candidates(descriptor: "VariantDescriptor") -> tuple[str, ...]:
    override = os.environ.get(PROVIDER_ENV)
    if override:
        return (override,)
    return _PQC_CANDIDATES if descriptor.is_pqc else _ECDSA_CANDIDATES


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
