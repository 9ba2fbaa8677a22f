"""Scheme instantiation: the one place that picks a variant's backend."""

from __future__ import annotations

import functools
import importlib
import logging
import os
from typing import TYPE_CHECKING

from ..errors import UnsupportedVariant
from .base import Provider, SchemeInstance

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

logger = logging.getLogger(__name__)

#: set this to a provider name to force every variant onto one backend
PROVIDER_ENV = "CHAINSIG_PROVIDER"

# name -> (module in this package, provider class). A backend module is
# imported on the first get_provider call for its name, so a run that
# never asks for ECDSA or liboqs never loads `cryptography` or the liboqs binding.
_PROVIDERS: dict[str, tuple[str, str]] = {
    "ecdsa": ("ecdsa", "EcdsaProvider"),
    "oqs": ("oqs", "OqsProvider"),
    "pqclean": ("pqclean", "PqcleanProvider"),
    "stub": ("stub", "StubProvider"),
}

# post-quantum variants are tried in preference order: liboqs first
# (optimized code, full coverage), the PQClean wheels as fallback
_PQC_CANDIDATES = ("oqs", "pqclean")


@functools.cache
def get_provider(name: str) -> Provider:
    """Return the provider registered under name, imported and built once per process."""
    entry = _PROVIDERS.get(name)
    if entry is None:
        raise UnsupportedVariant(f"no provider registered under {name!r}")
    module_name, class_name = entry
    module = importlib.import_module(f".{module_name}", __package__)
    return getattr(module, class_name)()


def _candidates(descriptor: "VariantDescriptor") -> tuple[str, ...]:
    override = os.environ.get(PROVIDER_ENV)
    if override:
        return (override,)
    if descriptor.is_pqc:
        return _PQC_CANDIDATES
    return ("ecdsa",)


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
