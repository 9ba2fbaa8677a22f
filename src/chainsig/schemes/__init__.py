"""Variant catalog and pluggable signature backends."""

from .base import SchemeBackend, SchemeInstance
from .catalog import (
    FAMILY_ORDER,
    VALID_LEVELS,
    VariantDescriptor,
    by_variant,
    catalog,
)
from .registry import PROVIDER_ENV, get_provider, instantiate

__all__ = [
    "FAMILY_ORDER",
    "PROVIDER_ENV",
    "SchemeBackend",
    "SchemeInstance",
    "VALID_LEVELS",
    "VariantDescriptor",
    "by_variant",
    "catalog",
    "get_provider",
    "instantiate",
]
