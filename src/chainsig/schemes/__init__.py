"""Variant catalog and pluggable signature backends."""

from .base import Provider, SchemeBackend, SchemeInstance
from .catalog import (
    FAMILY_ORDER,
    VALID_LEVELS,
    VariantDescriptor,
    by_variant,
    catalog,
    filter_by_levels,
)
from .registry import PROVIDER_ENV, get_provider, instantiate

__all__ = [
    "FAMILY_ORDER",
    "PROVIDER_ENV",
    "Provider",
    "SchemeBackend",
    "SchemeInstance",
    "VALID_LEVELS",
    "VariantDescriptor",
    "by_variant",
    "catalog",
    "filter_by_levels",
    "get_provider",
    "instantiate",
]
