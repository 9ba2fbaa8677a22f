"""The fixed catalog of signature scheme variants.

Sixteen algorithm families, 46 variants overall, spread over NIST
security levels 1, 2, 3 and 5 (no scheme in the set targets level 4).
Classical ECDSA is included as the baseline; everything else is
post-quantum.
"""

from __future__ import annotations

from typing import NamedTuple

# (family, is_pqc, ((variant, level), ...)), in fixed presentation order;
# within a family the variants are listed by ascending level
_TABLE: tuple[tuple[str, bool, tuple[tuple[str, int], ...]], ...] = (
    ("ECDSA", False, (("P-256", 1), ("P-384", 3), ("P-521", 5))),
    ("ML-DSA", True, (("ML-DSA-44", 2), ("ML-DSA-65", 3), ("ML-DSA-87", 5))),
    ("Dilithium", True, (("Dilithium2", 2), ("Dilithium3", 3), ("Dilithium5", 5))),
    ("Falcon", True, (("Falcon-512", 1), ("Falcon-1024", 5))),
    (
        "Falcon-padded",
        True,
        (("Falcon-padded-512", 1), ("Falcon-padded-1024", 5)),
    ),
    ("Mayo", True, (("MAYO-2", 1), ("MAYO-3", 3), ("MAYO-5", 5))),
    (
        "SPHINCS+-SHA-s",
        True,
        (("SHA2-128s-simple", 1), ("SHA2-192s-simple", 3), ("SHA2-256s-simple", 5)),
    ),
    (
        "SPHINCS+-SHA-f",
        True,
        (("SHA2-128f-simple", 1), ("SHA2-192f-simple", 3), ("SHA2-256f-simple", 5)),
    ),
    (
        "SPHINCS+-SHAKE-s",
        True,
        (
            ("SHAKE-128s-simple", 1),
            ("SHAKE-192s-simple", 3),
            ("SHAKE-256s-simple", 5),
        ),
    ),
    (
        "SPHINCS+-SHAKE-f",
        True,
        (
            ("SHAKE-128f-simple", 1),
            ("SHAKE-192f-simple", 3),
            ("SHAKE-256f-simple", 5),
        ),
    ),
    (
        "Cross-rsdp-small",
        True,
        (
            ("Cross-rsdp-128-small", 1),
            ("Cross-rsdp-192-small", 3),
            ("Cross-rsdp-256-small", 5),
        ),
    ),
    (
        "Cross-rsdpg-small",
        True,
        (
            ("Cross-rsdpg-128-small", 1),
            ("Cross-rsdpg-192-small", 3),
            ("Cross-rsdpg-256-small", 5),
        ),
    ),
    (
        "Cross-rsdp-balanced",
        True,
        (
            ("Cross-rsdp-128-balanced", 1),
            ("Cross-rsdp-192-balanced", 3),
            ("Cross-rsdp-256-balanced", 5),
        ),
    ),
    (
        "Cross-rsdpg-balanced",
        True,
        (
            ("Cross-rsdpg-128-balanced", 1),
            ("Cross-rsdpg-192-balanced", 3),
            ("Cross-rsdpg-256-balanced", 5),
        ),
    ),
    (
        "Cross-rsdp-fast",
        True,
        (
            ("Cross-rsdp-128-fast", 1),
            ("Cross-rsdp-192-fast", 3),
            ("Cross-rsdp-256-fast", 5),
        ),
    ),
    (
        "Cross-rsdpg-fast",
        True,
        (
            ("Cross-rsdpg-128-fast", 1),
            ("Cross-rsdpg-192-fast", 3),
            ("Cross-rsdpg-256-fast", 5),
        ),
    ),
)

FAMILY_ORDER: tuple[str, ...] = tuple(family for family, _, _ in _TABLE)

VALID_LEVELS = frozenset({1, 2, 3, 4, 5})


class VariantDescriptor(NamedTuple):
    """One row of the variant catalog; the backend is chosen by instantiate."""

    family: str
    variant: str
    level: int
    is_pqc: bool


def catalog() -> list[VariantDescriptor]:
    """All 46 variants in fixed order: family order, then ascending level."""
    return [
        VariantDescriptor(family=family, variant=variant, level=level, is_pqc=is_pqc)
        for family, is_pqc, cells in _TABLE
        for variant, level in cells
    ]


def filter_by_levels(
    descriptors: list[VariantDescriptor], levels: set[int] | frozenset[int]
) -> list[VariantDescriptor]:
    """Subset of descriptors whose level is in levels, order preserved.

    Expects levels within {1, 2, 3, 4, 5}; level 4 exists as a valid
    selection that matches nothing.
    """
    return [d for d in descriptors if d.level in levels]


def by_variant() -> dict[str, VariantDescriptor]:
    """Catalog indexed by variant string."""
    return {d.variant: d for d in catalog()}
