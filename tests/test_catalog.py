"""Catalog contents and ordering."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from chainsig.schemes import (
    FAMILY_ORDER,
    VALID_LEVELS,
    by_variant,
    catalog,
    instantiate,
    oqs,
    pqclean,
)
from chainsig.schemes.stub import StubBackend
from golden_catalog import GOLDEN_FAMILY_ORDER, GOLDEN_LEVEL_COUNTS, GOLDEN_ROWS


def test_catalog_has_exactly_46_variants():
    assert len(catalog()) == 46


def test_catalog_matches_golden_table():
    live = [(d.family, d.variant, d.level, d.is_pqc) for d in catalog()]
    assert live == list(GOLDEN_ROWS)


def test_family_order_matches_golden():
    assert FAMILY_ORDER == GOLDEN_FAMILY_ORDER
    assert len(set(FAMILY_ORDER)) == 16


def test_level_histogram():
    counts = Counter(d.level for d in catalog())
    assert dict(counts) == GOLDEN_LEVEL_COUNTS
    assert 4 not in counts


def test_variant_names_unique():
    names = [d.variant for d in catalog()]
    assert len(names) == len(set(names))


def test_levels_are_valid():
    for descriptor in catalog():
        assert descriptor.level in VALID_LEVELS


def test_catalog_is_deterministic():
    first = catalog()
    second = catalog()
    assert first == second
    assert [repr(d) for d in first] == [repr(d) for d in second]


def test_by_variant_round_trips():
    index = by_variant()
    assert len(index) == 46
    for descriptor in catalog():
        assert index[descriptor.variant] == descriptor


def test_catalog_loads_no_backend(monkeypatch, fresh_oqs):
    def refuse(*args):
        raise AssertionError("catalog() probed a backend")

    # fresh_oqs forgot the liboqs searches, so a probe would have to run again
    monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
    monkeypatch.setattr(oqs, "_load_library", refuse)
    monkeypatch.setattr(pqclean, "importlib", SimpleNamespace(import_module=refuse))
    assert len(catalog()) == 46
    assert len(by_variant()) == 46


def test_provider_env_override_applies_to_all(monkeypatch):
    monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
    for descriptor in catalog():
        assert isinstance(instantiate(descriptor).backend, StubBackend)


@pytest.mark.parametrize("family", GOLDEN_FAMILY_ORDER)
def test_family_variants_sorted_by_level(family):
    levels = [d.level for d in catalog() if d.family == family]
    assert levels == sorted(levels)
