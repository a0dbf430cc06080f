"""The random-instance sources of helpers.py, checked on their own: the
GF(2) sampler, its reach as counted by the representability oracle, and
the extension-chain pools; and the brute-force isomorphism search, with
its budget."""

import random
import time

import pytest

import helpers
from twistwidth import DeltaMatroid, GroundSetError, catalog, d5_family, enumerate_all, validate
from helpers import (
    CHAIN_MAX_ELEMENTS,
    are_isomorphic,
    brute_axiom_holds,
    extension_pool,
    is_gf2_representable,
    sample_with_empty_feasible,
)


def test_sampler_produces_valid_instances():
    rng = random.Random(3)
    for _ in range(50):
        d = sample_with_empty_feasible(5, rng)
        assert 0 in d.masks
        assert brute_axiom_holds(d.masks, d.n)


def test_representable_counts_on_small_ground_sets():
    # the sampler's reach: its draws are exactly the representable families
    counts = {n: sum(map(is_gf2_representable, enumerate_all(n))) for n in (1, 2, 3, 4)}
    assert counts == {1: 3, 2: 15, 3: 135, 4: 2295}


def test_representable_catalog_and_twists():
    # the catalog's binary members, and the binary twists among all 36
    assert [is_gf2_representable(h) for h in catalog()] == [True, False, True, False, False]
    assert sum(map(is_gf2_representable, d5_family())) == 12


def test_sampled_instances_are_representable():
    rng = random.Random(21)
    for n in (5, 6, 7, 8):
        for _ in range(10):
            assert is_gf2_representable(sample_with_empty_feasible(n, rng).twist(rng.randrange(1 << n)))


def test_extension_pools():
    # frozen regression values: accepted draws per level, and how many of
    # them are GF(2)-representable
    sizes, representable = {}, {}
    for n in range(5, CHAIN_MAX_ELEMENTS + 1):
        labels = [f"e{i + 1}" for i in range(n)]
        pool = [DeltaMatroid(labels, masks, _trusted=True) for masks in extension_pool(n)]
        sizes[n] = len(pool)
        representable[n] = sum(map(is_gf2_representable, pool))
    assert sizes == {5: 275, 6: 189, 7: 82, 8: 75}
    assert representable == {5: 6, 6: 0, 7: 0, 8: 0}
    for masks in extension_pool(5):
        assert brute_axiom_holds(masks, 5)


class TestIsomorphism:
    def test_relabeling_found(self, cat):
        d3 = cat[2]
        renamed = validate("xyz", ["", "xy", "yz", "xz"])
        iso = are_isomorphic(d3, renamed)
        assert iso is not None
        mapped = {
            frozenset(iso[e] for e in f) for f in d3.feasible_sets()
        }
        assert mapped == set(renamed.feasible_sets())

    def test_different_family_sizes(self, cat):
        assert are_isomorphic(cat[2], cat[3]) is None

    def test_identity_via_empty_twist(self, cat):
        d = cat[1]
        iso = are_isomorphic(d, d.twist([]))
        assert iso == {e: e for e in d.labels}

    def test_different_ground_sizes_give_none(self, cat):
        assert are_isomorphic(cat[0], cat[2]) is None

    def test_symmetry(self, cat):
        d = cat[4]
        renamed = validate("xyz", ["", "x", "xy", "yz", "xz"])
        fwd = are_isomorphic(d, renamed)
        back = are_isomorphic(renamed, d)
        assert fwd is not None and back is not None

    def test_relabeled_copy_is_isomorphic(self, cat):
        renamed = validate("zyx", ["", "zy", "yx", "zx"])
        assert are_isomorphic(renamed, cat[2]) == {"z": "a", "y": "b", "x": "c"}


class TestIsomorphismBudget:
    def test_over_budget_search_refuses_fast(self):
        # 120 feasible sets on 8 elements, no automorphism; the copy lists its
        # labels in reverse, so the one map, the identity, is the last of the
        # 8! permutations: 8! * 120 = 4.8e6, over the budget
        d = sample_with_empty_feasible(8, random.Random(1))
        copy = DeltaMatroid(d.labels[::-1], d.feasible_sets())
        assert len(d.masks) == 120
        start = time.perf_counter()
        with pytest.raises(GroundSetError, match="isomorphism search too large"):
            are_isomorphic(d, copy)
        assert time.perf_counter() - start < 1.0

    def test_budget_boundary(self, cat, monkeypatch):
        # D3: 3! permutations of 4 feasible sets
        renamed = validate("zyx", ["", "zy", "yx", "zx"])
        monkeypatch.setattr(helpers, "MAX_ISO_WORK", 24)
        assert are_isomorphic(renamed, cat[2]) == {"z": "a", "y": "b", "x": "c"}
        monkeypatch.setattr(helpers, "MAX_ISO_WORK", 23)
        with pytest.raises(GroundSetError, match="isomorphism search too large"):
            are_isomorphic(renamed, cat[2])
        # sizes and size profiles are compared before the budget
        assert are_isomorphic(cat[2], cat[3]) is None
        assert are_isomorphic(cat[2], validate("abc", ["", "a", "b", "c"])) is None
