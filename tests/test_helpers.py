"""The random-instance sources of helpers.py, checked on their own: the
GF(2) sampler, its reach as counted by the representability oracle, and
the extension-chain pools."""

import random

from twistwidth import DeltaMatroid, enumerate_all
from helpers import (
    CHAIN_MAX_ELEMENTS,
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
