"""The one-pass minor rule, checked against single-element steps.

``sequential_minor`` (helpers.py) deletes and contracts one element at a
time on bare masks; the library keeps, in one pass, F - (X | Y) for the
feasible F minimizing |F & X| - |F & Y|. ``delete``, ``contract`` and
``restrict`` are all that one rule, so each is compared with the oracle.
"""

import random

from hypothesis import given, settings, strategies as st

from twistwidth import sample_with_empty_feasible
from helpers import all_minor_pairs, sequential_minor


def _agrees(got, d, x, y):
    assert (got.labels, got.masks) == sequential_minor(d.labels, d.masks, x, y)


def _check_operations(d, pairs, restrict_to):
    for x, y in pairs:
        _agrees(d.minor(x, y), d, x, y)
    for p, e in enumerate(d.labels):
        _agrees(d.delete(e), d, 1 << p, 0)
        _agrees(d.contract(e), d, 0, 1 << p)
    for a in restrict_to:
        _agrees(d.restrict(a), d, d.full_mask & ~a, 0)


def test_every_minor_up_to_three_elements(dms_by_n):
    for n in (1, 2, 3):
        for d in dms_by_n[n]:
            _check_operations(d, all_minor_pairs(n), range(1 << n))


def test_every_minor_of_sampled_four_element_instances(dms_by_n):
    for d in random.Random(3).sample(dms_by_n[4], 800):
        _check_operations(d, all_minor_pairs(4), range(16))


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_minors_of_larger_instances(n, seed):
    rng = random.Random(seed)
    d = sample_with_empty_feasible(n, rng)
    d = d.twist(rng.randrange(1 << n))
    xs = [rng.randrange(1 << n) for _ in range(12)]
    pairs = [(x, rng.randrange(1 << n) & ~x) for x in xs]
    _check_operations(d, pairs, [rng.randrange(1 << n) for _ in range(4)])
