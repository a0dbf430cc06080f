"""matroid_twist_obstructions: width-zero check first, then the minor scan.

It returns None exactly when some twist is a matroid, which the
brute-force ``brute_min_twist_width`` (helpers.py) decides independently;
otherwise its witness must re-verify against the host.
"""

import random
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import (
    GroundSetError,
    matroid_twist_obstructions,
    sample_with_empty_feasible,
    validate,
)
from helpers import brute_min_twist_width


def _uniform(rank, n):
    return [sum(1 << i for i in c) for c in combinations(range(n), rank)]


def _check(d):
    obs = matroid_twist_obstructions(d)
    assert (obs is None) == (brute_min_twist_width(d) == 0)
    if obs is not None:
        assert obs.verify(d)
        assert obs.target_index in (0, 1, 2)
    return obs


@given(st.integers(min_value=5, max_value=7), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_agrees_with_twist_width_on_random_twists(n, seed):
    rng = random.Random(seed)
    d = sample_with_empty_feasible(n, rng)
    _check(d.twist(rng.randrange(1 << n)))


@given(
    st.integers(min_value=5, max_value=7),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_agrees_with_twist_width_on_twisted_uniform_matroids(n, rank, free, seed):
    # random samples rarely have a matroid twist; these always do, unless a
    # free element {∅, {x}} is added, which leaves width one at best
    masks = _uniform(rank, n)
    if free:
        masks += [m | 1 << n for m in masks]
        n += 1
    d = validate([f"e{i}" for i in range(n)], masks)
    obs = _check(d.twist(random.Random(seed).randrange(1 << n)))
    assert (obs is None) != free


def test_twisted_uniform_matroid_past_eight_elements():
    labels = [f"e{i}" for i in range(9)]
    d = validate(labels, _uniform(3, 9)).twist(0b100101101)
    assert _check(d) is None


def test_free_element_past_eight_elements_hits_the_singleton():
    # U(3,8) plus a free element {∅, {x}}, twisted: width one, never zero
    masks = _uniform(3, 8)
    masks += [m | 1 << 8 for m in masks]
    d = validate([f"e{i}" for i in range(9)], masks).twist(masks[17])
    obs = _check(d)
    assert obs is not None and obs.target_index == 0


def test_oversized_input_fails_fast():
    d = validate([f"e{i}" for i in range(25)], [[]])
    start = time.perf_counter()
    with pytest.raises(GroundSetError):
        matroid_twist_obstructions(d)
    assert time.perf_counter() - start < 1.0
