"""The all-twists width kernel and the twist-width formula against
materialized twists and the oracles.

``kernel_twist_widths`` (helpers.py) expands the kernel's Hamming
distance shells, each set of twist sets a 2^n-bit int grown by one
dilation per shell, into one width per twist set; the kernel costs about
n * D * 2^(n+1) / 64 word operations, D <= n the largest distance (about
0.15 s on twisted U(2,20), and 0.03-0.08 ms on the sampled n = 8..10
instances of the benchmark, on a 2-vCPU Xeon VM). Here each value is
compared with ``materialized_widths`` (helpers.py), which measures
``d.twist(A)`` for every A, and the structural formula, and with
``hamming_twist_widths`` (helpers.py), the list-based distance
transform, up to n = 16. The two searches built on the kernel are
compared with ``brute_rough_structure_witnesses`` (helpers.py) and with
the argmin of materialized or oracle widths. The formula reads its three
terms off one pass over the feasible masks; each term is compared on its
own with the width of the restriction it stands for, built by
``d.restrict``, or with ``dmin_connectivity`` (helpers.py), which builds
D_min, and their sum with the materialized twist's width.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import (
    GroundSetError,
    enumerate_all,
    min_width_twist,
    rough_structure_witnesses,
    twist_width_formula,
    validate,
)
from twistwidth.structure import MAX_SEARCH_ELEMENTS, _terms
from helpers import (
    brute_rough_structure_witnesses,
    dmin_connectivity,
    draw_with_empty_feasible,
    every_dm,
    hamming_twist_widths,
    kernel_twist_widths,
    labelled,
    materialized_widths,
    twisted_uniform,
)


def _random_twist(n, seed, chain=False):
    # a GF(2) draw, or at n <= 8 an extension-chain draw when ``chain``
    rng = random.Random(seed)
    d = draw_with_empty_feasible(n, rng, chain)
    return d.twist(rng.randrange(1 << n))


def _check_formula(d):
    widths = materialized_widths(d)
    for a in range(d.full_mask + 1):
        # each term on its own, so that errors cannot cancel in the sum
        inside, outside, connectivity = oracle = (
            d.restrict(a).width(),
            d.restrict(d.full_mask & ~a).width(),
            dmin_connectivity(d, a),
        )
        assert _terms(d, a) == oracle
        assert twist_width_formula(d, a) == inside + outside + 2 * connectivity
        assert twist_width_formula(d, a) == widths[a]


def _check_searches(d):
    widths = materialized_widths(d)
    assert kernel_twist_widths(d) == widths
    best = min(widths)
    assert min_width_twist(d) == (widths.index(best), best)
    assert rough_structure_witnesses(d) == brute_rough_structure_witnesses(d)


def test_kernel_matches_twists_and_formula_exhaustively(dms_by_n):
    for d in every_dm(dms_by_n):
        kernel, widths = kernel_twist_widths(d), materialized_widths(d)
        assert len(kernel) == 1 << d.n
        for a, w in enumerate(kernel):
            assert w == widths[a] == twist_width_formula(d, a)


def test_formula_and_restriction_width_match_oracles_exhaustively(dms_by_n):
    for d in every_dm(dms_by_n):
        _check_formula(d)


def test_min_width_twist_is_first_argmin_exhaustively(dms_by_n):
    for d in every_dm(dms_by_n):
        widths = materialized_widths(d)
        best = min(widths)
        assert min_width_twist(d) == (widths.index(best), best)


def test_rough_structure_witnesses_match_oracle_exhaustively(dms_by_n):
    for d in every_dm(dms_by_n):
        assert rough_structure_witnesses(d) == brute_rough_structure_witnesses(d)


_RANDOM_TWISTS = given(
    st.integers(min_value=5, max_value=10),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
)
# twisted U(rank, n - free) on n elements, width 0 at its matroid twists; a
# free element {∅, {x}} makes the best twists width one, which gives the
# rough-structure search witnesses
_TWISTED_UNIFORM = given(
    st.integers(min_value=5, max_value=10),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@_RANDOM_TWISTS
@settings(max_examples=40, deadline=None, derandomize=True)
def test_searches_agree_on_random_twists(n, seed, chain):
    _check_searches(_random_twist(n, seed, chain))


@_TWISTED_UNIFORM
@settings(max_examples=30, deadline=None, derandomize=True)
def test_searches_agree_on_twisted_uniform_matroids(n, rank, free, seed):
    x = random.Random(seed).randrange(1 << n)
    _check_searches(twisted_uniform(rank, n - free, x, free, check=True))


@_RANDOM_TWISTS
@settings(max_examples=25, deadline=None, derandomize=True)
def test_formula_agrees_on_random_twists(n, seed, chain):
    _check_formula(_random_twist(n, seed, chain))


@_TWISTED_UNIFORM
@settings(max_examples=25, deadline=None, derandomize=True)
def test_formula_agrees_on_twisted_uniform_matroids(n, rank, free, seed):
    x = random.Random(seed).randrange(1 << n)
    _check_formula(twisted_uniform(rank, n - free, x, free, check=True))


@given(
    st.integers(min_value=5, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_terms_agree_on_width_one_sums(n, rank, seed):
    # each set of U(rank, n - 1) with and without the free element, so many
    # feasible sets tie on each term's least score; the draws above reach
    # such sums in only a few examples
    x = random.Random(seed).randrange(1 << n)
    _check_formula(twisted_uniform(rank, n - 1, x, free=True, check=True))


def test_twisted_uniform_matroid_on_16_elements_finds_its_matroid_twist():
    n = 16
    full = (1 << n) - 1
    a = random.Random(16).randrange(1 << n)
    d = twisted_uniform(3, n, a, check=True)
    got, w = min_width_twist(d)
    # U(3,16) is connected, so only A and its complement (the dual) untwist it
    assert (got, w) == (min(a, full ^ a), 0)
    assert d.twist(got).width() == 0


@pytest.mark.parametrize("search", [min_width_twist, rough_structure_witnesses])
def test_searches_fail_fast_above_cap(search):
    d = validate([f"x{i}" for i in range(MAX_SEARCH_ELEMENTS + 1)], [[]])
    start = time.perf_counter()
    with pytest.raises(GroundSetError):
        search(d)
    assert time.perf_counter() - start < 1.0


def _check_against_oracle(d):
    widths = hamming_twist_widths(d)
    assert kernel_twist_widths(d) == widths
    best = min(widths)
    assert min_width_twist(d) == (widths.index(best), best)
    assert rough_structure_witnesses(d) == [
        a
        for a, w in enumerate(widths)
        if w == 1 and _terms(d, a)[0] == 0
    ]


@given(
    st.integers(min_value=11, max_value=16),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=12, deadline=None, derandomize=True)
def test_kernel_matches_list_oracle_on_large_twisted_uniform(
    n, rank, free, seed
):
    x = random.Random(seed).randrange(1 << n)
    _check_against_oracle(twisted_uniform(rank, n - free, x, free, check=True))


@given(
    st.integers(min_value=11, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_kernel_matches_list_oracle_on_large_random_twists(n, seed):
    _check_against_oracle(_random_twist(n, seed))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_bitsets_shorter_than_a_byte(n):
    # 1, 2 and 4 twist sets: every family, width-one classes included
    families = [[[]]] if n == 0 else [d.masks for d in enumerate_all(n)]
    for masks in families:
        d = labelled(masks, n, check=True)
        _check_searches(d)
        _check_against_oracle(d)
        _check_formula(d)


def test_twisted_uniform_matroid_on_20_elements_untwists():
    n, a = 20, 0b1011011
    full = (1 << n) - 1
    d = twisted_uniform(2, n, a, check=True)
    assert min_width_twist(d) == (min(a, full ^ a), 0)


def test_width_one_sum_on_20_elements():
    # U(2,19) plus a free element {∅, {x}}: no matroid twist, width-one
    # twists that split off the free element
    d = twisted_uniform(2, 19, random.Random(20).randrange(1 << 20), free=True, check=True)
    assert min_width_twist(d)[1] == 1
    witnesses = rough_structure_witnesses(d)
    assert witnesses
    for a in witnesses:
        assert twist_width_formula(d, a) == 1
        assert _terms(d, a)[0] == 0
