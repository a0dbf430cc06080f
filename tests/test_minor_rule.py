"""The one-pass minor rule, checked against single-element steps.

``sequential_minor`` (helpers.py) deletes and contracts one element at a
time on bare masks; the library keeps, in one pass, F - (X | Y) for the
feasible F minimizing |F & X| - |F & Y|. ``delete``, ``contract`` and
``restrict`` are all that one rule, so each is compared with the oracle.
When k elements are kept and 2^k < |F|, ``minor`` first looks up the 2^k
score-0 candidates Y | S by bisection and scans all of F only when none is
feasible; both branches are compared with the oracle too.
"""

import importlib
import random
from bisect import bisect_left
from unittest import mock

from hypothesis import given, settings, strategies as st

from helpers import all_minor_pairs, draw_with_empty_feasible, sequential_minor, twisted_uniform

# the package re-exports names from ``core``; the module is patched here
core_module = importlib.import_module("twistwidth.core")


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


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_random_minors_of_larger_instances(n, seed, chain):
    rng = random.Random(seed)
    d = draw_with_empty_feasible(n, rng, chain)
    d = d.twist(rng.randrange(1 << n))
    xs = [rng.randrange(1 << n) for _ in range(12)]
    pairs = [(x, rng.randrange(1 << n) & ~x) for x in xs]
    _check_operations(d, pairs, [rng.randrange(1 << n) for _ in range(4)])


# -- the score-0 probe and its fallback scan


def _minor_probing(d, x, y):
    """d.minor(x, y) checked against the oracle, and whether each bisection
    lookup it made found a feasible candidate."""
    hits = []

    def lookup(a, v, *args):
        i = bisect_left(a, v, *args)
        hits.append(i < len(a) and a[i] == v)
        return i

    with mock.patch.object(core_module, "bisect_left", lookup):
        _agrees(d.minor(x, y), d, x, y)
    return hits


def _kept_and_gone(n, k, rng):
    keep = sum(1 << p for p in rng.sample(range(n), k))
    return keep, ((1 << n) - 1) & ~keep


@given(st.integers(min_value=5, max_value=12), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_probe_answers_when_the_contract_set_is_a_feasible_trace(n, k, seed, chain):
    # Y = F & (X | Y) for a feasible F: some candidate Y | S is feasible;
    # extension-chain draws only at n <= 8
    rng = random.Random(seed)
    d = draw_with_empty_feasible(n, rng, chain).twist(rng.randrange(1 << n))
    keep, gone = _kept_and_gone(n, k, rng)
    y = rng.choice(d.masks) & gone
    hits = _minor_probing(d, gone & ~y, y)
    probed = 1 << k < len(d.masks)
    assert len(hits) == (1 << k if probed else 0) and any(hits) == probed


@given(st.integers(min_value=5, max_value=12), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scan_answers_when_the_contract_set_lies_in_no_feasible_set(n, k, rank, seed):
    # U(rank, n) twisted outside X | Y: every feasible F meets X | Y in at
    # most ``rank`` elements, so a larger Y lies in none and no Y | S is
    # feasible
    rng = random.Random(seed)
    k = min(k, n - rank - 1)
    keep, gone = _kept_and_gone(n, k, rng)
    d = twisted_uniform(rank, n, rng.randrange(1 << n) & keep, check=True)
    y = sum(1 << p for p in rng.sample([p for p in range(n) if gone >> p & 1],
                                       rng.randint(rank + 1, n - k)))
    assert all(y & ~m for m in d.masks)
    hits = _minor_probing(d, gone & ~y, y)
    assert hits == [False] * (1 << k if 1 << k < len(d.masks) else 0)


def test_twisted_u2_20_restricted_to_three_and_to_seven_elements():
    # the twist {e0 e1 e3 e4 e6} lies inside e0..e6 but not inside e0..e2,
    # so restricting to e0..e6 probes and restricting to e0..e2 scans
    d = twisted_uniform(2, 20, 0b1011011, check=True)
    seven = _minor_probing(d, d.full_mask & ~0b1111111, 0)
    assert len(seven) == 128 and any(seven)
    three = _minor_probing(d, d.full_mask & ~0b111, 0)
    assert three == [False] * 8
