"""matroid_twist_obstructions: the singleton for odd inputs, the certificate
for even ones.

It returns None exactly when some twist is a matroid, which the
brute-force ``brute_min_twist_width`` (helpers.py) decides independently,
and it agrees with ``brute_matroid_twist_obstructions``, the scan over
every delete/contract pair; its witness must re-verify against the host.
"""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import CertificationError, Obstruction, matroid_twist_obstructions, validate
from twistwidth.minors import _MATROID_TWIST_ROUTE, _target_table
from helpers import (brute_matroid_twist_obstructions, brute_min_twist_width,
                     draw_with_empty_feasible, twisted_uniform, uniform_masks)


def _check(d):
    obs = matroid_twist_obstructions(d)
    assert (obs is None) == (brute_min_twist_width(d) == 0)
    assert (obs is None) == (brute_matroid_twist_obstructions(d) is None)
    if obs is not None:
        assert obs.verify(d)
        assert obs.target_index in (0, 1, 2)
    return obs


def _singleton_sets(d):
    """The first feasible F (mask order) with some F + e feasible, and the
    lowest such e, as (delete E - F - e, contract F) label sets."""
    for f in d.masks:
        for i in range(d.n):
            if not f >> i & 1 and d.is_feasible(f | 1 << i):
                return d.set_of(d.full_mask ^ f ^ 1 << i), d.set_of(f)
    return None


def test_agrees_with_scan_on_all_small_instances(dms_by_n):
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            obs = _check(d)
            if d.is_even():
                assert obs is None or obs.target_index in (1, 2), d
            else:
                assert obs.target_index == 0, d
                assert (obs.delete_set, obs.contract_set) == _singleton_sets(d)


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_agrees_with_twist_width_on_random_twists(n, seed, chain):
    rng = random.Random(seed)
    d = draw_with_empty_feasible(n, rng, chain)
    _check(d.twist(rng.randrange(1 << n)))


@given(
    st.integers(min_value=5, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_agrees_with_twist_width_on_twisted_uniform_matroids(n, rank, free, seed):
    # random samples rarely have a matroid twist; these always do, unless a
    # free element {∅, {x}} is added, which leaves width one at best
    x = random.Random(seed).randrange(1 << n + free)
    obs = _check(twisted_uniform(rank, n, x, free, check=True))
    assert (obs is None) != free


def test_twisted_uniform_matroid_past_eight_elements():
    assert _check(twisted_uniform(3, 9, 0b100101101, check=True)) is None


def test_free_element_past_eight_elements_hits_the_singleton():
    # U(3,8) plus a free element {∅, {x}}, twisted: width one, never zero
    d = twisted_uniform(3, 8, uniform_masks(3, 8)[17], free=True, check=True)
    obs = _check(d)
    assert obs is not None and obs.target_index == 0


def test_empty_ground_set():
    assert matroid_twist_obstructions(validate([], [[]])) is None


@pytest.mark.parametrize(
    "n, free, expected",
    [(24, False, None), (63, False, None), (23, True, 0), (62, True, 0)],
)
def test_large_twisted_uniform_matroids(n, free, expected):
    # U(2,n) twisted has a matroid twist; with a free element it is odd.
    # Built unchecked: the axiom check alone would take minutes at n = 63.
    d = twisted_uniform(2, n, random.Random(n + free).randrange(1 << n + free), free)
    start = time.perf_counter()
    obs = matroid_twist_obstructions(d)
    assert time.perf_counter() - start < 1.0
    if expected is None:
        assert obs is None
    else:
        assert obs.target_index == expected and obs.verify(d)


@pytest.mark.parametrize("index", [0, 2])
def test_failed_verification_raises(monkeypatch, cat, index):
    # cat[0] is odd (singleton route), cat[2] even (certificate route)
    monkeypatch.setattr(Obstruction, "verify", lambda self, host: False)
    with pytest.raises(CertificationError):
        matroid_twist_obstructions(cat[index])


def test_rematched_witness_is_rechecked(monkeypatch, cat):
    # only a witness onto the twisted triangle fails, and the route's witness
    # for this host is one
    host = cat[2].twist("a")
    twisted = _target_table()[0][dict(_MATROID_TWIST_ROUTE)[2]]
    original = Obstruction.verify
    monkeypatch.setattr(
        Obstruction,
        "verify",
        lambda self, d: self.target is not twisted and original(self, d),
    )
    with pytest.raises(CertificationError):
        matroid_twist_obstructions(host)
