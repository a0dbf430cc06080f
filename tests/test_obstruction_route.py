"""is_obstructed through the certificate, checked against the D5 scan.

``brute_is_obstructed`` (helpers.py) searches every delete/contract minor
for a deduplicated D5 member; the library instead carries the minor
witness of ``certify``, which twists by the smallest feasible set,
certifies that twist, and lifts the witness back, onto a D5 member.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import CertificationError, Obstruction, d5_family, is_obstructed
from helpers import (brute_is_obstructed, brute_min_twist_width, d5_dedup,
                     draw_with_empty_feasible, twisted_uniform)


def _check_witness(d, obs):
    assert obs.verify(d)
    assert obs.target == d5_dedup()[obs.target_index]


def test_agrees_with_scan_on_all_small_instances(dms_by_n):
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            obs = is_obstructed(d)
            assert (obs is None) == (brute_is_obstructed(d) is None), d
            if obs is not None:
                _check_witness(d, obs)


def test_every_d5_member_is_its_own_witness():
    members = d5_family()
    assert len(members) == 36
    for m in members:
        obs = is_obstructed(m)
        assert obs is not None, m
        assert obs.delete_set == obs.contract_set == frozenset()
        _check_witness(m, obs)


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_agrees_with_twist_width_on_random_twists(n, seed, chain):
    rng = random.Random(seed)
    d = draw_with_empty_feasible(n, rng, chain)
    d = d.twist(rng.randrange(1 << n))
    obs = is_obstructed(d)
    assert (obs is None) == (brute_min_twist_width(d) <= 1)
    if obs is not None:
        _check_witness(d, obs)


@given(
    st.integers(min_value=5, max_value=8),
    st.integers(min_value=1, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_unobstructed_random_twists(n, rank, with_free_element, seed):
    # twisted uniform matroids, optionally plus a free element {∅, {x}}:
    # twist width at most one, mostly with the empty set infeasible
    x = random.Random(seed).randrange(1 << n + with_free_element)
    d = twisted_uniform(rank, n, x, with_free_element, check=True)
    assert brute_min_twist_width(d) <= 1
    assert is_obstructed(d) is None


def test_uniform_matroid_beyond_isomorphism_limit():
    assert is_obstructed(twisted_uniform(2, 12, check=True)) is None


def test_failed_verification_raises(monkeypatch, cat):
    monkeypatch.setattr(Obstruction, "verify", lambda self, host: False)
    with pytest.raises(CertificationError):
        is_obstructed(cat[1])


def test_lifted_witness_is_rechecked_on_the_host(monkeypatch, cat):
    # the empty set is infeasible here, so certify runs on a different twist
    host = cat[2].twist("a")
    assert 0 not in host.masks
    original = Obstruction.verify
    monkeypatch.setattr(
        Obstruction, "verify", lambda self, d: d != host and original(self, d)
    )
    with pytest.raises(CertificationError):
        is_obstructed(host)
