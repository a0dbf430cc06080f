"""is_obstructed through the certificate, on draws past four elements.

The library carries the minor witness of ``certify``, which twists by the
smallest feasible set, certifies that twist, and lifts the witness back,
onto a D5 member; ``check_d5_witness`` (helpers.py) re-verifies it. On
every instance with n <= 4 it is also checked against
``brute_is_obstructed`` (helpers.py), which searches every
delete/contract minor for a deduplicated D5 member: that is acceptance
criterion 4 in ``test_acceptance.py``. Here the verdict is checked against
the brute-force twist width on random twists at n = 5..8.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import CertificationError, Obstruction, d5_family, is_obstructed
from helpers import (brute_min_twist_width, check_d5_witness, draw_with_empty_feasible, fresh,
                     record_calls, twisted_uniform)


def test_every_d5_member_is_its_own_witness():
    members = d5_family()
    assert len(members) == 36
    for m in members:
        obs = is_obstructed(m)
        assert obs is not None, m
        assert obs.delete_set == obs.contract_set == frozenset()
        check_d5_witness(m, obs)


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
        check_d5_witness(d, obs)


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
    monkeypatch.setattr(Obstruction, "_matches", lambda self, host, minor_of: False)
    with pytest.raises(CertificationError):
        is_obstructed(cat[1])


def test_lifted_witness_is_rechecked_on_the_host(monkeypatch, cat):
    # the empty set is infeasible here, so certify runs on a different twist
    host = cat[2].twist("a")
    assert 0 not in host.masks
    calls = record_calls(monkeypatch, Obstruction, "_matches")
    assert is_obstructed(fresh(host)) is not None
    assert [args[1] for args in calls] == [host]
    original = Obstruction._matches
    monkeypatch.setattr(Obstruction, "_matches",
                        lambda self, d, minor_of: d != host and original(self, d, minor_of))
    with pytest.raises(CertificationError):
        is_obstructed(host)
