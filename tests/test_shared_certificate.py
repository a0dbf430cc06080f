"""One certificate per instance: ``certify``, ``is_obstructed``, the even
branch of ``matroid_twist_obstructions`` and the odd branch of
``rough_structure_witnesses`` read ``certify._certificate(d)``, which the
first of them to run on a ``DeltaMatroid`` keeps in its ``_cert`` slot.
The later routes give the records fresh copies give, each built and
verified in its own call; equality, hashing, ``repr``, pickling and copying
ignore the slot, and a representation without it runs the procedure on
every call.
"""

import copy
import importlib
import pickle
import random

import pytest

from twistwidth import (CertificationError, Obstruction, catalog, certify,
                        is_obstructed, matroid_twist_obstructions, rough_structure_witnesses,
                        validate)
from helpers import (FamilyReads, TwistedUniform, every_dm, fresh, odd_cycle_instance,
                     record_calls, twisted_uniform)

certify_module = importlib.import_module("twistwidth.certify")

ROUTES = (certify, is_obstructed, matroid_twist_obstructions)
# rough_structure_witnesses reads the family, so it takes no representation
FOUR_ROUTES = (*ROUTES, rough_structure_witnesses)


def _count_procedure(monkeypatch):
    """The list that each ``_certify_impl`` call appends to."""
    return record_calls(monkeypatch, certify_module, "_certify_impl")


def _memo(d):
    """The certificate kept on ``d``; None while its slot is unset."""
    return getattr(d, "_cert", None)


def _even_hosts():
    # obstructed: the odd triangle twisted off the empty set and a 5-cycle;
    # unobstructed: U(2, 5) twisted by a basis, whose labels no assertion
    # reads: the records compared are of copies of one host
    return [catalog()[2].twist("a"), odd_cycle_instance(5, 0, 0, 0),
            twisted_uniform(2, 5, 0b00011)]


@pytest.mark.parametrize("host", _even_hosts(), ids=["triangle-a", "five-cycle", "u25"])
def test_three_routes_run_the_procedure_once(host, monkeypatch):
    assert host._odd_pair() is None
    calls = _count_procedure(monkeypatch)
    d = fresh(host)
    records = [route(d) for route in ROUTES]
    assert len(calls) == 1
    calls.clear()
    assert [route(fresh(host)) for route in ROUTES] == records
    assert len(calls) == 3


def test_the_odd_branch_runs_no_procedure(monkeypatch):
    d = fresh(catalog()[0])
    assert d._odd_pair() is not None
    calls = _count_procedure(monkeypatch)
    assert matroid_twist_obstructions(d) is not None and calls == [] and _memo(d) is None
    assert is_obstructed(d) is not None and certify(d) is not None and len(calls) == 1


def test_routes_in_any_order_match_fresh_copies(dms_by_n, monkeypatch):
    # by induction on the slot's two states, every order of the routes runs
    # the procedure once and gives the fresh copies' records: from either
    # state each route gives that record, and only one on an unset slot runs
    # the procedure, once, to fill the slot with the certificate
    calls = _count_procedure(monkeypatch)
    for d in every_dm(dms_by_n):
        memo = certify_module._certificate(fresh(d))
        fills = 0
        for route in FOUR_ROUTES:
            expected = route(fresh(d))
            unset, filled = fresh(d), fresh(d)
            kept = certify_module._certificate(filled)
            calls.clear()
            assert route(unset) == expected
            assert (len(calls), _memo(unset)) in ((0, None), (1, memo))
            fills += len(calls)
            calls.clear()
            assert route(filled) == expected
            assert calls == [] and _memo(filled) is kept
        assert fills, d


def test_the_memo_is_unset_until_a_route_fills_it():
    d = validate("abc", ["", "ab", "bc", "ac"])
    assert not hasattr(d, "_cert") and _memo(d) is None
    assert _memo(d.twist(0)) is _memo(d.minor()) is None
    certify(d)
    assert _memo(d) == (0, 0, 2)


def test_equality_hash_and_repr_ignore_the_memo(cat):
    for member in cat:
        d, other = fresh(member), fresh(member)
        certify(d)
        assert _memo(d) is not None and _memo(other) is None
        assert d == other and hash(d) == hash(other) and repr(d) == repr(other)


def test_pickle_and_copy_drop_the_memo(cat):
    d = fresh(cat[4])
    cert = certify(d)
    for clone in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert clone == d and clone is not d and _memo(clone) is None
        assert certify(clone) == cert and _memo(clone) == _memo(d)


def test_the_memo_cannot_be_written_from_outside():
    d = validate("ab", ["", "a"])
    with pytest.raises(AttributeError, match="DeltaMatroid instances are immutable"):
        d._cert = (0, 0, 0)
    certify(d)
    kept = _memo(d)
    with pytest.raises(AttributeError, match="DeltaMatroid instances are immutable"):
        d._cert = None
    with pytest.raises(AttributeError, match="DeltaMatroid instances are immutable"):
        del d._cert
    assert _memo(d) is kept


@pytest.mark.parametrize("route", ROUTES, ids=[r.__name__ for r in ROUTES])
def test_mutating_a_returned_iso_leaves_the_next_record_unchanged(route, cat):
    d = fresh(cat[2].twist("a"))
    first = route(d)
    obs = first.obstruction if route is certify else first
    expected = copy.deepcopy(first)
    obs.iso.clear()
    obs.iso["stray"] = "label"
    again = route(d)
    assert again == expected and again != first
    assert (again.obstruction if route is certify else again).iso is not obs.iso


def test_every_call_verifies_its_witness_on_the_host(cat, monkeypatch):
    d = fresh(cat[2].twist("a"))
    for route in ROUTES:
        route(d)
    assert _memo(d) is not None
    checked = record_calls(monkeypatch, Obstruction, "_matches")
    for route in ROUTES:
        checked.clear()
        assert route(d) is not None
        assert len(checked) == 1 and checked[0][1] is d, route.__name__
    monkeypatch.setattr(Obstruction, "_matches", lambda self, host, minor_of: False)
    for route in ROUTES:
        with pytest.raises(CertificationError, match="fails to verify"):
            route(d)


def test_a_twist_witness_failing_its_recheck_is_not_kept(monkeypatch):
    # the unlifted twist set of U(1, 2) twists it to width 2
    monkeypatch.setattr(certify_module, "_lift", lambda f, cert: cert)
    calls = _count_procedure(monkeypatch)
    d = validate("ab", ["a", "b"])
    for _ in range(2):
        with pytest.raises(CertificationError, match="twist witness claims"):
            certify(d)
        assert _memo(d) is None
    assert len(calls) == 2


def test_representations_without_the_slot_run_the_procedure_every_call(cat, monkeypatch):
    calls = _count_procedure(monkeypatch)
    for d in (FamilyReads(cat[2]), TwistedUniform(2, 5, random.Random(5).getrandbits(5))):
        calls.clear()
        records = [route(d) for route in ROUTES]
        assert len(calls) == 3
        assert not hasattr(d, "_cert")
        assert [route(d) for route in ROUTES] == records
