"""One certificate per instance: ``certify``, ``is_obstructed``, the even
branch of ``matroid_twist_obstructions`` and the odd branch of
``rough_structure_witnesses`` read ``certify._certificate(d)``, which the
first of them to run on a ``DeltaMatroid`` keeps in its ``_cert`` slot.
The later routes give the records fresh copies give, each built and
verified in its own call: every route checks its record once, on the host
it was given, and raises when the check fails, whether it runs the
procedure or reads the slot. Equality, hashing, ``repr``, pickling and
copying ignore the slot, and a representation without it runs the
procedure on every call.
"""

import copy
import importlib
import pickle
import random

import pytest

from twistwidth import (CertificationError, Obstruction, catalog, certify,
                        matroid_twist_obstructions, rough_structure_witnesses, validate)
from helpers import (AUT_HOST, ROUTES, FamilyReads, TwistedUniform, every_dm, fresh,
                     obstruction_of, odd_cycle_instance, record_calls, twisted_uniform)

certify_module = importlib.import_module("twistwidth.certify")
minors_module = importlib.import_module("twistwidth.minors")

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


def test_routes_in_any_order_match_fresh_copies(dms_by_n, monkeypatch):
    # by induction on the slot's two states, every order of the routes runs
    # the procedure once and gives the fresh copies' records: from either
    # state each route gives that record, and on an unset slot each route
    # runs the procedure once to fill the slot with the certificate, but for
    # the odd branch of matroid_twist_obstructions and the even one of
    # rough_structure_witnesses, which run none and leave the slot unset
    calls = _count_procedure(monkeypatch)
    for d in [*every_dm(dms_by_n), *_even_hosts()]:
        memo = certify_module._certificate(fresh(d))
        odd = d._odd_pair() is not None
        skips = {matroid_twist_obstructions: odd, rough_structure_witnesses: not odd}
        for route in FOUR_ROUTES:
            expected = route(fresh(d))
            unset, filled = fresh(d), fresh(d)
            kept = certify_module._certificate(filled)
            calls.clear()
            assert route(unset) == expected
            assert (len(calls), _memo(unset)) == ((0, None) if skips.get(route) else (1, memo))
            calls.clear()
            assert route(filled) == expected
            assert calls == [] and _memo(filled) is kept


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
    obs = obstruction_of(first)
    expected = copy.deepcopy(first)
    obs.iso.clear()
    obs.iso["stray"] = "label"
    again = route(d)
    assert again == expected and again != first
    assert obstruction_of(again).iso is not obs.iso


# the odd branch of matroid_twist_obstructions on the four-point member, a
# member as it is, the odd triangle twisted off the empty set, and a host
# whose witness, lifted back from its twist, lands on a target with
# automorphisms
VERIFIED_HOSTS = {"four-point": catalog()[0], "member-1": catalog()[1],
                  "triangle-a": catalog()[2].twist("a"), "aut": AUT_HOST}


@pytest.mark.parametrize("kept", [False, True], ids=["cold", "kept"])
@pytest.mark.parametrize("host", VERIFIED_HOSTS.values(), ids=VERIFIED_HOSTS)
def test_every_call_verifies_its_witness_on_the_host(host, kept, monkeypatch):
    # each route checks its record once, on the very host it was given, with
    # the target table's own target, and raises when that check fails: cold,
    # each call on a copy of its own, and kept, every call on one copy whose
    # slot the routes have filled
    filled = fresh(host)
    for route in ROUTES:
        route(filled)
    assert _memo(filled) is not None

    def copy_of_host():
        return filled if kept else fresh(host)

    targets = minors_module._target_table()[0]
    checked = record_calls(monkeypatch, Obstruction, "_matches")
    for route in ROUTES:
        d = copy_of_host()
        checked.clear()
        obs = obstruction_of(route(d))
        assert len(checked) == 1 and checked[0][1] is d, route.__name__
        assert any(obs.target is t for t in targets), route.__name__
    monkeypatch.setattr(Obstruction, "_matches", lambda self, host, minor_of: False)
    for route in ROUTES:
        with pytest.raises(CertificationError, match="fails to verify"):
            route(copy_of_host())


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
