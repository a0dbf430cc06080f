"""The index and label map of every minor witness, against a fresh match.

``certify``, ``is_obstructed`` and ``matroid_twist_obstructions`` return a
minor witness whose target index and label map ``rematch`` (helpers.py)
finds again from its delete and contract sets alone, with
``are_isomorphic`` over the route's own target list: the first target
that matches, and the first map in lexicographic order of permutations.
"""

import hashlib
import importlib
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from twistwidth import (
    CertificationError,
    MinorWitness,
    Obstruction,
    TwistWitness,
    are_isomorphic,
    catalog,
    certify,
    is_obstructed,
    matroid_twist_obstructions,
    validate,
)
from helpers import (d5_dedup, draw_with_empty_feasible, matroid_twist_targets, rematch,
                     twist_off_empty)

certify_module = importlib.import_module("twistwidth.certify")
minors_module = importlib.import_module("twistwidth.minors")

# aut.dm of the CLI golden table: the empty set is infeasible, and the witness
# lifted back from the twist by {e1} lands on a target with automorphisms
AUT_HOST = validate(["e1", "e2", "e3", "e4"],
                    [["e1"], ["e2"], ["e1", "e2"], ["e3"], ["e1", "e2", "e3"]])


def _fields(obs):
    return obs.delete_set, obs.contract_set, obs.target_index, obs.iso


def _check_certify(d):
    cert = certify(d)
    if isinstance(cert, TwistWitness):
        return cert
    obs = cert.obstruction
    # with the empty set infeasible the target is a twist of the catalog member
    base = catalog()[obs.target_index]
    assert obs.target in {base.twist(a) for a in range(base.full_mask + 1)}
    assert _fields(obs) == rematch(d, obs, [(obs.target_index, obs.target)]), d
    return cert


def _check_is_obstructed(d):
    obs = is_obstructed(d)
    if obs is not None:
        assert obs.target == d5_dedup()[obs.target_index]
        assert _fields(obs) == rematch(d, obs, enumerate(d5_dedup())), d
    return obs


def _check_matroid_twist(d):
    obs = matroid_twist_obstructions(d)
    if obs is not None:
        targets = matroid_twist_targets()
        assert obs.target == targets[obs.target_index]
        assert _fields(obs) == rematch(d, obs, enumerate(targets)), d
    return obs


def test_every_small_instance_matches_the_oracle(dms_by_n):
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            _check_certify(d)
            _check_is_obstructed(d)
            _check_matroid_twist(d)


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_sampled_instances_twisted_off_the_empty_set(n, seed, chain):
    rng = random.Random(seed)
    d = twist_off_empty(draw_with_empty_feasible(n, rng, chain), rng)
    assume(d is not None)
    cert = _check_certify(d)
    obs = _check_is_obstructed(d)
    assert (obs is None) == isinstance(cert, TwistWitness)
    _check_matroid_twist(d)


def _record(obs):
    if obs is None:
        return None
    return (sorted(obs.delete_set), sorted(obs.contract_set), obs.target_index,
            sorted(obs.iso.items()))


def test_obstruction_and_lifted_certificate_digest(dms_by_n):
    # every is_obstructed record, and every certify record on input with the
    # empty set infeasible, as they were before the witnesses carried maps
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            digest.update(repr(_record(is_obstructed(d))).encode())
            if d.masks[0]:
                cert = certify(d)
                if isinstance(cert, MinorWitness):
                    digest.update(repr(_record(cert.obstruction)).encode())
                else:
                    digest.update(repr((sorted(cert.twist_set), cert.width)).encode())
    assert digest.hexdigest() == (
        "a6a0bd8ed1adf4c8832dbda1a4d08ef33dbbcc1cfdae3cbc9623157517e70ec8"
    )


# -- each entry point matches its witness once and verifies it once


@pytest.mark.parametrize("host", [AUT_HOST, catalog()[2].twist("a")], ids=["aut", "triangle-a"])
def test_each_entry_point_verifies_once(host, monkeypatch):
    assert host.masks[0] != 0
    calls = []
    original = Obstruction.verify

    def counted(self, d):
        calls.append(d)
        return original(self, d)

    monkeypatch.setattr(Obstruction, "verify", counted)
    for route in (certify, is_obstructed, matroid_twist_obstructions):
        calls.clear()
        assert route(host) is not None
        assert calls == [host], route.__name__


def test_no_isomorphism_is_searched_once_the_tables_exist(dms_by_n, monkeypatch):
    # _minor_witness reads its map off _catalog_maps; the lift, the
    # composition and both routes look theirs up in _twist_tables
    minors_module._twist_tables()
    minors_module._catalog_maps()
    targets = []
    original = minors_module.are_isomorphic

    def recording(d1, d2):
        targets.append(d2)
        return original(d1, d2)

    monkeypatch.setattr(minors_module, "are_isomorphic", recording)
    assert not hasattr(certify_module, "are_isomorphic")
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            certify(d)
            is_obstructed(d)
            matroid_twist_obstructions(d)
    assert targets == []


# -- the certificate's catalog maps, against are_isomorphic


def test_catalog_maps_agree_with_are_isomorphic(dms_by_n):
    # a family hits member j's table exactly when are_isomorphic maps it onto
    # the member, with the images of that same map; the tables hold no more
    tables = minors_module._catalog_maps()
    for j, h in enumerate(catalog()):
        hits = 0
        for d in dms_by_n[h.n]:
            iso = are_isomorphic(d, h)
            images = tables[j].get(d.masks)
            assert images == (None if iso is None else tuple(iso[e] for e in d.labels)), (j, d)
            hits += images is not None
        assert hits == len(tables[j])


def test_wrong_permutation_in_the_catalog_maps_raises(monkeypatch):
    # entry 4 has a distinguished element: swapping a and b moves {a} onto {b}
    h = catalog()[4]
    table = minors_module._catalog_maps()[4]
    assert table[h.masks] == ("a", "b", "c")
    monkeypatch.setitem(table, h.masks, ("b", "a", "c"))
    with pytest.raises(CertificationError, match="fails to verify"):
        certify(h)


def test_empty_catalog_maps_raise(monkeypatch):
    monkeypatch.setattr(certify_module, "_catalog_maps", lambda: ({},) * len(catalog()))
    for j, h in enumerate(catalog()):
        with pytest.raises(CertificationError, match=rf"matched none of \[{j}\]"):
            certify(h)


def test_wrong_map_in_the_table_raises(monkeypatch):
    table = minors_module._twist_tables()[1]
    key = certify(AUT_HOST).obstruction.target
    index, h, maps = table[key]
    # a transposition of the target's labels that moves a feasible set off it
    swaps = ({a: b, b: a} for i, a in enumerate(h.labels) for b in h.labels[i + 1:])
    swap = next(p for p in swaps if validate(h.labels, [
        [p.get(e, e) for e in f] for f in h.feasible_sets()]) != h)
    wrong = [{t: swap.get(m[t], m[t]) for t in m} for m in maps]
    monkeypatch.setitem(table, key, (index, h, wrong))
    with pytest.raises(CertificationError, match="fails to verify"):
        is_obstructed(AUT_HOST)
