"""The index and label map of every minor witness, against a fresh match.

``certify``, ``is_obstructed`` and ``matroid_twist_obstructions`` return a
minor witness whose target index and label map ``rematch`` (helpers.py)
finds again from its delete and contract sets alone, with the brute-force
``are_isomorphic`` (helpers.py) over the route's own target list: the
first target that matches, and the first map in lexicographic order of
permutations.
"""

import ast
import builtins
import copy
import graphlib
import hashlib
import importlib
import os
import pathlib
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

import twistwidth
from twistwidth import (
    CertificationError,
    MinorWitness,
    Obstruction,
    TwistWitness,
    catalog,
    certify,
    d5_family,
    is_obstructed,
    matroid_twist_obstructions,
    validate,
)
from twistwidth.core import _minor_masks
from helpers import (are_isomorphic, d5_dedup, draw_with_empty_feasible, fresh,
                     matroid_twist_targets, odd_cycle_instance, record_calls, rematch,
                     twist_off_empty)

certify_module = importlib.import_module("twistwidth.certify")
core_module = importlib.import_module("twistwidth.core")
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


def _check_first_twist(d):
    # with the empty set infeasible, certify's target is the first twist of
    # its member, in ascending mask order, that the witness minor maps onto,
    # by the map are_isomorphic returns for it
    cert = certify(d)
    if isinstance(cert, TwistWitness):
        return
    obs = cert.obstruction
    minor = d.minor(obs.delete_set, obs.contract_set)
    base = catalog()[obs.target_index]
    twists = (base.twist(a) for a in range(base.full_mask + 1))
    target, iso = next((h, iso) for h in twists if (iso := are_isomorphic(minor, h)) is not None)
    assert (obs.target, obs.iso) == (target, iso), d


def test_twisted_small_instances_take_the_first_twist_of_the_member(dms_by_n):
    hosts = [d for n in (1, 2, 3, 4) for d in dms_by_n[n] if d.masks[0]]
    assert sum(isinstance(certify(d), MinorWitness) for d in hosts) == 1618
    for d in hosts:
        _check_first_twist(d)


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=0, max_value=2**32 - 1),
       st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_twisted_draws_take_the_first_twist_of_the_member(n, seed, chain):
    rng = random.Random(seed)
    d = twist_off_empty(draw_with_empty_feasible(n, rng, chain), rng)
    assume(d is not None)
    _check_first_twist(d)


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


def test_matroid_twist_obstructions_digest(dms_by_n):
    # every record, odd and even input alike, as the route gave them while
    # the certificate procedure still ran on labels
    digest = hashlib.sha256()
    for n in (1, 2, 3, 4):
        for d in dms_by_n[n]:
            digest.update(repr(_record(matroid_twist_obstructions(d))).encode())
    assert digest.hexdigest() == (
        "2f5f0354c134dc6db4020a37399171a89016a130c73984fb837454843fc43371"
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
        assert route(fresh(host)) is not None
        assert calls == [host], route.__name__


def test_lifted_certificate_computes_the_host_minor_once_for_the_lookup_and_once_for_verify(
        monkeypatch):
    # one _minor_masks call serves the target lookup, one is the verify
    calls = record_calls(monkeypatch, core_module, "_minor_masks")
    assert isinstance(certify(fresh(AUT_HOST)), MinorWitness)
    assert len(calls) == 2


def test_witnesses_pickle_and_copy():
    cert = certify(AUT_HOST)
    for clone in (pickle.loads(pickle.dumps((AUT_HOST, cert))),
                  copy.copy((AUT_HOST, cert)), copy.deepcopy((AUT_HOST, cert))):
        host, again = clone
        assert host == AUT_HOST and hash(host) == hash(AUT_HOST)
        assert again == cert and again.obstruction.verify(host)


def test_no_isomorphism_is_searched_once_the_tables_exist(dms_by_n, monkeypatch):
    # every witness reads its map off minors._target_table, and every
    # permutation the library tries is in building that table
    routes = (certify, is_obstructed, matroid_twist_obstructions)
    hosts = [d for n in (1, 2, 3, 4) for d in dms_by_n[n]]
    warm = [[route(d) for route in routes] for d in hosts]

    def forbidden(*args):
        raise AssertionError("a route tried label permutations once the tables existed")

    monkeypatch.setattr(minors_module, "permutations", forbidden)
    assert [[route(fresh(d)) for route in routes] for d in hosts] == warm


def test_the_first_is_obstructed_call_builds_the_target_table():
    # even on unobstructed input, so that a warm-up call leaves no table to build
    minors_module._target_table.cache_clear()
    assert is_obstructed(validate("a", ["", "a"])) is None
    info = minors_module._target_table.cache_info()
    assert (info.currsize, info.misses) == (1, 1)
    minors_module._target_table()
    assert minors_module._target_table.cache_info().hits == info.hits + 1


def test_the_table_permutes_each_catalog_member_once(monkeypatch):
    # one permutation pass per member serves every route; certify adds none
    passes = record_calls(monkeypatch, minors_module, "permutations")
    minors_module._target_table.cache_clear()
    assert is_obstructed(AUT_HOST) is not None
    assert len(passes) == len(catalog()) == 5
    passes.clear()
    for h in catalog():
        assert isinstance(certify(h), MinorWitness)
    assert passes == []


def test_no_route_hashes_a_delta_matroid(dms_by_n, monkeypatch):
    # every lookup is keyed on ints and tuples of them, never on a target
    routes = (certify, is_obstructed, matroid_twist_obstructions)
    hosts = [d for n in (1, 2, 3, 4) for d in dms_by_n[n]] + [AUT_HOST]
    warm = [[route(d) for route in routes] for d in hosts]
    # a copy per route and host, so that each route runs the procedure
    copies = [[fresh(d) for _ in routes] for d in hosts]

    def unhashable(self):
        raise AssertionError("a route hashed a delta-matroid")

    monkeypatch.setattr(core_module.DeltaMatroid, "__hash__", unhashable)
    with pytest.raises(AssertionError, match="hashed"):
        hash(AUT_HOST)
    assert [[route(c) for route, c in zip(routes, cs)] for cs in copies] == warm


def test_warm_routes_run_no_import_statement(dms_by_n, monkeypatch):
    # the routes and the procedure they run are bound at module level in certify
    routes = (is_obstructed, matroid_twist_obstructions, certify)
    for route in routes:
        route(AUT_HOST)
    # a copy per route and host, so that each route runs the procedure
    copies = [[fresh(d) for _ in routes] for d in [d for n in (1, 2, 3) for d in dms_by_n[n]]
              + [AUT_HOST]]
    imported = []
    original = builtins.__import__

    def counting(name, *args, **kwargs):
        imported.append(name)
        return original(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting)
    for cs in copies:
        for route, c in zip(routes, cs):
            route(c)
    monkeypatch.undo()
    assert imported == []


def test_route_names_live_in_certify():
    for name in ("is_obstructed", "matroid_twist_obstructions"):
        assert getattr(certify_module, name) is getattr(twistwidth, name)
        assert not hasattr(minors_module, name)
    assert minors_module.Obstruction is twistwidth.Obstruction


# each module imports only modules before it here
LAYERS = ("core", "fileio", "minors", "certify", "structure", "enumeration", "cli")


def test_modules_import_in_one_order_with_no_cycle():
    src = pathlib.Path(twistwidth.__file__).parent
    graph = {}
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        top = {id(node) for node in tree.body}
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert id(node) in top, f"{path.name}:{node.lineno} imports below module level"
                graph[path.stem].update(
                    [node.module] if node.module else [alias.name for alias in node.names])
    assert sorted(graph) == sorted(LAYERS)
    for module, imported in graph.items():
        assert all(LAYERS.index(m) < LAYERS.index(module) for m in imported), (module, imported)
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle


@pytest.mark.parametrize("module", LAYERS)
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", f"import twistwidth.{module}"], env=env,
                   capture_output=True, check=True)


# -- the target table, against the brute-force are_isomorphic


def _targets_on(route):
    targets = minors_module._target_table()[0]
    return [targets[t] for _, t in route]


def test_the_targets_are_the_d5_twists_and_the_singleton():
    targets = minors_module._target_table()[0]
    assert list(targets[:36]) == d5_family()
    assert targets[36:] == (validate("a", ["", "a"]),)
    for j, (h, first) in enumerate(zip(catalog(), (0, 4, 12, 20, 28))):
        # certify's route for member j is its twists, in ascending mask order
        twists = range(h.full_mask + 1)
        assert minors_module._MEMBER_ROUTES[j] == tuple((j, first + a) for a in twists)
        assert list(targets[first:first + h.full_mask + 1]) == [h.twist(a) for a in twists]
    assert _targets_on(minors_module._D5_ROUTE) == list(d5_dedup())
    assert _targets_on(minors_module._MATROID_TWIST_ROUTE) == list(matroid_twist_targets())


def test_catalog_maps_agree_with_are_isomorphic(dms_by_n):
    # a family has a map onto target t exactly when are_isomorphic maps it
    # onto the target, with the images of that same map, for all 37 targets;
    # the table holds no more
    targets, maps = minors_module._target_table()
    for t, h in enumerate(targets):
        hits = 0
        for d in dms_by_n[h.n]:
            iso = are_isomorphic(d, h)
            images = maps.get((d.n, d.masks), {}).get(t)
            assert images == (None if iso is None else tuple(iso[e] for e in d.labels)), (t, d)
            hits += images is not None
        assert hits == sum(t in found for found in maps.values()), t
    # every family on at most three elements gets on each route the index and
    # map that rematch finds over the route's list
    whole = Obstruction(frozenset(), frozenset(), None, None)
    for route in (minors_module._D5_ROUTE, minors_module._MATROID_TWIST_ROUTE):
        for n in (1, 2, 3):
            for d in dms_by_n[n]:
                found = rematch(d, whole, enumerate(_targets_on(route)))
                try:
                    obs = minors_module._witness(d, 0, 0, route)
                except CertificationError:
                    obs = None
                assert (None if found is None else found[2:]) == (
                    None if obs is None else (obs.target_index, obs.iso)), d


def test_wrong_permutation_in_the_catalog_maps_raises(monkeypatch):
    # entry 4 has a distinguished element: swapping a and b moves {a} onto {b}
    h = catalog()[4]
    _, t = minors_module._MEMBER_ROUTES[4][0]
    found = minors_module._target_table()[1][3, h.masks]
    assert found[t] == ("a", "b", "c")
    monkeypatch.setitem(found, t, ("b", "a", "c"))
    with pytest.raises(CertificationError, match="fails to verify"):
        certify(h)


def test_empty_catalog_maps_raise(monkeypatch):
    targets = minors_module._target_table()[0]
    monkeypatch.setattr(minors_module, "_target_table", lambda: (targets, {}))
    for j, h in enumerate(catalog()):
        with pytest.raises(CertificationError, match=rf"matched none of \[{j}\]"):
            certify(h)
    with pytest.raises(CertificationError, match=r"matched none of \[0, 1, 2, 3, 4, 5, 6\]"):
        is_obstructed(catalog()[0])


def test_wrong_map_in_the_table_raises(monkeypatch):
    obs = is_obstructed(AUT_HOST)
    x, y = AUT_HOST.mask_of(obs.delete_set), AUT_HOST.mask_of(obs.contract_set)
    key = (len(obs.iso), _minor_masks(AUT_HOST.masks, AUT_HOST.full_mask, x, y))
    targets, maps = minors_module._target_table()
    t = dict(minors_module._D5_ROUTE)[obs.target_index]
    h, images = targets[t], maps[key][t]
    # a transposition of the target's labels that moves a feasible set off it
    swaps = ({a: b, b: a} for i, a in enumerate(h.labels) for b in h.labels[i + 1:])
    swap = next(p for p in swaps if validate(h.labels, [
        [p.get(e, e) for e in f] for f in h.feasible_sets()]) != h)
    monkeypatch.setitem(maps[key], t, tuple(swap.get(e, e) for e in images))
    with pytest.raises(CertificationError, match="fails to verify"):
        is_obstructed(AUT_HOST)


# -- witnesses composed through the reduction step


@given(st.sampled_from((5, 7, 9)), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_odd_cycle_instances_and_their_twists(m, extra, loops, seed):
    # long odd cycles send certify through _long_cycle_case, which the draws
    # above rarely reach; each instance is also twisted off the empty set
    odd = odd_cycle_instance(m, extra, loops, seed)
    for d in (odd, twist_off_empty(odd, random.Random(seed))):
        cert = _check_certify(d)
        obs = _check_is_obstructed(d)
        assert (obs is None) == isinstance(cert, TwistWitness)
        _check_matroid_twist(d)
