"""The three routes of ``helpers.ROUTES`` against the oracles past four
elements, and the index and label map of every minor witness.

``certify``, ``is_obstructed`` and ``matroid_twist_obstructions`` return a
minor witness whose target index and label map ``rematch`` (helpers.py)
finds again from its delete and contract sets alone, with the brute-force
``are_isomorphic`` (helpers.py) over the route's own target list: the
first target that matches, and the first map in lexicographic order of
permutations.

Each instance source past four elements has one ``hypothesis`` test, which
runs ``_check_routes``, every route's full check, on each draw: GF(2) and
extension-chain draws at n = 5..8, each as drawn, twisted off the empty
set and by a random set; twisted uniform matroids, with and without a free
element; and odd rings with m = 5, 7, 9, and their twists. A route or
representation added to ``ROUTES`` or to a source is checked there once.
The fixed hosts of every route, up to U(2, 63), are rows of
``test_fixed_hosts``.
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
import time

import pytest
from hypothesis import given, settings, strategies as st

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
from helpers import (AUT_HOST, FIVE_CYCLE, ROUTES, FamilyReads, are_isomorphic,
                     brute_min_twist_width, check_certificate, check_d5_witness,
                     check_matroid_twist_obstructions, d5_dedup, draw_with_empty_feasible,
                     every_dm, fresh, matroid_twist_targets, obstruction_of, odd_cycle_instance,
                     record_calls, rematch, sequential_minor, twist_off_empty, twisted_uniform,
                     uniform_masks)

certify_module = importlib.import_module("twistwidth.certify")
core_module = importlib.import_module("twistwidth.core")
minors_module = importlib.import_module("twistwidth.minors")


def _fields(obs):
    return obs.delete_set, obs.contract_set, obs.target_index, obs.iso


def _check_certify(d):
    cert = check_certificate(d)
    if isinstance(cert, MinorWitness):
        obs = cert.obstruction
        assert _fields(obs) == rematch(d, obs, [(obs.target_index, obs.target)]), d
    return cert


def _check_is_obstructed(d):
    obs = is_obstructed(d)
    if obs is not None:
        check_d5_witness(d, obs)
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
    for d in every_dm(dms_by_n):
        _check_certify(d)
        _check_is_obstructed(d)
        _check_matroid_twist(d)


def _check_first_twist(d):
    # certify's target is the first twist of its member, in ascending mask
    # order, that the witness minor maps onto, by the map are_isomorphic
    # returns for it: the member itself when the empty set is feasible
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
    hosts = [d for d in every_dm(dms_by_n) if d.masks[0]]
    assert sum(isinstance(certify(d), MinorWitness) for d in hosts) == 1618
    for d in hosts:
        _check_first_twist(d)


# -- every route on each instance source past four elements, and fixed hosts


def _check_routes(d):
    """Every route's full check on ``d``: ``check_certificate``,
    ``is_obstructed``'s verdict against the brute-force twist width and
    ``check_d5_witness``, ``check_matroid_twist_obstructions``, each record's
    index and map against ``rematch``, and the first-twist rule of
    ``certify``'s target. The three records are returned."""
    cert = _check_certify(d)
    _check_first_twist(d)
    obs = _check_is_obstructed(d)
    assert (obs is None) == (brute_min_twist_width(d) <= 1)
    check_matroid_twist_obstructions(d)
    return cert, obs, _check_matroid_twist(d)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@given(st.integers(min_value=5, max_value=8), SEEDS, st.booleans())
@settings(max_examples=100)
def test_gf2_and_chain_draws(n, seed, chain):
    # each draw as drawn, with the empty set feasible, twisted off the empty
    # set, and twisted by a random set
    rng = random.Random(seed)
    drawn = draw_with_empty_feasible(n, rng, chain)
    for d in (drawn, twist_off_empty(drawn, rng), drawn.twist(rng.randrange(1 << n))):
        if d is not None:
            _check_routes(d)


@given(st.integers(min_value=5, max_value=8), st.integers(min_value=1, max_value=4),
       st.booleans(), SEEDS)
@settings(max_examples=40)
def test_twisted_uniform_matroids(n, rank, free, seed):
    # twist width zero, or one with a free element {∅, {e_n}} added; mostly
    # with the empty set infeasible
    x = random.Random(seed).randrange(1 << n + free)
    cert, obs, matroid_obs = _check_routes(twisted_uniform(rank, n, x, free, check=True))
    assert isinstance(cert, TwistWitness) and obs is None
    assert (matroid_obs is None) != free


@given(st.sampled_from((5, 7, 9)), st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=2), SEEDS)
@settings(max_examples=100)
def test_odd_cycle_instances_and_their_twists(m, extra, loops, seed):
    # long odd cycles send certify through _long_cycle_case, which the draws
    # above rarely reach; each instance is also twisted off the empty set
    odd = odd_cycle_instance(m, extra, loops, seed)
    for d in (odd, twist_off_empty(odd, random.Random(seed))):
        _check_routes(d)


def _d5_class(member):
    """The index of the deduplicated D5 member that ``are_isomorphic`` maps
    ``member`` onto."""
    return next(i for i, h in enumerate(d5_dedup()) if are_isomorphic(member, h) is not None)


def _large_uniform(n, free):
    # built unchecked: the axiom check alone would take minutes at n = 63
    return twisted_uniform(2, n, random.Random(n + free).randrange(1 << n + free), free)


# (id, host, route, its target index or None): every D5 member is its own
# witness, onto its class; a twisted U(r, m) has a matroid twist, and with a
# free element {∅, {e_m}} it is odd, so the singleton obstructs it
FIXED_HOSTS = [
    *((f"d5-{k}", m, is_obstructed, _d5_class(m)) for k, m in enumerate(d5_family())),
    ("singleton", validate("a", ["", "a"]), is_obstructed, None),
    ("u2-12", twisted_uniform(2, 12, check=True), is_obstructed, None),
    ("empty", validate([], [[]]), matroid_twist_obstructions, None),
    ("u1-2", validate("ab", ["a", "b"]), matroid_twist_obstructions, None),
    ("three-loops", validate("abc", [""]), matroid_twist_obstructions, None),
    ("four-point", catalog()[0], matroid_twist_obstructions, 0),
    ("triangle", catalog()[2], matroid_twist_obstructions, 1),
    ("u3-9-twisted", twisted_uniform(3, 9, 0b100101101, check=True),
     matroid_twist_obstructions, None),
    ("u3-8-free", twisted_uniform(3, 8, uniform_masks(3, 8)[17], free=True, check=True),
     matroid_twist_obstructions, 0),
    *((f"u2-{n}" + "-free" * free, _large_uniform(n, free), matroid_twist_obstructions,
       0 if free else None) for n, free in ((24, False), (63, False), (23, True), (62, True))),
]


@pytest.mark.parametrize("host, route, expected", [row[1:] for row in FIXED_HOSTS],
                         ids=[row[0] for row in FIXED_HOSTS])
def test_fixed_hosts(host, route, expected):
    # the route answers within 1 s, with a witness that verifies; on up to
    # nine elements, where the brute force reaches, every route is checked
    start = time.perf_counter()
    obs = route(host)
    assert time.perf_counter() - start < 1.0
    assert (None if obs is None else obs.target_index) == expected
    assert obs is None or obs.verify(host)
    if host.n <= 9:
        _check_routes(host)


def _record(obs):
    if obs is None:
        return None
    return (sorted(obs.delete_set), sorted(obs.contract_set), obs.target_index,
            sorted(obs.iso.items()))


def test_obstruction_and_lifted_certificate_digest(dms_by_n):
    # every is_obstructed record, and every certify record on input with the
    # empty set infeasible, as they were before the witnesses carried maps
    digest = hashlib.sha256()
    for d in every_dm(dms_by_n):
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
    for d in every_dm(dms_by_n):
        digest.update(repr(_record(matroid_twist_obstructions(d))).encode())
    assert digest.hexdigest() == (
        "2f5f0354c134dc6db4020a37399171a89016a130c73984fb837454843fc43371"
    )


# -- each record is looked up once, by one minor of the host


def _small_hosts(dms_by_n):
    # AUT_HOST is odd and its certificate lifted; the odd-cycle instance is
    # even and its certificate reduced; FIVE_CYCLE twisted by {a} has its
    # certificate reduced and lifted
    return [*every_dm(dms_by_n), AUT_HOST, odd_cycle_instance(7, 0, 0, 0), FIVE_CYCLE.twist("a")]


def test_each_record_costs_one_minor(dms_by_n, monkeypatch):
    # _witness looks the minor up and checks the record against it: one
    # _witness call and one minor's masks per record, on the first call and
    # on a kept certificate, through the family and through the reads alone
    lookups = record_calls(monkeypatch, certify_module, "_witness")
    minors = record_calls(monkeypatch, core_module, "_minor_masks")
    branches = set()
    for d in _small_hosts(dms_by_n):
        d = fresh(d)
        for host in (d, d, FamilyReads(d)):
            for route in ROUTES:
                lookups.clear()
                minors.clear()
                records = obstruction_of(route(host)) is not None
                assert len(lookups) == len(minors) == records, (route.__name__, d)
                if records and route is matroid_twist_obstructions:
                    branches.add(d._odd_pair() is None)
    assert branches == {False, True}  # both branches of matroid_twist_obstructions


def _holds(host, obs):
    """The record checked on labels, one element of the minor at a time:
    disjoint delete and contract sets of the host's labels, ``iso`` a
    bijection from the rest onto the target's labels, and the minor's
    family carried by it onto the target's."""
    delete, contract = obs.delete_set, obs.contract_set
    if delete & contract or not delete | contract <= set(host.labels):
        return False
    kept, masks = sequential_minor(host.labels, host.masks,
                                   host.mask_of(delete), host.mask_of(contract))
    if set(obs.iso) != set(kept) or sorted(obs.iso.values()) != sorted(obs.target.labels):
        return False
    carried = {frozenset(obs.iso[e] for i, e in enumerate(kept) if m >> i & 1) for m in masks}
    return carried == set(obs.target.feasible_sets())


def _mutations(host, obs):
    """(kind, record) for each mutation that applies: the images of the
    first two labels kept whose images' transposition is no automorphism of
    the target swapped in ``iso``, the first label deleted or contracted
    moved to the other set, and the first label deleted dropped."""
    family = set(obs.target.feasible_sets())

    def moves_the_target(a, b):
        swap = {obs.iso[a]: obs.iso[b], obs.iso[b]: obs.iso[a]}
        return {frozenset(swap.get(e, e) for e in f) for f in family} != family

    kept = [e for e in host.labels if e in obs.iso]
    pairs = ((a, b) for i, a in enumerate(kept) for b in kept[i + 1:] if moves_the_target(a, b))
    if pair := next(pairs, None):
        a, b = pair
        yield "swap", obs._replace(iso={**obs.iso, a: obs.iso[b], b: obs.iso[a]})
    delete, contract = obs.delete_set, obs.contract_set
    if moved := next((e for e in host.labels if e in delete | contract), None):
        yield "move", obs._replace(delete_set=delete ^ {moved}, contract_set=contract ^ {moved})
    if dropped := next((e for e in host.labels if e in delete), None):
        yield "drop", obs._replace(delete_set=delete - {dropped})


def test_verify_and_the_route_check_reject_mutated_records(dms_by_n, monkeypatch):
    # every record verifies with one minor of its own. Each mutated record,
    # handed to _witness in the route in place of the one it built, fails the
    # route's check; verify agrees with the label-level check, and fails it
    # too but for a move between the delete and contract sets that leaves
    # the minor as it was
    minors = record_calls(monkeypatch, core_module, "_minor_masks")
    cases = []
    for d in _small_hosts(dms_by_n):
        for route in ROUTES:
            if (obs := obstruction_of(route(d))) is not None:
                minors.clear()
                assert obs.verify(d) and len(minors) == 1, (route.__name__, d)
                cases += [(d, route, kind, mutant) for kind, mutant in _mutations(d, obs)]
    built = [None]
    monkeypatch.setattr(minors_module, "Obstruction", lambda *fields: built[0])
    verified = dict.fromkeys(("swap", "move", "drop"), 0)
    for d, route, kind, mutant in cases:
        built[0] = mutant
        with pytest.raises(CertificationError, match="fails to verify"):
            route(d)
        verdict = mutant.verify(d)
        assert verdict is _holds(d, mutant), (kind, route.__name__, d)
        verified[kind] += verdict
    counts = {kind: sum(case[2] == kind for case in cases) for kind in verified}
    assert min(counts.values()) > 0
    assert verified["swap"] == verified["drop"] == 0
    assert verified["move"] < counts["move"] // 2


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
    hosts = list(every_dm(dms_by_n))
    warm = [[route(d) for route in ROUTES] for d in hosts]

    def forbidden(*args):
        raise AssertionError("a route tried label permutations once the tables existed")

    monkeypatch.setattr(minors_module, "permutations", forbidden)
    assert [[route(fresh(d)) for route in ROUTES] for d in hosts] == warm


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
    hosts = [*every_dm(dms_by_n), AUT_HOST]
    warm = [[route(d) for route in ROUTES] for d in hosts]
    # a copy per route and host, so that each route runs the procedure
    copies = [[fresh(d) for _ in ROUTES] for d in hosts]

    def unhashable(self):
        raise AssertionError("a route hashed a delta-matroid")

    monkeypatch.setattr(core_module.DeltaMatroid, "__hash__", unhashable)
    with pytest.raises(AssertionError, match="hashed"):
        hash(AUT_HOST)
    assert [[route(c) for route, c in zip(ROUTES, cs)] for cs in copies] == warm


def test_warm_routes_run_no_import_statement(dms_by_n, monkeypatch):
    # the routes and the procedure they run are bound at module level in certify
    for route in ROUTES:
        route(AUT_HOST)
    # a copy per route and host, so that each route runs the procedure
    copies = [[fresh(d) for _ in ROUTES] for d in [d for n in (1, 2, 3) for d in dms_by_n[n]]
              + [AUT_HOST]]
    imported = record_calls(monkeypatch, builtins, "__import__")
    for cs in copies:
        for route, c in zip(ROUTES, cs):
            route(c)
    monkeypatch.undo()
    assert [args[0] for args in imported] == []


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


