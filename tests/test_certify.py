import hashlib
import importlib
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from twistwidth import (
    CertificationError,
    DeltaMatroid,
    MinorWitness,
    TwistWitness,
    catalog,
    certify,
    is_obstructed,
    matroid_twist_obstructions,
    min_width_twist,
    validate,
)
from twistwidth.certify import _aux, _canonical_cycle, _coloring, _shortest_cycle
from helpers import (HUB, _brute_canonical_cycle, brute_aux_graph, brute_min_twist_width,
                     brute_shortest_odd_cycle, draw_with_empty_feasible, fresh, graph_masks,
                     mask_graph, odd_cycle_instance, sample_with_empty_feasible, twist_off_empty,
                     record_calls, twist_onto_empty, twisted_uniform)

# the package's ``certify`` attribute is the function, not the module
certify_module = importlib.import_module("twistwidth.certify")


def _check_certificate(d):
    """certify(d) agrees with the brute-force twist width, and its witness
    holds on ``d`` itself; the witness is returned."""
    cert = certify(d)
    assert isinstance(cert, TwistWitness) == (brute_min_twist_width(d) <= 1)
    if isinstance(cert, TwistWitness):
        assert d.twist(cert.twist_set).width() == cert.width <= 1
    else:
        obs = cert.obstruction
        assert obs.verify(d)
        # the target is a twist of the catalog member, not always isomorphic to it
        base = catalog()[obs.target_index]
        assert obs.target in {base.twist(a) for a in range(base.full_mask + 1)}
    return cert


def _level0(d):
    """``_aux`` on level 0 of ``d``, the empty set feasible: nothing shut,
    everything kept."""
    return _aux(d, 0, 0, d.full_mask)


class TestAuxGraph:
    # vertex 0 is the hub and vertex i + 1 element i: a, b, c are bits 1, 2, 3
    def test_odd_triangle_gives_triangle_off_hub(self, cat):
        assert _level0(cat[2]) == (0, [0, 0b1100, 0b1010, 0b0110])

    def test_width_one_singleton_gives_lone_hub(self):
        # the single-feasible element's vertex is isolated
        assert _level0(validate("a", ["", "a"])) == (1, [0, 0])

    def test_hub_triangle(self, cat):
        assert _level0(cat[4]) == (0b001, [0b1100, 0, 0b1001, 0b0101])

    def test_twisted_host_reads_like_its_twist(self, dms_by_n):
        # level 0 of a host with the empty set infeasible is its twist by
        # its least feasible set f, read off the host's masks XORed with f
        for n in (1, 2, 3):
            for d in dms_by_n[n]:
                f = d.masks[0]
                assert _aux(d, f, 0, d.full_mask) == _level0(d.twist(f))

    def test_reduced_level_isolates_what_it_does_not_keep(self):
        # FIVE_CYCLE contracting the feasible pair {a, b} and keeping c, d, e:
        # {c, d}, {c, e} and {d, e} with {a, b} added are feasible, so c, d, e
        # (vertices 3, 4, 5) form a triangle, and vertices 1 and 2 (a and b)
        # have no edge
        shut, kept = 0b00011, 0b11100
        assert _aux(FIVE_CYCLE, 0, shut, kept) == (
            0, [0, 0, 0, 0b110000, 0b101000, 0b011000])

    def test_reduced_level_asks_only_for_its_small_sets(self, monkeypatch):
        # three kept elements have six sets of size one or two; the level
        # asks the host for each of them with {a, b} added, and for no other
        asked = []
        inner = DeltaMatroid.is_feasible
        monkeypatch.setattr(DeltaMatroid, "is_feasible",
                            lambda d, elems: asked.append(elems) or inner(d, elems))
        _aux(FIVE_CYCLE, 0, 0b00011, 0b11100)
        assert sorted(asked) == sorted(s << 2 | 0b00011 for s in (1, 2, 4, 3, 5, 6))


class TestCertifyExamples:
    def test_width_one_instance(self):
        cert = certify(validate("a", ["", "a"]))
        assert cert == TwistWitness(frozenset(), 1)

    def test_odd_triangle_yields_obstruction(self, cat):
        cert = certify(cat[2])
        assert isinstance(cert, MinorWitness)
        assert cert.obstruction.target_index in (2, 3)
        assert cert.obstruction.verify(cat[2])

    def test_catalog_members_with_empty_feasible(self, cat):
        for d in cat:
            cert = certify(d)
            assert isinstance(cert, MinorWitness)

    def test_width_zero_witness(self):
        d = validate("ab", ["", "ab"])
        cert = certify(d)
        assert isinstance(cert, TwistWitness)
        assert d.twist(cert.twist_set).width() == cert.width <= 1

    def test_hub_triangle_instance(self, cat):
        cert = certify(cat[4])
        assert isinstance(cert, MinorWitness)
        assert cert.obstruction.verify(cat[4])

    def test_records_print_compare_by_value_and_stay_fixed(self):
        twist = certify(validate("ab", ["a"]))
        assert repr(twist) == "TwistWitness(twist_set=frozenset({'a'}), width=0)"
        d = validate("abc", ["", "a", "b", "c", "abc", "ab"])
        cert = certify(d)
        # CertificationError messages print an Obstruction: no iso, no target
        text = ("Obstruction(delete_set=frozenset({'c'}), contract_set=frozenset(), "
                "target_index=0)")
        assert repr(cert) == f"MinorWitness(obstruction={text})"
        assert str(cert.obstruction) == text
        assert twist == TwistWitness(frozenset("a"), 0) != TwistWitness(frozenset("a"), 1)
        assert cert == certify(d) and cert is not certify(d)
        for record, name in ((twist, "width"), (cert, "obstruction"),
                             (cert.obstruction, "target_index")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)


class TestCertifyExhaustive:
    def test_agrees_with_brute_force(self, dms_by_n):
        for n in (1, 2, 3, 4):
            for d in dms_by_n[n]:
                cert = _check_certificate(d)
                assert isinstance(cert, TwistWitness) == (min_width_twist(d)[1] <= 1)

    def test_bipartite_case_isolated_class_has_trivial_restriction(self, dms_by_n):
        for d in dms_by_n[3]:
            if 0 not in d.masks:
                continue
            even = _coloring(_level0(d)[1])
            if even is None:
                continue
            # the elements at odd depth; a single-feasible one is at even depth
            far = d.full_mask & ~(even >> 1)
            assert d.restrict(far).masks == (0,)


class TestCertifyRandom:
    def test_sampled_instances_self_verify(self):
        rng = random.Random(7)
        for n, count in ((5, 200), (6, 50)):
            for _ in range(count):
                d = sample_with_empty_feasible(n, rng)
                assert 0 in d.masks
                cert = certify(d)
                if isinstance(cert, TwistWitness):
                    assert d.twist(cert.twist_set).width() <= 1
                else:
                    assert cert.obstruction.verify(d)


# -- the aux graph is 2-colored first; the odd-cycle search is the fallback


# the even delta-matroid of a 5-cycle's adjacency matrix over GF(2): its aux
# graph is that 5-cycle, so certify reduces it once by _long_cycle_case
FIVE_CYCLE = validate("abcde", ["", "ab", "bc", "cd", "de", "ae",
                                "bcde", "acde", "abde", "abce", "abcd"])


def _packed(bits, kept):
    """The bits of ``bits`` at the set positions of ``kept``, packed in
    ascending order: a host-position mask as a mask of the level's minor."""
    out, j, rest = 0, 0, kept
    while rest:
        low = rest & -rest
        out |= bool(bits & low) << j
        j += 1
        rest ^= low
    return out


def _certify_recording_graphs(d):
    """certify(d), and the neighbour masks of the aux graph of each level
    it reached, reduced levels included. Each level (kept, shut) is checked
    against its definition and the odd-cycle oracle on the minor of ``d``
    twisted by its least feasible set that deletes the rest and contracts
    shut, its graph packed from host positions to the minor's. A fresh copy
    of ``d`` is certified, so the procedure runs whatever ``d`` holds."""
    levels = []

    def record(host, f, shut, kept):
        graph = _aux(host, f, shut, kept)
        levels.append((shut, kept, graph))
        return graph

    with mock.patch.object(certify_module, "_aux", record):
        cert = certify(fresh(d))
    assert levels, "certify built no aux graph"
    host = d.twist(d.masks[0])
    graphs = []
    for shut, kept, (singles, adj) in levels:
        assert not shut & kept and not singles & ~kept
        # vertices outside kept are isolated, and no edge reaches one
        vertices = kept << 1 | 1
        assert all(not near & ~vertices for near in adj)
        assert all(not adj[v] for v in range(1, len(adj)) if not vertices >> v & 1)
        level = host.minor(host.full_mask & ~(kept | shut), shut)
        g = brute_aux_graph(level)
        names = (HUB, *level.labels)  # vertex 0 is the hub and vertex i + 1 element i
        packed = [_packed(adj[v], vertices) for v in range(len(adj)) if vertices >> v & 1]
        assert (_packed(singles, kept), packed) == (level.mask_of(g.singles), graph_masks(g, names))
        _check_graph_against_oracle(packed, g, names)
        # packing keeps vertex order, so the host-position cycle packs to it
        cycle = _shortest_cycle(adj)
        rank = [(vertices & (1 << v) - 1).bit_count() for v in range(len(adj))]
        assert (None if cycle is None else [rank[v] for v in cycle]) == _shortest_cycle(packed)
        graphs.append(adj)
    return cert, graphs


def _check_graph_against_oracle(adj, g, names):
    """The mask kernels on ``adj`` agree with the oracle on ``g``, whose
    vertex names[i] is bit i."""
    expected = brute_shortest_odd_cycle(g)
    index = {v: i for i, v in enumerate(names)}
    assert _shortest_cycle(adj) == (None if expected is None else [index[v] for v in expected])
    assert (_coloring(adj) is None) == (expected is not None)


class TestOddCycleOracle:
    def test_exhaustive_small_instances(self, dms_by_n):
        # an odd cycle needs five elements to be long, so none reduce here
        for n in (1, 2, 3, 4):
            for d in dms_by_n[n]:
                if 0 in d.masks:
                    _certify_recording_graphs(d)

    def test_five_cycle_and_its_reduction(self):
        cert, graphs = _certify_recording_graphs(FIVE_CYCLE)
        assert isinstance(cert, MinorWitness)
        assert [len(_shortest_cycle(adj)) for adj in graphs] == [5, 3]

    @given(st.integers(min_value=5, max_value=10),
           st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sampled_instances(self, n, seed, chain):
        # extension-chain draws only at n <= 8
        _certify_recording_graphs(draw_with_empty_feasible(n, random.Random(seed), chain))

    @given(st.integers(min_value=5, max_value=10), st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_twisted_uniform_matroids(self, n, rank, seed):
        # twisted by a random basis, so the empty set is feasible
        d = twist_onto_empty(twisted_uniform(rank, n, check=True), random.Random(seed))
        _certify_recording_graphs(d)

    @given(st.sampled_from((5, 7, 9)), st.integers(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_odd_cycle_instances(self, m, extra, loops, seed):
        _certify_recording_graphs(odd_cycle_instance(m, extra, loops, seed))


@st.composite
def _graphs(draw):
    """Symmetric neighbour masks on 1 to 10 vertices: either a planted odd
    cycle of length 5, 7 or 9 with at most two random edges as chords, or
    up to 3n random edges; often several components, and maybe an isolated
    vertex 0, the hub of an aux graph."""
    m = draw(st.sampled_from((None, 5, 7, 9)))
    n = draw(st.integers(min_value=m or 1, max_value=10))
    edges = set()
    if m is not None:
        ring = draw(st.permutations(range(n)))[:m]
        edges = set(zip(ring, ring[1:] + ring[:1]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges |= set(draw(st.lists(pair, max_size=3 * n if m is None else 2)))
    if draw(st.booleans()):
        edges = {e for e in edges if 0 not in e}
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@given(_graphs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_random_graphs_through_the_mask_kernels(adj):
    g = mask_graph(adj)
    _check_graph_against_oracle(adj, g, g.vertices)
    even = _coloring(adj)
    if even is None:
        return
    assert all((even >> u & 1) != (even >> v & 1) for u in g.vertices for v in g.adjacency[u])
    # the least vertex of each component is its root, at even depth
    seen = set()
    for root in g.vertices:
        if root not in seen:
            assert even >> root & 1, root
            stack = [root]
            seen.add(root)
            while stack:
                for v in g.adjacency[stack.pop()]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)


_int_cycles = st.sampled_from(range(3, 22, 2)).flatmap(lambda m: st.permutations(range(m)))


@given(_int_cycles)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_canonical_cycle_matches_every_rotation_and_reflection(cycle):
    assert _canonical_cycle(list(cycle)) == _brute_canonical_cycle(list(cycle), int)


class TestTriangleFirst:
    """The least triangle is read off the adjacency; the breadth-first
    search runs only on graphs with no triangle."""

    @staticmethod
    def _forbid_search(monkeypatch):
        def forbidden(g):
            raise AssertionError("breadth-first search on a graph with a triangle")

        monkeypatch.setattr(certify_module, "_odd_cycle_search", forbidden)

    def test_least_triangle_of_a_hand_built_graph(self, monkeypatch):
        # triangles 0-1-5 and 0-2-3; the least second vertex wins
        edges = [(0, 1), (0, 2), (0, 3), (0, 5), (1, 4), (1, 5), (2, 3)]
        adj = [sum(1 << b for a, b in edges if a == v) | sum(1 << a for a, b in edges if b == v)
               for v in range(6)]
        assert brute_shortest_odd_cycle(mask_graph(adj)) == [0, 1, 5]
        self._forbid_search(monkeypatch)
        assert _shortest_cycle(adj) == [0, 1, 5]

    def test_graphs_with_a_triangle_skip_the_search(self, dms_by_n, monkeypatch):
        def has_triangle(d):
            cycle = brute_shortest_odd_cycle(brute_aux_graph(d))
            return cycle is not None and len(cycle) == 3

        small = [d for n in (1, 2, 3, 4) for d in dms_by_n[n]
                 if d.masks[0] == 0 and has_triangle(d)]
        sampled = []
        for seed in range(200):
            d = sample_with_empty_feasible(5 + seed % 6, random.Random(seed))
            if has_triangle(d) and len(sampled) < 20:
                sampled.append(d)
        assert len(small) > 1000 and len(sampled) == 20
        self._forbid_search(monkeypatch)
        for d in small:
            assert isinstance(certify(fresh(d)), MinorWitness)
        for d in sampled:
            assert isinstance(_check_certificate(d), MinorWitness)


class TestBipartiteFirst:
    def test_bipartite_instances_skip_the_odd_cycle_search(self, dms_by_n, monkeypatch):
        def forbidden(g):
            raise AssertionError("odd-cycle search on a bipartite graph")

        bipartite = [
            d for n in (1, 2, 3, 4) for d in dms_by_n[n]
            if 0 in d.masks and brute_shortest_odd_cycle(brute_aux_graph(d)) is None
        ]
        monkeypatch.setattr(certify_module, "_shortest_cycle", forbidden)
        for d in bipartite:
            certify(fresh(d))
        for rank, n in ((2, 7), (3, 8)):
            d = twist_onto_empty(twisted_uniform(rank, n, check=True), random.Random(1))
            assert isinstance(certify(d), TwistWitness)

    def test_reduced_instance_losing_its_odd_cycle_raises(self, monkeypatch):
        search = certify_module._shortest_cycle
        calls = []

        def bipartite_after_first(adj):
            # no odd cycle, as on a bipartite graph; reduced levels are not colored
            calls.append(adj)
            return search(adj) if len(calls) == 1 else None

        monkeypatch.setattr(certify_module, "_shortest_cycle", bipartite_after_first)
        with pytest.raises(CertificationError, match="lost its odd cycle"):
            certify(fresh(FIVE_CYCLE))

    def test_odd_cycle_that_fails_to_shrink_raises(self, monkeypatch):
        search = certify_module._shortest_cycle
        first = []

        def same_length_after_first(adj):
            if not first:
                first.append(search(adj))
            return first[0]

        monkeypatch.setattr(certify_module, "_shortest_cycle", same_length_after_first)
        with pytest.raises(CertificationError, match="failed to shrink"):
            certify(fresh(FIVE_CYCLE))


def test_certify_builds_no_twist_on_unobstructed_instances(monkeypatch):
    # twisted uniform matroids and width-one sums U(r, m) + {∅, {x}}, each
    # twisted by a feasible set: the twist witness is re-checked on the masks
    hosts = [twist_onto_empty(twisted_uniform(rank, n, check=True), random.Random(n))
             for rank, n in ((2, 7), (3, 7), (2, 8), (3, 8))]
    hosts += [twist_onto_empty(twisted_uniform(rank, m, free=True, check=True), random.Random(m))
              for rank, m in ((2, 6), (2, 7), (3, 7))]
    expected = [certify(d) for d in hosts]
    assert all(d.masks[0] == 0 and isinstance(c, TwistWitness) for d, c in zip(hosts, expected))

    def forbidden(self, elems):
        raise AssertionError("certify built a twist")

    monkeypatch.setattr(DeltaMatroid, "twist", forbidden)
    assert [certify(fresh(d)) for d in hosts] == expected


# -- any delta-matroid: the twist by the smallest feasible set, lifted back

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _obstruction_record(obs):
    """An obstruction as sorted lists, whose repr does not depend on the
    string hash seed as a set's does; None for None."""
    if obs is None:
        return None
    return (sorted(obs.delete_set), sorted(obs.contract_set),
            sorted(obs.iso.items()), obs.target_index)


def _record(cert):
    if isinstance(cert, TwistWitness):
        return ("twist", sorted(cert.twist_set), cert.width)
    return ("minor", *_obstruction_record(cert.obstruction))


class TestEveryDeltaMatroid:
    def test_empty_feasible_input_is_certified_as_it_is(self, dms_by_n, monkeypatch):
        # the digest of every record as the certificate gave them before it
        # took input with the empty set infeasible
        def no_lift(*args):
            raise AssertionError("lifted a certificate of an untwisted input")

        monkeypatch.setattr(certify_module, "_lift", no_lift)
        digest = hashlib.sha256()
        for n in (1, 2, 3, 4):
            for d in dms_by_n[n]:
                if d.masks[0] == 0:
                    cert = certify(fresh(d))
                    if isinstance(cert, MinorWitness):
                        obs = cert.obstruction
                        assert obs.target is catalog()[obs.target_index]
                    digest.update(repr(_record(cert)).encode())
        assert digest.hexdigest() == (
            "b27b0f2ae4637922292d6e7d6de463fc72e12fdc18069c870c6ad4487e96dd15"
        )

    def test_two_singletons(self):
        # U(1,2) is itself a matroid; certify finds it through its twist by {a}
        cert = certify(validate("ab", ["a", "b"]))
        assert cert == TwistWitness(frozenset(), 0)

    def test_twisted_triangle_gets_a_twisted_target(self, cat):
        host = cat[2].twist("a")
        cert = _check_certificate(host)
        obs = cert.obstruction
        assert obs.delete_set == obs.contract_set == frozenset()
        assert obs.target_index == 2
        assert obs.target == cat[2].twist("a")

    def test_lifted_twist_set_is_rechecked_on_the_host(self, monkeypatch):
        monkeypatch.setattr(certify_module, "_lift", lambda f, cert: cert)
        with pytest.raises(CertificationError, match="twist witness claims"):
            certify(validate("ab", ["a", "b"]))

    def test_five_cycle_twisted_off_the_empty_set(self):
        # {a} is the smallest feasible set of the twist by {a}, so certify
        # reduces FIVE_CYCLE itself and lifts the reduced minor back
        host = FIVE_CYCLE.twist("a")
        cert, graphs = _certify_recording_graphs(host)
        assert [len(_shortest_cycle(adj)) for adj in graphs] == [5, 3]
        assert _check_certificate(host) == cert
        inner = certify(FIVE_CYCLE).obstruction
        swapped = (inner.delete_set | inner.contract_set) & {"a"}
        assert cert.obstruction.delete_set == inner.delete_set ^ swapped
        assert cert.obstruction.contract_set == inner.contract_set ^ swapped

    @pytest.mark.parametrize("host", [catalog()[2].twist("a"), FIVE_CYCLE.twist("a")],
                             ids=["triangle-a", "five-cycle-a"])
    def test_twisted_host_looks_its_witness_up_once(self, host, monkeypatch):
        # the member's route lists its twists, so no lookup picks the twist first
        assert host.masks[0] != 0
        calls = record_calls(monkeypatch, certify_module, "_witness")
        assert isinstance(certify(fresh(host)), MinorWitness)
        assert len(calls) == 1

    @given(st.integers(min_value=5, max_value=8), SEEDS, st.booleans())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_sampled_instances(self, n, seed, chain):
        rng = random.Random(seed)
        d = twist_off_empty(draw_with_empty_feasible(n, rng, chain), rng)
        assume(d is not None)
        _check_certificate(d)

    @given(st.integers(min_value=5, max_value=8), st.integers(min_value=1, max_value=4),
           SEEDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_twisted_uniform_matroids(self, n, rank, seed):
        # twisted by a random basis, then off the empty set, each by its own draws
        d = twisted_uniform(rank, n, check=True)
        d = twist_off_empty(twist_onto_empty(d, random.Random(seed)), random.Random(seed))
        assert isinstance(_check_certificate(d), TwistWitness)

    @given(st.sampled_from((5, 7)), st.integers(min_value=0, max_value=1),
           st.integers(min_value=0, max_value=2), SEEDS)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_twisted_odd_cycle_instances(self, m, extra, loops, seed):
        odd = odd_cycle_instance(m, extra, loops, seed)
        _check_certificate(twist_off_empty(odd, random.Random(seed)))
        if loops == 0:
            # no singleton is feasible, so the first element is the smallest
            # feasible set of the twist by it, and certify reduces odd itself
            host = odd.twist(1)
            cert, graphs = _certify_recording_graphs(host)
            assert len(graphs) >= 2
            assert _check_certificate(host) == cert


def test_tie_breaks_of_the_three_routes_on_draws_past_four_elements():
    # the digest of every record of the three routes on extension-chain and
    # GF(2) draws at n = 5..12, each as drawn and twisted off the empty set,
    # as the reduction over minors of the host gave them
    digest = hashlib.sha256()
    for n in range(5, 13):
        for chain in (True, False):
            for seed in range(10):
                rng = random.Random(seed)
                drawn = draw_with_empty_feasible(n, rng, chain)
                for d in (drawn, twist_off_empty(drawn, rng)):
                    record = (_record(certify(d)),
                              _obstruction_record(is_obstructed(d)),
                              _obstruction_record(matroid_twist_obstructions(d)))
                    digest.update(repr(record).encode())
    assert digest.hexdigest() == (
        "eb425562b750d91321e97244ebb775f4cdf5f3ca867050ddba55d6471477248a"
    )


# -- the odd-cycle reduction is one loop over (kept, shut) views of the host


class TestReductionLoop:
    def test_ring_instances_keep_their_certificates(self):
        # the digest of every record of the three routes on ring instances,
        # as built and twisted off the empty set, as the recursive
        # reduction gave them
        digest = hashlib.sha256()
        for m in (5, 7, 9, 11):
            for extra in (0, 1):
                for loops in (0, 1, 2):
                    for seed in range(3):
                        odd = odd_cycle_instance(m, extra, loops, seed)
                        for d in (odd, twist_off_empty(odd, random.Random(seed))):
                            record = (_record(certify(d)),
                                      _obstruction_record(is_obstructed(d)),
                                      _obstruction_record(matroid_twist_obstructions(d)))
                            digest.update(repr(record).encode())
        assert digest.hexdigest() == (
            "ec0862b6b2ea327d28f8d8b4e40e642bd70cf51febca4a3baade145d4b3af936"
        )

    @pytest.mark.parametrize("m", [7, 9, 11, 13])
    def test_each_level_is_two_shorter(self, m):
        cert, graphs = _certify_recording_graphs(odd_cycle_instance(m, 0, 0, 0))
        assert isinstance(cert, MinorWitness)
        assert [len(_shortest_cycle(adj)) for adj in graphs] == list(range(m, 1, -2))

    def test_one_impl_call_and_one_coloring_per_certificate(self, monkeypatch):
        calls = []

        def counted(name):
            inner = getattr(certify_module, name)

            def call(*args):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(certify_module, name, call)

        counted("_certify_impl")
        counted("_coloring")
        for m in (5, 9, 13):
            odd = odd_cycle_instance(m, 0, 0, 0)
            for route, d in ((certify, odd), (is_obstructed, odd), (certify, odd.twist(1))):
                calls.clear()
                assert route(fresh(d)) is not None
                assert calls == ["_certify_impl", "_coloring"], (m, route)

    def test_no_delta_matroid_is_built_in_the_loop(self, cat, monkeypatch):
        # levels are (kept, shut) views of the host, and a host with the
        # empty set infeasible is read through its masks XORed with f: no
        # construction, twist or minor between the input and the certificate
        odd = odd_cycle_instance(9, 0, 0, 0)
        member = twist_off_empty(cat[2], random.Random(1))
        hosts = [odd_cycle_instance(m, 0, 0, 0) for m in range(5, 14)]
        hosts += [odd.twist(1), member]
        assert odd.twist(1).masks[0] and member.masks[0]
        expected = [certify_module._certificate(d) for d in hosts]
        copies = [fresh(d) for d in hosts]  # built before __init__ is counted
        built = []

        def counted(name):
            inner = getattr(DeltaMatroid, name)

            def call(*args, **kwargs):
                built.append(name)
                return inner(*args, **kwargs)

            monkeypatch.setattr(DeltaMatroid, name, call)

        for name in ("__init__", "twist", "minor"):
            counted(name)
        assert [certify_module._certificate(d) for d in copies] == expected
        assert built == []
