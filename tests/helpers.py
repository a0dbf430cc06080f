"""Brute-force oracles and random instances shared across the test modules.

Everything here recomputes quantities by direct definition (materialized
twists, naive axiom checks, minor search over every delete/contract
pair), independent of the structural formulas the package uses, so tests
compare two genuinely different routes. The one exception,
``kernel_twist_widths``, expands the library's all-twists kernel into one
width per twist set, for the tests to compare with those oracles.

Two stand-ins for ``DeltaMatroid`` answer only the reads ``certify``
makes (``CERTIFY_READS``): ``FamilyReads`` hides a delta-matroid's family
behind them, and ``TwistedUniform`` answers them in closed form with no
family at all, so it can hold more than 64 elements.

The randomized tests draw from two sources: principal-minor families of
random symmetric GF(2) matrices, which reach 135 of the 155 delta-matroids
on 3 elements and 2295 of the 5959 on 4, and extension chains grown from
all 5959, which are mostly not GF(2)-representable.
"""

import random
from collections import deque
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial
from typing import NamedTuple

from twistwidth import (
    DeltaMatroid,
    GroundSetError,
    Obstruction,
    catalog,
    d5_family,
    d_min,
    enumerate_all,
    is_matroid,
    validate,
)
from twistwidth.core import _members, _planes, find_axiom_violation
from twistwidth.minors import _permuted_masks
from twistwidth.structure import _shells, _width_class

CHAIN_MAX_ELEMENTS = 8  # the largest extension-chain pool

# Budget for the isomorphism search, against its worst case of n! label
# permutations, each mapping |F| feasible sets. Every family on 7 elements
# or fewer passes, none on 10 or more. On a 2-vCPU Xeon VM, a map that is
# the last permutation takes 0.46 s at n = 8, |F| = 24 (9.7e5) and 0.21 s
# at n = 7, |F| = 100 (5.0e5); n = 8, |F| = 120 (4.8e6) would take 2.2 s
# and is refused.
MAX_ISO_WORK = 1_000_000


def scan_set_of(d: DeltaMatroid, mask: int) -> frozenset:
    """The labels at the set bits of ``mask``, by a scan of every label;
    bits above the ground set select nothing."""
    return frozenset(e for i, e in enumerate(d.labels) if mask >> i & 1)


def brute_min_twist_width(d: DeltaMatroid) -> int:
    """Minimum width over all materialized twists."""
    return min(d.twist(a).width() for a in range(d.full_mask + 1))


def kernel_twist_widths(d: DeltaMatroid) -> list:
    """Width of twist(d, A) for every A, indexed by the mask of A, read off
    the library's all-twists kernel: its width classes expanded to one
    width per twist set. Not an oracle; the tests compare it with them."""
    (near, mirror), widths = _shells(d), [-1] * (1 << d.n)
    for w in range(d.n + 1):
        for a in _members(_width_class(near, mirror, w)):
            widths[a] = w
    return widths


def hamming_twist_widths(d: DeltaMatroid) -> list:
    """Width of twist(d, A) for every A, indexed by the mask of A, from a
    Hamming distance transform over a list of 2^n distances.

    With dist(A) the least |A ^ F| over feasible F, the twist by A has
    width n - dist(A) - dist(A~). Hamming distance is a sum over
    coordinates, so relaxing across one bit at a time leaves every dist
    exact.
    """
    n = d.n
    dist = [n + 1] * (1 << n)
    for m in d.masks:
        dist[m] = 0
    for b in range(n):
        bit = 1 << b
        for a in range(len(dist)):
            if a & bit:
                x, y = dist[a], dist[a ^ bit]
                if x > y + 1:
                    dist[a] = y + 1
                elif y > x + 1:
                    dist[a ^ bit] = x + 1
    # the complement of A sits at the mirrored index
    return [n - x - y for x, y in zip(dist, reversed(dist))]


def _rank(bases, x: int) -> int:
    return max((x & b).bit_count() for b in bases)


def dmin_rank(d: DeltaMatroid, x: int) -> int:
    """Rank of the mask ``x`` in the matroid d_min(d): the largest
    intersection of X with one of its bases."""
    return _rank(d_min(d).masks, x)


def dmin_connectivity(d: DeltaMatroid, a: int) -> int:
    """r(A) + r(E - A) - r(E) in the matroid d_min(d); zero exactly when A
    is a separator of it."""
    bases, full = d_min(d).masks, d.full_mask
    return _rank(bases, a) + _rank(bases, full & ~a) - _rank(bases, full)


def brute_rough_structure_witnesses(d: DeltaMatroid) -> list:
    """Every A (as masks, ascending) that is a separator of d_min with D|A
    a matroid and D|A~ of width one, read off the restrictions themselves."""
    out = []
    for a in range(d.full_mask + 1):
        ac = d.full_mask & ~a
        if (
            dmin_connectivity(d, a) == 0
            and is_matroid(d.restrict(a))
            and d.restrict(ac).width() == 1
        ):
            out.append(a)
    return out


def _signature(d: DeltaMatroid) -> tuple[int, ...]:
    return tuple(sorted(m.bit_count() for m in d.masks))


def are_isomorphic(d1: DeltaMatroid, d2: DeltaMatroid):
    """A feasibility-preserving label bijection d1 -> d2, or None.

    Ground sets or families of different sizes, or of different size
    profiles, simply yield None. Otherwise GroundSetError when n! * |F|
    exceeds ``MAX_ISO_WORK``, before any permutation is tried. Permutations
    are tried in lexicographic order, so the returned map is deterministic.
    """
    if d1.n != d2.n or len(d1.masks) != len(d2.masks) or _signature(d1) != _signature(d2):
        return None
    if (work := factorial(d1.n) * len(d1.masks)) > MAX_ISO_WORK:
        raise GroundSetError(
            f"isomorphism search too large: {len(d1.masks)} feasible sets on "
            f"{d1.n} elements need about {work:.1e} operations, over the budget "
            f"of {MAX_ISO_WORK:.1e}"
        )
    for perm in permutations(range(d1.n)):
        if _permuted_masks(d1.masks, perm) == d2.masks:
            return {d1.labels[i]: d2.labels[perm[i]] for i in range(d1.n)}
    return None


def pairwise_d5_dedup() -> list:
    """The 36 twists of ``d5_family()``, a member kept unless
    ``are_isomorphic`` matches it to one kept before it."""
    out = []
    for m in d5_family():
        if all(are_isomorphic(m, kept) is None for kept in out):
            out.append(m)
    return out


@lru_cache(maxsize=1)
def d5_dedup() -> tuple:
    """``d5_family(up_to_iso=True)``, computed once."""
    return tuple(d5_family(up_to_iso=True))


def _disjoint_pairs(n: int, total: int):
    """Disjoint (X, Y) masks with |X| + |Y| == total, ordered by (X, Y)."""
    full = (1 << n) - 1
    for x in range(full + 1):
        px = x.bit_count()
        if px > total:
            continue
        for y in range(full + 1):
            if y & x:
                continue
            if y.bit_count() == total - px:
                yield x, y


def has_minor_isomorphic(d: DeltaMatroid, h: DeltaMatroid, target_index=0):
    """First minor of ``d`` isomorphic to ``h``, in deterministic order.

    Scans disjoint delete/contract pairs of the forced total size ordered
    by (delete mask, contract mask); returns an Obstruction or None.
    """
    excess = d.n - h.n
    if excess < 0:
        return None
    for x, y in _disjoint_pairs(d.n, excess):
        iso = are_isomorphic(d.minor(x, y), h)
        if iso is not None:
            return Obstruction(d.set_of(x), d.set_of(y), iso, h, target_index)
    return None


def brute_is_obstructed(d: DeltaMatroid):
    """First minor of ``d`` isomorphic to a deduplicated D5 member, found by
    scanning every delete/contract pair; an Obstruction or None."""
    for i, h in enumerate(d5_dedup()):
        found = has_minor_isomorphic(d, h, target_index=i)
        if found is not None:
            return found
    return None


def brute_matroid_twist_obstructions(d: DeltaMatroid):
    """First minor of ``d`` isomorphic to the singleton {∅, {a}}, the odd
    triangle or its twist by {a}, scanned in that order over every
    delete/contract pair; an Obstruction (``target_index`` 0, 1 or 2) or
    None."""
    for i, h in enumerate(matroid_twist_targets()):
        found = has_minor_isomorphic(d, h, target_index=i)
        if found is not None:
            return found
    return None


def rematch(d: DeltaMatroid, obs, targets):
    """(delete, contract, target_index, iso) of ``obs`` with the index and
    map found afresh: minor(d, delete, contract) matched by
    ``are_isomorphic`` against the first of ``targets``, (index, target)
    pairs, that it is isomorphic to; None when it matches none."""
    minor = d.minor(obs.delete_set, obs.contract_set)
    for i, h in targets:
        iso = are_isomorphic(minor, h)
        if iso is not None:
            return obs.delete_set, obs.contract_set, i, iso
    return None


def matroid_twist_targets() -> tuple:
    """The singleton {∅, {a}}, the odd triangle and its twist by {a}."""
    triangle = catalog()[2]
    return (DeltaMatroid("a", ["", "a"]), triangle, triangle.twist("a"))


def twist_off_empty(d: DeltaMatroid, rng):
    """``d`` twisted by a random infeasible set, so that the empty set is
    infeasible; None when every subset is feasible."""
    feasible = set(d.masks)
    outside = [a for a in range(d.full_mask + 1) if a not in feasible]
    return d.twist(rng.choice(outside)) if outside else None


def brute_find_axiom_violation(masks, n):
    """First violating ``(x_mask, y_mask, u_pos)`` over ordered pairs of
    feasible masks, u ascending within X ^ Y; None if the axiom holds."""
    member = set(masks)
    # exchange_ok[(X, u)] = bitmask of positions v with X ^ {u, v} feasible
    exchange_ok = {}
    for x in masks:
        for u in range(n):
            xu = x ^ (1 << u)
            ok = 0
            for v in range(n):
                res = xu if v == u else xu ^ (1 << v)
                if res in member:
                    ok |= 1 << v
            exchange_ok[(x, u)] = ok
    for x in masks:
        for y in masks:
            diff = x ^ y
            d = diff
            while d:
                u = (d & -d).bit_length() - 1
                d &= d - 1
                if not exchange_ok[(x, u)] & diff:
                    return (x, y, u)
    return None


def sweep_family_masks(n: int) -> tuple:
    """Family bitmasks over the 2^n subsets that pass the exchange axiom,
    by a sweep over (X, Y, u) triples with one bit per family."""
    nsub = 1 << n
    everything = (1 << (1 << nsub)) - 1
    # bit f of has[s] is set iff family f contains subset s
    has = [hi & everything for _, hi in _planes(nsub)[1]]
    bad = 1  # the empty family is not a delta-matroid
    for x in range(nsub):
        for y in range(nsub):
            diff = x ^ y
            if not diff:
                continue
            ok = everything
            for u in range(n):
                if not diff >> u & 1:
                    continue
                reached = 0
                for v in range(n):
                    if diff >> v & 1:
                        reached |= has[x ^ (1 << u | 1 << v)]
                ok &= reached
            # drop families with X and Y but, for some u in X ^ Y, no
            # X ^ {u, v} with v in X ^ Y
            bad |= has[x] & has[y] & ~ok
    return tuple(_members(everything ^ bad))


def brute_axiom_holds(masks, n) -> bool:
    """Symmetric exchange checked set-theoretically, without bit tricks."""
    sets = [frozenset(i for i in range(n) if m >> i & 1) for m in masks]
    family = set(sets)
    for x in sets:
        for y in sets:
            for u in x ^ y:
                if not any(
                    x ^ {u, v} in family for v in x ^ y
                ):
                    return False
    return True


def all_minor_pairs(n):
    """All disjoint (delete, contract) mask pairs on n elements."""
    full = (1 << n) - 1
    for x in range(full + 1):
        rest = full & ~x
        y = rest
        while True:
            yield x, y
            if y == 0:
                break
            y = (y - 1) & rest


def interleavings(delete, contract):
    """Every order of single-element delete/contract operations."""
    ops = [("d", e) for e in delete] + [("c", e) for e in contract]
    return set(permutations(ops))


def _drop(labels, family, p, contract):
    """Delete (or contract) position ``p`` by the single-element rule and
    pack the higher positions down; returns (labels, family).

    Deleting e keeps the feasible sets avoiding it, or strips e from all of
    them when e is a coloop; contracting e keeps F - e for the feasible F
    containing it, or all of them when e is a loop.
    """
    bit = 1 << p
    if contract:
        if any(m & bit for m in family):
            family = {m & ~bit for m in family if m & bit}
    elif all(m & bit for m in family):
        family = {m & ~bit for m in family}
    else:
        family = {m for m in family if not m & bit}
    family = {(m & (bit - 1)) | (m >> (p + 1) << p) for m in family}
    return labels[:p] + labels[p + 1:], family


def apply_ops(d: DeltaMatroid, ops) -> DeltaMatroid:
    """Apply ("d", e) deletions and ("c", e) contractions in the given
    order, each by the bare-mask rule of ``sequential_minor``."""
    labels, family = d.labels, set(d.masks)
    for kind, e in ops:
        labels, family = _drop(labels, family, labels.index(e), kind == "c")
    return DeltaMatroid(labels, family, _trusted=True)


def sequential_minor(labels, masks, x, y):
    """Delete positions in mask ``x`` and contract those in mask ``y`` one
    element at a time, highest position first; returns (labels, masks)."""
    labels = tuple(labels)
    family = set(masks)
    for p in reversed(range(len(labels))):
        if (x | y) >> p & 1:
            labels, family = _drop(labels, family, p, not x >> p & 1)
    return labels, tuple(sorted(family))


class _Hub:
    """The hub vertex of ``brute_aux_graph``; never equal to a label."""

    def __repr__(self):
        return "v_L"


HUB = _Hub()


class AuxGraph(NamedTuple):
    """A graph as the oracles below take and return it: ``vertices`` in
    order, ``adjacency`` mapping each to its neighbours, and the labels
    ``singles`` that the hub stands for."""

    singles: frozenset
    vertices: tuple
    adjacency: dict


def graph_masks(g: AuxGraph, names) -> list:
    """The neighbour mask of each of ``names`` in ``g``, vertex names[i]
    at bit i; a name that is not a vertex of ``g`` gets 0."""
    index = {v: i for i, v in enumerate(names)}
    return [sum(1 << index[u] for u in g.adjacency.get(v, ())) for v in names]


def mask_graph(adj) -> AuxGraph:
    """The graph with neighbour masks ``adj`` as an AuxGraph on 0..len - 1."""
    vertices = tuple(range(len(adj)))
    return AuxGraph(frozenset(), vertices,
                    {v: tuple(u for u in vertices if adj[v] >> u & 1) for v in vertices})


def brute_aux_graph(d: DeltaMatroid) -> AuxGraph:
    """The auxiliary graph of ``d`` (the empty set feasible) from its
    definition, on label sets: the hub stands for the elements whose
    singletons are feasible, one vertex per other element in ground order;
    two such elements are adjacent when their pair is feasible, and one is
    adjacent to the hub when its pair with some hub element is. Every
    vertex lists its neighbours in vertex order."""
    feasible = set(d.feasible_sets())
    singles = frozenset(e for e in d.labels if frozenset({e}) in feasible)
    vertices = (HUB, *(e for e in d.labels if e not in singles))

    def adjacent(u, v):
        if u is HUB:
            return any(frozenset({v, z}) in feasible for z in singles)
        if v is HUB:
            return adjacent(v, u)
        return frozenset({u, v}) in feasible

    return AuxGraph(singles, vertices, {
        u: tuple(v for v in vertices if v is not u and adjacent(u, v))
        for u in vertices
    })


def _brute_canonical_cycle(cycle, key):
    """Least rotation/reflection of a cycle's vertex sequence."""
    best = None
    m = len(cycle)
    for seq in (cycle, cycle[::-1]):
        for i in range(m):
            rot = seq[i:] + seq[:i]
            ranked = tuple(key(v) for v in rot)
            if best is None or ranked < best[0]:
                best = (ranked, rot)
    return best[1]


def brute_shortest_odd_cycle(g):
    """A shortest odd cycle of the auxiliary graph ``g`` as a vertex list,
    or None when bipartite: a breadth-first search on the bipartite double
    cover from every vertex, sorting each popped vertex's neighbours into
    vertex order. Ties go to the least canonical vertex sequence."""
    key = {v: i for i, v in enumerate(g.vertices)}.__getitem__
    best = None
    for s in g.vertices:
        dist = {(s, 0): 0}
        parent = {(s, 0): None}
        queue = deque([(s, 0)])
        while queue:
            u, p = queue.popleft()
            for v in sorted(g.adjacency[u], key=key):
                state = (v, 1 - p)
                if state not in dist:
                    dist[state] = dist[(u, p)] + 1
                    parent[state] = (u, p)
                    queue.append(state)
        goal = (s, 1)
        if goal not in dist:
            continue
        walk = []
        state = goal
        while state is not None:
            walk.append(state[0])
            state = parent[state]
        cycle = walk[:-1]  # closed walk; drop the repeated start
        if len(set(cycle)) != len(cycle):
            continue  # not simple; a strictly better start vertex exists
        canon = _brute_canonical_cycle(cycle, key)
        ranked = tuple(key(v) for v in canon)
        if best is None or (len(canon), ranked) < (len(best), tuple(key(v) for v in best)):
            best = canon
    return best


# -- random instances -----------------------------------------------------


def principal_minors(rows, n):
    """The masks S, ascending, whose principal submatrix is nonsingular over
    GF(2), for the symmetric n x n matrix with bitmask rows ``rows`` (bit j
    of ``rows[i]`` is entry (i, j)); the empty submatrix counts as
    nonsingular."""
    out = []
    for s in range(1 << n):
        pivots = {}  # reduced rows of A[S, S], keyed by their highest column
        for i in range(n):
            if s >> i & 1:
                r = rows[i] & s
                while r and r.bit_length() in pivots:
                    r ^= pivots[r.bit_length()]
                if not r:
                    break
                pivots[r.bit_length()] = r
        else:
            out.append(s)
    return out


def _labels(n):
    return tuple(f"e{i + 1}" for i in range(n))


def sample_with_empty_feasible(n, rng):
    """Random delta-matroid with the empty set feasible.

    Draws a random symmetric GF(2) matrix, takes the subsets indexing
    nonsingular principal submatrices as feasible family (a delta-matroid
    by Bouchet's representation theorem), then twists by a random feasible
    set to spread the family while keeping the empty set feasible.
    """
    rows = [0] * n
    for i in range(n):
        rows[i] |= rng.getrandbits(1) << i
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    d = DeltaMatroid(_labels(n), principal_minors(rows, n), _trusted=True)
    return d.twist(rng.choice(d.masks))


def odd_cycle_instance(m, extra, loops, seed):
    """Principal-minor delta-matroid over GF(2) of a symmetric matrix that is
    an m-cycle's adjacency on m of the m + extra elements, with ``loops``
    diagonal ones. Its aux graph is that cycle plus hub edges, so unlike a
    random matrix's it has a long odd cycle, and certify reduces it."""
    rng = random.Random(seed)
    n = m + extra
    rows = [0] * n
    ring = rng.sample(range(n), m)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    for i in rng.sample(range(n), loops):
        rows[i] |= 1 << i
    return validate([f"e{i}" for i in range(n)], principal_minors(rows, n))


def is_gf2_representable(d):
    """Whether ``d`` is a twist of the principal-minor family of a symmetric
    GF(2) matrix. Twisted by a feasible set so that the empty set is
    feasible, it can only be the family of the matrix its singletons and
    pairs force: a_ii = [{i} feasible], a_ij = [{i, j} feasible] + a_ii a_jj."""
    t = d.twist(d.masks[0])
    feasible = set(t.masks)
    loop = [1 << i in feasible for i in range(d.n)]
    rows = [loop[i] << i for i in range(d.n)]
    for i in range(d.n):
        for j in range(i + 1, d.n):
            if (1 << i | 1 << j in feasible) != (loop[i] and loop[j]):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return principal_minors(rows, d.n) == list(t.masks)


@lru_cache(maxsize=None)
def extension_pool(n):
    """Feasible-mask tuples on n elements, 4 <= n <= CHAIN_MAX_ELEMENTS: every
    delta-matroid at n = 4, and above it the extension draws that the axiom
    check accepts. A draw takes P and Q from the pool on n - 1 elements, Q
    possibly empty, and keeps P + {F + e : F in Q} for the new element e at
    position n - 1."""
    if n == 4:
        return tuple(d.masks for d in enumerate_all(4))
    below = extension_pool(n - 1)
    below_or_empty = below + ((),)
    rng = random.Random(n)
    top = 1 << (n - 1)
    pool = []
    for _ in range(2000):
        p = rng.choice(below)
        q = rng.choice(below_or_empty)
        masks = p + tuple(m | top for m in q)
        if find_axiom_violation(masks, n) is None:
            pool.append(masks)
    return tuple(pool)


def draw_with_empty_feasible(n, rng, chain):
    """An extension-chain draw when ``chain`` and n <= CHAIN_MAX_ELEMENTS,
    otherwise ``sample_with_empty_feasible(n, rng)``; either way twisted by
    a random feasible set, so that the empty set is feasible."""
    if not (chain and n <= CHAIN_MAX_ELEMENTS):
        return sample_with_empty_feasible(n, rng)
    d = DeltaMatroid(_labels(n), rng.choice(extension_pool(n)), _trusted=True)
    return d.twist(rng.choice(d.masks))


# -- representations without a family -------------------------------------

# everything certify, is_obstructed, matroid_twist_obstructions and
# Obstruction.verify may read of their input
CERTIFY_READS = ("labels", "n", "full_mask", "mask_of", "set_of", "is_feasible", "is_even",
                 "_least", "_small", "_inside", "_odd_pair", "_twist_width", "_minor_of")


class FamilyReads:
    """A delta-matroid seen through ``CERTIFY_READS`` alone: it has no
    ``masks`` and no ``_pos``, so reaching past the reads raises."""

    __slots__ = CERTIFY_READS

    def __init__(self, d: DeltaMatroid):
        for name in CERTIFY_READS:
            setattr(self, name, getattr(d, name))


class TwistedUniform:
    """U(r, m) twisted by the mask x, on labels e0..e(m-1), holding no
    family: S is feasible iff |S ^ x| = r. Each read has a closed form, in
    O(m) but for the 2^k candidates of a minor keeping k elements. It is
    even, so it has no ``_odd_pair``."""

    def __init__(self, r: int, m: int, x: int):
        self.r, self.x, self.n, self.full_mask = r, x, m, (1 << m) - 1
        self.labels = tuple(f"e{i}" for i in range(m))
        self._index = {e: i for i, e in enumerate(self.labels)}

    def mask_of(self, elems) -> int:
        return elems if isinstance(elems, int) else sum(1 << self._index[e] for e in set(elems))

    def set_of(self, mask: int) -> frozenset:
        return frozenset(e for i, e in enumerate(self.labels) if mask >> i & 1)

    def is_feasible(self, elems) -> bool:
        return (self.mask_of(elems) ^ self.x).bit_count() == self.r

    def is_even(self) -> bool:
        return True

    def _least(self) -> int:
        # the least feasible set is the least of its size
        return min(self._inside(self.full_mask, 0).values())

    def _small(self, f: int) -> set:
        # in the twist by f, T is feasible iff |T ^ y| = |y| + |T| - 2|T & y| = r
        y = f ^ self.x
        ins = [1 << i for i in range(self.n) if y >> i & 1]
        outs = [1 << i for i in range(self.n) if not y >> i & 1]
        gap = len(ins) - self.r
        singles = {1: ins, -1: outs}.get(gap, [])
        pairs = {2: combinations(ins, 2), 0: product(ins, outs), -2: combinations(outs, 2)}
        return set(singles) | {a | b for a, b in pairs.get(gap, ())}

    def _inside(self, a: int, f: int) -> dict:
        # T inside a is feasible in the twist by f iff q - p = r - |y|, for p
        # of its elements in y and q outside; the least such T of size p + q
        # takes the lowest p of a & y and the lowest q of a - y
        y = f ^ self.x
        lows = []
        for part in (a & y, a & ~y):
            lows.append([0])
            for i in range(self.n):
                if part >> i & 1:
                    lows[-1].append(lows[-1][-1] | 1 << i)
        (ones, zeros), shift = lows, self.r - y.bit_count()
        return {2 * p + shift: ones[p] | zeros[p + shift]
                for p in range(max(0, -shift), len(ones)) if p + shift < len(zeros)}

    def _twist_width(self, t: int) -> int:
        # |F ^ t| = z + r - 2|B & z| for F = x ^ B with |B| = r and z = t ^ x
        z = (t ^ self.x).bit_count()
        return 2 * (min(self.r, z) - max(0, self.r + z - self.n))

    def _minor_of(self, x: int, y: int):
        # F is S on the kept positions, P in x and Q in y; |P ^ self.x| and
        # |Q ^ self.x| on them add up to d = r - |S ^ self.x|, so the least
        # score |P| + |y - Q| at S is |d - |x & self.x| - |y - self.x||, when
        # 0 <= d <= |x | y|
        keep = self.full_mask & ~(x | y)
        bits = [1 << i for i in range(self.n) if keep >> i & 1]
        near = (x & self.x).bit_count() + (y & ~self.x).bit_count()
        cost = {}
        for s in range(1 << len(bits)):
            d = self.r - (sum(b for j, b in enumerate(bits) if s >> j & 1) ^ self.x & keep).bit_count()
            if 0 <= d <= (x | y).bit_count():
                cost[s] = abs(d - near)
        best = min(cost.values())
        return [self.labels[b.bit_length() - 1] for b in bits], tuple(s for s, c in cost.items() if c == best)

    def family(self) -> DeltaMatroid:
        """The same delta-matroid with its family listed."""
        bits = [1 << i for i in range(self.n)]
        masks = [self.x ^ sum(c) for c in combinations(bits, self.r)]
        return DeltaMatroid(self.labels, masks, _trusted=True)
