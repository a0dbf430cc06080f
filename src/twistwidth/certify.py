"""Constructive certificates for twist-width at most one.

Given any delta-matroid, ``certify`` produces either a twist set whose
twist has width at most one, or a minor witness onto a twist of one of the
five catalog obstructions. When the empty set is infeasible, it certifies
the twist by the smallest feasible set F instead, in which the empty set
is feasible, and lifts the result back: a twist set T becomes T ^ F, and
deleting (contracting) an element of F there is contracting (deleting) it
here.

On an instance with the empty set feasible, the procedure builds an
auxiliary graph from the size-one and size-two feasible sets: a hub vertex
standing for the elements whose singletons are feasible, one vertex per
remaining element, and edges recording two-element feasible sets. A
bipartite graph yields a twist set from a 2-coloring (or a small forbidden
restriction); a non-bipartite graph yields a forbidden minor by induction
on the length of a shortest odd cycle. The graph is 2-colored first, in
O(V + E). When that coloring fails, the least triangle is looked for
directly; the O(V·E) all-sources odd-cycle search runs only on a graph
with no triangle. Through the cases, the reduction and the lift a minor
witness is its delete set, its contract set and its catalog index;
``certify`` looks its label map up on the input, by ``minors._witness``.

Every certificate is re-verified from scratch once, before ``certify``
returns it; a failed re-check raises instead of silently falling back.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .core import DeltaMatroid, DeltaMatroidError, _labels_at, _small_masks
from .minors import CertificationError, Obstruction, _minor_of, _verified, _witness, catalog
from .structure import _twist_width


class _Hub:
    """Distinguished auxiliary-graph vertex; never collides with labels."""

    def __repr__(self):
        return "v_L"

    def __reduce__(self):
        # pickled by name, so copies and unpickled graphs keep the one hub
        return "HUB"


HUB = _Hub()


class TwistWitness(NamedTuple):
    """Twisting by ``twist_set`` yields a delta-matroid of this width."""

    twist_set: frozenset
    width: int


class MinorWitness(NamedTuple):
    """A verified minor isomorphic to ``obstruction.target``: the catalog
    member ``catalog()[obstruction.target_index]`` itself when the empty set
    is feasible, and otherwise a twist of it."""

    obstruction: Obstruction


class AuxGraph(NamedTuple):
    """Auxiliary graph driving the certificate procedure.

    ``singles`` holds the elements whose singletons are feasible (they are
    all represented by the hub); ``vertices`` are the remaining elements in
    ground order, preceded by the hub; ``adjacency`` maps each vertex to a
    tuple of its neighbours in vertex order.
    """

    singles: frozenset
    vertices: tuple
    adjacency: dict

    def edges(self):
        seen = []
        for i, u in enumerate(self.vertices):
            for v in self.vertices[i + 1:]:
                if v in self.adjacency[u]:
                    seen.append((u, v))
        return seen


def build_aux_graph(d: DeltaMatroid) -> AuxGraph:
    """Construct the auxiliary graph; the empty set must be feasible."""
    if d.masks[0] != 0:
        raise DeltaMatroidError("the empty set must be feasible")
    near = [0] * d.n  # bit j of near[i]: {i, j} is feasible
    singles = 0
    for m in _small_masks(d.n).intersection(d.masks):
        low = m & -m
        if m == low:
            singles |= m
        else:
            near[low.bit_length() - 1] |= m ^ low
            near[(m ^ low).bit_length() - 1] |= low
    labels = d.labels
    rest = d.full_mask & ~singles
    others = [i for i in range(d.n) if rest >> i & 1]
    adjacency = {HUB: tuple([labels[i] for i in others if near[i] & singles])}
    for i in others:
        # {i} is infeasible, so i is not its own neighbour
        adj = [HUB] if near[i] & singles else []
        adjacency[labels[i]] = tuple(adj + _labels_at(labels, near[i] & rest))
    return AuxGraph(d.set_of(singles), tuple(adjacency), adjacency)


def two_coloring(g: AuxGraph):
    """BFS 2-coloring with the hub colored 0, or None if non-bipartite.

    Components are rooted in vertex order with root color 0, so the
    coloring is deterministic.
    """
    color = {}
    for root in g.vertices:
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def _canonical_cycle(cycle, key):
    """The least rotation or reflection of a simple cycle's vertex sequence
    under ``key``, as (its ranks, the sequence). The vertices are distinct,
    so the least sequence starts at the least vertex and goes on to the
    lesser of its two neighbours: O(m)."""
    i = cycle.index(min(cycle, key=key))
    seq = cycle[i:] + cycle[:i]
    if key(seq[-1]) < key(seq[1]):
        seq = seq[:1] + seq[:0:-1]
    return tuple(map(key, seq)), seq


def shortest_odd_cycle(g: AuxGraph):
    """A shortest odd cycle as a vertex list, or None when bipartite.

    Ties are broken by the lexicographically smallest canonical vertex
    sequence. A triangle's canonical form is its vertices in vertex order,
    so the least triangle is read off directly: the first u in vertex order
    on a triangle, its first neighbour v on a triangle with it, and their
    first common neighbour w. No triangle runs through a vertex before u,
    and a common neighbour before v would have been found as v, so
    u < v < w. Only a graph with no triangle pays for the O(V·E)
    breadth-first search of ``_odd_cycle_search``. ``certify`` calls this
    only after ``two_coloring`` has found the graph non-bipartite.
    """
    adj = g.adjacency
    for u in g.vertices:
        near = set(adj[u])
        for v in adj[u]:
            for w in adj[v]:
                if w in near:
                    return [u, v, w]
    return _odd_cycle_search(g)


def _odd_cycle_search(g: AuxGraph):
    """Breadth-first search on the bipartite double cover from every
    vertex; the least odd closed walk overall is a simple cycle, and the
    least canonical one of that length is returned. O(V·E)."""
    key = {v: i for i, v in enumerate(g.vertices)}.__getitem__
    best = None
    for s in g.vertices:
        parent = {(s, 0): None}
        queue = deque([(s, 0)])
        while queue:
            u, p = queue.popleft()
            for v in g.adjacency[u]:
                state = (v, 1 - p)
                if state not in parent:
                    parent[state] = (u, p)
                    queue.append(state)
        goal = (s, 1)
        if goal not in parent:
            continue
        walk = []
        state = goal
        while state is not None:
            walk.append(state[0])
            state = parent[state]
        cycle = walk[:-1]  # closed walk; drop the repeated start
        if len(set(cycle)) != len(cycle):
            continue  # not simple; a strictly better start vertex exists
        ranked, canon = _canonical_cycle(cycle, key)
        if best is None or (len(ranked), ranked) < (len(best[0]), best[0]):
            best = ranked, canon
    return None if best is None else best[1]


# -- certificate assembly -------------------------------------------------


def _minor_witness(d, keep, contract, index):
    """(delete set, contract set, index): restricting ``d`` to ``keep`` and
    then contracting ``contract`` gives the catalog entry ``index``."""
    return frozenset(d.labels) - frozenset(keep), frozenset(contract), index


def _compose(d, keep, contract, inner):
    """Lift a witness on restrict(d, keep) / contract back to ``d``: the
    minor it names is the inner one, so the sets are unions."""
    delete, contract, index = _minor_witness(d, keep, contract, inner[2])
    return delete | inner[0], contract | inner[1], index


def _bipartite_case(d, g, color):
    singles = g.singles
    a_elems = set(singles) | {
        v for v in g.vertices[1:] if color[v] == 0
    }
    amask = d.mask_of(a_elems)
    inside = [m for m in d.masks if not m & ~amask]
    sizes = {m.bit_count() for m in inside}
    if 2 in sizes:
        pair = next(m for m in inside if m.bit_count() == 2)
        return _minor_witness(d, d.set_of(pair), (), 0)
    if 1 not in sizes:
        width = 0
    elif max(sizes) == 1:
        width = 1
    else:
        triples = [m for m in inside if m.bit_count() == 3]
        if not triples:
            raise CertificationError(
                "restriction has large feasible sets but none of size three"
            )
        return _minor_witness(d, d.set_of(triples[0]), (), 1)
    best = min(amask, d.full_mask & ~amask)
    return TwistWitness(d.set_of(best), width)


def _partner_in_singles(d, g, x):
    """Smallest single-feasible element z (ground order) with {x,z} feasible."""
    xbit = 1 << d._pos[x]
    for z in d.labels:
        if z in g.singles and d.is_feasible(xbit | (1 << d._pos[z])):
            return z
    raise CertificationError(f"hub edge for {x!r} has no feasible partner")


def _hub_triangle(d, x, y, s):
    """Triangle through the hub with a shared partner s for x and y."""
    if d.is_feasible([x, y, s]):
        return _minor_witness(d, {x, y, s}, {s}, 0)
    return _minor_witness(d, {x, y, s}, (), 4)


def _triangle_case(d, g, cycle):
    if HUB not in cycle:
        # the three pairs are feasible and no singleton is; entry 3 adds the triple
        return _minor_witness(d, set(cycle), (), 3 if d.is_feasible(cycle) else 2)
    i = cycle.index(HUB)
    _, x, y = cycle[i:] + cycle[:i]
    alpha = _partner_in_singles(d, g, x)
    beta = _partner_in_singles(d, g, y)
    if d.is_feasible([y, alpha]):
        return _hub_triangle(d, x, y, alpha)
    if d.is_feasible([x, beta]):
        return _hub_triangle(d, y, x, beta)
    if d.is_feasible([alpha, beta]):
        return _minor_witness(d, {alpha, beta}, (), 0)
    if d.is_feasible([x, y, alpha, beta]):
        return _minor_witness(d, {x, y, alpha, beta}, {x, y}, 0)
    return _minor_witness(d, {x, y, alpha, beta}, {alpha}, 4)


def _long_cycle_case(d, g, cycle):
    if HUB in cycle:
        i = cycle.index(HUB)
        cycle = cycle[i:] + cycle[:i]
        xs = cycle[1:]
        alpha = _partner_in_singles(d, g, xs[0])
        beta = _partner_in_singles(d, g, xs[-1])
        if alpha != beta and d.is_feasible([alpha, beta]):
            return _minor_witness(d, {alpha, beta}, (), 0)
        keep = {alpha, beta, *xs}
    else:
        xs = cycle
        keep = set(xs)
    contract = {xs[-2], xs[-1]}
    sub = d.minor(set(d.labels) - keep, contract)
    inner = _certify_impl(sub, len(cycle))
    if isinstance(inner, TwistWitness):
        raise CertificationError(
            "reduced instance unexpectedly produced a twist witness"
        )
    return _compose(d, keep, contract, inner)


def _certify_impl(d, prev_cycle_len):
    g = build_aux_graph(d)
    color = two_coloring(g)
    if color is not None:
        if prev_cycle_len is not None:
            raise CertificationError(
                "reduced instance lost its odd cycle entirely"
            )
        return _bipartite_case(d, g, color)
    cycle = shortest_odd_cycle(g)
    if prev_cycle_len is not None and len(cycle) >= prev_cycle_len:
        raise CertificationError(
            "shortest odd cycle failed to shrink in the reduction"
        )
    if len(cycle) == 3:
        return _triangle_case(d, g, cycle)
    return _long_cycle_case(d, g, cycle)


def _lift(d, f, cert):
    """Carry a certificate of ``d`` twisted by the mask ``f`` back to ``d``."""
    fset = d.set_of(f)
    if isinstance(cert, TwistWitness):
        return TwistWitness(cert.twist_set ^ fset, cert.width)
    delete, contract, index = cert
    moved = (delete | contract) & fset  # deleting e from d twisted by F contracts it from d
    return delete ^ moved, contract ^ moved, index


def _certificate(d: DeltaMatroid):
    """``certify(d)`` with a twist witness's width re-checked on ``d``, and a
    minor witness as its (delete set, contract set, catalog index)."""
    f = d.masks[0]
    cert = _certify_impl(d.twist(f) if f else d, None)
    if f:
        cert = _lift(d, f, cert)
    if isinstance(cert, TwistWitness):
        actual = _twist_width(d, d.mask_of(cert.twist_set))
        if actual != cert.width or actual > 1:
            raise CertificationError(
                f"twist witness claims width {cert.width}, got {actual}"
            )
    return cert


def certify(d: DeltaMatroid):
    """Certificate for any delta-matroid ``d``.

    Returns a TwistWitness with width at most one, or a MinorWitness onto a
    twist of a catalog obstruction. If the smallest feasible set F is not
    empty, the twist of ``d`` by F is certified and the witness lifted back
    to ``d``; otherwise ``d`` is certified as it is. The result is
    independently re-verified on ``d`` itself, once; an unverifiable
    certificate raises CertificationError.
    """
    cert = _certificate(d)
    if isinstance(cert, TwistWitness):
        return cert
    delete, contract, index = cert
    target = catalog()[index]
    minor = _minor_of(d, delete, contract)
    if f := d.masks[0]:
        # phi maps the minor of d twisted by F, the one certified, onto the
        # member; the minor of d is that one twisted by F - X - Y, so it is
        # isomorphic to the member twisted by phi's image of F - X - Y
        kept, masks = minor
        z = sum(1 << k for k, e in enumerate(kept) if f >> d._pos[e] & 1)
        twisted = kept, tuple(sorted([m ^ z for m in masks]))
        phi = _witness(twisted, delete, contract, ((index, target),)).iso
        target = target.twist([phi[e] for e in d.set_of(f) - delete - contract])
    return MinorWitness(_verified(d, _witness(minor, delete, contract, ((index, target),))))
