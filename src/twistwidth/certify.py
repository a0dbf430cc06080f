"""Constructive certificates for twist-width at most one.

Given any delta-matroid D, ``certify`` produces either a twist set whose twist
has width at most one, or a minor witness onto a twist of one of the five
catalog obstructions. It certifies D twisted by its least feasible set f, in
which the empty set is feasible, and lifts the result back: a twist set T
becomes T ^ f, and deleting (contracting) an element of f there contracts
(deletes) it here.

The auxiliary graph has a hub standing for the elements whose singletons are
feasible, one vertex per other element, and an edge per feasible pair. Vertex
0 is the hub and vertex i + 1 is element i, so a vertex's neighbours are one
mask. One breadth-first search over whole levels 2-colors it in O(V + E); a
bipartite graph yields a twist set (or a small forbidden restriction).
Otherwise a loop runs the induction on the length of a shortest odd cycle:
each level reads its least triangle off the masks, pays for the O(V·E) search
only without one, and names a catalog member or reduces to a level with a
shorter odd cycle. Levels are (kept, shut) views of D twisted by f, on its
positions, so no minor or twist is built. A certificate stays masks until
``minors._witness`` labels it, computes its minor once, looks it up once on
a route of ``minors._target_table`` and verifies it.

``certify``, ``is_obstructed`` (through ``_certified_minor``) and the even
branch of ``matroid_twist_obstructions`` read one certificate per instance,
``_certificate(d)``. The first of them to run on ``d`` pays for the
procedure and keeps the masks, a twist witness once its width is re-checked,
in ``d._cert``; the later ones pay only that read, the lookup and the
verify. The odd branch names its minor directly. Every record is built
afresh and verified on ``d`` in the call that returns it: a failure raises.

D is read only through ``labels``, the ``_cert`` above if it has one, and
seven reads on masks, which a representation implements (``DeltaMatroid``
from its sorted family): ``is_feasible(s)``; ``_least()``, the least
feasible f; ``_small(f)``, the feasible sets of one or two elements of D*f;
``_inside(a, f)``, the least feasible set of each size inside a, in D*f;
``_odd_pair()``, None when D is even, else the first feasible F with some
F + e feasible, and its lowest e; ``_twist_width(t)``, the width of D*t;
and ``_minor_of(x, y)``, the packed ascending masks of the minor deleting x
and contracting y, which keeps at most three elements. Masks become labels
only through ``core._labels_at``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .core import DeltaMatroid, _labels_at
from .minors import (_D5_ROUTE, _MATROID_TWIST_ROUTE, _MEMBER_ROUTES, CertificationError,
                     Obstruction, _target_table, _witness)


class TwistWitness(NamedTuple):
    """Twisting by ``twist_set`` yields a delta-matroid of this width."""

    twist_set: frozenset
    width: int


class MinorWitness(NamedTuple):
    """A verified minor isomorphic to ``obstruction.target``: the first twist,
    in mask order, of the catalog member ``catalog()[obstruction.target_index]``
    that it maps onto; the member itself when the empty set is feasible."""

    obstruction: Obstruction


def _aux(d, f, shut, kept):
    """(singles, adj) of the level (kept, shut) of ``d`` twisted by ``f``, on
    host positions: the kept e with {e} | shut feasible, and each vertex's
    neighbour mask, isolated outside kept and for a single-feasible element,
    whose pairs are hub edges. Level 0 reads them all with ``d._small``; a
    reduced level asks for the k(k+1)/2 small sets of its k kept elements."""
    n = kept.bit_length()
    if shut:
        bits = [1 << i for i in range(n) if kept >> i & 1]
        hits = filter(_query(d, shut ^ f), [b | c for i, b in enumerate(bits) for c in bits[i:]])
    else:
        hits = d._small(f)
    adj, singles = [0] * (n + 1), 0
    for m in hits:
        if m & m - 1:
            low = m & -m
            adj[low.bit_length()] |= (m ^ low) << 1
            adj[(m ^ low).bit_length()] |= low << 1
        else:
            singles |= m
    hubs = singles << 1
    for v in range(1, len(adj)):
        if hubs >> v & 1:
            adj[v] = 0
        elif adj[v] & hubs:
            adj[0] |= 1 << v
            adj[v] = adj[v] & ~hubs | 1
    return singles, adj


def _coloring(adj):
    """The vertices at even depth of a breadth-first search over whole
    levels, each component rooted at its least vertex, or None when an edge
    joins two vertices of one level, which closes an odd cycle."""
    even, unseen = 0, (1 << len(adj)) - 1
    while unseen:
        level, keep = unseen & -unseen, -1  # all ones on even levels, 0 on odd
        while level:
            unseen ^= level
            even |= level & keep
            below, rest = 0, level
            while rest:
                near = adj[(rest & -rest).bit_length() - 1]
                if near & level:
                    return None
                below |= near
                rest &= rest - 1
            level, keep = below & unseen, ~keep
    return even


def _canonical_cycle(cycle):
    """The least rotation or reflection of a simple cycle's vertex sequence,
    its vertices ints. They are distinct, so the least sequence starts at
    the least vertex and goes on to the lesser of its two neighbours: O(m)."""
    i = cycle.index(min(cycle))
    seq = cycle[i:] + cycle[:i]
    if seq[-1] < seq[1]:
        seq = seq[:1] + seq[:0:-1]
    return seq


def _shortest_cycle(adj):
    """A shortest odd cycle of the graph with neighbour masks ``adj`` as a
    vertex list, or None when it is bipartite; ties go to the least
    canonical sequence. A triangle's canonical form is its vertices in
    ascending order, so the least triangle is read off directly: the first
    u on a triangle, its first neighbour v on one with it, and the least w
    in adj[u] & adj[v]; u < v < w. Only a graph with no triangle pays for
    the search of ``_odd_cycle_search``."""
    for u, near in enumerate(adj):
        rest = near
        while rest:
            v = (rest & -rest).bit_length() - 1
            if common := near & adj[v]:
                return [u, v, (common & -common).bit_length() - 1]
            rest &= rest - 1
    return _odd_cycle_search(adj)


def _odd_cycle_search(adj):
    """Breadth-first search on the bipartite double cover from every
    vertex, neighbours in ascending order; a state is vertex << 1 | parity.
    The least odd closed walk overall is a simple cycle, and the least
    canonical one of that length is returned. O(V·E)."""
    best = None
    for s in range(len(adj)):
        parent = {s << 1: None}
        queue = deque([s << 1])
        while queue:
            state = queue.popleft()
            rest, flip = adj[state >> 1], ~state & 1
            while rest:
                nxt = (rest & -rest).bit_length() - 1 << 1 | flip
                if nxt not in parent:
                    parent[nxt] = state
                    queue.append(nxt)
                rest &= rest - 1
        state = s << 1 | 1
        if state not in parent:
            continue
        walk = []
        while state is not None:
            walk.append(state >> 1)
            state = parent[state]
        cycle = walk[:-1]  # closed walk; drop the repeated start
        if len(set(cycle)) != len(cycle):
            continue  # not simple; a strictly better start vertex exists
        canon = _canonical_cycle(cycle)
        if best is None or (len(canon), canon) < (len(best), best):
            best = canon
    return best


# -- certificate assembly: twist sets and witnesses are masks --------------


def _bipartite_case(d, f, full, even):
    # a single-feasible element's vertex is isolated, so at even depth too:
    # A is the singles and the elements colored like the hub
    amask = even >> 1
    first = d._inside(amask, f)
    if 2 in first:
        return full & ~first[2], 0, 0
    if max(first) > 1:
        # exchange from the empty set puts a singleton or a pair below it
        if 3 not in first:
            raise CertificationError("restriction has large feasible sets but none of size three")
        return full & ~first[3], 0, 1
    return TwistWitness(min(amask, full & ~amask), max(first))


def _query(d, off):
    """The feasibility query of the level whose contracted set XOR f is ``off``."""
    return (lambda s: d.is_feasible(s ^ off)) if off else d.is_feasible


def _partner_in_singles(feasible, singles, x):
    """Lowest single-feasible element bit z with x | z feasible."""
    rest = singles
    while rest:
        z = rest & -rest
        if feasible(x | z):
            return z
        rest ^= z
    raise CertificationError(f"hub edge at position {x.bit_length() - 1} has no feasible partner")


def _triangle_case(feasible, singles, cycle):
    # a cycle starts at its least vertex, so at the hub when it is on it
    w, x, y = (1 << v >> 1 for v in cycle)
    if w:
        # the three pairs are feasible and no singleton is; entry 3 adds the triple
        return w | x | y, 0, 3 if feasible(w | x | y) else 2
    alpha = _partner_in_singles(feasible, singles, x)
    beta = _partner_in_singles(feasible, singles, y)
    for s, z in ((alpha, y), (beta, x)):
        if feasible(z | s):
            # a triangle through the hub with a partner s shared by x and y
            t = x | y | s
            return (t, s, 0) if feasible(t) else (t, 0, 4)
    if feasible(alpha | beta):
        return alpha | beta, 0, 0
    if feasible(x | y | alpha | beta):
        return x | y | alpha | beta, x | y, 0
    return x | y | alpha | beta, alpha, 4


def _long_cycle_case(feasible, singles, cycle):
    xs = [1 << v >> 1 for v in cycle if v]
    keep = sum(xs)
    if not cycle[0]:
        alpha = _partner_in_singles(feasible, singles, xs[0])
        beta = _partner_in_singles(feasible, singles, xs[-1])
        if alpha != beta and feasible(alpha | beta):
            return alpha | beta, 0, 0
        keep |= alpha | beta
    return keep, xs[-2] | xs[-1], None  # reduce: contract the cycle's last two


def _certify_impl(d):
    """Certificate masks of ``d`` twisted by its least feasible set f. On a
    level (kept, shut), shut is feasible and S is feasible when (S | shut) ^ f
    is; a case gives (keep, contract, index), index None for a reduction."""
    f, full = d._least(), (1 << len(d.labels)) - 1
    singles, adj = _aux(d, f, 0, full)
    if (even := _coloring(adj)) is not None:  # only level 0 is 2-colored
        return _bipartite_case(d, f, full, even)
    shut, last = 0, len(adj) + 1  # longer than any cycle
    while (cycle := _shortest_cycle(adj)) is not None:
        if len(cycle) >= last:
            raise CertificationError("shortest odd cycle failed to shrink in the reduction")
        case = _triangle_case if len(cycle) == 3 else _long_cycle_case
        keep, contract, index = case(_query(d, shut ^ f), singles, cycle)
        shut |= contract
        if index is not None:
            return full & ~(keep | shut), shut, index
        last, (singles, adj) = len(cycle), _aux(d, f, shut, keep & ~shut)
    raise CertificationError("reduced instance lost its odd cycle entirely")


def _lift(f, cert):
    """Carry a certificate of D twisted by the mask ``f`` back to D."""
    if isinstance(cert, TwistWitness):
        return TwistWitness(cert.twist_set ^ f, cert.width)
    delete, contract, index = cert
    moved = (delete | contract) & f  # deleting e from d twisted by F contracts it from d
    return delete ^ moved, contract ^ moved, index


def _certificate(d: DeltaMatroid):
    """``certify(d)`` on masks: a twist witness whose ``twist_set`` is a mask,
    its width re-checked on ``d``, or a minor witness as its (delete mask,
    contract mask, catalog index). The first call keeps it in ``d._cert``,
    which later calls return; a representation that cannot hold that
    attribute, a class whose ``__slots__`` leave it out, pays for the
    procedure on every call."""
    if (cert := getattr(d, "_cert", None)) is not None:
        return cert
    cert = _certify_impl(d)
    if f := d._least():
        cert = _lift(f, cert)
    if isinstance(cert, TwistWitness):
        actual = d._twist_width(cert.twist_set)
        if actual != cert.width or actual > 1:
            raise CertificationError(f"twist witness claims width {cert.width}, got {actual}")
    try:
        object.__setattr__(d, "_cert", cert)
    except AttributeError:
        pass
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
        return TwistWitness(frozenset(_labels_at(d.labels, cert.twist_set)), cert.width)
    x, y, index = cert
    return MinorWitness(_witness(d, x, y, _MEMBER_ROUTES[index]))


# -- the obstruction routes: a minor witness on a route's own targets ------


def _certified_minor(d: DeltaMatroid, route):
    """certify(d)'s minor witness masks matched on ``route`` and verified
    once, or None when certify finds a twist of width at most one. The first
    call builds the target table, witness or not, so that no later call pays
    for it."""
    _target_table()
    cert = _certificate(d)
    if isinstance(cert, TwistWitness):
        return None
    x, y, _ = cert
    return _witness(d, x, y, route)


def is_obstructed(d: DeltaMatroid):
    """A minor of ``d`` isomorphic to a member of D5, or None.

    This is ``certify(d)``'s minor witness, whose delete and contract sets
    it keeps, with ``target_index`` indexing ``d5_family(up_to_iso=True)``;
    CertificationError if it fails to verify.
    """
    return _certified_minor(d, _D5_ROUTE)


def matroid_twist_obstructions(d: DeltaMatroid):
    """Minor witness ruling out any width-zero twist, or None.

    Twists keep parity and matroids are even. An odd ``d`` has feasible F
    and F + e; for the first such F in mask order and its lowest e,
    deleting E - F - e and contracting F leaves the singleton {∅, {e}}
    (``target_index`` 0). An even ``d`` has no width-one twist, so it has a
    matroid twist exactly when ``certify`` finds a twist witness; otherwise
    its D5 minor is even, so a twist of the odd triangle, and is carried
    onto the triangle (1) or its twist (2). CertificationError if it fails to
    verify.
    """
    if (pair := d._odd_pair()) is None:
        return _certified_minor(d, _MATROID_TWIST_ROUTE)
    # a closest feasible pair of opposite parity is one exchange step apart
    f, i = pair
    return _witness(d, (1 << len(d.labels)) - 1 ^ f ^ 1 << i, f, _MATROID_TWIST_ROUTE)
