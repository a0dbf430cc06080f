"""Isomorphism, the five-member obstruction catalog, and minor detection.

The twists of the five catalog members (D5) are the excluded minors for
having a twist of width at most one. Isomorphism is brute force over label
permutations of up to eight elements; ``is_obstructed`` and
``matroid_twist_obstructions`` have no such limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations

from .core import DeltaMatroid, GroundSetError

MAX_ISO_ELEMENTS = 8


@dataclass
class Obstruction:
    """A minor witness: minor(host, delete_set, contract_set) is isomorphic
    to ``target`` (entry ``target_index`` of the list it was matched to)."""

    delete_set: frozenset
    contract_set: frozenset
    iso: dict = field(repr=False)
    target: DeltaMatroid = field(repr=False)
    target_index: int = 0

    def verify(self, host: DeltaMatroid) -> bool:
        """Re-check the witness against ``host`` from scratch: ``iso`` must
        be a bijection from the minor's labels onto the target's that
        carries the minor's feasible masks exactly onto the target's."""
        minor = host.minor(self.delete_set, self.contract_set)
        pos = self.target._pos
        perm = [pos.get(self.iso.get(e)) for e in minor.labels]
        return (
            len(self.iso) == minor.n == self.target.n
            and set(perm) == set(range(minor.n))
            and _permuted_masks(minor.masks, perm) == self.target.masks
        )


@lru_cache(maxsize=1)
def catalog() -> tuple[DeltaMatroid, ...]:
    """The five minimal obstructions, on elements a, b (and c)."""

    def make(labels, family):
        return DeltaMatroid(labels, [frozenset(f) for f in family])

    return (
        make("ab", ["", "a", "b", "ab"]),
        make("abc", ["", "a", "b", "c", "abc"]),
        make("abc", ["", "ab", "bc", "ac"]),
        make("abc", ["", "ab", "bc", "ac", "abc"]),
        make("abc", ["", "a", "ab", "bc", "ac"]),
    )


def _permuted_masks(masks, perm) -> tuple[int, ...]:
    out = []
    for m in masks:
        p = 0
        i = 0
        while m:
            if m & 1:
                p |= 1 << perm[i]
            m >>= 1
            i += 1
        out.append(p)
    return tuple(sorted(out))


def canonical_form(d: DeltaMatroid) -> tuple:
    """Label-free key: lexicographically least sorted mask family over all
    label permutations. Equal keys mean isomorphic delta-matroids."""
    if d.n > MAX_ISO_ELEMENTS:
        raise GroundSetError(
            f"canonical form limited to {MAX_ISO_ELEMENTS} elements"
        )
    best = min(
        _permuted_masks(d.masks, perm) for perm in permutations(range(d.n))
    )
    return (d.n, best)


def _signature(d: DeltaMatroid) -> tuple[int, ...]:
    return tuple(sorted(m.bit_count() for m in d.masks))


def are_isomorphic(d1: DeltaMatroid, d2: DeltaMatroid):
    """A feasibility-preserving label bijection d1 -> d2, or None.

    Ground sets of different sizes simply yield None. Permutations are
    tried in lexicographic order, so the returned map is deterministic.
    """
    if d1.n != d2.n or len(d1.masks) != len(d2.masks):
        return None
    if d1.n > MAX_ISO_ELEMENTS:
        raise GroundSetError(
            f"isomorphism search limited to {MAX_ISO_ELEMENTS} elements"
        )
    if _signature(d1) != _signature(d2):
        return None
    target = d2.masks
    for perm in permutations(range(d1.n)):
        if _permuted_masks(d1.masks, perm) == target:
            return {d1.labels[i]: d2.labels[perm[i]] for i in range(d1.n)}
    return None


def d5_family(up_to_iso: bool = False) -> list[DeltaMatroid]:
    """All twists of the catalog members (36 raw), optionally deduplicated
    up to isomorphism via canonical forms (first representative kept)."""
    members = []
    for base in catalog():
        for a in range(base.full_mask + 1):
            members.append(base.twist(a))
    if not up_to_iso:
        return members
    seen = set()
    out = []
    for m in members:
        key = canonical_form(m)
        if key not in seen:
            seen.add(key)
            out.append(m)
    return out


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
    sig = _signature(h)
    for x, y in _disjoint_pairs(d.n, excess):
        minor = d.minor(x, y)
        if _signature(minor) != sig:
            continue
        iso = are_isomorphic(minor, h)
        if iso is not None:
            return Obstruction(d.set_of(x), d.set_of(y), iso, h, target_index)
    return None


@lru_cache(maxsize=1)
def _obstruction_scan_list() -> tuple[DeltaMatroid, ...]:
    return tuple(d5_family(up_to_iso=True))


def is_obstructed(d: DeltaMatroid):
    """A minor of ``d`` isomorphic to a member of D5, or None.

    Certifies the twist of ``d`` by its smallest feasible set F, then swaps
    delete and contract on F in the minor witness (tag ``l1``); F and
    certify's choices fix it. ``target_index`` indexes
    ``d5_family(up_to_iso=True)``; CertificationError if it fails to verify.
    """
    from .certify import MinorWitness, certify, match_minor
    f = d.set_of(d.masks[0])
    cert = certify(d.twist(f))
    if not isinstance(cert, MinorWitness):
        return None
    x, y = cert.obstruction.delete_set, cert.obstruction.contract_set
    moved = (x | y) & f  # deleting e from d twisted by F contracts it from d
    targets = enumerate(_obstruction_scan_list())
    return match_minor(d, x ^ moved, y ^ moved, targets)


@lru_cache(maxsize=1)
def _matroid_twist_targets() -> tuple[DeltaMatroid, ...]:
    # the width-one singleton, the odd triangle, and its single-element twist
    single = DeltaMatroid("a", ["", "a"])
    triangle = catalog()[2]
    return (single, triangle, triangle.twist("a"))


def matroid_twist_obstructions(d: DeltaMatroid):
    """Minor witness ruling out any width-zero twist, or None.

    Twists keep parity and matroids are even. An odd ``d`` has feasible F
    and F + e; for the first such F in mask order and its lowest e,
    deleting E - F - e and contracting F leaves the singleton {∅, {e}}
    (``target_index`` 0). An even ``d`` has no width-one twist, so it has a
    matroid twist exactly when ``is_obstructed`` finds no D5 minor; that
    minor is even, so a twist of the odd triangle, and is matched to the
    triangle (1) or its twist (2). CertificationError if it fails to verify.
    """
    from .certify import match_minor
    single, triangle, twisted = _matroid_twist_targets()
    if d.is_even():
        obs = is_obstructed(d)
        if obs is None:
            return None
        targets = ((1, triangle), (2, twisted))
        return match_minor(d, obs.delete_set, obs.contract_set, targets)
    feasible = set(d.masks)
    # a closest feasible pair of opposite parity is one exchange step apart
    f, e = next((f, 1 << i) for f in d.masks for i in range(d.n)
                if not f >> i & 1 and f | 1 << i in feasible)
    return match_minor(d, d.full_mask ^ f ^ e, f, ((0, single),))
