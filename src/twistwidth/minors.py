"""The five-member obstruction catalog and minor witnesses.

The twists of the five catalog members (D5) are the excluded minors for
having a twist of width at most one. No entry point searches for an
isomorphism: each looks its witness's label map up on the input with
``_witness``, in ``_witness_table`` for the list of targets it answers
with, which holds the first target a family matches and the first label
permutation in lexicographic order that maps it there.
``_route_targets`` holds the target lists of the two obstruction routes,
which run in ``certify``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

from .core import DeltaMatroid, _minor_of


class Obstruction(NamedTuple):
    """A minor witness: minor(host, delete_set, contract_set) is isomorphic
    to ``target``. ``target_index`` is the entry of the list it was matched
    to; from ``certify`` on a host with the empty set infeasible, ``target``
    is a twist of that entry rather than the entry itself."""

    delete_set: frozenset
    contract_set: frozenset
    iso: dict
    target: DeltaMatroid
    target_index: int = 0

    def __repr__(self):
        # iso and target stay out of the text CertificationError messages print
        return (f"Obstruction(delete_set={self.delete_set!r}, "
                f"contract_set={self.contract_set!r}, target_index={self.target_index!r})")

    def verify(self, host: DeltaMatroid) -> bool:
        """Re-check on ``host`` from scratch: disjoint delete and contract sets
        of its labels, and ``iso`` a bijection onto the target's labels and masks."""
        delete, contract = self.delete_set, self.contract_set
        if delete & contract or not host._pos.keys() >= delete | contract:
            return False
        kept, masks = _minor_of(host, delete, contract)
        perm = [self.target._pos.get(self.iso.get(e)) for e in kept]
        return (
            len(self.iso) == len(kept) == self.target.n
            and set(perm) == set(range(len(kept)))
            and _permuted_masks(masks, perm) == self.target.masks
        )


class CertificationError(RuntimeError):
    """An internal invariant of the certificate procedure failed."""


def _verified(host: DeltaMatroid, obs: Obstruction) -> Obstruction:
    """``obs`` once it re-verifies on ``host``; CertificationError otherwise."""
    if not obs.verify(host):
        raise CertificationError(f"{obs} fails to verify")
    return obs


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


def d5_family(up_to_iso: bool = False) -> list[DeltaMatroid]:
    """All twists of the catalog members (36 raw), optionally deduplicated
    up to isomorphism: a member is kept unless its (n, masks) is among the
    label permutations of the members kept before it, so the first
    representative of each isomorphism class stays (7 of the 36)."""
    members = []
    for base in catalog():
        for a in range(base.full_mask + 1):
            members.append(base.twist(a))
    if not up_to_iso:
        return members
    out, seen = [], set()
    for m in members:
        if (m.n, m.masks) not in seen:
            out.append(m)
            seen.update((m.n, _permuted_masks(m.masks, p)) for p in permutations(range(m.n)))
    return out


@lru_cache(maxsize=None)
def _witness_table(pairs) -> dict:
    """(n, masks) of every family isomorphic to a target of ``pairs``, a
    tuple of (index, target), to (index, target, the images of its
    positions): the first such target and the first label permutation in
    lexicographic order that maps the family onto it. Its lists are the
    catalog members, their 36 twists and the two route lists."""
    table = {}
    for index, h in pairs:
        for p in permutations(range(h.n)):
            inverse = sorted(range(h.n), key=p.__getitem__)
            table.setdefault((h.n, _permuted_masks(h.masks, inverse)),
                             (index, h, tuple(h.labels[i] for i in p)))
    return table


def _witness(minor, delete, contract, pairs) -> Obstruction:
    """``minor``, the (kept labels, masks) of the minor deleting ``delete``
    and contracting ``contract``, looked up in ``_witness_table(pairs)``;
    CertificationError when it is not there."""
    kept, masks = minor
    entry = _witness_table(pairs).get((len(kept), masks))
    if entry is None:
        raise CertificationError(f"deleting {sorted(delete)} and contracting {sorted(contract)} "
                                 f"matched none of {[index for index, _ in pairs]}")
    index, target, images = entry
    return Obstruction(delete, contract, dict(zip(kept, images)), target, index)


@lru_cache(maxsize=1)
def _matroid_twist_targets() -> tuple[DeltaMatroid, ...]:
    # the width-one singleton, the odd triangle, and its single-element twist
    single = DeltaMatroid("a", ["", "a"])
    triangle = catalog()[2]
    return (single, triangle, triangle.twist("a"))


@lru_cache(maxsize=1)
def _route_targets() -> tuple:
    """The (index, target) pairs of ``d5_family(up_to_iso=True)`` and of
    ``_matroid_twist_targets``, with both witness tables built: the first
    ``is_obstructed`` call builds them, witness or not."""
    routes = tuple(tuple(enumerate(targets))
                   for targets in (d5_family(up_to_iso=True), _matroid_twist_targets()))
    for pairs in routes:
        _witness_table(pairs)
    return routes
