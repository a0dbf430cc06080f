"""The five-member obstruction catalog and minor witnesses.

The twists of the five catalog members (D5) are the excluded minors for
having a twist of width at most one, so every minor witness maps onto one
of the 37 targets of ``_target_table``: the 36 twists and the singleton
{∅, {a}}. No entry point searches for an isomorphism: each looks its
witness's label map up on the input with ``_witness``, on its route, the
targets it answers with, in the one table built once per process. The
table holds, per target, the first label permutation in lexicographic
order that maps a family onto it; the route picks the first target.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise, permutations
from typing import NamedTuple

from .core import DeltaMatroid


class Obstruction(NamedTuple):
    """A minor witness: minor(host, delete_set, contract_set) maps onto
    ``target`` by ``iso``. ``target_index`` is the entry of the route's list
    it was matched to: the catalog member from ``certify``, a class of
    ``d5_family(up_to_iso=True)`` from ``is_obstructed``, and 0, 1 or 2 from
    ``matroid_twist_obstructions``. From ``certify`` on a host with the empty
    set infeasible, ``target`` is the first twist of the member, in mask
    order, that the minor maps onto, rather than the member itself."""

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
        of its labels, translated once to masks for ``host._minor_of``, and
        ``iso`` a bijection onto the target's labels and masks."""
        delete, contract = self.delete_set, self.contract_set
        if delete & contract or not (delete | contract).issubset(host.labels):
            return False
        kept, masks = host._minor_of(host.mask_of(delete), host.mask_of(contract))
        perm = [self.target._pos.get(self.iso.get(e)) for e in kept]
        return (
            len(self.iso) == len(kept) == self.target.n
            and set(perm) == set(range(len(kept)))
            and _permuted_masks(masks, perm) == self.target.masks
        )


class CertificationError(RuntimeError):
    """An internal invariant of the certificate procedure failed."""


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
    """``masks`` with bit i of each moved to bit perm[i], ascending."""
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
    up to isomorphism: the first twist of each isomorphism class, in this
    order, is kept (7 of the 36, the targets of ``is_obstructed``)."""
    targets = _target_table()[0]
    return [targets[t] for _, t in _D5_ROUTE] if up_to_iso else list(targets[:36])


# A route is the (target_index, target number) pairs an entry point answers
# with, first match first: certify's member's twists in mask order, the first
# twist of each D5 class, or the singleton, the odd triangle and its twist by
# {a}. Member j twisted by the mask a is number (0, 4, 12, 20, 28)[j] + a; 36 is
# the singleton.
_MEMBER_ROUTES = tuple(tuple((j, t) for t in range(first, end)) for j, (first, end)
                       in enumerate(pairwise((0, 4, 12, 20, 28, 36))))
_D5_ROUTE = tuple(enumerate((0, 4, 5, 7, 11, 12, 13)))
_MATROID_TWIST_ROUTE = ((0, 36), (1, 12), (2, 13))


@lru_cache(maxsize=1)
def _target_table() -> tuple:
    """(targets, maps): the 36 twists of the catalog members in ``d5_family()``
    order, then the singleton {∅, {a}}; and the (n, masks) of every family
    isomorphic to a target, to {target number: its positions' images under the
    first label permutation in lexicographic order onto the target}. One pass
    per member permutation p: ``_permuted_masks`` moves bit p[j] of each of
    the member's twists to bit j."""
    single = DeltaMatroid("a", [0, 1], _trusted=True)
    targets, maps = [], {(1, single.masks): {36: single.labels}}
    for base in catalog():
        first, n = len(targets), base.n
        targets += [base.twist(a) if a else base for a in range(1 << n)]
        for p in permutations(range(n)):
            back = sorted(range(n), key=p.__getitem__)  # back[p[j]] == j
            labels = tuple(base.labels[i] for i in p)
            for t in range(first, len(targets)):
                key = n, _permuted_masks(targets[t].masks, back)
                maps.setdefault(key, {}).setdefault(t, labels)
    return (*targets, single), maps


def _witness(minor, delete, contract, route) -> Obstruction:
    """``minor``, the (kept labels, masks) of the minor deleting ``delete``
    and contracting ``contract``, as the first target on ``route`` it maps
    onto, with that target's map from ``_target_table()``;
    CertificationError when it maps onto none."""
    kept, masks = minor
    targets, maps = _target_table()
    found = maps.get((len(kept), masks), {})
    for index, t in route:
        if t in found:
            return Obstruction(delete, contract, dict(zip(kept, found[t])), targets[t], index)
    raise CertificationError(f"deleting {sorted(delete)} and contracting {sorted(contract)} "
                             f"matched none of {list(dict.fromkeys(i for i, _ in route))}")
