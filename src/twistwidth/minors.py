"""The five-member obstruction catalog and minor witnesses.

The twists of the five catalog members (D5) are the excluded minors for
having a twist of width at most one, so every minor witness maps onto one
of the 37 targets of ``_target_table``: the 36 twists and the singleton
{∅, {a}}. No entry point searches for an isomorphism: ``_witness`` turns
every certificate's masks into a verified record, its label map looked up on
the route, the targets its entry point answers with, in the one table built
once per process. One minor serves the lookup and the check:
``Obstruction._matches`` holds what ``Obstruction.verify`` checks, and
``_witness`` runs it against the minor it looked the record up by. The
table holds, per target, the first label permutation in lexicographic order
that maps a family onto it; the route picks the first.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import pairwise, permutations
from typing import NamedTuple

from .core import DeltaMatroid, _labels_at


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
        """Re-check on ``host`` from scratch: ``_matches`` against the minor
        ``host._minor_of`` gives for the masks it reads back."""
        return self._matches(host, host._minor_of)

    def _matches(self, host, minor_of) -> bool:
        """The one check of ``verify`` and ``minors._witness``: the delete and
        contract sets read back by one pass over ``host.labels`` as disjoint
        masks x and y, ``iso`` a bijection from the labels kept onto the
        target's, and the masks ``minor_of(x, y)`` moved by it equal to the
        target's. Reads ``host`` only for its labels."""
        delete, contract = self.delete_set, self.contract_set
        x, y, kept = 0, 0, []
        for i, e in enumerate(host.labels):
            if e in delete:
                x |= 1 << i
            elif e in contract:
                y |= 1 << i
            else:
                kept.append(e)
        perm = [self.target._pos.get(self.iso.get(e)) for e in kept]
        return (  # each named label found sets one bit: short when one is missing or in both
            x.bit_count() + y.bit_count() == len(delete) + len(contract)
            and len(self.iso) == len(kept) == self.target.n
            and set(perm) == set(range(len(kept)))
            and _permuted_masks(minor_of(x, y), perm) == self.target.masks
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


def _witness(d, x, y, route) -> Obstruction:
    """The minor of ``d`` deleting the mask x and contracting the mask y as
    the first target on ``route`` it maps onto, with that target's map from
    ``_target_table()``, checked once on ``d`` by ``Obstruction._matches``
    against the one minor it was looked up by, which stands for the masks
    x and y only; CertificationError when it maps onto none or fails. Reads
    ``d`` only as ``Obstruction.verify`` does."""
    labels = d.labels
    delete, contract = frozenset(_labels_at(labels, x)), frozenset(_labels_at(labels, y))
    kept = _labels_at(labels, (1 << len(labels)) - 1 & ~(x | y))
    targets, maps = _target_table()
    minor = d._minor_of(x, y)
    found = maps.get((len(kept), minor), {})
    for index, t in route:
        if t in found:
            obs = Obstruction(delete, contract, dict(zip(kept, found[t])), targets[t], index)
            # () for other masks: no target's family is empty
            if not obs._matches(d, lambda *at: minor if at == (x, y) else ()):
                raise CertificationError(f"{obs} fails to verify")
            return obs
    raise CertificationError(f"deleting {sorted(delete)} and contracting {sorted(contract)} "
                             f"matched none of {list(dict.fromkeys(i for i, _ in route))}")
