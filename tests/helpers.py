"""Brute-force oracles shared across the test modules.

Everything here recomputes quantities by direct definition (materialized
twists, naive axiom checks), independent of the structural formulas the
package uses, so tests compare two genuinely different routes.
"""

from functools import lru_cache
from itertools import permutations

from twistwidth import DeltaMatroid, d5_family, has_minor_isomorphic


def brute_min_twist_width(d: DeltaMatroid) -> int:
    """Minimum width over all materialized twists."""
    return min(d.twist(a).width() for a in range(d.full_mask + 1))


@lru_cache(maxsize=1)
def d5_dedup() -> tuple:
    """``d5_family(up_to_iso=True)``, computed once."""
    return tuple(d5_family(up_to_iso=True))


def brute_is_obstructed(d: DeltaMatroid):
    """First minor of ``d`` isomorphic to a deduplicated D5 member, found by
    scanning every delete/contract pair; an Obstruction or None."""
    for i, h in enumerate(d5_dedup()):
        found = has_minor_isomorphic(d, h, target_index=i)
        if found is not None:
            return found
    return None


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


def apply_ops(d: DeltaMatroid, ops) -> DeltaMatroid:
    for kind, e in ops:
        d = d.delete(e) if kind == "d" else d.contract(e)
    return d


def sequential_minor(labels, masks, x, y):
    """Delete positions in mask ``x`` and contract those in mask ``y`` one
    element at a time, highest position first; returns (labels, masks).

    Deleting e keeps the feasible sets avoiding it, or strips e from all of
    them when e is a coloop; contracting e keeps F - e for the feasible F
    containing it, or all of them when e is a loop.
    """
    labels = list(labels)
    family = set(masks)
    for p in reversed(range(len(labels))):
        bit = 1 << p
        if x & bit:
            if all(m & bit for m in family):
                family = {m & ~bit for m in family}
            else:
                family = {m for m in family if not m & bit}
        elif y & bit:
            if any(m & bit for m in family):
                family = {m & ~bit for m in family if m & bit}
        else:
            continue
        family = {(m & (bit - 1)) | (m >> (p + 1) << p) for m in family}
        del labels[p]
    return tuple(labels), tuple(sorted(family))
