"""Exhaustive generation of small delta-matroids and batch verification.

Candidate feasible families on n elements are bitmasks over the 2^n
subsets. The axiom is checked for all candidates at once, on Python
integers used as bitsets with one bit per family, by a pass over the 2^n
sets Z with two subset tables each, so the table of every delta-matroid on
four elements takes a few milliseconds.

``verify_theorem`` checks one property on every instance. Each check reads
the instance's 2^n twist widths, computed once from their definition, and
p1 reads its minors' least widths off the table of the instances on one
element fewer, so no check calls the twist-width kernel or ``certify``
for its expected answer.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple

from .certify import TwistWitness, certify, is_obstructed
from .core import DeltaMatroid, GroundSetError, _members, _planes, _twist_width
from .structure import rough_structure_witnesses, twist_width_formula

MAX_ENUM_ELEMENTS = 4
CANONICAL_LABELS = ("e1", "e2", "e3", "e4")


class EnumerationReport(NamedTuple):
    """Outcome of one exhaustive verification run."""

    n: int
    total_families: int
    valid_count: int
    theorem: str
    checked: int
    failures: int
    first_counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@lru_cache(maxsize=None)
def _valid_family_masks(n: int) -> tuple[int, ...]:
    """Family bitmasks (over the 2^n subsets) passing the exchange axiom.

    By the column kernel's rule, a family fails at an infeasible Z when
    some feasible Y has Z ^ {v} infeasible for every v in D = Y ^ Z and
    feasible for some v outside D; for each Z both sides are read off a
    2^n-entry table over D, built by doubling."""
    if not 1 <= n <= MAX_ENUM_ELEMENTS:
        raise GroundSetError(
            f"exhaustive enumeration supports 1 <= n <= {MAX_ENUM_ELEMENTS}"
        )
    nsub = 1 << n
    everything = (1 << (1 << nsub)) - 1
    # bit f of has[s] is set iff family f contains subset s: the plane of
    # bit s, cut to one bit per family
    has = [hi & everything for _, hi in _planes(nsub)[1]]
    lacks = [everything ^ h for h in has]
    bad = 1  # the empty family is not a delta-matroid
    for z in range(nsub):
        # indexed by a set of positions D: avoid[D] holds the families
        # lacking Z and every Z ^ {v} with v in D, reach[D] those with some
        # Z ^ {u}, u in D; the list index ~d is the complement of D
        avoid, reach = [lacks[z]], [0]
        for v in range(n):
            zv = z ^ 1 << v
            off, on = lacks[zv], has[zv]
            avoid += [a & off for a in avoid]
            reach += [r | on for r in reach]
        for d in range(1, nsub - 1):
            bad |= has[z ^ d] & avoid[d] & reach[~d]
    return tuple(_members(everything ^ bad))


def enumerate_all(n: int) -> Iterator[DeltaMatroid]:
    """Yield every delta-matroid on the canonical labels, in ascending
    family-bitmask order."""
    labels = CANONICAL_LABELS[:n]
    for fam in _valid_family_masks(n):
        yield DeltaMatroid(labels, _members(fam), _trusted=True)


def count_all(n: int) -> int:
    return len(_valid_family_masks(n))


# -- theorem verification -------------------------------------------------


def _widths(d: DeltaMatroid) -> list[int]:
    """width(D*A) by its definition, for every twist set A in mask order."""
    return [_twist_width(d, a) for a in range(d.full_mask + 1)]


@lru_cache(maxsize=None)
def _least_widths(n: int) -> dict[tuple[int, ...], int]:
    """The least twist width of every delta-matroid on n elements, keyed by
    its masks; on no elements the one family {∅} has width 0."""
    if n == 0:
        return {(0,): 0}
    return {d.masks: min(_widths(d)) for d in enumerate_all(n)}


def _all_minors(d: DeltaMatroid) -> set[DeltaMatroid]:
    every = range(d.full_mask + 1)
    return {d.minor(x, y) for x in every for y in every if not x & y}


def _check_t2(d, widths):
    for a, w in enumerate(widths):
        if twist_width_formula(d, a) != w:
            return f"{d!r} with A mask {a:#x}"
    return None


def _check_tm1(d, widths):
    return repr(d) if bool(rough_structure_witnesses(d)) != (1 in widths) else None


def _check_t1(d, widths):
    return repr(d) if (is_obstructed(d) is None) != (min(widths) <= 1) else None


def _check_p1(d, widths):
    # each minor is an instance on n - 1 elements, its masks already packed
    least, base = _least_widths(d.n - 1), min(widths)
    for e in d.labels:
        for m in (d.delete(e), d.contract(e)):
            if least[m.masks] > base:
                return f"{d!r} at element {e!r}"
    return None


def _check_l1(d, widths):
    for a in range(len(widths)):
        a_labels = d.set_of(a)
        lhs = _all_minors(d.twist(a))
        rhs = {
            j.twist([e for e in j.labels if e in a_labels])
            for j in _all_minors(d)
        }
        if lhs != rhs:
            return f"{d!r} with A mask {a:#x}"
    return None


def _check_l2(d, widths):
    cert = certify(d)  # self-verifying; raises on internal failure
    return repr(d) if isinstance(cert, TwistWitness) != (min(widths) <= 1) else None


# tt2 and tt are the formula's == 0 and == 1, so t2's check decides them
_CHECKS = {
    "t2": _check_t2, "tt2": _check_t2, "tt": _check_t2, "tm1": _check_tm1,
    "t1": _check_t1, "p1": _check_p1, "l1": _check_l1, "l2": _check_l2,
}

THEOREM_TAGS = tuple(_CHECKS)

_TAG_LIMITS = {"l1": 3}


def _verify(n: int, tags) -> list[EnumerationReport]:
    """One pass over every delta-matroid on n elements: its widths once,
    each distinct check of ``tags`` once; one report per tag, in order."""
    for which in tags:
        if which not in _CHECKS:
            raise ValueError(
                f"unknown theorem tag {which!r}; expected one of {THEOREM_TAGS}"
            )
        limit = _TAG_LIMITS.get(which, MAX_ENUM_ELEMENTS)
        if not 1 <= n <= limit:
            raise GroundSetError(f"tag {which!r} supports 1 <= n <= {limit}")
    tally = {_CHECKS[which]: [0, None] for which in tags}  # failures, first
    for d in enumerate_all(n):
        widths = _widths(d)
        for check, seen in tally.items():
            if (result := check(d, widths)) is not None:
                seen[0] += 1
                seen[1] = seen[1] or result
    total, count = (1 << (1 << n)) - 1, count_all(n)
    return [EnumerationReport(n, total, count, which, count, *tally[_CHECKS[which]])
            for which in tags]


def verify_theorem(n: int, which: str) -> EnumerationReport:
    """Run one exhaustive property over every delta-matroid on n elements.

    Tags: t2 (twist-width formula), tt2 (matroid-twist criterion) and tt
    (width-one-twist criterion), which are t2's check; tm1 (rough-structure
    witnesses), t1 (excluded-minor characterisation), p1 (minor
    monotonicity), l1 (minor/twist commutation, n <= 3), l2 (certificates,
    every instance). Every tag but l1 compares with the widths by their
    definition, never with ``certify``.
    """
    return _verify(n, (which,))[0]
