"""Delta-matroids as explicit feasible-set families over a fixed ground set.

A delta-matroid is a finite ground set together with a nonempty family of
subsets (the feasible sets) satisfying the Symmetric Exchange Axiom: for
feasible X, Y and u in X ^ Y there is some v in X ^ Y (possibly v == u)
with X ^ {u, v} feasible.

Feasible sets are stored as bitmasks over ground-set positions (position i
corresponds to the i-th label), kept deduplicated and sorted ascending, so
structural equality is a plain tuple comparison.

Building from untrusted input checks the axiom (``find_axiom_violation``).
Only the column kernel names a witness, with one |F|-bit column per
element and one AND per infeasible set next to a feasible one, in about
|F| * n * (|F|/64 + 1) word operations at most. Up to 12 elements a subset
kernel (sets of subsets as 2^n-bit ints, one AND per feasible set) first
tests whether any violation exists. A family whose conservative estimate
|F| * n^2 * (|F|/64 + 1) of the column kernel's work exceeds
``MAX_AXIOM_WORK`` is refused with ``DeltaMatroidError`` before the check
runs, so the refused inputs stay the same.

``_minor_of`` gives a minor's labels and masks (``_minor_masks``) from its
delete and contract masks; it is one of the reads ``certify`` makes.

Every instance, twists and minors included, is built by ``__init__`` and
never written after it; pickling and copying rebuild from (labels, masks).

A matroid is exactly a width-zero delta-matroid (``is_matroid``), its
feasible sets its bases; ``d_min`` is the matroid of the minimum-size
feasible sets.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import groupby
from operator import and_, or_
from typing import Iterable, Sequence

# Bitmask width limits: direct operations run on up to 64 elements,
# enumeration-style workflows are capped lower by their own modules.
MAX_ELEMENTS = 64
# Budget in word operations for the axiom check on untrusted families,
# against the estimate |F| * n^2 * (|F|/64 + 1): n columns of |F| bits for
# each of the |F| * n pairs (X, u). The column kernel ANDs at most one
# column per pair, so the estimate is a conservative gate, kept to fix the
# set of refused inputs; at n <= 12 (at most 3.8e7) it runs only on a family
# the subset kernel found violating. On a 2-vCPU Xeon VM, U(4, 24) (1.0e9)
# takes about 0.19 s, U(4, 25) (1.6e9) 0.24 s and U(2, 63) (2.4e8) 0.09 s;
# U(3, 63) (9.8e10) is refused.
MAX_AXIOM_WORK = 2_000_000_000
# Largest n for the subset kernel; its fixed cost doubles per element, so
# sparse families lose first. Column -> subset kernel, best of 200 calls,
# 2-vCPU Xeon VM: U(2, 12) 222 -> 82 us, U(3, 12) 775 -> 131 us, one set
# at n = 12 6 -> 43 us, U(1, 13) 49 -> 118 us, U(2, 16) 584 -> 3042 us.
MAX_SUBSET_KERNEL_ELEMENTS = 12


class DeltaMatroidError(ValueError):
    """Base class for invalid constructions or out-of-range arguments."""


class EmptyFamilyError(DeltaMatroidError):
    """Raised when the feasible family is empty."""


class GroundSetError(DeltaMatroidError):
    """Raised when an argument refers to elements outside the ground set."""


class AxiomViolationError(DeltaMatroidError):
    """Symmetric exchange failure, carrying a witness triple.

    ``x`` and ``y`` are feasible sets and ``u`` an element of their symmetric
    difference for which no exchange partner ``v`` exists.
    """

    def __init__(self, x: frozenset, y: frozenset, u: str):
        self.x = x
        self.y = y
        self.u = u
        super().__init__(
            "symmetric exchange fails: X=%s Y=%s u=%r has no valid partner v"
            % (sorted(x), sorted(y), u)
        )


def find_axiom_violation(masks: Sequence[int], n: int):
    """Return a violating triple ``(x_mask, y_mask, u_pos)`` or None.

    ``masks`` are distinct and ascending. The least X wins, then its first
    Y, then the lowest u; only the column kernel picks them. Up to
    ``MAX_SUBSET_KERNEL_ELEMENTS`` elements the subset kernel tests first and
    calls it on a violation, above it the column kernel runs alone.
    """
    if n <= MAX_SUBSET_KERNEL_ELEMENTS:
        return _subset_violation(masks, n)
    return _column_violation(masks, n)


def _column_violation(masks: Sequence[int], n: int):
    """Column kernel, for any n. A pair (X, u) can fail only when
    Z = X ^ {u} is infeasible. Then Y violates it exactly when Y agrees
    with Z at every v with Z ^ {v} feasible: at v == u that says u is in
    X ^ Y, and at v != u that Y avoids the partner X ^ {u, v} = Z ^ {v}.
    These Ys do not depend on u, so each infeasible neighbour Z is checked
    once. With one |F|-bit column per element (bit j set when the element
    is in ``masks[j]``), its Ys are an AND of the column or its complement,
    as Z has the element or not, over the v; it stops at the first zero.
    That is at most |F| * n ANDs of |F| bits. Of the violated pairs
    (Z ^ {u}, u) the least X wins, then its first Y, then the lowest u.
    """
    full = (1 << len(masks)) - 1
    cols = [0] * n
    for j, m in enumerate(masks):
        bit = 1 << j
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    off = [full ^ c for c in cols]
    # partners[Z] = positions v with Z ^ {v} feasible
    partners: dict[int, int] = {}
    get = partners.get
    for v in range(n):
        bit = 1 << v
        for m in masks:
            z = m ^ bit
            partners[z] = get(z, 0) | bit
    found = []
    for z in partners.keys() - set(masks):
        near = rest = partners[z]
        ys = full
        while ys and rest:
            low = rest & -rest
            i = low.bit_length() - 1
            ys &= cols[i] if z & low else off[i]
            rest ^= low
        if ys:
            found += [(z ^ 1 << u, u, ys) for u in range(n) if near >> u & 1]
    if not found:
        return None
    x = min(found)[0]
    first = min(ys & -ys for fx, _, ys in found if fx == x)
    u = min(u for fx, u, ys in found if fx == x and ys & first)
    return (x, masks[first.bit_length() - 1], u)


@lru_cache(maxsize=None)
def _small_masks(n: int) -> frozenset[int]:
    """The n + n(n-1)/2 masks of one or two of n positions."""
    return frozenset(1 << i | 1 << j for i in range(n) for j in range(i, n))


@lru_cache(maxsize=None)
def _planes(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """All 2^(n+1) bits set, and (2^b, the A containing b) for each b < n."""
    full, planes = (1 << (2 << n)) - 1, []
    for b in range(n):
        hi, width = ((1 << (1 << b)) - 1) << (1 << b), 2 << b
        while width < 2 << n:
            hi, width = hi | hi << width, 2 * width
        planes.append((1 << b, hi))
    return full, tuple(planes)


def _dilate(bits: int, planes: Sequence[tuple[int, int]]) -> int:
    """The sets one element away from a set in ``bits``, over ``planes``."""
    out = 0
    for step, hi in planes:
        up = bits & hi  # the sets with the plane's element lose it, the rest gain it
        out |= up >> step | (bits ^ up) << step
    return out


def _digits(masks: Iterable[int], n: int) -> bytearray:
    """2^n digits for int(..., 2), "1" at index m for each mask m: O(2^n)
    where an OR per mask costs O(|F| * 2^n)."""
    chars = bytearray(b"0" * (1 << n))
    for m in masks:
        chars[m] = 49  # ord("1")
    return chars


def _members(bits: int) -> list[int]:
    """The set bits of ``bits``, ascending, found by a linear text scan: the
    masks back from ``int(_digits(masks, n)[::-1], 2)``."""
    return [m.start() for m in re.finditer("1", bin(bits)[:1:-1])]


def _twist_width(d: DeltaMatroid, a: int) -> int:
    """width(D*A) by its definition: the spread of |A ^ F| over feasible F."""
    lo = hi = (a ^ d.masks[0]).bit_count()
    for m in d.masks:
        if (size := (a ^ m).bit_count()) < lo:
            lo = size
        elif size > hi:
            hi = size
    return hi - lo


def _labels_at(labels: Sequence[str], bits: int) -> list[str]:
    """The labels at the set bits of ``bits``, ascending: O(set bits), where
    ``_members`` pays a text scan of all of them."""
    out = []
    while bits:
        low = bits & -bits
        out.append(labels[low.bit_length() - 1])
        bits ^= low
    return out


def _subset_violation(masks: Sequence[int], n: int):
    """Subset kernel: a set of subsets is a 2^n-bit int, bit Z for Z. By
    the column kernel's condition, Y violates the infeasible Z exactly when
    Z lies outside cover(Y), the OR over v of down[v] (Z without v, Z + v
    feasible) for v in Y and of up[v] (Z with v, Z - v feasible) for v not
    in Y: one OR of a table entry for Y's low h = n // 2 bits and one for
    its high bits, each complemented once per high part as the masks
    ascend, so each Y costs one AND, about 2^(h + 1) + |F| operations on
    2^n bits. It names no witness: at the first Y that violates some Z it
    returns the column kernel's triple.
    """
    fam = int(_digits(masks, n)[::-1], 2)
    planes = _planes(n)[1]
    up = [(fam & ~hi) << step for step, hi in planes]
    down = [(fam & hi) >> step for step, hi in planes]
    cand = reduce(or_, up + down, 0) & ~fam
    h, lowmask = n // 2, (1 << n // 2) - 1

    def table(vs):
        t = [0]
        for v in vs:
            t = [c | up[v] for c in t] + [c | down[v] for c in t]
        return t

    low, high = [cand & ~c for c in table(range(h))], table(range(h, n))
    for top, ys in groupby(masks, h.__rrshift__):
        rest = cand & ~high[top]
        for y in ys:
            if rest & low[y & lowmask]:
                return _column_violation(masks, n)
    return None


def _minor_masks(masks: Sequence[int], full: int, x: int, y: int) -> tuple[int, ...]:
    """The minor's masks, ascending and packed onto the kept positions, for
    deleting x and contracting the disjoint y from ``masks`` within ``full``.

    They are F - (X | Y) for the feasible F minimizing |F & X| - |F & Y|:
    order-independent, and total, as deleting a coloop strips it from every
    feasible set and contracting a loop keeps them all. The least score is 0
    exactly when some F & (X | Y) == Y. When 2^k < |F| for the k kept
    elements, those candidates come first: ``spread[s]`` is Y with the
    packed subset s of the kept positions unpacked onto them, ascending in
    s, so one bisection per s, each starting where the last stopped, finds
    the hits already packed (s itself) and ascending. All |F| are scored
    only on no hit.
    """
    gone = x | y
    keep = full & ~gone
    if 1 << keep.bit_count() < len(masks):
        spread = [y]
        while keep:
            low = keep & -keep
            spread += [m | low for m in spread]
            keep ^= low
        hits, i = [], 0
        for s, m in enumerate(spread):
            i = bisect_left(masks, m, i)
            if i < len(masks) and masks[i] == m:
                hits.append(s)
        if hits:
            return tuple(hits)
    # |F & X| + |Y - F|, which is |F & X| - |F & Y| shifted by |Y|
    scores = [((m ^ y) & gone).bit_count() for m in masks]
    best = min(scores)
    family = [m for m, s in zip(masks, scores) if s == best]
    # one pass per run p..hi-1 of removed positions, from the top down
    rest = gone
    while rest:
        hi = rest.bit_length()
        p = (rest ^ (1 << hi) - 1).bit_length()
        below = (1 << p) - 1
        rest &= below
        family = [(m & below) | (m >> hi << p) for m in family]
    return tuple(sorted(set(family)))


def _minor_of(host: DeltaMatroid, x: int, y: int):
    """The kept labels, in ground order, and the masks of the minor of
    ``host`` deleting the mask x and contracting the disjoint mask y; the
    labels are read off the kept bits."""
    kept = _labels_at(host.labels, host.full_mask & ~(x | y))
    return kept, _minor_masks(host.masks, host.full_mask, x, y)


class DeltaMatroid:
    """An immutable delta-matroid with an explicit feasible family.

    Construction validates the Symmetric Exchange Axiom eagerly; operations
    that provably preserve the axiom (twists, minors) skip re-validation.
    """

    __slots__ = ("labels", "masks", "_pos")

    labels: tuple[str, ...]
    masks: tuple[int, ...]

    def __init__(self, labels: Iterable[str], feasible: Iterable, *, _trusted=False):
        labels = tuple(labels)
        if len(labels) > MAX_ELEMENTS:
            raise GroundSetError(f"ground set exceeds {MAX_ELEMENTS} elements")
        pos = {e: i for i, e in enumerate(labels)}
        if len(pos) != len(labels):
            raise GroundSetError("ground-set labels must be pairwise distinct")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_pos", pos)
        if not _trusted:
            feasible = list(feasible)
            # a family of ints alone is range-checked once; any other member
            # (bools too), or a mask out of range, sends every member through
            # mask_of, so the error names the first offender in input order
            if not ({*map(type, feasible)} == {int}
                    and min(feasible) >= 0 and not max(feasible) >> len(labels)):
                feasible = [self.mask_of(f) for f in feasible]
        masks = tuple(sorted(set(feasible)))
        object.__setattr__(self, "masks", masks)
        if not masks:
            raise EmptyFamilyError("feasible family must be nonempty")
        if not _trusted:
            n = len(labels)
            work = len(masks) * n * n * (len(masks) // 64 + 1)
            if work > MAX_AXIOM_WORK:
                raise DeltaMatroidError(
                    f"axiom check too large: {len(masks)} feasible sets on {n} "
                    f"elements need about {work:.1e} word operations, over the "
                    f"budget of {MAX_AXIOM_WORK:.1e}"
                )
            witness = find_axiom_violation(masks, n)
            if witness is not None:
                x, y, u = witness
                raise AxiomViolationError(
                    self.set_of(x), self.set_of(y), labels[u]
                )

    def __setattr__(self, name, value):
        raise AttributeError("DeltaMatroid instances are immutable")

    def __reduce__(self):
        # the default protocol restores slots through __setattr__, which
        # refuses; rebuild instead, skipping the axiom check the masks passed
        return _rebuild, (self.labels, self.masks)

    # -- representation helpers -------------------------------------------

    @property
    def n(self) -> int:
        """The number of ground-set elements."""
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        """The mask of the whole ground set."""
        return (1 << len(self.labels)) - 1

    def mask_of(self, elems) -> int:
        """Bitmask of a subset given as labels (or an already-built mask),
        as a plain int: a bool mask comes back as 0 or 1."""
        if isinstance(elems, int):
            if elems < 0 or elems >> len(self.labels):
                raise GroundSetError(f"mask {elems:#x} outside ground set")
            return int(elems)
        mask, pos = 0, self._pos
        try:
            for e in elems:
                mask |= 1 << pos[e]
        except KeyError:
            raise GroundSetError(f"unknown element {e!r}") from None
        except TypeError:
            raise GroundSetError(f"not a set of elements or a mask: {elems!r}") from None
        return mask

    def set_of(self, mask: int) -> frozenset[str]:
        """Labels corresponding to a bitmask; bits above the ground set are ignored."""
        return frozenset(_labels_at(self.labels, mask & self.full_mask))

    def feasible_sets(self) -> list[frozenset[str]]:
        """The feasible sets as label sets, in mask order."""
        return [self.set_of(m) for m in self.masks]

    def is_feasible(self, elems) -> bool:
        """True iff the subset, as labels or a mask, is feasible."""
        mask = self.mask_of(elems)
        i = bisect_left(self.masks, mask)
        return i < len(self.masks) and self.masks[i] == mask

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DeltaMatroid)
            and self.labels == other.labels
            and self.masks == other.masks
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.masks))

    def __repr__(self) -> str:
        fam = ", ".join(
            "{" + ",".join(sorted(self.set_of(m))) + "}" for m in self.masks
        )
        return f"DeltaMatroid({list(self.labels)}, [{fam}])"

    # -- basic quantities -------------------------------------------------

    def min_feasible_size(self) -> int:
        """The size of a smallest feasible set."""
        return min(m.bit_count() for m in self.masks)

    def width(self) -> int:
        """Largest feasible size minus smallest feasible size."""
        return _twist_width(self, 0)

    def is_even(self) -> bool:
        """True iff all feasible sizes share parity."""
        parity = self.masks[0].bit_count() & 1
        return all(m.bit_count() & 1 == parity for m in self.masks)

    def rho(self, elems) -> int:
        """Bouchet rank: |E| minus the least |A ^ F| over feasible F."""
        a = self.mask_of(elems)
        return self.n - min((a ^ m).bit_count() for m in self.masks)

    # -- the reads of ``certify``, which its module docstring lists -------

    def _least(self) -> int:
        return self.masks[0]

    def _small(self, f: int) -> frozenset[int]:
        return _small_masks(self.n).intersection([m ^ f for m in self.masks] if f else self.masks)

    def _inside(self, a: int, f: int) -> dict[int, int]:
        rest, out = ~a, f & ~a  # F ^ f is inside a when F & rest == out
        inside = [m for m in self.masks if m & rest == out]
        inside = sorted([m ^ f for m in inside]) if f else inside  # XOR by f reorders them
        return {m.bit_count(): m for m in reversed(inside)}

    def _odd_pair(self) -> tuple[int, int]:
        feasible = set(self.masks)
        return next((f, i) for f in self.masks for i in range(self.n)
                    if not f >> i & 1 and f | 1 << i in feasible)

    _twist_width, _minor_of = _twist_width, _minor_of

    # -- loops and coloops ------------------------------------------------

    def is_loop(self, e: str) -> bool:
        """True iff ``e`` lies in no feasible set."""
        return not self.mask_of((e,)) & reduce(or_, self.masks)

    def is_coloop(self, e: str) -> bool:
        """True iff ``e`` lies in every feasible set."""
        return bool(self.mask_of((e,)) & reduce(and_, self.masks))

    def loops(self) -> list[str]:
        """The elements in no feasible set, in ground order."""
        return _labels_at(self.labels, reduce(or_, self.masks) ^ self.full_mask)

    def coloops(self) -> list[str]:
        """The elements in every feasible set, in ground order."""
        return _labels_at(self.labels, reduce(and_, self.masks))

    # -- twist and dual ---------------------------------------------------

    def twist(self, elems) -> "DeltaMatroid":
        """Twist by a subset A: replace each feasible F by A ^ F. Twisting
        preserves the axiom, so the result skips the check."""
        a = self.mask_of(elems)
        return DeltaMatroid(self.labels, [a ^ m for m in self.masks], _trusted=True)

    def dual(self) -> "DeltaMatroid":
        """Twist by the whole ground set."""
        return self.twist(self.full_mask)

    # -- minors -----------------------------------------------------------

    def minor(self, delete=(), contract=()) -> "DeltaMatroid":
        """Delete X, contract Y (disjoint) as masks by ``_minor_of``; labels keep ground order."""
        x, y = self.mask_of(delete), self.mask_of(contract)
        if x & y:
            raise GroundSetError("delete and contract sets must be disjoint")
        return DeltaMatroid(*_minor_of(self, x, y), _trusted=True)

    def delete(self, e: str) -> "DeltaMatroid":
        """Remove ``e``, keeping the feasible sets avoiding it (or, when
        ``e`` is a coloop, every feasible set minus ``e``)."""
        return self.minor(delete=(e,))

    def contract(self, e: str) -> "DeltaMatroid":
        """Remove ``e``, keeping F - e for the feasible F containing it (or,
        when ``e`` is a loop, every feasible set)."""
        return self.minor(contract=(e,))

    def restrict(self, elems) -> "DeltaMatroid":
        """Delete everything outside A; keeps A's labels in ground order."""
        return self.minor(delete=self.full_mask & ~self.mask_of(elems))


def is_matroid(d: DeltaMatroid) -> bool:
    """True iff all feasible sets have equal size."""
    return d.width() == 0


def d_min(d: DeltaMatroid) -> DeltaMatroid:
    """The matroid whose bases are the minimum-size feasible sets of ``d``."""
    k = d.min_feasible_size()
    return DeltaMatroid(
        d.labels, [m for m in d.masks if m.bit_count() == k], _trusted=True
    )


def _rebuild(labels, masks) -> DeltaMatroid:
    """Unpickle: ``masks`` come from a DeltaMatroid, so the axiom holds."""
    return DeltaMatroid(labels, masks, _trusted=True)


def validate(labels: Iterable[str], family: Iterable) -> DeltaMatroid:
    """Build a delta-matroid from an untrusted family, checking the axiom.

    Raises EmptyFamilyError or AxiomViolationError (with witness) on bad
    input; GroundSetError on duplicate or unknown labels, a member neither
    a set of labels nor an in-range mask, or over ``MAX_ELEMENTS`` elements;
    DeltaMatroidError when the axiom check's work exceeds ``MAX_AXIOM_WORK``.
    """
    return DeltaMatroid(labels, family)
