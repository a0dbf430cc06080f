"""Width of twists and the rough structure of width-one twists.

The central identity: the width of the twist of D by A equals

    width(D|A) + width(D|A~) + 2 * connectivity_{D_min}(A)

where A~ is the complement of A and D_min is the matroid of minimum-size
feasible sets. ``twist_width_formula`` and the two witness predicates
evaluate that right-hand side for one A in one pass over the feasible
masks, with no restriction, D_min or twist built. Terms 1 and 2 keep the
greatest value at a running least score, whose first F holds the least
(the lemma in ``core``); term 3 keeps the spread at the least size k.

- width(D|A) is the spread of |F & A| over the feasible F minimizing
  |F - A|, the minor rule's score with nothing contracted.
- connectivity_{D_min}(A) is max |B & A| + max |B - A| - k over the
  bases B of D_min, the feasible sets of the least size k. Every base has
  |B & A| + |B - A| = k, so this is the spread of |B & A|.

The searches over all 2^n twist sets use a second identity. Let dist(A)
be the least |A ^ F| over feasible F. Every F has |A ^ F| + |A~ ^ F| = n,
so the largest |A ^ F| is n - dist(A~) and

    width(D*A) = n - dist(A) - dist(A~).

Sets of twist sets are 2^n-bit ints, bit A for the set A. The shells
S_j = {A : dist(A) = j} grow from the feasible family, one dilation across
all n bits each, and the S'_k of dist(A~) from the complemented family in
the high half of the same int. The twist sets of width w are the OR over j
of S_j & S'_(n - w - j): about n * D * 2^(n+1) / 64 word operations, with
D <= n the largest distance. No route materializes twisted families.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_

from .core import DeltaMatroid, GroundSetError, _digits, _dilate, _members, _planes

# Twisted U(2, 20) takes about 0.15 s and 32 MB peak in the all-twists
# kernel; each further element doubles its 256 KB ints and may add a shell.
MAX_SEARCH_ELEMENTS = 20


def _terms(d: DeltaMatroid, a: int) -> tuple[int, int, int]:
    """The three terms, from s = |F|, i = |F & A| and o = |F - A| per F."""
    k = (least := d.masks[0]).bit_count()
    o1 = i2 = d.n + 1
    lo3 = hi3 = (least & a).bit_count()
    for m in d.masks:
        o = (s := m.bit_count()) - (i := (m & a).bit_count())
        if o < o1:
            o1, lo1, hi1 = o, i, i
        elif o == o1 and i > hi1:
            hi1 = i
        if i < i2:
            i2, lo2, hi2 = i, o, o
        elif i == i2 and o > hi2:
            hi2 = o
        if s == k:
            if i < lo3:
                lo3 = i
            elif i > hi3:
                hi3 = i
    return hi1 - lo1, hi2 - lo2, hi3 - lo3


def _shells(d: DeltaMatroid) -> tuple[list[int], list[int]]:
    """Shells S_j of dist(A) and, at index n - k, S'_k of dist(A~), so that
    the A of width w are the OR over j of near[j] & mirror[j + w]. One
    growth runs both: the family in the low 2^n bits, its complement high."""
    n = d.n
    if n > MAX_SEARCH_ELEMENTS:
        raise GroundSetError(
            f"twist search needs at most {MAX_SEARCH_ELEMENTS} elements"
        )
    # F sets bit m and bit 2^(n+1) - 1 - m = 2^n + (m~) for its complement,
    # as digits a palindrome
    chars = _digits(d.masks, n)
    front = int(chars + chars[::-1], 2)
    full, planes = _planes(n)
    seen, near, far = front, [front], [front >> (1 << n)]
    while front and seen != full:
        front = _dilate(front, planes) & ~seen
        seen |= front
        near.append(front)
        far.append(front >> (1 << n))
    # near[j] keeps its high half; the AND with a low far shell drops it
    return near, [0] * (n + 1 - len(far)) + far[::-1]


def _width_class(near: list[int], mirror: list[int], w: int) -> int:
    """The twist sets of width w, as bits: the OR over j of near[j] &
    mirror[j + w]."""
    return reduce(or_, map(and_, near, mirror[w:]), 0)


def twist_width_formula(d: DeltaMatroid, elems) -> int:
    """Width of twist(d, A) computed structurally, without twisting."""
    restricted, complemented, connectivity = _terms(d, d.mask_of(elems))
    return restricted + complemented + 2 * connectivity


def is_twist_matroid_witness(d: DeltaMatroid, elems) -> bool:
    """Does A witness that twist(d, A) is a matroid?

    Holds iff A is a separator of d_min and both restrictions D|A, D|A~
    are matroids: the formula's three terms are non-negative, so exactly
    when they sum to zero.
    """
    return twist_width_formula(d, elems) == 0


def is_twist_width_one_witness(d: DeltaMatroid, elems) -> bool:
    """Does A witness that twist(d, A) has width exactly one?

    Holds iff A is a separator of d_min and of the two restrictions D|A,
    D|A~ one is a matroid and the other has width one: the connectivity
    term is even, so exactly when the formula sums to one.
    """
    return twist_width_formula(d, elems) == 1


def min_width_twist(d: DeltaMatroid) -> tuple[int, int]:
    """Twist set minimizing the twist's width.

    Returns ``(a_mask, width)``, the lowest bit of the first nonempty width
    class, so ties go to the smallest bitmask. Raises GroundSetError above
    ``MAX_SEARCH_ELEMENTS`` before any work.
    """
    near, mirror = _shells(d)
    # j, k < len(near), so the classes below n + 2 - 2 * len(near) are empty
    for w in range(max(0, len(mirror) + 1 - 2 * len(near)), len(mirror)):
        if found := _width_class(near, mirror, w):
            break
    return (found & -found).bit_length() - 1, w


def rough_structure_witnesses(d: DeltaMatroid) -> list[int]:
    """All subsets A (as masks) witnessing a width-one twist structurally.

    A qualifies when it is a separator of d_min, D|A is a matroid, and
    D|A~ has width one. By the formula these are exactly the A with
    width(D*A) = 1 and D|A a matroid, ascending. The list is nonempty
    exactly when some twist of ``d`` has width one.
    """
    near, mirror = _shells(d)
    return [a for a in _members(_width_class(near, mirror, 1))
            if _terms(d, a)[0] == 0]
