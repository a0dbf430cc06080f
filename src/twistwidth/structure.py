"""Width of twists and the rough structure of width-one twists.

The central identity: the width of the twist of D by A equals

    width(D|A) + width(D|A~) + 2 * connectivity_{D_min}(A)

where A~ is the complement of A and D_min is the matroid of minimum-size
feasible sets. ``twist_width_formula`` and the two witness predicates
evaluate that right-hand side for one A, reading every term off the
feasible masks: no restriction, D_min or twist is built.

- width(D|A) is the spread of |F & A| over the feasible F minimizing
  |F - A|, the minor rule's score with nothing contracted.
- connectivity_{D_min}(A) is max |B & A| + max |B - A| - k over the
  bases B of D_min, the feasible sets of the least size k. Every base has
  |B & A| + |B - A| = k, so this is the spread of |B & A|.

The searches over all 2^n twist sets use a second identity. Let dist(A)
be the least |A ^ F| over feasible F. Every F has |A ^ F| + |A~ ^ F| = n,
so the largest |A ^ F| is n - dist(A~) and

    width(D*A) = n - dist(A) - dist(A~).

One Hamming distance transform gives dist for every A at once, in
O(n * 2^n) steps. Neither route materializes twisted families; a check
mode cross-validates both against direct twists.
"""

from __future__ import annotations

from .core import DeltaMatroid, GroundSetError

# The all-twists kernel takes about 2 s and 50 MB at 20 elements, and each
# further element doubles both.
MAX_SEARCH_ELEMENTS = 20


def _split(d: DeltaMatroid, a: int) -> tuple[list[int], list[int]]:
    """|F & A| and |F - A| for every feasible F, in mask order."""
    return (
        [(m & a).bit_count() for m in d.masks],
        [(m & ~a).bit_count() for m in d.masks],
    )


def _spread_where_least(values: list[int], scores: list[int]) -> int:
    """max - min of values[i] over the i with the least scores[i]."""
    least = min(scores)
    kept = [v for v, s in zip(values, scores) if s == least]
    return max(kept) - min(kept)


def _restriction_width(d: DeltaMatroid, a: int) -> int:
    """width(D|A): the spread of |F & A| over the feasible F minimizing
    |F - A|, which are the sets the minor rule keeps when deleting A~."""
    return _spread_where_least(*_split(d, a))


def _formula(d: DeltaMatroid, a: int) -> int:
    inside, outside = _split(d, a)
    sizes = [i + o for i, o in zip(inside, outside)]
    return (
        _spread_where_least(inside, outside)
        + _spread_where_least(outside, inside)
        + 2 * _spread_where_least(inside, sizes)
    )


def _twist_widths(d: DeltaMatroid) -> list[int]:
    """Width of twist(d, A) for every A, indexed by the mask of A."""
    n = d.n
    if n > MAX_SEARCH_ELEMENTS:
        raise GroundSetError(
            f"twist search needs at most {MAX_SEARCH_ELEMENTS} elements"
        )
    # Hamming distance is a sum over coordinates, so relaxing across one
    # bit at a time leaves dist[A] = min |A ^ F| exactly
    dist = [n + 1] * (1 << n)
    for m in d.masks:
        dist[m] = 0
    for b in range(n):
        bit = 1 << b
        for a in range(len(dist)):
            if a & bit:
                x, y = dist[a], dist[a ^ bit]
                if x > y + 1:
                    dist[a] = y + 1
                elif y > x + 1:
                    dist[a ^ bit] = x + 1
    # the complement of A sits at the mirrored index
    return [n - x - y for x, y in zip(dist, reversed(dist))]


def twist_width_formula(d: DeltaMatroid, elems) -> int:
    """Width of twist(d, A) computed structurally, without twisting."""
    return _formula(d, d.mask_of(elems))


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


def min_width_twist(d: DeltaMatroid, check: bool = False) -> tuple[int, int]:
    """Twist set minimizing the twist's width.

    Returns ``(a_mask, width)`` with ties broken by smallest bitmask, read
    off the all-twists kernel. With ``check=True`` every kernel value is
    compared against the formula and against the width of the directly
    computed twist. Raises GroundSetError above ``MAX_SEARCH_ELEMENTS``.
    """
    widths = _twist_widths(d)
    if check:
        for a, w in enumerate(widths):
            if not w == _formula(d, a) == d.twist(a).width():
                raise AssertionError(
                    f"kernel width {w} disagrees with the formula or the "
                    f"direct twist for A={a:#x}"
                )
    best = min(widths)
    return widths.index(best), best


def rough_structure_witnesses(d: DeltaMatroid) -> list[int]:
    """All subsets A (as masks) witnessing a width-one twist structurally.

    A qualifies when it is a separator of d_min, D|A is a matroid, and
    D|A~ has width one. By the formula these are exactly the A with
    width(D*A) = 1 and D|A a matroid, ascending. The list is nonempty
    exactly when some twist of ``d`` has width one.
    """
    return [
        a
        for a, w in enumerate(_twist_widths(d))
        if w == 1 and _restriction_width(d, a) == 0
    ]
