"""Width of twists and the rough structure of width-one twists.

The central identity: the width of the twist of D by A equals

    width(D|A) + width(D|A~) + 2 * connectivity_{D_min}(A)

where A~ is the complement of A and D_min is the matroid of minimum-size
feasible sets. Everything here evaluates that right-hand side, so the
2^n search for a minimum-width twist never materializes twisted families;
a check mode cross-validates against direct twists.
"""

from __future__ import annotations

from .core import DeltaMatroid, GroundSetError
from .matroids import Matroid, d_min, is_matroid

# 2^n twist-set searches stay tractable well past the enumeration cap.
MAX_SEARCH_ELEMENTS = 24


def _formula(d: DeltaMatroid, dmin: Matroid, a: int) -> int:
    ac = d.full_mask & ~a
    return (
        d.restrict(a).width() + d.restrict(ac).width() + 2 * dmin.connectivity(a)
    )


def twist_width_formula(d: DeltaMatroid, elems) -> int:
    """Width of twist(d, A) computed structurally, without twisting."""
    return _formula(d, d_min(d), d.mask_of(elems))


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

    Returns ``(a_mask, width)`` with ties broken by smallest bitmask.
    With ``check=True`` every formula value is compared against the width
    of the directly computed twist.
    """
    if d.n > MAX_SEARCH_ELEMENTS:
        raise GroundSetError(
            f"twist search needs at most {MAX_SEARCH_ELEMENTS} elements"
        )
    dmin = d_min(d)
    best_a = 0
    best_w = None
    for a in range(d.full_mask + 1):
        w = _formula(d, dmin, a)
        if check and w != d.twist(a).width():
            raise AssertionError(
                f"formula width {w} disagrees with direct twist for A={a:#x}"
            )
        if best_w is None or w < best_w:
            best_a, best_w = a, w
            if best_w == 0:
                break
    return best_a, best_w


def rough_structure_witnesses(d: DeltaMatroid) -> list[int]:
    """All subsets A (as masks) witnessing a width-one twist structurally.

    A qualifies when it is a separator of d_min, D|A is a matroid, and
    D|A~ has width one. The list is nonempty exactly when some twist of
    ``d`` has width one.
    """
    dmin = d_min(d)
    out = []
    for a in range(d.full_mask + 1):
        ac = d.full_mask & ~a
        if (
            dmin.is_separator(a)
            and is_matroid(d.restrict(a))
            and d.restrict(ac).width() == 1
        ):
            out.append(a)
    return out
