"""Matroids among delta-matroids.

A matroid is exactly a width-zero delta-matroid; its feasible sets are its
bases.
"""

from __future__ import annotations

from .core import DeltaMatroid


def is_matroid(d: DeltaMatroid) -> bool:
    """True iff all feasible sets have equal size."""
    return d.width() == 0


def d_min(d: DeltaMatroid) -> DeltaMatroid:
    """The matroid whose bases are the minimum-size feasible sets of ``d``."""
    k = d.min_feasible_size()
    return DeltaMatroid(
        d.labels, [m for m in d.masks if m.bit_count() == k], _trusted=True
    )
