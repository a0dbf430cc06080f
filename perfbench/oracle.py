"""Independent checks on library outputs, run outside the timed region.

The reference quantities are computed here from the feasible masks alone
(materialised twists, counted with numpy), never through the library's
structural formulas, so a wrong fast path cannot agree with its own check.
"""

from __future__ import annotations

import numpy as np


def twist_widths(masks, n: int) -> np.ndarray:
    """Width of the twist by every subset A (index = mask of A)."""
    popcount = np.array([bin(s).count("1") for s in range(1 << n)], dtype=np.int64)
    fam = np.asarray(masks, dtype=np.int64)
    sizes = popcount[np.arange(1 << n, dtype=np.int64)[:, None] ^ fam[None, :]]
    return sizes.max(axis=1) - sizes.min(axis=1)


class Oracle:
    """Caches the twist widths of each instance; instances repeat across passes."""

    def __init__(self):
        self._widths = {}

    def widths(self, labels, masks) -> np.ndarray:
        key = (labels, masks)
        w = self._widths.get(key)
        if w is None:
            w = self._widths[key] = twist_widths(masks, len(labels))
        return w


def mask_of(labels, elems) -> int:
    pos = {e: i for i, e in enumerate(labels)}
    return sum(1 << pos[e] for e in elems)


def check_dm(d, labels, masks):
    if tuple(d.labels) != tuple(labels) or tuple(d.masks) != tuple(masks):
        return "returned delta-matroid differs from the input family"
    return None


def check_min_width_twist(result, widths):
    a, w = result
    best = int(widths.min())
    if w != best:
        return f"width {w}, brute force gives {best}"
    if a != int(np.argmin(widths)):
        return f"twist set {a:#x} is not the smallest-mask minimiser"
    return None


def check_rough(result, widths):
    if any(widths[a] != 1 for a in result):
        return "a returned witness does not twist to width one"
    if bool(result) != bool((widths == 1).any()):
        return "witness list emptiness disagrees with brute force"
    return None


def check_certify(cert, d, widths, twist_witness_type):
    best = int(widths.min())
    if isinstance(cert, twist_witness_type):
        if best > 1:
            return f"twist witness on an instance of min twist width {best}"
        a = mask_of(d.labels, cert.twist_set)
        if cert.width != widths[a] or cert.width > 1:
            return f"twist witness claims width {cert.width}, brute force {widths[a]}"
        return None
    if best <= 1:
        return f"minor witness on an instance of min twist width {best}"
    if not cert.obstruction.verify(d):
        return "minor witness fails Obstruction.verify"
    return None


def check_obstruction(obs, d, obstructed: bool):
    """``obs`` is an Obstruction or None; ``obstructed`` is the expected verdict."""
    if (obs is not None) != obstructed:
        return f"verdict {'obstructed' if obs is not None else 'clear'}, expected the opposite"
    if obs is not None and not obs.verify(d):
        return "obstruction fails Obstruction.verify"
    return None
