"""Seeded input generators, independent of the library under test.

Every instance is a ``(labels, masks)`` pair: a tuple of element labels and
a sorted tuple of feasible-set bitmasks (bit i stands for ``labels[i]``).
Nothing here imports ``twistwidth``, so a change to the library cannot
change the inputs a seed produces.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import numpy as np


def labels_for(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


def _nonsingular_gf2(rows: list[int], k: int) -> bool:
    """Gaussian elimination over GF(2) on ``k`` bitmask rows of width k."""
    rows = list(rows)
    for col in range(k):
        bit = 1 << col
        for i in range(col, k):
            if rows[i] & bit:
                break
        else:
            return False
        rows[col], rows[i] = rows[i], rows[col]
        pivot = rows[col]
        for j in range(col + 1, k):
            if rows[j] & bit:
                rows[j] ^= pivot
    return True


def principal_minor_masks(n: int, rng: random.Random) -> list[int]:
    """Subsets S with a nonsingular principal submatrix A[S, S] of a random
    symmetric GF(2) matrix A; by Bouchet's representation theorem they form
    a delta-matroid, and the empty set is always feasible."""
    adj = [0] * n
    for i in range(n):
        if rng.getrandbits(1):
            adj[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    masks = []
    for s in range(1 << n):
        idx = [i for i in range(n) if s >> i & 1]
        rows = []
        for i in idx:
            r = 0
            for c, j in enumerate(idx):
                r |= (adj[i] >> j & 1) << c
            rows.append(r)
        if _nonsingular_gf2(rows, len(idx)):
            masks.append(s)
    return masks


def twist(masks, a: int) -> tuple[int, ...]:
    return tuple(sorted(m ^ a for m in masks))


def sampled(n: int, rng: random.Random):
    """Representable delta-matroid on n elements, twisted by a random
    feasible set so the family spreads while the empty set stays feasible."""
    masks = principal_minor_masks(n, rng)
    return labels_for(n), twist(masks, rng.choice(masks))


def uniform(r: int, n: int) -> list[int]:
    """Bases of the uniform matroid U(r, n)."""
    return [sum(1 << i for i in c) for c in combinations(range(n), r)]


def direct_sum_width_one(masks, n: int) -> list[int]:
    """Direct sum with the one-element delta-matroid {{}, {x}} on position n."""
    return list(masks) + [m | 1 << n for m in masks]


def all_delta_matroids_n4() -> list[tuple[int, ...]]:
    """Every delta-matroid on four elements, as sorted mask tuples in
    ascending family-bitmask order (5959 of them).

    A family is a 16-bit word over the subsets of {0, 1, 2, 3}; the
    symmetric exchange axiom is checked for all 2^16 words at once.
    """
    n = 4
    nsub = 1 << n
    fam = np.arange(1 << nsub, dtype=np.uint32)
    has = [(fam >> s & 1).astype(bool) for s in range(nsub)]
    ok = fam != 0
    for x in range(nsub):
        for y in range(nsub):
            if x == y:
                continue
            diff = x ^ y
            both = has[x] & has[y]
            for u in range(n):
                if not diff >> u & 1:
                    continue
                xu = x ^ 1 << u
                partner = np.zeros_like(ok)
                for v in range(n):
                    if diff >> v & 1:
                        partner |= has[xu if v == u else xu ^ 1 << v]
                ok &= ~both | partner
    return [
        tuple(s for s in range(nsub) if f >> s & 1)
        for f in map(int, np.nonzero(ok)[0])
    ]


def serialize(labels, masks) -> str:
    """The library's canonical text format, written independently."""
    lines = ["elements: " + " ".join(labels) if labels else "elements:"]
    for m in sorted(masks):
        members = [e for i, e in enumerate(labels) if m >> i & 1]
        lines.append("feasible: " + " ".join(members) if members else "feasible:")
    return "\n".join(lines) + "\n"


def digest(instances) -> str:
    """sha256 over the serialized inputs, in workload order."""
    h = hashlib.sha256()
    for labels, masks in instances:
        h.update(serialize(labels, masks).encode())
        h.update(b"\0")
    return h.hexdigest()
