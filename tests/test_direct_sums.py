"""Checks above every oracle: relabelled direct sums at n = 21..64.

A twist acts part by part on a direct sum and width adds over the parts,
so the least twist width of a sum is the sum of its parts' least widths.
Each part has at most 9 elements, where ``min_width_twist`` answers, so
the sum's verdict is known at any n. A direct sum of delta-matroids is
one, so each sum is built with the trusted constructor: the axiom check
refuses some of them for its work budget. Every family has at most 6000
sets, and the positions of the parts are shuffled together.

On each draw, the class "has a twist of width at most one" gives three
relations:
- ``certify``'s verdict is the composed one, a least width <= 1;
- a random twist of the sum gets the same verdict, as the class is
  closed under twists;
- a twist witness T carries to single-element minors, as the class is
  closed under minors: (D\\e)*(T - e) for e outside T and (D/e)*(T - e) for
  e in T have width <= 1.
"""

from math import comb

from hypothesis import HealthCheck, given, settings, strategies as st

from twistwidth import DeltaMatroid, TwistWitness, catalog, certify, min_width_twist
from helpers import principal_minors

MAX_PART_ELEMENTS = 9
MAX_SUM_FAMILY = 6000


@st.composite
def _part(draw, room, budget):
    """(k, masks) of one twisted part on k <= room elements with at most
    ``budget`` feasible sets: a uniform matroid, a GF(2) principal-minor
    family, the singleton {∅, {z}} or a catalog member."""
    kind = draw(st.sampled_from(["uniform"] * 9 + ["gf2"] * 2 + ["single", "member"]))
    if kind == "member" and room >= 3 and budget >= 5:
        member = draw(st.sampled_from(catalog()))
        k, masks = member.n, member.masks
    elif kind == "gf2" and room >= 3 and budget >= 1 << 7:
        k = draw(st.integers(3, min(7, room)))
        rows = [draw(st.integers(0, (1 << k) - 1)) for _ in range(k)]
        # the symmetric matrix with row i's bits at and above the diagonal
        rows = [sum((rows[min(i, j)] >> max(i, j) & 1) << j for j in range(k)) for i in range(k)]
        masks = principal_minors(rows, k)
    elif kind == "single":
        k, masks = 1, [0, 1]
    else:
        k = draw(st.integers(1, min(MAX_PART_ELEMENTS, room)))
        r = draw(st.sampled_from([r for r in range(k + 1) if comb(k, r) <= budget]))
        masks = [m for m in range(1 << k) if m.bit_count() == r]
    x = draw(st.integers(0, (1 << k) - 1))
    return k, [m ^ x for m in masks]


@st.composite
def _sums(draw):
    """(D, the sum of its parts' least twist widths) for a direct sum D on
    21..64 elements: up to three parts drawn by ``_part``, then one-set parts
    up to the drawn size, all on shuffled positions."""
    n = draw(st.integers(21, 64))
    parts, used, family = [], 0, 1
    for _ in range(draw(st.integers(1, 3))):
        k, masks = draw(_part(min(MAX_PART_ELEMENTS, n - used), MAX_SUM_FAMILY // family))
        parts.append((k, masks))
        used, family = used + k, family * len(masks)
    while used < n:
        k = min(MAX_PART_ELEMENTS, n - used)
        parts.append((k, [draw(st.integers(0, (1 << k) - 1))]))
        used += k
    order = draw(st.permutations(range(n)))
    masks, least, start = [0], 0, 0
    for k, part in parts:
        least += min_width_twist(DeltaMatroid("abcdefghi"[:k], part, _trusted=True))[1]
        place = order[start:start + k]
        start += k
        spread = [sum(1 << place[j] for j in range(k) if m >> j & 1) for m in part]
        masks = [a | b for a in masks for b in spread]
    return DeltaMatroid([f"v{i}" for i in range(n)], masks, _trusted=True), least


@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sums(), st.data())
def test_certify_agrees_with_the_composed_oracle(case, data):
    d, least = case
    cert = certify(d)
    assert isinstance(cert, TwistWitness) == (least <= 1)
    twisted = d.twist(data.draw(st.integers(0, d.full_mask)))
    assert isinstance(certify(twisted), TwistWitness) == (least <= 1)
    if isinstance(cert, TwistWitness):
        for e in data.draw(st.lists(st.sampled_from(d.labels), min_size=1, max_size=3,
                                    unique=True)):
            minor = d.contract(e) if e in cert.twist_set else d.delete(e)
            assert minor.twist(cert.twist_set - {e}).width() <= 1
