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

The other routes and the witnesses give four more:
- ``matroid_twist_obstructions`` is None exactly when the least width is
  0, and then, below 64 elements, exactly when D + {∅, {z}} (a width-one
  part added) is unobstructed, which ties the two obstruction routes;
- a minor witness carries to single-element minors too: deleting an element
  of its delete set, or contracting one of its contract set, leaves an
  input on which the same record, less that element, verifies, and which
  ``certify`` again finds obstructed;
- renaming the labels in place maps ``certify``'s certificate label by
  label, and moving the positions keeps every verdict.
An even sum with a twist of the odd triangle has least width 2, so the
even branch of ``matroid_twist_obstructions`` answers above 20 elements.
A second strategy draws only even parts, so that branch and the
certificate it shares with ``certify`` run on draws too: every part of an
even sum is even.
"""

from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from twistwidth import (DeltaMatroid, MinorWitness, TwistWitness, catalog, certify,
                        is_obstructed, matroid_twist_obstructions, min_width_twist)
from twistwidth.minors import _permuted_masks
from helpers import principal_minors, uniform_masks, with_free_element

MAX_PART_ELEMENTS = 9
MAX_SUM_FAMILY = 6000


KINDS = ["uniform"] * 9 + ["gf2"] * 2 + ["single", "member"]
# every part of an even sum is even: no singleton, the odd triangle as the
# member, and a GF(2) matrix with a zero diagonal
EVEN_KINDS = ["uniform"] * 3 + ["gf2"] * 2 + ["member"]


@st.composite
def _part(draw, room, budget, even=False):
    """(k, masks) of one twisted part on k <= room elements with at most
    ``budget`` feasible sets: a uniform matroid, a GF(2) principal-minor
    family, the singleton {∅, {z}} or a catalog member; an even one when
    ``even``."""
    kind = draw(st.sampled_from(EVEN_KINDS if even else KINDS))
    if kind == "member" and room >= 3 and budget >= 5:
        member = catalog()[2] if even else draw(st.sampled_from(catalog()))
        k, masks = member.n, member.masks
    elif kind == "gf2" and room >= 3 and budget >= 1 << 7:
        k = draw(st.integers(3, min(7, room)))
        rows = [draw(st.integers(0, (1 << k) - 1)) for _ in range(k)]
        # the symmetric matrix with row i's bits at and above the diagonal
        rows = [sum((rows[min(i, j)] >> max(i, j) & 1) << j for j in range(k)) for i in range(k)]
        if even:
            rows = [row & ~(1 << i) for i, row in enumerate(rows)]
        masks = principal_minors(rows, k)
    elif kind == "single":
        k, masks = 1, [0, 1]
    else:
        k = draw(st.integers(1, min(MAX_PART_ELEMENTS, room)))
        r = draw(st.sampled_from([r for r in range(k + 1) if comb(k, r) <= budget]))
        masks = uniform_masks(r, k)
    x = draw(st.integers(0, (1 << k) - 1))
    return k, [m ^ x for m in masks]


@st.composite
def _sums(draw, even=False):
    """(D, the sum of its parts' least twist widths) for a direct sum D on
    21..64 elements: up to three parts drawn by ``_part``, all even when
    ``even``, then one-set parts up to the drawn size, all on shuffled
    positions."""
    n = draw(st.integers(21, 64))
    parts, used, family = [], 0, 1
    for _ in range(draw(st.integers(1, 3))):
        k, masks = draw(_part(min(MAX_PART_ELEMENTS, n - used), MAX_SUM_FAMILY // family, even))
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


SUMS = settings(max_examples=50, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@SUMS
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


def _check_routes(d, least):
    obs = matroid_twist_obstructions(d)
    assert (obs is None) == (least == 0)
    if d.n < 64:
        # the sum is labelled e0..e(n), which is_obstructed's verdict ignores
        assert (is_obstructed(with_free_element(d)) is None) == (obs is None)
    return obs


@SUMS
@given(_sums())
def test_matroid_twist_route_agrees_with_the_composed_oracle(case):
    _check_routes(*case)


@SUMS
@given(_sums(even=True), st.data())
def test_even_sums_agree_with_the_composed_oracle(case, data):
    d, least = case
    assert d._odd_pair() is None
    assert isinstance(certify(d), TwistWitness) == (least <= 1)
    _check_routes(d, least)
    assert (is_obstructed(d) is None) == (least <= 1)
    twisted = d.twist(data.draw(st.integers(0, d.full_mask)))
    assert isinstance(certify(twisted), TwistWitness) == (least <= 1)


@pytest.mark.parametrize("twist", range(8))
def test_even_sum_with_a_twisted_triangle(twist):
    # the odd triangle twisted, on positions 5, 12 and 20, and one-set
    # parts on the other 21, whose one set is {0, 3, 9, 17, 23}
    place, fixed = (5, 12, 20), sum(1 << i for i in (0, 3, 9, 17, 23))
    part = [sum(1 << place[j] for j in range(3) if m >> j & 1)
            for m in catalog()[2].twist(twist).masks]
    d = DeltaMatroid([f"v{i}" for i in range(24)], [m | fixed for m in part], _trusted=True)
    assert d._odd_pair() is None
    assert _check_routes(d, 2).verify(d)


def _minor_records(obs, d, chosen):
    """(minor, the record on it) for each chosen element of the witness."""
    for e in chosen:
        if e in obs.delete_set:
            yield d.delete(e), obs._replace(delete_set=obs.delete_set - {e})
        else:
            yield d.contract(e), obs._replace(contract_set=obs.contract_set - {e})


@SUMS
@given(_sums(), st.data())
def test_minor_witness_carries_to_single_element_minors(case, data):
    d, _ = case
    for route in (certify, matroid_twist_obstructions):
        found = route(d)
        if found is None or isinstance(found, TwistWitness):
            continue
        obs = found.obstruction if route is certify else found
        removed = sorted(obs.delete_set | obs.contract_set)
        chosen = data.draw(st.lists(st.sampled_from(removed), min_size=1, max_size=3,
                                    unique=True))
        for minor, record in _minor_records(obs, d, chosen):
            assert record.verify(minor)
            assert type(route(minor)) is type(found)  # a MinorWitness or an Obstruction


def _renamed(cert, name):
    """``cert`` with each host label e read as name[e]."""
    if isinstance(cert, TwistWitness):
        return cert._replace(twist_set=frozenset(map(name.get, cert.twist_set)))
    obs = cert.obstruction
    return MinorWitness(obs._replace(delete_set=frozenset(map(name.get, obs.delete_set)),
                                     contract_set=frozenset(map(name.get, obs.contract_set)),
                                     iso={name[e]: v for e, v in obs.iso.items()}))


@SUMS
@given(_sums(), st.data())
def test_relabelling_maps_the_certificate_and_keeps_the_verdict(case, data):
    d, _ = case
    cert = certify(d)
    names = data.draw(st.permutations([f"w{i}" for i in range(d.n)]))
    renamed = DeltaMatroid(names, d.masks, _trusted=True)
    assert certify(renamed) == _renamed(cert, dict(zip(d.labels, names)))
    perm = data.draw(st.permutations(range(d.n)))
    labels = [None] * d.n
    for i, p in enumerate(perm):
        labels[p] = d.labels[i]
    moved = DeltaMatroid(labels, _permuted_masks(d.masks, perm), _trusted=True)
    assert isinstance(certify(moved), TwistWitness) == isinstance(cert, TwistWitness)
    assert (matroid_twist_obstructions(moved) is None) == (matroid_twist_obstructions(d) is None)
