"""``rough_structure_witnesses`` runs the all-twists kernel only when some
twist has width one.

Twists keep parity, so an even input has no twist of odd width, and an odd
one has a twist of width one exactly when ``certify`` finds a twist
witness. Here the kernel's calls are recorded: it runs on exactly the odd
inputs with a twist witness, and the answers are those of the unpruned
kernel. The cap is checked before the parity scan and the certificate.

Width adds over direct sums and {∅, {z}} has width one under every twist,
so D + {∅, {z}} has a twist of width one exactly when D has a matroid
twist: ``rough_structure_witnesses`` and ``matroid_twist_obstructions``
answer the same question on the two inputs, checked on every instance
with n <= 3 and on sums of obstructed, even and width-one parts.
"""

import importlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import (DeltaMatroid, GroundSetError, TwistWitness, catalog, certify,
                        matroid_twist_obstructions, min_width_twist, rough_structure_witnesses,
                        validate)
from twistwidth.structure import MAX_SEARCH_ELEMENTS
from helpers import every_dm, fresh, uniform_masks

structure = importlib.import_module("twistwidth.structure")
certify_module = importlib.import_module("twistwidth.certify")

_SHELLS = structure._shells


def _unpruned(d):
    """The kernel's answer, as ``rough_structure_witnesses`` gave it before
    the parity and certificate tests."""
    near, mirror = _SHELLS(d)
    return [a for a in structure._members(structure._width_class(near, mirror, 1))
            if structure._terms(d, a)[0] == 0]


def _record(monkeypatch, owner, name):
    """The list that each call of ``owner.name`` appends its input to."""
    calls = []
    inner = getattr(owner, name)

    def recorded(d):
        calls.append(d)
        return inner(d)

    monkeypatch.setattr(owner, name, recorded)
    return calls


def _labelled(masks, n):
    return DeltaMatroid([f"e{i}" for i in range(n)], masks, _trusted=True)


def _sum(first, second):
    """first + second, the second on the positions after the first's."""
    return _labelled([a | b << first.n for a in first.masks for b in second.masks],
                     first.n + second.n)


def _with_free_element(d):
    return _sum(d, validate("z", ["", "z"]))


def test_the_kernel_runs_exactly_when_a_twist_has_width_one(dms_by_n, monkeypatch):
    calls = _record(monkeypatch, structure, "_shells")
    for d in every_dm(dms_by_n):
        searched = not d.is_even() and isinstance(certify(fresh(d)), TwistWitness)
        calls.clear()
        assert rough_structure_witnesses(fresh(d)) == _unpruned(d)
        assert len(calls) == searched, d


def _large_inputs():
    rng = random.Random(18)
    width_one = uniform_masks(2, 19)
    width_one += [m | 1 << 19 for m in width_one]
    t18, t20 = rng.getrandbits(18), rng.getrandbits(20)
    return {
        # the odd member {∅, a, b, c, abc} beside U(2, 15) and U(2, 17)
        "obstructed-18": (_sum(catalog()[1], _labelled(uniform_masks(2, 15), 15)), False),
        "obstructed-20": (_sum(catalog()[1], _labelled(uniform_masks(2, 17), 17)), False),
        "even-18": (_labelled([m ^ t18 for m in uniform_masks(3, 18)], 18), False),
        "width-one-20": (_labelled([m ^ t20 for m in width_one], 20), True),
    }


@pytest.mark.parametrize("name", list(_large_inputs()))
def test_large_inputs_give_the_kernel_answer(name, monkeypatch):
    d, searched = _large_inputs()[name]
    expected = _unpruned(d)
    assert bool(expected) == searched
    calls = _record(monkeypatch, structure, "_shells")
    assert rough_structure_witnesses(d) == expected
    assert len(calls) == searched


def test_an_odd_obstructed_input_above_the_cap_is_refused_first(cat, monkeypatch):
    member = cat[1]
    d = DeltaMatroid((*member.labels, *(f"x{i}" for i in range(18))), member.masks,
                     _trusted=True)
    assert d.n == MAX_SEARCH_ELEMENTS + 1 and not d.is_even()
    calls = _record(monkeypatch, certify_module, "_certify_impl")
    message = f"twist search needs at most {MAX_SEARCH_ELEMENTS} elements"
    with pytest.raises(GroundSetError, match=f"^{re.escape(message)}$"):
        rough_structure_witnesses(d)
    assert calls == [] and getattr(d, "_cert", None) is None


def test_a_free_element_ties_the_two_routes_exhaustively(dms_by_n):
    for n in (1, 2, 3):
        for d in dms_by_n[n]:
            has_width_one = bool(rough_structure_witnesses(_with_free_element(d)))
            assert has_width_one == (matroid_twist_obstructions(fresh(d)) is None), d


# (part kind, least twist width): a catalog member, a uniform matroid and a
# uniform matroid with a free element
KINDS = {"obstructed": 2, "even": 0, "width-one": 1}


@st.composite
def _parts_sum(draw):
    """(D, the number of parts with no matroid twist) for a sum of twisted
    parts on 5..15 elements with at most 1000 feasible sets."""
    d, bad = validate("", [""]), 0
    while d.n < 5 or d.n < 15 and draw(st.booleans()):
        kind = draw(st.sampled_from(list(KINDS)))
        if kind == "obstructed":
            part = draw(st.sampled_from(catalog()))
        else:
            k = draw(st.integers(2, min(5, max(2, 15 - d.n - (kind == "width-one")))))
            part = _labelled(uniform_masks(draw(st.integers(1, k - 1)), k), k)
            if kind == "width-one":
                part = _with_free_element(part)
        if d.n + part.n > 15 or len(d.masks) * len(part.masks) > 1000:
            break
        part = part.twist(draw(st.integers(0, part.full_mask)))
        assert min_width_twist(part)[1] == KINDS[kind]
        d, bad = _sum(d, part), bad + (kind != "even")
    return d, bad


@given(_parts_sum())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_a_free_element_ties_the_two_routes_on_sums(case):
    d, bad = case
    obs = matroid_twist_obstructions(d)
    assert (obs is None) == (bad == 0)
    witnesses = rough_structure_witnesses(_with_free_element(d))
    assert bool(witnesses) == (obs is None)
