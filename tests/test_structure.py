"""The twist-width formula, the witness predicates and the two searches on
hand-built examples and the catalog.

Their exhaustive checks on every instance with n <= 4 are acceptance
criteria 1 to 3 in ``test_acceptance.py`` and, for the least twist,
``test_twist_kernel.test_min_width_twist_is_first_argmin_exhaustively``.
"""

import pytest

from twistwidth import (
    GroundSetError,
    is_twist_matroid_witness,
    is_twist_width_one_witness,
    min_width_twist,
    rough_structure_witnesses,
    twist_width_formula,
    validate,
)


def test_formula_on_four_point_family(cat):
    assert twist_width_formula(cat[0], "a") == 2


def test_formula_for_empty_twist_set(cat):
    for d in cat:
        assert twist_width_formula(d, []) == d.width()


def test_formula_matches_direct_twist(cat):
    d3 = cat[2]
    assert twist_width_formula(d3, "a") == d3.twist("a").width() == 2


def test_matroid_witness_for_matroid_and_empty_set():
    m = validate("ab", ["a", "b"])
    assert is_twist_matroid_witness(m, [])


def test_matroid_witness_rejected_on_width_one_restriction(cat):
    assert not is_twist_matroid_witness(cat[0], "a")


def test_matroid_witness_agrees_with_direct_twist():
    d = validate("ab", ["", "a"])
    assert is_twist_matroid_witness(d, "a") == (d.twist("a").width() == 0)
    assert not is_twist_matroid_witness(d, "a")


def test_width_one_witness_trivial():
    d = validate("a", ["", "a"])
    assert is_twist_width_one_witness(d, [])


def test_no_width_one_witness_for_four_point_family(cat):
    d1 = cat[0]
    for a in range(4):
        assert not is_twist_width_one_witness(d1, a)


def test_width_one_witness_split():
    d = validate("ab", ["", "a"])
    assert is_twist_width_one_witness(d, "b")


def test_min_width_twist_of_odd_triangle(cat):
    assert min_width_twist(cat[2])[1] == 2


def test_min_width_twist_of_matroid_prefers_empty_set():
    m = validate("ab", ["a", "b"])
    assert min_width_twist(m) == (0, 0)


def test_min_width_twist_small_instance():
    d = validate("ab", ["", "a"])
    assert min_width_twist(d) == (0, 1)


def test_min_width_twist_ground_set_cap():
    labels = [f"x{i}" for i in range(25)]
    d = validate(labels, [[]])
    with pytest.raises(GroundSetError):
        min_width_twist(d)


def test_rough_structure_witnesses_empty_for_catalog(cat):
    assert rough_structure_witnesses(cat[0]) == []


def test_rough_structure_witness_trivial():
    d = validate("a", ["", "a"])
    assert 0 in rough_structure_witnesses(d)
