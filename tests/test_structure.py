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
from helpers import brute_min_twist_width, materialized_widths


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


def test_min_width_twist_of_catalog_is_first_argmin(cat):
    for d in cat:
        widths = materialized_widths(d)
        assert min_width_twist(d) == (widths.index(min(widths)), min(widths))


def test_min_width_twist_tie_break_is_smallest_mask(dms_by_n):
    for d in dms_by_n[3]:
        a, w = min_width_twist(d)
        widths = materialized_widths(d)
        assert w == min(widths)
        assert a == widths.index(w)


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


def test_rough_structure_witnesses_iff_width_one_twist(dms_by_n):
    for d in dms_by_n[3]:
        has = 1 in materialized_widths(d)
        assert bool(rough_structure_witnesses(d)) == has


def test_formula_exact_on_all_small_instances(dms_by_n):
    for n in (1, 2, 3):
        for d in dms_by_n[n]:
            for a, w in enumerate(materialized_widths(d)):
                assert twist_width_formula(d, a) == w


def test_min_width_agrees_with_brute_force(dms_by_n):
    for d in dms_by_n[3]:
        assert min_width_twist(d)[1] == brute_min_twist_width(d)
