import os
import subprocess
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import (
    AxiomViolationError,
    DeltaMatroid,
    GroundSetError,
    TwistWitness,
    catalog,
    count_all,
    enumerate_all,
    validate,
    verify_theorem,
)
from twistwidth import enumeration, structure
from twistwidth.core import find_axiom_violation
from twistwidth.enumeration import THEOREM_TAGS
from helpers import brute_axiom_holds, sweep_family_masks

EXPECTED_COUNTS = {1: 3, 2: 15, 3: 155, 4: 5959}  # frozen regression values


def test_single_element_enumeration():
    fams = [d.feasible_sets() for d in enumerate_all(1)]
    assert fams == [
        [frozenset()],
        [frozenset({"e1"})],
        [frozenset(), frozenset({"e1"})],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counts_frozen(n):
    assert count_all(n) == EXPECTED_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_family_table_matches_the_triple_sweep(n):
    assert enumeration._valid_family_masks(n) == sweep_family_masks(n)


def test_enumeration_matches_naive_axiom_check():
    # independent oracle: accept exactly the families passing the
    # set-theoretic exchange check
    n = 3
    expected = []
    for fam in range(1, 1 << 8):
        masks = [s for s in range(8) if fam >> s & 1]
        if brute_axiom_holds(masks, n):
            expected.append(tuple(masks))
    assert [d.masks for d in enumerate_all(n)] == expected


def test_stream_deterministic():
    first = [d.masks for d in enumerate_all(2)]
    second = [d.masks for d in enumerate_all(2)]
    assert first == second


def test_recheck_mode():
    ds = list(enumerate_all(3))
    assert len(ds) == 155
    for d in ds:
        assert find_axiom_violation(d.masks, d.n) is None


def test_out_of_range():
    with pytest.raises(GroundSetError):
        list(enumerate_all(5))
    with pytest.raises(GroundSetError):
        count_all(0)


@given(st.sets(st.integers(min_value=0, max_value=7), min_size=1))
@settings(max_examples=200, deadline=None)
def test_validate_agrees_with_naive_check(masks):
    masks = sorted(masks)
    ok = brute_axiom_holds(masks, 3)
    try:
        validate("abc", masks)
    except AxiomViolationError:
        assert not ok
    else:
        assert ok


@pytest.mark.parametrize("tag", THEOREM_TAGS)
def test_verify_small(tag):
    report = verify_theorem(2, tag)
    assert report.passed
    assert report.valid_count == 15


def _assert_every_instance_fails(report):
    # every A of every instance is wrong, so the first instance fails at A = 0
    assert report.checked == report.failures == 155
    first = next(enumerate_all(3))
    assert report.first_counterexample == f"{first!r} with A mask 0x0"


@pytest.mark.parametrize("tag", ["t2", "tt2", "tt"])
def test_verify_catches_a_wrong_formula(monkeypatch, tag):
    # one more in the connectivity term puts the formula 2 above the width;
    # tt2 and tt are the formula's == 0 and == 1, so they run t2's check
    terms = structure._terms

    def wrong(d, a):
        restricted, complemented, connectivity = terms(d, a)
        return restricted, complemented, connectivity + 1

    monkeypatch.setattr(structure, "_terms", wrong)
    _assert_every_instance_fails(verify_theorem(3, tag))


def test_verify_t2_catches_a_wrong_direct_width(monkeypatch):
    width = enumeration._twist_width
    monkeypatch.setattr(enumeration, "_twist_width", lambda d, a: width(d, a) + 2)
    _assert_every_instance_fails(verify_theorem(3, "t2"))


# (tag, owner, name, stand-in, failures at n = 3): the failures are the
# instances on which the stand-in's answer differs from the true one
FAULTS = [
    # no obstruction anywhere: wrong on the 49 of least width >= 2
    ("t1", enumeration, "is_obstructed", lambda d: None, 49),
    # a width-one witness everywhere: wrong on the same 49
    ("l2", enumeration, "certify", lambda d: TwistWitness(frozenset(), 0), 49),
    # no rough-structure witness: wrong on the 78 with a width-one twist
    ("tm1", enumeration, "rough_structure_witnesses", lambda d: [], 78),
    # every contraction has least width 2: wrong on the 106 of least width <= 1
    ("p1", DeltaMatroid, "contract", lambda d, e: catalog()[0], 106),
]


@pytest.mark.parametrize("tag, owner, name, stand_in, failures", FAULTS, ids=[f[0] for f in FAULTS])
def test_verify_catches_an_injected_fault(monkeypatch, tag, owner, name, stand_in, failures):
    monkeypatch.setattr(owner, name, stand_in)
    report = verify_theorem(3, tag)
    assert (report.checked, report.failures) == (155, failures)
    assert report.first_counterexample is not None


def test_verify_l2_checks_every_instance():
    # certify takes every delta-matroid, the empty set feasible or not
    report = verify_theorem(4, "l2")
    assert report.passed
    assert report.checked == count_all(4) == 5959


@lru_cache(maxsize=None)
def _one_pass(n):
    """The report of every tag that runs at n, from one ``_verify`` pass."""
    tags = tuple(t for t in THEOREM_TAGS if t != "l1" or n <= 3)
    return dict(zip(tags, enumeration._verify(n, tags)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_pass_matches_the_separate_runs(n):
    # every field, first_counterexample included; at n = 1, p1's minors
    # have no elements
    reports = _one_pass(n)
    assert reports == {tag: verify_theorem(n, tag) for tag in reports}


def test_one_pass_computes_each_width_and_formula_once(monkeypatch):
    calls = []
    width, formula = enumeration._twist_width, enumeration.twist_width_formula

    def counted(inner, kind):
        def call(d, a):
            calls.append((kind, d.n))
            return inner(d, a)
        return call

    monkeypatch.setattr(enumeration, "_twist_width", counted(width, "width"))
    monkeypatch.setattr(enumeration, "twist_width_formula", counted(formula, "formula"))
    reports = enumeration._verify(3, THEOREM_TAGS)
    assert [r.theorem for r in reports] == list(THEOREM_TAGS)
    assert all(r.passed and r.checked == 155 for r in reports)
    # p1's table of the instances on 2 elements may come from an earlier call
    assert calls.count(("width", 3)) == calls.count(("formula", 3)) == 155 * 8


# (n, count) for each tag at the largest n it supports: every delta-matroid
# on 4 elements, or on 3 for l1 (l2 has its own test above)
EXHAUSTIVE = {
    "t2": (4, 5959), "tt2": (4, 5959), "tt": (4, 5959), "t1": (4, 5959),
    "p1": (4, 5959), "tm1": (4, 5959), "l1": (3, 155),
}


@pytest.mark.parametrize("tag", EXHAUSTIVE)
def test_verify_checks_every_instance(tag):
    n, count = EXHAUSTIVE[tag]
    report = _one_pass(n)[tag]
    assert report.passed
    assert report.checked == count


def test_verify_trivial_width_bound():
    report = verify_theorem(1, "tt2")
    assert report.passed and report.checked == 3


def test_verify_unknown_tag():
    with pytest.raises(ValueError):
        verify_theorem(2, "nope")


def test_verify_l1_size_cap():
    with pytest.raises(GroundSetError):
        verify_theorem(4, "l1")


def test_import_leaves_numpy_unloaded():
    # neither importing the library nor building a family table needs numpy,
    # and the records load no dataclasses (which would pull in inspect);
    # only modules loaded after the start count, whatever a site hook preloads
    code = (
        "import sys; before = set(sys.modules); import twistwidth; twistwidth.count_all(4); "
        "print(sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
