import pytest

from twistwidth import DeltaMatroid, d_min, is_matroid, validate
from helpers import dmin_connectivity, dmin_rank


@pytest.fixture
def two_bases():
    return validate("ab", ["a", "b"])


def test_is_matroid(cat):
    assert not is_matroid(cat[2])
    assert is_matroid(validate("ab", ["a", "b"]))


def test_d_min_is_always_a_matroid(dms_by_n):
    for n in (2, 3):
        for d in dms_by_n[n]:
            m = d_min(d)
            assert isinstance(m, DeltaMatroid)
            assert m.labels == d.labels
            assert is_matroid(m)


def test_d_min_of_matroid_is_itself():
    d = validate("ab", ["a", "b"])
    assert d_min(d) == d


def test_d_min_picks_minimum_sets(cat):
    assert d_min(cat[4]).masks == (0,)
    d = validate("ab", ["a", "ab"])
    assert [sorted(s) for s in d_min(d).feasible_sets()] == [["a"]]


def test_rank(two_bases, cat):
    assert dmin_rank(two_bases, 0) == 0
    assert dmin_rank(two_bases, two_bases.mask_of("ab")) == 1
    assert dmin_rank(cat[2], cat[2].full_mask) == 0


def test_connectivity(two_bases):
    all_loops = validate("abc", [""])
    for a in range(8):
        assert dmin_connectivity(all_loops, a) == 0
    assert dmin_connectivity(two_bases, 0) == 0
    assert dmin_connectivity(two_bases, two_bases.mask_of("a")) == 1


def test_separators(two_bases):
    assert dmin_connectivity(two_bases, 0) == 0
    assert dmin_connectivity(two_bases, two_bases.mask_of("ab")) == 0
    assert dmin_connectivity(two_bases, two_bases.mask_of("a")) != 0


def test_every_set_is_separator_when_empty_feasible(dms_by_n):
    for d in dms_by_n[3]:
        if 0 in d.masks:
            assert all(dmin_connectivity(d, a) == 0 for a in range(8))


def test_connectivity_symmetric_under_complement(dms_by_n):
    for d in dms_by_n[3]:
        for a in range(8):
            assert dmin_connectivity(d, a) == dmin_connectivity(d, 7 ^ a)


def test_rank_monotone_and_submodular(dms_by_n):
    for d in dms_by_n[3]:
        rank = [dmin_rank(d, x) for x in range(8)]
        for x in range(8):
            for y in range(8):
                if x & ~y == 0:
                    assert rank[x] <= rank[y]
                assert rank[x | y] + rank[x & y] <= rank[x] + rank[y]
