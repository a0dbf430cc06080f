"""The excluded minors for twist width at most k, for k = 0, 1 and 2,
derived from the definition on every delta-matroid with n <= 4.

An excluded minor has least twist width above k, and each of its 2n
single-element deletions and contractions has least width at most k.
Widths come from materialized twists and minors from the bare-mask rule,
both in helpers.py, so no certificate, catalog lookup or twist kernel
takes part. The classes found must be, one to one, the targets of the
library's matroid-twist route for k = 0 and ``d5_family(up_to_iso=True)``
for k = 1. The library has no list for k = 2, so its counts are pinned.
"""

import pytest

from twistwidth import DeltaMatroid, enumerate_all
from twistwidth.minors import _MATROID_TWIST_ROUTE, _target_table
from helpers import are_isomorphic, brute_min_twist_width, d5_dedup, sequential_minor


def _matroid_twist_targets():
    targets = _target_table()[0]
    return [targets[t] for _, t in _MATROID_TWIST_ROUTE]


def _single_element_minors(d):
    for p in range(d.n):
        for x, y in ((1 << p, 0), (0, 1 << p)):
            yield DeltaMatroid(*sequential_minor(d.labels, d.masks, x, y), _trusted=True)


def _is_excluded_minor(k, width, minor_width):
    """From the least width of an instance and the largest least width of
    its single-element minors."""
    return width > k and minor_width <= k


@pytest.fixture(scope="module")
def widths():
    """(instance, least width, largest least width of its 2n single-element
    minors) for every delta-matroid with n <= 4, each minor's width
    computed once."""
    least = {}

    def width(d):
        if d not in least:
            least[d] = brute_min_twist_width(d)
        return least[d]

    return [(d, width(d), max(map(width, _single_element_minors(d))))
            for n in (1, 2, 3, 4) for d in enumerate_all(n)]


@pytest.fixture(scope="module")
def derived(widths):
    """For k = 0, 1 and 2: (labeled excluded minors, one representative per
    isomorphism class)."""
    out = {}
    for k in (0, 1, 2):
        found = [d for d, w, minor_w in widths if _is_excluded_minor(k, w, minor_w)]
        classes = []
        for d in found:
            if all(are_isomorphic(d, kept) is None for kept in classes):
                classes.append(d)
        out[k] = found, classes
    return out


def _one_to_one(classes, expected):
    """Each member of ``classes`` is isomorphic to exactly one member of
    ``expected``, and each member of ``expected`` to exactly one of them."""
    matches = [[j for j, h in enumerate(expected) if are_isomorphic(d, h) is not None]
               for d in classes]
    return sorted(matches) == [[j] for j in range(len(expected))]


def test_derived_excluded_minors_are_the_d5_classes(derived):
    found, classes = derived[1]
    assert len(found) == 11
    assert sorted(d.n for d in classes) == [2, 3, 3, 3, 3, 3, 3]
    assert _one_to_one(classes, d5_dedup())


def test_derived_width_zero_excluded_minors_are_the_matroid_twist_targets(derived):
    # {∅, e1}, {∅, e1e2, e1e3, e2e3} and {e1, e2, e3, e1e2e3}
    found, classes = derived[0]
    assert [d.masks for d in found] == [(0, 1), (0, 3, 5, 6), (1, 2, 4, 7)]
    assert found == classes
    assert _one_to_one(classes, _matroid_twist_targets())


def test_derived_width_two_excluded_minors(widths, derived):
    # at n <= 4 only; nothing here says the list stops at four elements
    found, classes = derived[2]
    assert len(found) == 1345
    assert len(classes) == 111
    # the one class on three elements is the full power set of {e1, e2, e3}
    assert [d.masks for d in found if d.n < 4] == [tuple(range(8))]
    assert sorted(d.n for d in classes) == [3] + [4] * 110
    assert {w for _, w, minor_w in widths if _is_excluded_minor(2, w, minor_w)} == {3}


def _mutations(expected, j):
    """``expected`` with member j dropped, doubled, or replaced by {∅, {a}}
    on two elements, which is no excluded minor for k <= 1."""
    dropped = expected[:j] + expected[j + 1:]
    doubled = [expected[j - 1] if i == j else h for i, h in enumerate(expected)]
    width_one = DeltaMatroid(("a", "b"), [0, 1])
    replaced = [width_one if i == j else h for i, h in enumerate(expected)]
    return dropped, doubled, replaced


@pytest.mark.parametrize("j", range(7))
def test_a_mutated_class_list_fails(derived, j):
    _, classes = derived[1]
    for mutated in _mutations(list(d5_dedup()), j):
        assert not _one_to_one(classes, mutated)


@pytest.mark.parametrize("j", range(3))
def test_a_mutated_matroid_twist_target_list_fails(derived, j):
    _, classes = derived[0]
    for mutated in _mutations(list(_matroid_twist_targets()), j):
        assert not _one_to_one(classes, mutated)
