"""The excluded minors for twist width at most one, derived from the
definition on every delta-matroid with n <= 4.

An excluded minor has least twist width at least 2, and each of its 2n
single-element deletions and contractions has least width at most 1.
Widths come from materialized twists and minors from the bare-mask rule,
both in helpers.py, so no certificate, catalog lookup or twist kernel
takes part. The classes found must be those of ``d5_family(up_to_iso=True)``,
one to one.
"""

import pytest

from twistwidth import DeltaMatroid, are_isomorphic, enumerate_all
from helpers import brute_min_twist_width, d5_dedup, sequential_minor


def _single_element_minors(d):
    for p in range(d.n):
        for x, y in ((1 << p, 0), (0, 1 << p)):
            yield DeltaMatroid(*sequential_minor(d.labels, d.masks, x, y), _trusted=True)


def _is_excluded_minor(d):
    return brute_min_twist_width(d) >= 2 and all(
        brute_min_twist_width(m) <= 1 for m in _single_element_minors(d))


@pytest.fixture(scope="module")
def derived():
    """(labeled excluded minors, one representative per isomorphism class)."""
    found = [d for n in (1, 2, 3, 4) for d in enumerate_all(n) if _is_excluded_minor(d)]
    classes = []
    for d in found:
        if all(are_isomorphic(d, kept) is None for kept in classes):
            classes.append(d)
    return found, classes


def _one_to_one(classes, expected):
    """Each member of ``classes`` is isomorphic to exactly one member of
    ``expected``, and each member of ``expected`` to exactly one of them."""
    matches = [[j for j, h in enumerate(expected) if are_isomorphic(d, h) is not None]
               for d in classes]
    return sorted(matches) == [[j] for j in range(len(expected))]


def test_derived_excluded_minors_are_the_d5_classes(derived):
    found, classes = derived
    assert len(found) == 11
    assert sorted(d.n for d in classes) == [2, 3, 3, 3, 3, 3, 3]
    assert _one_to_one(classes, d5_dedup())


@pytest.mark.parametrize("k", range(7))
def test_a_mutated_class_list_fails(derived, k):
    _, classes = derived
    expected = list(d5_dedup())
    dropped = expected[:k] + expected[k + 1:]
    doubled = [expected[k - 1] if j == k else h for j, h in enumerate(expected)]
    width_one = DeltaMatroid(("a", "b"), [0, 1])  # {}, {a}: a twist of width one
    replaced = [width_one if j == k else h for j, h in enumerate(expected)]
    for mutated in (dropped, doubled, replaced):
        assert not _one_to_one(classes, mutated)
