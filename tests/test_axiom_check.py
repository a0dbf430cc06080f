"""Both kernels of the axiom check against the ordered-pair scan, the
dispatch between them, and the work budget that refuses oversized
untrusted families before the check.

``find_axiom_violation`` runs the subset kernel up to
``MAX_SUBSET_KERNEL_ELEMENTS`` elements and the column kernel above it.
Only the column kernel picks the witness: the subset kernel tests for a
violation and, on one, returns the column kernel's triple, so at n <= 12
the column kernel runs exactly once per violating family and never on a
valid one. Each kernel must return the oracle's exact triple (first X,
then first Y, then lowest u), not just agree on the verdict, so the
oracle tests call both kernels by their private names.
"""

import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    brute_axiom_holds,
    brute_find_axiom_violation,
    draw_with_empty_feasible,
    sample_with_empty_feasible,
    twisted_uniform,
    uniform_masks,
)
from twistwidth import (
    AxiomViolationError,
    DeltaMatroid,
    DeltaMatroidError,
    enumerate_all,
    serialize,
    validate,
)
from twistwidth import core
from twistwidth.cli import main
from twistwidth.core import find_axiom_violation

KERNELS = (core._subset_violation, core._column_violation)


def _kernels_match(masks, n, want):
    for kernel in KERNELS:
        assert kernel(masks, n) == want, (kernel.__name__, masks)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_every_family_matches_oracle(n):
    violating, holding = 0, []
    for fam in range(1, 1 << (1 << n)):
        masks = [s for s in range(1 << n) if fam >> s & 1]
        found = brute_find_axiom_violation(masks, n)
        _kernels_match(masks, n, found)
        assert (found is None) == brute_axiom_holds(masks, n)
        violating += found is not None
        if found is None:
            holding.append(tuple(masks))
    # n = 4: 65535 families, of which 5959 are delta-matroids
    assert violating == {0: 0, 1: 0, 2: 0, 3: 100, 4: 59576}[n]
    if n:
        # the enumeration's table, family by family, in ascending order
        assert holding == [d.masks for d in enumerate_all(n)]


def test_sampled_n4_families_match_oracle(dms_by_n):
    rng = random.Random(4)
    words = [rng.randrange(1, 1 << 16) for _ in range(2000)]
    # every delta-matroid with one subset added or dropped: mostly
    # violating, often by a single pair
    words += [
        sum(1 << m for m in d.masks) ^ 1 << rng.randrange(16) for d in dms_by_n[4]
    ]
    violating = 0
    for word in filter(None, words):
        masks = [s for s in range(16) if word >> s & 1]
        found = brute_find_axiom_violation(masks, 4)
        _kernels_match(masks, 4, found)
        violating += found is not None
    assert violating > len(words) // 2


@given(
    st.integers(min_value=5, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=2**7 - 1),
    st.booleans(),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_toggled_sampled_families_match_oracle(n, seed, subset, chain):
    d = draw_with_empty_feasible(n, random.Random(seed), chain)
    if chain:
        # the kernels under test accepted every chain draw; confirm it here
        assert brute_axiom_holds(d.masks, n)
    masks = sorted(set(d.masks) ^ {subset % (1 << n)})
    assume(masks)
    _kernels_match(masks, n, brute_find_axiom_violation(masks, n))


@given(
    st.integers(min_value=5, max_value=8),
    st.data(),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_toggled_uniform_twists_match_oracle(n, data):
    # twisted uniform matroids are not GF(2) principal-minor families in
    # general; one or two toggled subsets break most of them (about 85%)
    r = data.draw(st.integers(min_value=0, max_value=n))
    t = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    toggles = data.draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=2)
    )
    masks = sorted({m ^ t for m in uniform_masks(r, n)} ^ toggles)
    assume(masks)
    _kernels_match(masks, n, brute_find_axiom_violation(masks, n))


@given(
    st.integers(min_value=10, max_value=14),
    st.sampled_from(("gf2", "chain", "uniform", "sparse")),
    st.data(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_kernels_agree_across_cutoff(n, source, data):
    # too large for the oracle: the two kernels pin each other, on GF(2)
    # draws, on the sum of an extension-chain draw on k <= 8 elements with a
    # GF(2) draw on the other n - k, on twisted uniform matroids, and on one
    # to three random sets, where the subset kernel's tables are the sparsest,
    # each with one or two subsets toggled
    if source == "gf2":
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        family = set(sample_with_empty_feasible(n, random.Random(seed)).masks)
    elif source == "chain":
        k = data.draw(st.integers(min_value=5, max_value=8))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
        base = draw_with_empty_feasible(k, rng, True).masks
        # the kernels under test accepted every chain draw; confirm it here
        assert brute_axiom_holds(base, k)
        rest = sample_with_empty_feasible(n - k, rng).masks
        family = {a | b << k for a in base for b in rest}
    elif source == "uniform":
        r = data.draw(st.integers(min_value=1, max_value=3))
        t = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
        family = {m ^ t for m in uniform_masks(r, n)}
    else:
        family = data.draw(
            st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=3)
        )
    toggles = data.draw(
        st.sets(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=2)
    )
    masks = sorted(family ^ toggles)
    assume(masks)
    assert core._subset_violation(masks, n) == core._column_violation(masks, n)


def _count_column_calls(monkeypatch):
    calls = []
    column = core._column_violation

    def counted(masks, n):
        calls.append(n)
        return column(masks, n)

    monkeypatch.setattr(core, "_column_violation", counted)
    return calls


@pytest.mark.parametrize("n", [12, 13])
def test_dispatch_at_the_cutoff(n, monkeypatch):
    def refuse(masks, n):
        raise LookupError("wrong kernel")

    # U(2, n) without {e0, e1} and {e0, e2}, twisted by {e0, e1, e3, e4, e6}
    masks = sorted(m ^ 0b1011011 for m in uniform_masks(2, n) if m not in (0b11, 0b101))
    want = (0b11010, 0b1011101, 6)
    assert core._column_violation(masks, n) == core._subset_violation(masks, n) == want
    if n <= 12:
        monkeypatch.setattr(core, "_subset_violation", refuse)
        with pytest.raises(LookupError, match="wrong kernel"):
            find_axiom_violation(masks, n)
        monkeypatch.undo()
        # the subset kernel hands its verdict to the column kernel, once
        calls = _count_column_calls(monkeypatch)
        assert find_axiom_violation(masks, n) == want
        assert calls == [n]
    else:
        monkeypatch.setattr(core, "_subset_violation", refuse)
        assert find_axiom_violation(masks, n) == want
        monkeypatch.undo()
        monkeypatch.setattr(core, "_column_violation", refuse)
        with pytest.raises(LookupError, match="wrong kernel"):
            find_axiom_violation(masks, n)


def test_column_kernel_runs_once_per_violating_family(monkeypatch):
    # every family at n <= 3, then GF(2) draws at n = 4..12, each as drawn
    # (valid) and with one subset toggled (mostly violating)
    cases = [
        ([s for s in range(1 << n) if fam >> s & 1], n)
        for n in range(4) for fam in range(1, 1 << (1 << n))
    ]
    rng = random.Random(33)
    for n in range(4, 13):
        for _ in range(4):
            masks = sample_with_empty_feasible(n, rng).masks
            cases += [(list(masks), n), (sorted(set(masks) ^ {rng.randrange(1 << n)}), n)]
    calls = _count_column_calls(monkeypatch)
    violating = 0
    for masks, n in cases:
        del calls[:]
        found = find_axiom_violation(masks, n)
        assert calls == ([n] if found is not None else []), (masks, n)
        violating += found is not None
    assert 0 < violating < len(cases)


def test_violating_n12_family_fails_fast():
    # a GF(2) draw with 2078 feasible sets, one of them dropped
    rng = random.Random(0)
    d = sample_with_empty_feasible(12, rng)
    masks = sorted(set(d.masks) ^ {rng.randrange(1 << 12)})
    assert len(masks) == 2077
    start = time.perf_counter()
    with pytest.raises(AxiomViolationError) as err:
        validate(d.labels, masks)
    assert time.perf_counter() - start < 1.0
    # pinned when the subset kernel still read off its own witness
    assert find_axiom_violation(masks, 12) == (1739, 3531, 11)
    assert (err.value.x, err.value.y, err.value.u) == (
        d.set_of(1739), d.set_of(3531), d.labels[11]
    )


# -- the work budget ------------------------------------------------------


def test_oversized_family_fails_fast():
    labels = [f"e{i}" for i in range(63)]
    masks = uniform_masks(3, 63)
    start = time.perf_counter()
    with pytest.raises(DeltaMatroidError, match="axiom check too large"):
        validate(labels, masks)
    assert time.perf_counter() - start < 1.0


def test_cli_rejects_oversized_family(tmp_path, capsys):
    d = twisted_uniform(3, 63)
    path = tmp_path / "u3_63.dm"
    path.write_text(serialize(d))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: axiom check too large: 39711")


def test_sampled_n12_family_is_accepted():
    d = sample_with_empty_feasible(12, random.Random(12))
    assert validate(d.labels, d.masks) == d


def test_large_families_go_through_the_column_kernel():
    for r, n in [(2, 63), (4, 24)]:
        labels = [f"e{i}" for i in range(n)]
        assert validate(labels, uniform_masks(r, n)).masks == tuple(sorted(uniform_masks(r, n)))
    # U(2, 63) with the 3-set {e5, e20, e40} added; the triple was read
    # from the column kernel before the subset kernel existed
    x = 1 << 5 | 1 << 20 | 1 << 40
    masks = sorted(uniform_masks(2, 63) + [x])
    assert find_axiom_violation(masks, 63) == (x, 0b11, 0)
    with pytest.raises(AxiomViolationError) as err:
        validate([f"e{i}" for i in range(63)], masks)
    assert (err.value.x, err.value.y, err.value.u) == (
        frozenset({"e5", "e20", "e40"}), frozenset({"e0", "e1"}), "e0"
    )


def test_budget_boundary(monkeypatch):
    # U(2, 5): 10 sets on 5 elements, 10 * 25 * 1 word operations
    masks = uniform_masks(2, 5)
    monkeypatch.setattr(core, "MAX_AXIOM_WORK", 250)
    assert validate("abcde", masks).masks == tuple(sorted(masks))
    monkeypatch.setattr(core, "MAX_AXIOM_WORK", 249)
    with pytest.raises(DeltaMatroidError, match="axiom check too large"):
        validate("abcde", masks)
    # trusted construction never runs the check, so the budget is moot
    assert DeltaMatroid("abcde", masks, _trusted=True).masks == tuple(sorted(masks))
