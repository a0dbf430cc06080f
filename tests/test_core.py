"""DeltaMatroid: validation, twist, dual, loops and coloops, minors,
restriction, width and rho, hashing, pickling and immutability, and the
lemma that the least feasible mask has the least size.

The core identities on every instance with n <= 4 (twists are
delta-matroids and involutions, contraction is a twisted deletion, and
duality keeps the width) are acceptance criterion 8 in
``test_acceptance.py``.
"""

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from twistwidth import (
    AxiomViolationError,
    DeltaMatroid,
    EmptyFamilyError,
    GroundSetError,
    d_min,
    enumerate_all,
    parse,
    serialize,
    validate,
)
from helpers import (draw_with_empty_feasible, every_dm, labelled, record_calls, same,
                     scan_set_of, uniform_masks)


def fam(d):
    return sorted(sorted(f) for f in d.feasible_sets())


class TestValidate:
    def test_four_point_family_is_valid(self):
        d = validate("ab", ["", "a", "b", "ab"])
        assert fam(d) == [[], ["a"], ["a", "b"], ["b"]]

    def test_axiom_violation_carries_witness(self):
        with pytest.raises(AxiomViolationError) as err:
            validate("xyz", ["", "x", "y", "xyz"])
        w = err.value
        assert w.u in w.x ^ w.y

    @pytest.mark.parametrize(
        "labels, family, x, y, u",
        [
            ("xyz", ["", "x", "y", "xyz"], [], ["x", "y", "z"], "z"),
            # u = 'a' also fails, but on the later Y = {a, b, c, d}
            ("abcd", ["", "bcd", "abcd"], [], ["b", "c", "d"], "b"),
        ],
    )
    def test_axiom_violation_witness_is_pinned(self, labels, family, x, y, u):
        with pytest.raises(AxiomViolationError) as err:
            validate(labels, family)
        w = err.value
        assert (w.x, w.y, w.u) == (frozenset(x), frozenset(y), u)
        assert str(w) == (
            f"symmetric exchange fails: X={x} Y={y} u={u!r} has no valid partner v"
        )

    def test_axiom_violation_names_labels_of_mixed_types(self):
        # labels that do not compare with each other are listed in str order
        with pytest.raises(AxiomViolationError) as err:
            validate([1, "a", 2], [[], [1, "a", 2]])
        w = err.value
        assert (w.x, w.y, w.u) == (frozenset(), frozenset([1, "a", 2]), 1)
        assert str(w) == "symmetric exchange fails: X=[] Y=[1, 2, 'a'] u=1 has no valid partner v"

    def test_rank_zero_singleton(self):
        d = validate("a", [""])
        assert fam(d) == [[]]

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            validate("ab", [])

    def test_empty_ground_set_accepted(self):
        d = validate("", [""])
        assert d.width() == 0

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GroundSetError):
            validate("aa", ["a"])

    def test_unknown_element_rejected(self):
        with pytest.raises(GroundSetError):
            validate("ab", ["c"])

    @pytest.mark.parametrize(
        "labels, message",
        [
            ([["a"]], "ground-set label ['a'] is not hashable"),
            (["a", ("b", [])], "ground-set label ('b', []) is not hashable"),
            (["a", "a", {"b"}], "ground-set label {'b'} is not hashable"),
        ],
        ids=["list", "tuple-holding-a-list", "after-a-duplicate"],
    )
    def test_unhashable_label_named(self, labels, message):
        with pytest.raises(GroundSetError) as err:
            validate(labels, [[]])
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "labels, family, message",
        [
            (None, [[]], "labels must be iterable, not NoneType"),
            ("ab", None, "feasible family must be iterable, not NoneType"),
            ("ab", 5, "feasible family must be iterable, not int"),
        ],
        ids=["labels-none", "family-none", "family-int"],
    )
    def test_non_iterable_argument_named(self, labels, family, message):
        with pytest.raises(GroundSetError) as err:
            validate(labels, family)
        assert str(err.value) == message

    def test_type_error_while_iterating_is_not_renamed(self):
        def members():
            yield 0
            raise TypeError("from inside the family")

        with pytest.raises(TypeError, match="from inside the family") as err:
            validate("ab", members())
        assert not isinstance(err.value, GroundSetError)

    def test_ground_set_cap_is_64_elements(self):
        labels = [f"e{i}" for i in range(65)]
        d = validate(labels[:64], [[], ["e0"]])
        assert d.n == 64 and d.masks == (0, 1)
        with pytest.raises(GroundSetError) as err:
            validate(labels, [[], ["e0"]])
        assert str(err.value) == "ground set exceeds 64 elements"

    @pytest.mark.parametrize(
        "family, message",
        [
            ([0, 8, 4], "mask 0x8 outside ground set"),
            ([1, -1, 2], "mask -0x1 outside ground set"),
            ([4, -2], "mask 0x4 outside ground set"),
            ([0, ["c"], 8], "unknown element 'c'"),
            ([0, 8, ["c"]], "mask 0x8 outside ground set"),
            ([True, 4, "c"], "mask 0x4 outside ground set"),
            ((m for m in [0, 9, 5]), "mask 0x9 outside ground set"),
            ((f for f in [1, "b", -1]), "mask -0x1 outside ground set"),
        ],
        ids=["two-above", "negative", "above-then-negative", "mixed-label-first",
             "mixed-mask-first", "bool-and-mask", "generator", "generator-mixed"],
    )
    def test_out_of_range_member_named_in_input_order(self, family, message):
        with pytest.raises(GroundSetError) as err:
            validate("ab", family)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "member, message",
        [
            (None, "not a set of elements or a mask: None"),
            (0.5, "not a set of elements or a mask: 0.5"),
            ([["a"]], "not a set of elements or a mask: [['a']]"),
        ],
        ids=["none", "float", "unhashable-label"],
    )
    def test_malformed_member_named(self, member, message):
        with pytest.raises(GroundSetError) as err:
            validate("ab", [member])
        assert str(err.value) == message
        with pytest.raises(GroundSetError) as err:
            validate("ab", [0]).is_feasible(member)
        assert str(err.value) == message

    def test_int_masks_label_sets_bools_and_generators_agree(self):
        expected = validate("ab", ["", "a", "b", "ab"])
        for family in ([0, 1, 2, 3], [3, 0, 2, 1, 3], [0, ["a"], 2, "ab"],
                       [False, True, 2, 3], (m for m in range(4))):
            assert same(validate("ab", family), expected)

    def test_bool_members_are_stored_as_plain_ints(self):
        for labels, family in (("a", [False, True]), ("ab", [True, 2, 3, 0]),
                               ("ab", [False, 0, True, ["a", "b"]])):
            d = validate(labels, family)
            for again in (d, pickle.loads(pickle.dumps(d))):
                assert [type(m) for m in again.masks] == [int] * len(again.masks)
        assert validate("ab", [True, 2, 3, 0]).masks == (0, 1, 2, 3)

    def test_set_of_matches_the_label_scan(self, dms_by_n):
        # every subset, each also with a bit just above the ground set and
        # with one far above, and -1
        for d in [validate("", [""])] + [d for n in (1, 2, 3) for d in dms_by_n[n]]:
            for m in range(-1, 2 << d.n):
                for mask in (m, m | 1 << 70):
                    assert d.set_of(mask) == scan_set_of(d, mask)


class TestTwist:
    def test_empty_twist_is_identity(self, cat):
        d1 = cat[0]
        assert same(d1.twist([]), d1)

    def test_twist_of_odd_triangle_by_one_element(self, cat):
        twisted = cat[2].twist("a")
        assert fam(twisted) == [["a"], ["a", "b", "c"], ["b"], ["c"]]

    def test_twist_is_involution(self, cat):
        d2 = cat[1]
        assert same(d2.twist("ab").twist("ab"), d2)

    def test_twist_outside_ground_set(self, cat):
        with pytest.raises(GroundSetError):
            cat[0].twist(["z"])


class TestDual:
    def test_dual_of_singleton(self):
        d = validate("a", [""])
        assert fam(d.dual()) == [["a"]]

    def test_self_dual_four_point_family(self, cat):
        assert same(cat[0].dual(), cat[0])

    def test_dual_involution(self, cat):
        d5 = cat[4]
        assert same(d5.dual().dual(), d5)


class TestLoopsColoops:
    def test_loop(self):
        d = validate("ab", ["a"])
        assert d.is_loop("b") and not d.is_loop("a")

    def test_coloop_false_when_empty_feasible(self, cat):
        assert not cat[0].is_coloop("a")

    def test_coloop(self):
        d = validate("ab", ["a", "ab"])
        assert d.is_coloop("a")

    def test_lists_match_the_element_tests_exhaustively(self, dms_by_n):
        for d in [validate("", [""]), *every_dm(dms_by_n)]:
            assert d.loops() == [e for e in d.labels if d.is_loop(e)]
            assert d.coloops() == [e for e in d.labels if d.is_coloop(e)]


class TestMinors:
    def test_delete(self, cat):
        assert fam(cat[1].delete("c")) == [[], ["a"], ["b"]]

    def test_contract(self, cat):
        assert fam(cat[3].contract("a")) == [["b"], ["b", "c"], ["c"]]

    def test_loop_contract_equals_delete(self):
        d = validate("ab", ["a"])
        assert same(d.contract("b"), d.delete("b"))
        assert fam(d.contract("b")) == [["a"]]

    def test_coloop_delete_equals_contract(self):
        d = validate("ab", ["a", "ab"])
        assert same(d.delete("a"), d.contract("a"))

    def test_trivial_minor(self, cat):
        assert same(cat[2].minor([], []), cat[2])

    def test_minor_by_deletion_set(self, cat):
        assert fam(cat[4].minor(delete="c")) == [[], ["a"], ["a", "b"]]

    def test_minor_orders_agree(self, cat):
        d4 = cat[3]
        via_delete_first = d4.delete("a").contract("b")
        via_contract_first = d4.contract("b").delete("a")
        assert same(via_delete_first, via_contract_first)
        assert same(d4.minor(delete="a", contract="b"), via_delete_first)

    def test_overlapping_minor_sets_rejected(self, cat):
        with pytest.raises(GroundSetError):
            cat[1].minor(delete="a", contract="a")

    def test_minor_translates_each_argument_once(self, cat, monkeypatch):
        # minor hands its checked masks on, so nothing below it reads a label
        calls = record_calls(monkeypatch, DeltaMatroid, "mask_of")
        assert fam(cat[3].minor(["a"], ["b"])) == [["c"]]
        assert [elems for _, elems in calls] == [["a"], ["b"]]


class TestRestrict:
    def test_restrict_drops_outside_sets(self, cat):
        assert fam(cat[1].restrict("ab")) == [[], ["a"], ["b"]]

    def test_restrict_to_ground_set(self, cat):
        assert same(cat[2].restrict("abc"), cat[2])

    def test_restrict_odd_triangle(self, cat):
        assert fam(cat[2].restrict("ab")) == [[], ["a", "b"]]

    def test_restrict_keeps_only_subsets_when_empty_feasible(self, cat):
        d5 = cat[4]
        expected = [f for f in d5.feasible_sets() if f <= {"a", "b"}]
        assert sorted(map(sorted, expected)) == fam(d5.restrict("ab"))


class TestWidthRhoParity:
    def test_width_of_four_point_family(self, cat):
        assert cat[0].width() == 2

    def test_width_of_matroid_is_zero(self):
        assert validate("ab", ["a", "b"]).width() == 0

    def test_widths_across_catalog(self, cat):
        assert [d.width() for d in cat] == [2, 3, 2, 3, 2]

    def test_rho_of_feasible_set_is_full(self, cat):
        assert cat[2].rho("ab") == 3

    def test_rho_of_empty_set(self, cat):
        d2 = cat[1]
        assert d2.rho([]) == d2.n - d2.min_feasible_size()

    def test_rho_singleton(self, cat):
        assert cat[0].rho("a") == 2

    def test_rho_bounds(self, dms_by_n):
        # rho can drop below the minimum feasible size (family {{e1}} on
        # three elements has rho({e2,e3}) = 0), so only 0 <= rho <= n holds
        for d in dms_by_n[3]:
            for a in range(d.full_mask + 1):
                r = d.rho(a)
                assert 0 <= r <= d.n
                assert (r == d.n) == (a in set(d.masks))
            assert d.rho([]) == d.n - d.min_feasible_size()

    def test_is_even(self, cat):
        assert cat[2].is_even()
        assert not cat[0].is_even()
        assert validate("ab", ["a", "b"]).is_even()


class TestHashAndPickle:
    def test_every_route_to_an_instance_hashes_equal(self, dms_by_n):
        # each instance from enumerate_all against validate, a twist and its
        # twist back, a trivial minor and pickle, copy and deepcopy round trips
        for n in (1, 2, 3):
            for d in dms_by_n[n]:
                fresh = validate(d.labels, d.feasible_sets())
                a = d.masks[-1]
                for other in (fresh, d.twist(a).twist(a), d.minor(), pickle.loads(pickle.dumps(d)),
                              copy.copy(fresh), copy.deepcopy(fresh)):
                    assert type(other) is DeltaMatroid and same(other, d)

    def test_unpickling_recomputes_the_hash_in_another_process(self):
        # str hashes differ between processes, so a pickled hash would be stale
        d = validate(["e1", "e2", "e3"], [[], ["e1"], ["e2", "e3"], ["e1", "e2", "e3"]])
        hash(d)
        code = (
            "import pickle, sys; from twistwidth import validate\n"
            "d = pickle.load(sys.stdin.buffer)\n"
            "assert {validate(['e1', 'e2', 'e3'], [[], ['e1'], ['e2', 'e3'], ['e1', 'e2', 'e3']]): 1}[d] == 1\n"
            "assert d.twist(['e1']).twist(['e1']) == d and d.labels == ('e1', 'e2', 'e3')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="12345")
        subprocess.run([sys.executable, "-c", code], input=pickle.dumps(d), env=env,
                       capture_output=True, check=True)


def test_init_runs_once_per_new_instance_and_hash_writes_no_slot(monkeypatch):
    # every route to an instance goes through __init__, exactly once for
    # each instance it returns, and hashing leaves the instance as it was
    d = validate("abc", ["", "ab", "bc", "ac", "abc"])
    calls = record_calls(monkeypatch, DeltaMatroid, "__init__")
    routes = {
        "validate": lambda: [validate(d.labels, d.feasible_sets())],
        "parse": lambda: [parse(serialize(d))],
        "twist": lambda: [d.twist("a")],
        "dual": lambda: [d.dual()],
        "minor": lambda: [d.minor(delete="a", contract="b")],
        "delete": lambda: [d.delete("a")],
        "contract": lambda: [d.contract("a")],
        "restrict": lambda: [d.restrict("ab")],
        "d_min": lambda: [d_min(d)],
        "enumerate_all": lambda: list(enumerate_all(2)),
        "pickle": lambda: [pickle.loads(pickle.dumps(d))],
        "copy": lambda: [copy.copy(d)],
        "deepcopy": lambda: [copy.deepcopy(d)],
    }
    every = [d]
    for name, route in routes.items():
        calls.clear()
        made = route()
        built = [args[0] for args in calls]
        assert len(built) == len(made) and all(a is b for a, b in zip(built, made)), name
        every += made
    missing = object()
    for e in every:
        before = {slot: getattr(e, slot, missing) for slot in DeltaMatroid.__slots__}
        hash(e)
        after = {slot: getattr(e, slot, missing) for slot in DeltaMatroid.__slots__}
        assert all(before[slot] is after[slot] for slot in before)


def test_repr_takes_labels_of_any_type():
    # the constructor accepts non-str labels, so repr prints them too
    assert repr(validate([1, 2], [0, 1, 2, 3])) == "DeltaMatroid([1, 2], [{}, {1}, {2}, {1,2}])"
    assert repr(validate("ba", ["", "b", "ab"])) == "DeltaMatroid(['b', 'a'], [{}, {b}, {a,b}])"


@pytest.mark.parametrize("name", ["labels", "masks", "_pos", "width_cache"])
def test_every_write_is_refused_and_changes_nothing(name):
    d = validate("abc", ["", "ab", "bc", "ac", "abc"])
    before = (d.labels, d.masks, dict(d._pos), hash(d))
    for value in ((), (0,), {}, None):
        with pytest.raises(AttributeError, match="DeltaMatroid instances are immutable"):
            setattr(d, name, value)
        assert (d.labels, d.masks, d._pos, hash(d)) == before
        assert same(d, validate("abc", ["", "ab", "bc", "ac", "abc"]))
    assert not hasattr(d, "width_cache")


@pytest.mark.parametrize("name", ["labels", "masks", "_pos"])
def test_every_delete_is_refused_and_changes_nothing(name):
    d = validate("abc", ["", "ab", "bc", "ac", "abc"])
    before = (d.labels, d.masks, dict(d._pos), hash(d))
    with pytest.raises(AttributeError, match="DeltaMatroid instances are immutable"):
        delattr(d, name)
    assert (d.labels, d.masks, d._pos, hash(d)) == before
    assert same(d, validate("abc", ["", "ab", "bc", "ac", "abc"]))


# -- the least mask has the least size ---------------------------------------

def _first_least(masks, score, value):
    """(value at the first mask of least score, least value at that score)."""
    best = min(map(score, masks))
    at = [value(m) for m in masks if score(m) == best]
    return at[0], min(at)


def _check_least_masks(d, sets):
    # the lemma in ``core``: the least mask, and the first mask of each face
    # {F : |F - A| least} and {F : |F & A| least}, have the least size there
    sizes = [m.bit_count() for m in d.masks]
    assert d.masks[0].bit_count() == min(sizes) == d.min_feasible_size()
    for a in sets:
        inside, outside = (lambda m: (m & a).bit_count()), (lambda m: (m & ~a).bit_count())
        first, least = _first_least(d.masks, outside, inside)
        assert first == least, (d, a)
        first, least = _first_least(d.masks, inside, outside)
        assert first == least, (d, a)


def test_least_masks_have_least_sizes_exhaustively(dms_by_n):
    for d in every_dm(dms_by_n):
        _check_least_masks(d, range(d.full_mask + 1))


@given(
    st.integers(min_value=5, max_value=12),
    st.sampled_from(["gf2", "chain", "uniform"]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60)
def test_least_masks_have_least_sizes_on_draws(n, kind, seed):
    # a GF(2) family (chain draws above 8 elements are GF(2) too) or U(r, n),
    # relabelled by a random permutation of the positions, then twisted
    rng = random.Random(seed)
    if kind == "uniform":
        r = rng.randint(0, n)
        masks = uniform_masks(r, n)
    else:
        masks = draw_with_empty_feasible(n, rng, kind == "chain").masks
    p = rng.sample(range(n), n)
    moved = [sum(1 << p[i] for i in range(n) if m >> i & 1) for m in masks]
    d = labelled(moved, n).twist(rng.getrandbits(n))
    _check_least_masks(d, [rng.getrandbits(n) for _ in range(32)])
