from twistwidth import (
    DeltaMatroid,
    Obstruction,
    d5_family,
    is_obstructed,
    matroid_twist_obstructions,
    min_width_twist,
    validate,
)
from helpers import are_isomorphic, has_minor_isomorphic, pairwise_d5_dedup

D5_DEDUP_COUNT = 7  # frozen regression value from pairwise isomorphism


class TestCatalog:
    def test_odd_triangle_family(self, cat):
        assert sorted(map(sorted, cat[2].feasible_sets())) == [
            [],
            ["a", "b"],
            ["a", "c"],
            ["b", "c"],
        ]

    def test_members_pass_validation(self, cat):
        for d in cat:
            DeltaMatroid(d.labels, d.masks)

    def test_member_widths(self, cat):
        assert [d.width() for d in cat] == [2, 3, 2, 3, 2]


class TestD5Family:
    def test_raw_count(self):
        assert len(d5_family()) == 36

    def test_contains_twisted_triangle(self, cat):
        assert cat[2].twist("a") in d5_family()

    def test_dedup_count_frozen(self):
        assert len(d5_family(up_to_iso=True)) == D5_DEDUP_COUNT

    def test_dedup_keeps_the_first_representatives(self):
        raw = d5_family()
        assert [raw.index(m) for m in d5_family(up_to_iso=True)] == [0, 4, 5, 7, 11, 12, 13]

    def test_dedup_matches_the_pairwise_oracle(self):
        # the same members, element by element and in order
        assert d5_family(up_to_iso=True) == pairwise_d5_dedup()

    def test_dedup_is_pairwise_nonisomorphic(self):
        members = d5_family(up_to_iso=True)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                assert are_isomorphic(a, b) is None


class TestHasMinor:
    def test_self_minor(self, cat):
        obs = has_minor_isomorphic(cat[2], cat[2])
        assert obs.delete_set == obs.contract_set == frozenset()
        assert obs.iso == {e: e for e in "abc"}

    def test_no_width_one_minor_in_matroids(self, cat):
        for m in (validate("ab", ["a", "b"]), validate("abc", ["ab", "bc"])):
            assert has_minor_isomorphic(m, cat[0]) is None

    def test_equal_size_nonisomorphic_has_no_minor(self, cat):
        # same ground size forces the identity minor, and the families differ
        assert has_minor_isomorphic(cat[3], cat[2]) is None

    def test_minor_witness_verifies(self, cat):
        # host is the five-set member plus one loop element
        host = validate("abcd", ["", "a", "b", "c", "abc"])
        obs = has_minor_isomorphic(host, cat[1])
        assert obs is not None and obs.verify(host)
        assert obs.delete_set | obs.contract_set == {"d"}


class TestObstructed:
    def test_catalog_members_self_obstructed(self, cat):
        obs = is_obstructed(cat[1])
        assert obs is not None
        assert obs.delete_set == obs.contract_set == frozenset()

    def test_width_one_instance_unobstructed(self):
        assert is_obstructed(validate("a", ["", "a"])) is None

    def test_twisted_member_obstructed(self, cat):
        assert is_obstructed(cat[4].twist("b")) is not None

    def test_obstruction_witness_verifies(self, dms_by_n):
        for d in dms_by_n[3]:
            obs = is_obstructed(d)
            if obs is not None:
                assert obs.verify(d)


class TestMatroidTwistObstructions:
    def test_four_point_family_obstructed_by_singleton(self, cat):
        obs = matroid_twist_obstructions(cat[0])
        assert obs is not None
        assert obs.target.n == 1

    def test_matroids_unobstructed(self):
        for m in (validate("ab", ["a", "b"]), validate("abc", [""])):
            assert matroid_twist_obstructions(m) is None

    def test_odd_triangle_self_obstructed(self, cat):
        obs = matroid_twist_obstructions(cat[2])
        assert obs is not None
        assert obs.target == cat[2]

    def test_agrees_with_width_zero_twists(self, dms_by_n):
        for d in dms_by_n[3]:
            none_found = matroid_twist_obstructions(d) is None
            assert none_found == (min_width_twist(d)[1] == 0)


def test_minor_closure_small(dms_by_n):
    for d in dms_by_n[3]:
        base = min_width_twist(d)[1]
        for e in d.labels:
            assert min_width_twist(d.delete(e))[1] <= base
            assert min_width_twist(d.contract(e))[1] <= base


class TestObstructionVerify:
    # host where deleting e4 leaves the odd triangle, and contracting it does not
    HOST = ("e1", "e2", "e3", "e4"), ["", "e1 e2", "e1 e3", "e2 e3", "e1 e4", "e2 e4"]
    ISO = {"e1": "a", "e2": "b", "e3": "c"}

    def host(self):
        labels, family = self.HOST
        return validate(labels, [f.split() for f in family])

    def test_catalog_self_witnesses_verify(self, cat):
        for i, d in enumerate(cat):
            obs = Obstruction(frozenset(), frozenset(), {e: e for e in d.labels}, d, i)
            assert obs.verify(d)

    def test_host_witness_verifies(self, cat):
        obs = Obstruction(frozenset({"e4"}), frozenset(), self.ISO, cat[2], 2)
        assert obs.verify(self.host())

    def test_swapped_labels_on_asymmetric_target(self, cat):
        # swapping a and b moves the feasible singleton {a} onto {b}
        iso = {"a": "b", "b": "a", "c": "c"}
        assert not Obstruction(frozenset(), frozenset(), iso, cat[4], 4).verify(cat[4])

    def test_iso_missing_a_minor_label(self, cat):
        for iso in ({"a": "a", "b": "b"}, {"b": "b", "c": "c"}):
            assert not Obstruction(frozenset(), frozenset(), iso, cat[4], 4).verify(cat[4])

    def test_iso_with_an_extra_key(self, cat):
        iso = {"a": "a", "b": "b", "c": "c", "z": "a"}
        assert not Obstruction(frozenset(), frozenset(), iso, cat[4], 4).verify(cat[4])

    def test_iso_onto_a_label_the_target_lacks(self, cat):
        iso = {"a": "a", "b": "b", "c": "z"}
        assert not Obstruction(frozenset(), frozenset(), iso, cat[4], 4).verify(cat[4])

    def test_iso_not_injective(self):
        # both labels land on x: the feasible sets match, the ground sets do not
        minor = validate("ab", ["", "a"])
        target = validate("xy", ["", "x"])
        iso = {"a": "x", "b": "x"}
        assert not Obstruction(frozenset(), frozenset(), iso, target, 0).verify(minor)

    def test_wrong_delete_or_contract_sets(self, cat):
        host = self.host()
        for delete, contract in (("", "e4"), ("e3", ""), ("e1", ""), ("", "")):
            obs = Obstruction(frozenset(delete.split()), frozenset(contract.split()),
                              self.ISO, cat[2], 2)
            assert not obs.verify(host)

    def test_delete_or_contract_set_naming_an_unknown_label(self, cat):
        # a bool re-check: a label the host lacks fails, it does not raise
        host = self.host()
        for delete, contract in (("e4 z", ""), ("e4", "z"), ("z", "")):
            obs = Obstruction(frozenset(delete.split()), frozenset(contract.split()),
                              self.ISO, cat[2], 2)
            assert not obs.verify(host)

    def test_overlapping_delete_and_contract_sets(self, cat):
        host = self.host()
        for delete, contract in (("e4", "e4"), ("e3 e4", "e4")):
            obs = Obstruction(frozenset(delete.split()), frozenset(contract.split()),
                              self.ISO, cat[2], 2)
            assert not obs.verify(host)
