"""Acceptance suite: one test per criterion, each printing a PASS line.

This module is the one home of the paper's claims checked on every
delta-matroid with n <= 4 (6,132 instances): the twist-width identity,
the width-one and matroid-twist witnesses with the Rough Structure
Theorem, the excluded minors for twist width at most one and zero, the
certificates, minor closure and the core identities. Each claim has one
exhaustive loop here, against the strongest oracle the suite has for it;
the other modules test the mechanism behind each route and draw random
instances past four elements, through the same ``check_*`` functions of
helpers.py where a check is shared. The least twist's exhaustive loop is
``test_twist_kernel.test_min_width_twist_is_first_argmin_exhaustively``.

Every check is exact (integer equality). Brute-force oracles
(materialized twists, minor scans over every delete/contract pair, naive
exchange checks) live in helpers.py and are independent of the
structural code paths they validate.
"""

import random

from twistwidth import (
    DeltaMatroid,
    TwistWitness,
    catalog,
    certify,
    count_all,
    d5_family,
    is_obstructed,
    is_twist_matroid_witness,
    is_twist_width_one_witness,
    min_width_twist,
    parse,
    rough_structure_witnesses,
    serialize,
)
from twistwidth.cli import main
from helpers import (
    all_minor_pairs,
    apply_ops,
    brute_is_obstructed,
    brute_min_twist_width,
    brute_rough_structure_witnesses,
    check_certificate,
    check_d5_witness,
    check_formula,
    check_matroid_twist_obstructions,
    every_dm,
    interleavings,
    materialized_widths,
    same,
    sample_with_empty_feasible,
)


def announce(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_twist_width_formula(dms_by_n):
    for d in every_dm(dms_by_n):
        check_formula(d)
    announce("1 twist-width formula exact on all n<=4")


def test_criterion_2_width_one_structure(dms_by_n):
    for d in every_dm(dms_by_n):
        widths = materialized_widths(d)
        for a, w in enumerate(widths):
            assert is_twist_width_one_witness(d, a) == (w == 1)
        witnesses = rough_structure_witnesses(d)
        assert witnesses == brute_rough_structure_witnesses(d)
        assert bool(witnesses) == (1 in widths)
    announce("2 width-one witnesses and rough structure on all n<=4")


def test_criterion_3_matroid_twists(dms_by_n):
    for d in every_dm(dms_by_n):
        for a, w in enumerate(materialized_widths(d)):
            assert is_twist_matroid_witness(d, a) == (w == 0)
    announce("3 matroid-twist witnesses on all n<=4")


def test_criterion_4_excluded_minors(dms_by_n):
    for d in every_dm(dms_by_n):
        obs = is_obstructed(d)
        assert (obs is None) == (brute_min_twist_width(d) <= 1) == (brute_is_obstructed(d) is None)
        if obs is not None:
            check_d5_witness(d, obs)
    for member in d5_family():
        assert brute_min_twist_width(member) >= 2
    announce("4 excluded-minor characterisation on all n<=4")


def _singleton_sets(d):
    """The first feasible F (mask order) with some F + e feasible, and the
    lowest such e, as (delete E - F - e, contract F) label sets."""
    for f in d.masks:
        for i in range(d.n):
            if not f >> i & 1 and d.is_feasible(f | 1 << i):
                return d.set_of(d.full_mask ^ f ^ 1 << i), d.set_of(f)
    return None


def test_criterion_5_matroid_twist_obstructions(dms_by_n):
    for d in every_dm(dms_by_n):
        obs = check_matroid_twist_obstructions(d)
        if d.is_even():
            # singleton obstruction has odd width; evens only ever hit
            # the odd triangle or its single-element twist
            assert obs is None or obs.target_index in (1, 2) and obs.target.n == 3
        else:
            assert obs.target_index == 0
            assert (obs.delete_set, obs.contract_set) == _singleton_sets(d)
    announce("5 width-zero obstructions and even specialization on all n<=4")


def test_criterion_6_certificates(dms_by_n):
    for d in every_dm(dms_by_n):
        check_certificate(d)
    rng = random.Random(20260823)
    for n, count in ((5, 10_000), (6, 1_000)):
        for _ in range(count):
            d = sample_with_empty_feasible(n, rng)
            cert = certify(d)
            if isinstance(cert, TwistWitness):
                assert d.twist(cert.twist_set).width() == cert.width <= 1
            else:
                assert cert.obstruction.verify(d)
    announce("6 certificates sound and complete (exhaustive + random)")


def test_criterion_7_minor_closure_and_commutation(dms_by_n):
    for d in every_dm(dms_by_n):
        base = min_width_twist(d)[1]
        for e in d.labels:
            for m in (d.delete(e), d.contract(e)):
                assert min_width_twist(m)[1] <= base
    for n in (1, 2, 3):
        for d in dms_by_n[n]:
            minors = {d.minor(x, y) for x, y in all_minor_pairs(d.n)}
            for a in range(d.full_mask + 1):
                a_labels = d.set_of(a)
                lhs = {
                    d.twist(a).minor(x, y) for x, y in all_minor_pairs(d.n)
                }
                rhs = {
                    j.twist([e for e in j.labels if e in a_labels])
                    for j in minors
                }
                assert lhs == rhs
    announce("7 minor closure (n<=4) and twist/minor commutation (n<=3)")


def test_criterion_8_core_identities(dms_by_n):
    for d in every_dm(dms_by_n):
        for a in range(d.full_mask + 1):
            t = d.twist(a)
            DeltaMatroid(t.labels, t.masks)  # axiom re-check
            assert same(t.twist(a), d)
        assert d.dual().width() == d.width()
        for e in d.labels:
            assert same(d.contract(e), d.twist([e]).delete(e))
            assert same(d.delete(e), d.twist([e]).contract(e))
    for n in (1, 2, 3):
        for d in dms_by_n[n]:
            for x, y in all_minor_pairs(d.n):
                expected = d.minor(x, y)
                for ops in interleavings(d.set_of(x), d.set_of(y)):
                    assert apply_ops(d, ops) == expected
    rng = random.Random(11)
    pool = dms_by_n[4]
    for d in rng.sample(pool, 150):
        for x, y in all_minor_pairs(4):
            expected = d.minor(x, y)
            orders = list(interleavings(d.set_of(x), d.set_of(y)))
            for ops in rng.sample(orders, min(4, len(orders))):
                assert apply_ops(d, ops) == expected
    announce("8 core identities (exhaustive n<=4; orders sampled at n=4)")


def test_criterion_9_frozen_regression_values():
    assert [count_all(n) for n in (1, 2, 3, 4)] == [3, 15, 155, 5959]
    assert len(d5_family()) == 36
    assert len(d5_family(up_to_iso=True)) == 7
    announce("9 frozen enumeration and deduplication counts")


def test_criterion_10_io_roundtrip_and_cli(dms_by_n, tmp_path, capsys):
    for d in dms_by_n[3]:
        assert parse(serialize(d)) == d
    for d in catalog():
        assert parse(serialize(d)) == d

    d1 = tmp_path / "d1.dm"
    d1.write_text(serialize(catalog()[0]))
    d3 = tmp_path / "d3.dm"
    d3.write_text(serialize(catalog()[2]))

    assert main(["obstruct", str(d1)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("obstruction: delete {} contract {}")

    assert main(["verify", "-n", "3", "--theorem", "t2"]) == 0
    assert "0 failures" in capsys.readouterr().out

    assert main(["min-width-twist", str(d3)]) == 0
    assert capsys.readouterr().out == "twist-set: {}\nwidth: 2\n"
    announce("10 round-trip serialization and CLI golden outputs")
