import re

import pytest

from twistwidth import (
    AxiomViolationError,
    ParseError,
    enumerate_all,
    parse,
    serialize,
    validate,
)

FOUR_POINT = "elements: a b\nfeasible:\nfeasible: a\nfeasible: b\nfeasible: a b\n"


def test_parse_four_point_family(cat):
    assert parse(FOUR_POINT) == cat[0]


def test_parse_rank_zero_singleton():
    d = parse("elements: a\nfeasible:")
    assert d.labels == ("a",) and d.masks == (0,)


def test_parse_reports_axiom_violation():
    text = "elements: x y z\nfeasible:\nfeasible: x\nfeasible: y\nfeasible: x y z"
    with pytest.raises(AxiomViolationError) as err:
        parse(text)
    assert err.value.u in err.value.x ^ err.value.y


def test_comments_and_blank_lines():
    text = "# header\n\nelements: a b  # ground set\n\nfeasible: a\n# done\n"
    d = parse(text)
    assert d.feasible_sets() == [frozenset({"a"})]


def test_leading_byte_order_mark_is_dropped():
    assert parse("\ufeff" + FOUR_POINT) == parse(FOUR_POINT)


def test_unknown_label_has_line_number():
    with pytest.raises(ParseError) as err:
        parse("elements: a\nfeasible: q")
    assert err.value.line_no == 2


def test_duplicate_feasible_rejected():
    with pytest.raises(ParseError, match="duplicate feasible"):
        parse("elements: a b\nfeasible: a b\nfeasible: b a")


def test_missing_elements_line():
    with pytest.raises(ParseError):
        parse("feasible: a")
    with pytest.raises(ParseError):
        parse("")


def test_bad_keyword():
    with pytest.raises(ParseError) as err:
        parse("elements: a\nbases: a")
    assert err.value.line_no == 2


def test_serialize_canonical_form(cat):
    assert serialize(cat[0]) == FOUR_POINT


def test_serialize_idempotent_canonicalization():
    messy = "feasible: b a\nfeasible:\nelements: a b c\nfeasible: c"
    # unordered input still parses; output is canonical and stable
    with pytest.raises(ParseError):
        parse(messy)  # feasible before elements is rejected
    text = "elements: a b c\nfeasible: b a\nfeasible:\nfeasible: a"
    canon = serialize(parse(text))
    assert canon == "elements: a b c\nfeasible:\nfeasible: a\nfeasible: a b\n"
    assert serialize(parse(canon)) == canon


def test_roundtrip_catalog(cat):
    for d in cat:
        assert parse(serialize(d)) == d


@pytest.mark.parametrize("label", ["a b", "a#", "", "a\tb", "a\u2028b", 1])
def test_serialize_refuses_labels_the_format_cannot_hold(label):
    # as text each would parse back as another delta-matroid, or not at all;
    # a label that is not a str would come back as one
    d = validate([label, "c"], [[], [label]])
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} cannot be serialized")):
        serialize(d)


def test_roundtrip_all_enumerated_n3():
    for d in enumerate_all(3):
        assert parse(serialize(d)) == d


@pytest.mark.parametrize(
    "text, message",
    [
        ("elements: a\nfeasible: q", "line 2: unknown element 'q'"),
        # the first unknown label on the line is named
        ("elements: a b\nfeasible: b z y", "line 2: unknown element 'z'"),
        (
            "elements: a b\nfeasible: b a\nfeasible: a b a",
            "line 3: duplicate feasible set ['a', 'b']",
        ),
        # an unknown label is reported before the duplicate check
        ("elements: a\nfeasible: a\nfeasible: a q", "line 3: unknown element 'q'"),
        ("elements: a a\nfeasible: a", "line 1: element labels must be distinct"),
        (
            "elements: a\nelements: b",
            "line 2: duplicate elements line (first at line 1)",
        ),
        ("feasible: a", "line 1: feasible line before elements line"),
        ("elements: a b", "line 1: at least one feasible line is required"),
        # only one byte-order mark is dropped, and only at the start
        (
            "\ufeff\ufeffelements: a\nfeasible:",
            "line 1: expected 'elements:' or 'feasible:', got '\\ufeffelements: a'",
        ),
        (
            "elements: a\n\ufefffeasible:",
            "line 2: expected 'elements:' or 'feasible:', got '\\ufefffeasible:'",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
