import json

import pytest

from twistwidth import catalog, serialize
from twistwidth.cli import main

D1_TEXT = "elements: a b\nfeasible:\nfeasible: a\nfeasible: b\nfeasible: a b\n"
D3_TEXT = "elements: a b c\nfeasible:\nfeasible: a b\nfeasible: b c\nfeasible: a c\n"
WIDTH_ONE_TEXT = "elements: a\nfeasible:\nfeasible: a\n"
BAD_TEXT = "elements: x y z\nfeasible:\nfeasible: x\nfeasible: y\nfeasible: x y z\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("d1", D1_TEXT),
        ("d3", D3_TEXT),
        ("w1", WIDTH_ONE_TEXT),
        ("bad", BAD_TEXT),
    ):
        p = tmp_path / f"{name}.dm"
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", files["d1"]]) == 0
    assert capsys.readouterr().out == "valid: 2 elements, 4 feasible sets\n"


def test_validate_axiom_violation_exits_2(files, capsys):
    for extra in ([], ["--json"]):
        assert main(["validate", files["bad"], *extra]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == (
            "error: symmetric exchange fails: X=[] Y=['x', 'y', 'z'] u='z' "
            "has no valid partner v\n"
        )


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.dm")]) == 2
    assert "error:" in capsys.readouterr().err


def test_info_golden(files, capsys):
    assert main(["info", files["d3"]]) == 0
    assert capsys.readouterr().out == (
        "elements: a b c\n"
        "feasible sets: 4\n"
        "width: 2\n"
        "even: yes\n"
        "loops: -\n"
        "coloops: -\n"
        "matroid: no\n"
    )


def test_info_json(files, capsys):
    assert main(["info", files["d1"], "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["width"] == 2 and data["even"] is False


def test_twist_outputs_canonical_file(files, capsys):
    assert main(["twist", files["d3"], "-A", "a"]) == 0
    assert capsys.readouterr().out == (
        "elements: a b c\n"
        "feasible: a\n"
        "feasible: b\n"
        "feasible: c\n"
        "feasible: a b c\n"
    )


def test_minor_command(files, capsys):
    assert main(["minor", files["d3"], "--delete", "c"]) == 0
    assert capsys.readouterr().out == (
        "elements: a b\nfeasible:\nfeasible: a b\n"
    )


def test_restrict_command(files, capsys):
    assert main(["restrict", files["d1"], "-A", "a"]) == 0
    assert capsys.readouterr().out == "elements: a\nfeasible:\nfeasible: a\n"


def test_rho_command(files, capsys):
    assert main(["rho", files["d3"], "-A", "a,b"]) == 0
    assert capsys.readouterr().out == "rho: 3\n"


def test_min_width_twist_golden(files, capsys):
    assert main(["min-width-twist", files["d3"], "--check"]) == 0
    assert capsys.readouterr().out == "twist-set: {}\nwidth: 2\n"


def test_certify_witness_exit_0(files, capsys):
    assert main(["certify", files["w1"]]) == 0
    assert capsys.readouterr().out == "witness: twist by {} has width 1\n"


def test_certify_obstruction_exit_1(files, capsys):
    assert main(["certify", files["d3"]]) == 1
    assert capsys.readouterr().out.startswith("obstruction:")


def test_obstruct_self_obstruction(files, capsys):
    assert main(["obstruct", files["d1"]]) == 1
    out = capsys.readouterr().out
    assert out.startswith("obstruction: delete {} contract {}")


def test_obstruct_none(files, capsys):
    assert main(["obstruct", files["w1"]]) == 0
    assert capsys.readouterr().out == (
        "no obstruction: some twist has width at most one\n"
    )


def test_enumerate_count_only(capsys):
    assert main(["enumerate", "-n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out == "155\n"


def test_enumerate_listing(capsys):
    assert main(["enumerate", "-n", "1"]) == 0
    assert capsys.readouterr().out == "{}\n{e1}\n{} {e1}\n"


def test_verify_passes(capsys):
    assert main(["verify", "-n", "3", "--theorem", "t2"]) == 0
    assert capsys.readouterr().out == (
        "theorem t2 at n=3: 155 instances checked, 0 failures\n"
    )


def test_verify_json(capsys):
    assert main(["verify", "-n", "2", "--theorem", "t1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == 0 and data["checked"] == 15


def test_certify_without_empty_feasible(tmp_path, capsys):
    # U(1,2) is a matroid: certify twists it by {a} and lifts the witness back
    p = tmp_path / "m.dm"
    p.write_text("elements: a b\nfeasible: a\nfeasible: b\n")
    assert main(["certify", str(p)]) == 0
    assert capsys.readouterr().out == "witness: twist by {} has width 0\n"
    assert main(["certify", str(p), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "witness": {"twist_set": [], "width": 0}
    }


def test_twist_roundtrip_through_cli(files, capsys):
    d3 = catalog()[2]
    assert main(["twist", files["d3"], "-A", "a,b,c"]) == 0
    assert capsys.readouterr().out == serialize(d3.dual())
