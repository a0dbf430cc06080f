import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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


def test_validate_over_64_elements_exits_2(tmp_path, capsys):
    path = tmp_path / "n65.dm"
    path.write_text("elements: " + " ".join(f"e{i}" for i in range(65)) + "\nfeasible:\nfeasible: e0\n")
    assert main(["validate", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: ground set exceeds 64 elements\n"


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


def test_restrict_command(files, capsys):
    assert main(["restrict", files["d1"], "-A", "a"]) == 0
    assert capsys.readouterr().out == "elements: a\nfeasible:\nfeasible: a\n"


def test_min_width_twist_golden(files, capsys):
    assert main(["min-width-twist", files["d3"]]) == 0
    assert capsys.readouterr().out == "twist-set: {}\nwidth: 2\n"


def test_min_width_twist_has_no_check_flag(files):
    # argparse's usage text differs across Python versions; the code does not
    with pytest.raises(SystemExit) as exc:
        main(["min-width-twist", files["d3"], "--check"])
    assert exc.value.code == 2


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


def test_enumerate_listing(capsys):
    assert main(["enumerate", "-n", "1"]) == 0
    assert capsys.readouterr().out == "{}\n{e1}\n{} {e1}\n"


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


# Golden table: every subcommand, in text and with --json, with its exact
# stdout, stderr and exit code. Commands run in a directory holding these
# files, so error messages that name a path are fixed too.
GOLDEN_FILES = {
    "d1.dm": D1_TEXT,
    "d3.dm": D3_TEXT,
    "w1.dm": WIDTH_ONE_TEXT,
    "no_empty.dm": "elements: a b\nfeasible: a\nfeasible: b\n",
    "bad.dm": BAD_TEXT,
    # d1.dm behind a UTF-8 byte-order mark, as some editors save it
    "bom.dm": "\ufeff" + D1_TEXT,
    "garbled.dm": "feasible: a\nelements: a\n",
    # the empty set is infeasible, and the witness lifted back from the twist
    # by {e1} lands on a target with automorphisms
    "aut.dm": "elements: e1 e2 e3 e4\nfeasible: e1\nfeasible: e2\nfeasible: e1 e2\nfeasible: e3\nfeasible: e1 e2 e3\n",
    # FIVE_CYCLE of test_certify.py twisted by {b} and by {a}; each is
    # certified through its twist by {a}. c5b's has a triangle, and its
    # witness comes back with delete and contract swapped on a; c5a's is
    # FIVE_CYCLE itself, which certify reduces once before lifting back
    "c5b.dm": "elements: a b c d e\nfeasible: a\nfeasible: b\nfeasible: c\nfeasible: a c d\nfeasible: b c d\nfeasible: a b e\nfeasible: a c e\nfeasible: a d e\nfeasible: b d e\nfeasible: c d e\nfeasible: a b c d e\n",
    "c5a.dm": "elements: a b c d e\nfeasible: a\nfeasible: b\nfeasible: a b c\nfeasible: a c d\nfeasible: b c d\nfeasible: e\nfeasible: b c e\nfeasible: a d e\nfeasible: b d e\nfeasible: c d e\nfeasible: a b c d e\n",
    # odd_cycle_instance(7, 0, 0, 0) of tests/helpers.py twisted by {e3}:
    # certify twists it back by {e3}, reduces its 7-cycle to 5 and 3, and
    # lifts the witness with e3 swapped from contract to delete
    "c7.dm": "elements: e0 e1 e2 e3 e4 e5 e6\nfeasible: e3\nfeasible: e0 e1 e3\nfeasible: e1 e2 e3\nfeasible: e2 e3 e4\nfeasible: e0 e1 e2 e3 e4\nfeasible: e5\nfeasible: e0 e1 e5\nfeasible: e1 e2 e5\nfeasible: e0 e3 e5\nfeasible: e0 e1 e2 e3 e5\nfeasible: e2 e4 e5\nfeasible: e0 e1 e2 e4 e5\nfeasible: e0 e2 e3 e4 e5\nfeasible: e6\nfeasible: e0 e1 e6\nfeasible: e1 e2 e6\nfeasible: e2 e4 e6\nfeasible: e0 e1 e2 e4 e6\nfeasible: e3 e4 e6\nfeasible: e0 e1 e3 e4 e6\nfeasible: e1 e2 e3 e4 e6\nfeasible: e0 e5 e6\nfeasible: e0 e1 e2 e5 e6\nfeasible: e4 e5 e6\nfeasible: e0 e1 e4 e5 e6\nfeasible: e0 e2 e4 e5 e6\nfeasible: e1 e2 e4 e5 e6\nfeasible: e0 e3 e4 e5 e6\nfeasible: e0 e1 e2 e3 e4 e5 e6\n",
    # U(2,6) + {∅, {e6}} twisted by {e0, e1}: its aux graph is bipartite, and
    # the twist set is the lesser of A and E - A, here not empty
    "u26.dm": "elements: e0 e1 e2 e3 e4 e5 e6\n" + "".join(
        "feasible:" + "".join(f" e{i}" for i in range(7) if ((1 << x | 1 << y) ^ 3 | z) >> i & 1) + "\n"
        for x, y in combinations(range(6), 2) for z in (0, 64)),
}
FILE_COMMANDS = (
    "validate F", "info F", "twist F -A a", "minor F --delete a",
    "restrict F -A a", "rho F -A a", "min-width-twist F", "certify F",
    "obstruct F",
)
BAD_ERR = (
    "error: symmetric exchange fails: X=[] Y=['x', 'y', 'z'] u='z' "
    "has no valid partner v\n"
)
# (command line, exit code, stdout); stderr is empty
GOLDEN_OK = [
    ("validate d1.dm", 0, "valid: 2 elements, 4 feasible sets\n"),
    ("validate d1.dm --json", 0, '{"valid": true, "elements": 2, "feasible": 4}\n'),
    ("info d1.dm", 0, "elements: a b\nfeasible sets: 4\nwidth: 2\neven: no\nloops: -\ncoloops: -\nmatroid: no\n"),
    ("info d1.dm --json", 0, '{"elements": ["a", "b"], "feasible_count": 4, "width": 2, "even": false, "loops": [], "coloops": [], "is_matroid": false}\n'),
    ("twist d1.dm -A a", 0, "elements: a b\nfeasible:\nfeasible: a\nfeasible: b\nfeasible: a b\n"),
    ("twist d1.dm -A a --json", 0, '{"elements": ["a", "b"], "feasible": [[], ["a"], ["b"], ["a", "b"]]}\n'),
    ("minor d1.dm --delete a", 0, "elements: b\nfeasible:\nfeasible: b\n"),
    ("minor d1.dm --delete a --json", 0, '{"elements": ["b"], "feasible": [[], ["b"]]}\n'),
    ("restrict d1.dm -A a", 0, "elements: a\nfeasible:\nfeasible: a\n"),
    ("restrict d1.dm -A a --json", 0, '{"elements": ["a"], "feasible": [[], ["a"]]}\n'),
    ("rho d1.dm -A a", 0, "rho: 2\n"),
    ("rho d1.dm -A a --json", 0, '{"rho": 2}\n'),
    ("min-width-twist d1.dm", 0, "twist-set: {}\nwidth: 2\n"),
    ("min-width-twist d1.dm --json", 0, '{"twist_set": [], "width": 2}\n'),
    ("certify d1.dm", 1, "obstruction: delete {} contract {} -> excluded minor #0 (a->a, b->b)\n"),
    ("certify d1.dm --json", 1, '{"obstruction": {"delete": [], "contract": [], "target_index": 0, "iso": {"a": "a", "b": "b"}}}\n'),
    ("obstruct d1.dm", 1, "obstruction: delete {} contract {} -> excluded minor #0 (a->a, b->b)\n"),
    ("obstruct d1.dm --json", 1, '{"obstruction": {"delete": [], "contract": [], "target_index": 0, "iso": {"a": "a", "b": "b"}}}\n'),
    ("validate bom.dm", 0, "valid: 2 elements, 4 feasible sets\n"),
    ("validate bom.dm --json", 0, '{"valid": true, "elements": 2, "feasible": 4}\n'),
    ("validate d3.dm", 0, "valid: 3 elements, 4 feasible sets\n"),
    ("validate d3.dm --json", 0, '{"valid": true, "elements": 3, "feasible": 4}\n'),
    ("info d3.dm", 0, "elements: a b c\nfeasible sets: 4\nwidth: 2\neven: yes\nloops: -\ncoloops: -\nmatroid: no\n"),
    ("info d3.dm --json", 0, '{"elements": ["a", "b", "c"], "feasible_count": 4, "width": 2, "even": true, "loops": [], "coloops": [], "is_matroid": false}\n'),
    ("twist d3.dm -A a", 0, "elements: a b c\nfeasible: a\nfeasible: b\nfeasible: c\nfeasible: a b c\n"),
    ("twist d3.dm -A a --json", 0, '{"elements": ["a", "b", "c"], "feasible": [["a"], ["b"], ["c"], ["a", "b", "c"]]}\n'),
    ("minor d3.dm --delete a", 0, "elements: b c\nfeasible:\nfeasible: b c\n"),
    ("minor d3.dm --delete a --json", 0, '{"elements": ["b", "c"], "feasible": [[], ["b", "c"]]}\n'),
    ("minor d3.dm --delete c", 0, "elements: a b\nfeasible:\nfeasible: a b\n"),
    ("minor d3.dm --delete c --json", 0, '{"elements": ["a", "b"], "feasible": [[], ["a", "b"]]}\n'),
    ("restrict d3.dm -A a", 0, "elements: a\nfeasible:\n"),
    ("restrict d3.dm -A a --json", 0, '{"elements": ["a"], "feasible": [[]]}\n'),
    ("rho d3.dm -A a", 0, "rho: 2\n"),
    ("rho d3.dm -A a --json", 0, '{"rho": 2}\n'),
    ("rho d3.dm -A a,b", 0, "rho: 3\n"),
    ("rho d3.dm -A a,b --json", 0, '{"rho": 3}\n'),
    ("min-width-twist d3.dm", 0, "twist-set: {}\nwidth: 2\n"),
    ("min-width-twist d3.dm --json", 0, '{"twist_set": [], "width": 2}\n'),
    ("certify d3.dm", 1, "obstruction: delete {} contract {} -> excluded minor #2 (a->a, b->b, c->c)\n"),
    ("certify d3.dm --json", 1, '{"obstruction": {"delete": [], "contract": [], "target_index": 2, "iso": {"a": "a", "b": "b", "c": "c"}}}\n'),
    ("obstruct d3.dm", 1, "obstruction: delete {} contract {} -> excluded minor #5 (a->a, b->b, c->c)\n"),
    ("obstruct d3.dm --json", 1, '{"obstruction": {"delete": [], "contract": [], "target_index": 5, "iso": {"a": "a", "b": "b", "c": "c"}}}\n'),
    ("validate w1.dm", 0, "valid: 1 elements, 2 feasible sets\n"),
    ("validate w1.dm --json", 0, '{"valid": true, "elements": 1, "feasible": 2}\n'),
    ("info w1.dm", 0, "elements: a\nfeasible sets: 2\nwidth: 1\neven: no\nloops: -\ncoloops: -\nmatroid: no\n"),
    ("info w1.dm --json", 0, '{"elements": ["a"], "feasible_count": 2, "width": 1, "even": false, "loops": [], "coloops": [], "is_matroid": false}\n'),
    ("twist w1.dm -A a", 0, "elements: a\nfeasible:\nfeasible: a\n"),
    ("twist w1.dm -A a --json", 0, '{"elements": ["a"], "feasible": [[], ["a"]]}\n'),
    ("minor w1.dm --delete a", 0, "elements:\nfeasible:\n"),
    ("minor w1.dm --delete a --json", 0, '{"elements": [], "feasible": [[]]}\n'),
    ("restrict w1.dm -A a", 0, "elements: a\nfeasible:\nfeasible: a\n"),
    ("restrict w1.dm -A a --json", 0, '{"elements": ["a"], "feasible": [[], ["a"]]}\n'),
    ("rho w1.dm -A a", 0, "rho: 1\n"),
    ("rho w1.dm -A a --json", 0, '{"rho": 1}\n'),
    ("min-width-twist w1.dm", 0, "twist-set: {}\nwidth: 1\n"),
    ("min-width-twist w1.dm --json", 0, '{"twist_set": [], "width": 1}\n'),
    ("certify w1.dm", 0, "witness: twist by {} has width 1\n"),
    ("certify w1.dm --json", 0, '{"witness": {"twist_set": [], "width": 1}}\n'),
    ("obstruct w1.dm", 0, "no obstruction: some twist has width at most one\n"),
    ("obstruct w1.dm --json", 0, '{"obstruction": null}\n'),
    ("validate no_empty.dm", 0, "valid: 2 elements, 2 feasible sets\n"),
    ("validate no_empty.dm --json", 0, '{"valid": true, "elements": 2, "feasible": 2}\n'),
    ("info no_empty.dm", 0, "elements: a b\nfeasible sets: 2\nwidth: 0\neven: yes\nloops: -\ncoloops: -\nmatroid: yes\n"),
    ("info no_empty.dm --json", 0, '{"elements": ["a", "b"], "feasible_count": 2, "width": 0, "even": true, "loops": [], "coloops": [], "is_matroid": true}\n'),
    ("twist no_empty.dm -A a", 0, "elements: a b\nfeasible:\nfeasible: a b\n"),
    ("twist no_empty.dm -A a --json", 0, '{"elements": ["a", "b"], "feasible": [[], ["a", "b"]]}\n'),
    ("minor no_empty.dm --delete a", 0, "elements: b\nfeasible: b\n"),
    ("minor no_empty.dm --delete a --json", 0, '{"elements": ["b"], "feasible": [["b"]]}\n'),
    ("restrict no_empty.dm -A a", 0, "elements: a\nfeasible: a\n"),
    ("restrict no_empty.dm -A a --json", 0, '{"elements": ["a"], "feasible": [["a"]]}\n'),
    ("rho no_empty.dm -A a", 0, "rho: 2\n"),
    ("rho no_empty.dm -A a --json", 0, '{"rho": 2}\n'),
    ("min-width-twist no_empty.dm", 0, "twist-set: {}\nwidth: 0\n"),
    ("min-width-twist no_empty.dm --json", 0, '{"twist_set": [], "width": 0}\n'),
    ("certify no_empty.dm", 0, "witness: twist by {} has width 0\n"),
    ("certify no_empty.dm --json", 0, '{"witness": {"twist_set": [], "width": 0}}\n'),
    ("obstruct no_empty.dm", 0, "no obstruction: some twist has width at most one\n"),
    ("obstruct no_empty.dm --json", 0, '{"obstruction": null}\n'),
    ("certify aut.dm", 1, "obstruction: delete {e4} contract {} -> excluded minor #4 (e1->a, e2->b, e3->c)\n"),
    ("certify aut.dm --json", 1, '{"obstruction": {"delete": ["e4"], "contract": [], "target_index": 4, "iso": {"e1": "a", "e2": "b", "e3": "c"}}}\n'),
    ("obstruct aut.dm", 1, "obstruction: delete {e4} contract {} -> excluded minor #3 (e1->a, e2->b, e3->c)\n"),
    ("obstruct aut.dm --json", 1, '{"obstruction": {"delete": ["e4"], "contract": [], "target_index": 3, "iso": {"e1": "a", "e2": "b", "e3": "c"}}}\n'),
    ("certify c5b.dm", 1, "obstruction: delete {b} contract {a} -> excluded minor #2 (c->a, d->b, e->c)\n"),
    ("certify c5b.dm --json", 1, '{"obstruction": {"delete": ["b"], "contract": ["a"], "target_index": 2, "iso": {"c": "a", "d": "b", "e": "c"}}}\n'),
    ("obstruct c5b.dm", 1, "obstruction: delete {b} contract {a} -> excluded minor #5 (c->a, d->b, e->c)\n"),
    ("obstruct c5b.dm --json", 1, '{"obstruction": {"delete": ["b"], "contract": ["a"], "target_index": 5, "iso": {"c": "a", "d": "b", "e": "c"}}}\n'),
    ("certify c5a.dm", 1, "obstruction: delete {} contract {d e} -> excluded minor #2 (a->a, b->b, c->c)\n"),
    ("certify c5a.dm --json", 1, '{"obstruction": {"delete": [], "contract": ["d", "e"], "target_index": 2, "iso": {"a": "a", "b": "b", "c": "c"}}}\n'),
    ("obstruct c5a.dm", 1, "obstruction: delete {} contract {d e} -> excluded minor #6 (a->a, b->b, c->c)\n"),
    ("obstruct c5a.dm --json", 1, '{"obstruction": {"delete": [], "contract": ["d", "e"], "target_index": 6, "iso": {"a": "a", "b": "b", "c": "c"}}}\n'),
    ("certify c7.dm", 1, "obstruction: delete {e3} contract {e4 e5 e6} -> excluded minor #2 (e0->a, e1->b, e2->c)\n"),
    ("certify c7.dm --json", 1, '{"obstruction": {"delete": ["e3"], "contract": ["e4", "e5", "e6"], "target_index": 2, "iso": {"e0": "a", "e1": "b", "e2": "c"}}}\n'),
    ("obstruct c7.dm", 1, "obstruction: delete {e3} contract {e4 e5 e6} -> excluded minor #5 (e0->a, e1->b, e2->c)\n"),
    ("obstruct c7.dm --json", 1, '{"obstruction": {"delete": ["e3"], "contract": ["e4", "e5", "e6"], "target_index": 5, "iso": {"e0": "a", "e1": "b", "e2": "c"}}}\n'),
    ("certify u26.dm", 0, "witness: twist by {e2 e3 e4 e5} has width 1\n"),
    ("certify u26.dm --json", 0, '{"witness": {"twist_set": ["e2", "e3", "e4", "e5"], "width": 1}}\n'),
    ("obstruct u26.dm", 0, "no obstruction: some twist has width at most one\n"),
    ("obstruct u26.dm --json", 0, '{"obstruction": null}\n'),
    ("enumerate -n 1", 0, "{}\n{e1}\n{} {e1}\n"),
    ("enumerate -n 1 --count-only", 0, "3\n"),
    ("enumerate -n 1 --count-only --json", 0, '{"n": 1, "count": 3}\n'),
    ("enumerate -n 3 --count-only", 0, "155\n"),
    ("enumerate -n 3 --count-only --json", 0, '{"n": 3, "count": 155}\n'),
    ("enumerate -n 2 --json", 0, (
        '{"n": 2, "families": [[[]], [["e1"]], [[], ["e1"]], [["e2"]], [[], ["e2"]], '
        '[["e1"], ["e2"]], [[], ["e1"], ["e2"]], [["e1", "e2"]], [[], ["e1", "e2"]], '
        '[["e1"], ["e1", "e2"]], [[], ["e1"], ["e1", "e2"]], [["e2"], ["e1", "e2"]], '
        '[[], ["e2"], ["e1", "e2"]], [["e1"], ["e2"], ["e1", "e2"]], '
        '[[], ["e1"], ["e2"], ["e1", "e2"]]]}\n'
    )),
    ("verify -n 2 --theorem t1", 0, "theorem t1 at n=2: 15 instances checked, 0 failures\n"),
    ("verify -n 2 --theorem t1 --json", 0, '{"n": 2, "theorem": "t1", "checked": 15, "failures": 0, "first_counterexample": null}\n'),
    ("verify -n 3 --theorem t2", 0, "theorem t2 at n=3: 155 instances checked, 0 failures\n"),
    ("verify -n 3 --theorem t2 --json", 0, '{"n": 3, "theorem": "t2", "checked": 155, "failures": 0, "first_counterexample": null}\n'),
    ("verify -n 1 --theorem p1", 0, "theorem p1 at n=1: 3 instances checked, 0 failures\n"),
    ("verify -n 4 --theorem tt2 --json", 0, '{"n": 4, "theorem": "tt2", "checked": 5959, "failures": 0, "first_counterexample": null}\n'),
]
# (command line, stderr), each also with --json; exit code 2, stdout empty
GOLDEN_ERR = [
    (c.replace("F", "bad.dm"), BAD_ERR) for c in FILE_COMMANDS
] + [
    ("twist d1.dm -A q", "error: unknown element 'q'\n"),
    ("minor d3.dm --delete a --contract a", "error: delete and contract sets must be disjoint\n"),
    ("validate nope.dm", "error: [Errno 2] No such file or directory: 'nope.dm'\n"),
    ("validate garbled.dm", "error: line 1: feasible line before elements line\n"),
    ("verify -n 5 --theorem t2", "error: tag 't2' supports 1 <= n <= 4\n"),
]
GOLDEN = [(cmd, code, out, "") for cmd, code, out in GOLDEN_OK] + [
    (cmd + j, 2, "", err) for cmd, err in GOLDEN_ERR for j in ("", " --json")
]


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: row[0])
def test_golden(row, golden_dir, capsys):
    cmd, code, out, err = row
    assert main(cmd.split()) == code
    assert capsys.readouterr() == (out, err)


GOLDEN_BY_COMMAND = {row[0]: row for row in GOLDEN}


@pytest.mark.parametrize(
    "cmd", ["validate d1.dm", "certify aut.dm --json", "validate bad.dm"]
)
def test_golden_through_a_process(cmd, golden_dir):
    # the module run as a program in a fresh interpreter, so the exit code
    # is the process's own and each stream is what a shell would read
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "twistwidth.cli", *cmd.split()],
        env=env, capture_output=True, text=True,
    )
    assert (cmd, proc.returncode, proc.stdout, proc.stderr) == GOLDEN_BY_COMMAND[cmd]


def test_non_utf8_file_exits_2(tmp_path, capsys):
    p = tmp_path / "latin1.dm"
    p.write_bytes(b"elements: a\xff b\nfeasible:\n")
    for extra in ([], ["--json"]):
        assert main(["validate", str(p), *extra]) == 2
        assert capsys.readouterr() == ("", (
            "error: 'utf-8' codec can't decode byte 0xff in position 11: "
            "invalid start byte\n"
        ))


def test_golden_covers_every_subcommand():
    from twistwidth.cli import build_parser

    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert {row[0].split()[0] for row in GOLDEN} == set(sub.choices)


# The large-file CLI checks. These tests and the golden rows above are the
# only home of the CLI's byte contract: CI runs just two commands through
# the installed script (validate on d1.dm and on bad.dm, both golden rows).
def _numbered_file(n, sets):
    """The file text on elements e0..e(n-1) whose feasible sets are ``sets``,
    each a list of element indices."""
    labels = [f"e{i}" for i in range(n)]
    lines = [["elements:", *labels]]
    lines += [["feasible:", *(labels[i] for i in s)] for s in sets]
    return "".join(" ".join(line) + "\n" for line in lines)


def _twisted_pairs(n, skip=()):
    """The sets {x, y} ^ {e0 e1 e3 e4 e6} over the pairs x < y not in skip."""
    for x, y in combinations(range(n), 2):
        if (x, y) not in skip:
            m = (1 << x | 1 << y) ^ 0b1011011
            yield [i for i in range(n) if m >> i & 1]


@pytest.mark.parametrize("n", [12, 13])
def test_console_violating_twisted_u2_exact_stderr(n, tmp_path, capsys):
    # the pairs {e0, e1} and {e0, e2} are left out; the subset kernel runs
    # at 12 elements, the column kernel at 13, and both name one witness
    p = tmp_path / f"bad_u2_{n}.dm"
    p.write_text(_numbered_file(n, _twisted_pairs(n, skip={(0, 1), (0, 2)})))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr() == ("", (
        "error: symmetric exchange fails: X=['e1', 'e3', 'e4'] "
        "Y=['e0', 'e2', 'e3', 'e4', 'e6'] u='e6' has no valid partner v\n"
    ))


def test_console_over_budget_u3_63_exits_2(tmp_path, capsys):
    p = tmp_path / "u3_63.dm"
    p.write_text(_numbered_file(63, combinations(range(63), 3)))
    assert main(["validate", str(p)]) == 2
    assert capsys.readouterr().out == ""


def test_console_twisted_u2_20_untwists_and_restricts(tmp_path, capsys):
    p = tmp_path / "u2_20.dm"
    p.write_text(_numbered_file(20, _twisted_pairs(20)))
    assert main(["min-width-twist", str(p)]) == 0
    assert capsys.readouterr().out == "twist-set: {e0 e1 e3 e4 e6}\nwidth: 0\n"
    delete = ",".join(f"e{i}" for i in range(7, 20))
    assert main(["minor", str(p), "--delete", delete]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == (
        "57f76f1685d3e15af3e3b8c8e0412e199d40280a2c698a4560a78c3a2a140557"
    )


def test_console_21_element_search_exits_2(tmp_path, capsys):
    p = tmp_path / "n21.dm"
    p.write_text(_numbered_file(21, [[]]))
    assert main(["min-width-twist", str(p)]) == 2
    assert capsys.readouterr().out == ""


# Robustness: a valid file's text, mutated, through every file subcommand.
# Whatever the mutation breaks, each command answers with exit 0, 1 or 2.
FUZZ_LABELS = ("a", "b", "c", "d", "e1", "x")


def _mutate(data, kind, i, j):
    """``data`` (bytes) with one line dropped, duplicated or swapped, one byte
    flipped, or one label renamed or added; ``i`` and ``j`` pick where."""
    if kind == "flip":
        flipped = bytearray(data)
        flipped[i % len(data)] ^= j
        return bytes(flipped)
    lines = data.split(b"\n")
    k = i % len(lines)
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "swap":
        lines[k], lines[j % len(lines)] = lines[j % len(lines)], lines[k]
    else:
        words = lines[k].split(b" ")
        label = FUZZ_LABELS[j % len(FUZZ_LABELS)].encode()
        if kind == "add":
            words.append(label)
        elif len(words) > 1:  # rename: the keyword stays
            words[1 + j % (len(words) - 1)] = label
        lines[k] = b" ".join(words)
    return b"\n".join(lines)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    base=st.sampled_from(["d1.dm", "d3.dm", "w1.dm", "no_empty.dm", "aut.dm"]),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["drop", "duplicate", "swap", "flip", "rename", "add"]),
            st.integers(0, 255),
            st.integers(1, 255),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_mutated_files_exit_0_1_or_2(base, steps):
    data = GOLDEN_FILES[base].encode()
    for step in steps:
        data = _mutate(data, *step)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.dm")
        with open(path, "wb") as f:
            f.write(data)
        for cmd in FILE_COMMANDS:
            argv = [path if word == "F" else word for word in cmd.split()]
            for extra in ([], ["--json"]):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = main(argv + extra)
                assert code in (0, 1, 2), (argv, data)
