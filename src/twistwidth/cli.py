"""Command-line interface.

Each ``_cmd_*`` returns (exit code, JSON payload, text); ``main`` prints
the payload under ``--json`` and the text otherwise, the only write to
stdout. Exit codes: 0 when the command succeeds (or the checked property
holds), 1 when a property fails or an obstruction is found, 2 on input
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import CertificationError, TwistWitness, certify, is_obstructed
from .core import DeltaMatroid, DeltaMatroidError, _labels_at, is_matroid
from .enumeration import (
    MAX_ENUM_ELEMENTS,
    THEOREM_TAGS,
    count_all,
    enumerate_all,
    verify_theorem,
)
from .fileio import ParseError, parse, serialize
from .structure import min_width_twist


def _load(path: str) -> DeltaMatroid:
    """The file at ``path``, read as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _subset_arg(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _fmt_set(labels) -> str:
    return "{" + " ".join(sorted(labels)) + "}"


def _sets(d: DeltaMatroid) -> list[list[str]]:
    """The feasible sets, each listing its labels in ground order."""
    return [_labels_at(d.labels, m) for m in d.masks]


def _dm(d: DeltaMatroid):
    """Payload and text of a delta-matroid; the text is its canonical file."""
    payload = {"elements": list(d.labels), "feasible": _sets(d)}
    return payload, serialize(d).rstrip("\n")


def _obstruction(d: DeltaMatroid, obs):
    """Payload and text of an excluded-minor witness."""
    iso = dict(sorted(obs.iso.items()))
    payload = {
        "delete": _labels_at(d.labels, d.mask_of(obs.delete_set)),
        "contract": _labels_at(d.labels, d.mask_of(obs.contract_set)),
        "target_index": obs.target_index,
        "iso": iso,
    }
    text = (
        f"obstruction: delete {_fmt_set(obs.delete_set)} "
        f"contract {_fmt_set(obs.contract_set)} "
        f"-> excluded minor #{obs.target_index} "
        f"({', '.join(f'{k}->{v}' for k, v in iso.items())})"
    )
    return {"obstruction": payload}, text


def _cmd_validate(args):
    d = _load(args.file)
    payload = {"valid": True, "elements": d.n, "feasible": len(d.masks)}
    return 0, payload, f"valid: {d.n} elements, {len(d.masks)} feasible sets"


def _cmd_info(args):
    d = _load(args.file)
    data = {
        "elements": list(d.labels),
        "feasible_count": len(d.masks),
        "width": d.width(),
        "even": d.is_even(),
        "loops": d.loops(),
        "coloops": d.coloops(),
        "is_matroid": is_matroid(d),
    }
    yes = {True: "yes", False: "no"}
    text = (
        f"elements: {' '.join(d.labels)}\n"
        f"feasible sets: {len(d.masks)}\n"
        f"width: {data['width']}\n"
        f"even: {yes[data['even']]}\n"
        f"loops: {' '.join(data['loops']) or '-'}\n"
        f"coloops: {' '.join(data['coloops']) or '-'}\n"
        f"matroid: {yes[data['is_matroid']]}"
    )
    return 0, data, text


def _cmd_twist(args):
    return (0, *_dm(_load(args.file).twist(args.set)))


def _cmd_minor(args):
    d = _load(args.file)
    return (0, *_dm(d.minor(delete=args.delete, contract=args.contract)))


def _cmd_restrict(args):
    return (0, *_dm(_load(args.file).restrict(args.set)))


def _cmd_rho(args):
    value = _load(args.file).rho(args.set)
    return 0, {"rho": value}, f"rho: {value}"


def _cmd_min_width_twist(args):
    d = _load(args.file)
    a, w = min_width_twist(d)
    twist_set = d.set_of(a)
    payload = {"twist_set": _labels_at(d.labels, a), "width": w}
    return 0, payload, f"twist-set: {_fmt_set(twist_set)}\nwidth: {w}"


def _cmd_certify(args):
    d = _load(args.file)
    cert = certify(d)
    if not isinstance(cert, TwistWitness):
        return (1, *_obstruction(d, cert.obstruction))
    witness = {"twist_set": _labels_at(d.labels, d.mask_of(cert.twist_set)), "width": cert.width}
    text = f"witness: twist by {_fmt_set(cert.twist_set)} has width {cert.width}"
    return 0, {"witness": witness}, text


def _cmd_obstruct(args):
    d = _load(args.file)
    obs = is_obstructed(d)
    if obs is not None:
        return (1, *_obstruction(d, obs))
    text = "no obstruction: some twist has width at most one"
    return 0, {"obstruction": None}, text


def _cmd_enumerate(args):
    if args.count_only:
        count = count_all(args.n)
        return 0, {"n": args.n, "count": count}, str(count)
    families = [_sets(d) for d in enumerate_all(args.n)]
    text = "\n".join(
        " ".join("{" + " ".join(f) + "}" for f in fam) for fam in families
    )
    return 0, {"n": args.n, "families": families}, text


def _cmd_verify(args):
    report = verify_theorem(args.n, args.theorem)
    keys = ("n", "theorem", "checked", "failures", "first_counterexample")
    payload = {k: getattr(report, k) for k in keys}
    text = (
        f"theorem {report.theorem} at n={report.n}: "
        f"{report.checked} instances checked, {report.failures} failures"
    )
    if report.first_counterexample:
        text += f"\nfirst counterexample: {report.first_counterexample}"
    return 0 if report.passed else 1, payload, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistwidth",
        description="Delta-matroid twists, width, minors, and obstructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="JSON output")
        return p

    add("validate", _cmd_validate, "check a file against the exchange axiom").add_argument("file")
    add("info", _cmd_info, "width, parity, loops, coloops").add_argument("file")

    p = add("twist", _cmd_twist, "twist by a subset")
    p.add_argument("file")
    p.add_argument("-A", "--set", type=_subset_arg, default=[], help="comma-separated elements")

    p = add("minor", _cmd_minor, "delete and contract disjoint subsets")
    p.add_argument("file")
    p.add_argument("--delete", type=_subset_arg, default=[])
    p.add_argument("--contract", type=_subset_arg, default=[])

    p = add("restrict", _cmd_restrict, "restrict to a subset")
    p.add_argument("file")
    p.add_argument("-A", "--set", type=_subset_arg, default=[])

    p = add("rho", _cmd_rho, "Bouchet rank of a subset")
    p.add_argument("file")
    p.add_argument("-A", "--set", type=_subset_arg, default=[])

    add("min-width-twist", _cmd_min_width_twist, "twist set minimizing width").add_argument("file")

    add("certify", _cmd_certify, "width<=1 twist witness or forbidden minor").add_argument("file")
    add("obstruct", _cmd_obstruct, "excluded-minor witness from the certificate, or none").add_argument("file")

    p = add("enumerate", _cmd_enumerate, "list all delta-matroids on n elements")
    p.add_argument("-n", type=int, required=True, choices=range(1, MAX_ENUM_ELEMENTS + 1))
    p.add_argument("--count-only", action="store_true")

    p = add("verify", _cmd_verify, "exhaustively verify a structural property")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--theorem", required=True, choices=THEOREM_TAGS)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.func(args)
        print(json.dumps(payload) if args.json else text)
        return code
    except (ParseError, DeltaMatroidError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
