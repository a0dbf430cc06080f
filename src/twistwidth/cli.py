"""Command-line interface.

Exit codes: 0 when the command succeeds (or the checked property holds),
1 when a property fails or an obstruction is found, 2 on input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import CertificationError, TwistWitness, certify
from .core import DeltaMatroid, DeltaMatroidError
from .enumeration import (
    MAX_ENUM_ELEMENTS,
    THEOREM_TAGS,
    count_all,
    enumerate_all,
    verify_theorem,
)
from .fileio import ParseError, parse, serialize
from .matroids import is_matroid
from .minors import is_obstructed
from .structure import min_width_twist


def _load(path: str) -> DeltaMatroid:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


def _subset_arg(value: str) -> list[str]:
    return [v for v in value.split(",") if v]


def _fmt_set(labels) -> str:
    return "{" + " ".join(sorted(labels)) + "}"


def _ordered(d: DeltaMatroid, elems) -> list[str]:
    elems = set(elems)
    return [e for e in d.labels if e in elems]


def _emit_dm(d: DeltaMatroid, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps(
                {
                    "elements": list(d.labels),
                    "feasible": [_ordered(d, f) for f in map(d.set_of, d.masks)],
                }
            )
        )
    else:
        sys.stdout.write(serialize(d))


def _obstruction_payload(d, obs):
    return {
        "delete": _ordered(d, obs.delete_set),
        "contract": _ordered(d, obs.contract_set),
        "target_index": obs.target_index,
        "iso": dict(sorted(obs.iso.items())),
    }


def _print_obstruction(d, obs, as_json):
    if as_json:
        print(json.dumps({"obstruction": _obstruction_payload(d, obs)}))
    else:
        iso = ", ".join(f"{k}->{v}" for k, v in sorted(obs.iso.items()))
        print(
            f"obstruction: delete {_fmt_set(obs.delete_set)} "
            f"contract {_fmt_set(obs.contract_set)} "
            f"-> excluded minor #{obs.target_index} ({iso})"
        )


def _cmd_validate(args):
    d = _load(args.file)
    if args.json:
        print(
            json.dumps(
                {"valid": True, "elements": d.n, "feasible": len(d.masks)}
            )
        )
    else:
        print(f"valid: {d.n} elements, {len(d.masks)} feasible sets")
    return 0


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
    if args.json:
        print(json.dumps(data))
    else:
        print(f"elements: {' '.join(d.labels)}")
        print(f"feasible sets: {len(d.masks)}")
        print(f"width: {d.width()}")
        print(f"even: {'yes' if d.is_even() else 'no'}")
        print(f"loops: {' '.join(d.loops()) or '-'}")
        print(f"coloops: {' '.join(d.coloops()) or '-'}")
        print(f"matroid: {'yes' if is_matroid(d) else 'no'}")
    return 0


def _cmd_twist(args):
    d = _load(args.file)
    _emit_dm(d.twist(args.set), args.json)
    return 0


def _cmd_minor(args):
    d = _load(args.file)
    _emit_dm(d.minor(delete=args.delete, contract=args.contract), args.json)
    return 0


def _cmd_restrict(args):
    d = _load(args.file)
    _emit_dm(d.restrict(args.set), args.json)
    return 0


def _cmd_rho(args):
    d = _load(args.file)
    value = d.rho(args.set)
    if args.json:
        print(json.dumps({"rho": value}))
    else:
        print(f"rho: {value}")
    return 0


def _cmd_min_width_twist(args):
    d = _load(args.file)
    a, w = min_width_twist(d, check=args.check)
    if args.json:
        print(
            json.dumps({"twist_set": _ordered(d, d.set_of(a)), "width": w})
        )
    else:
        print(f"twist-set: {_fmt_set(d.set_of(a))}")
        print(f"width: {w}")
    return 0


def _cmd_certify(args):
    d = _load(args.file)
    cert = certify(d)
    if isinstance(cert, TwistWitness):
        if args.json:
            print(
                json.dumps(
                    {
                        "witness": {
                            "twist_set": _ordered(d, cert.twist_set),
                            "width": cert.width,
                        }
                    }
                )
            )
        else:
            print(
                f"witness: twist by {_fmt_set(cert.twist_set)} "
                f"has width {cert.width}"
            )
        return 0
    _print_obstruction(d, cert.obstruction, args.json)
    return 1


def _cmd_obstruct(args):
    d = _load(args.file)
    obs = is_obstructed(d)
    if obs is None:
        if args.json:
            print(json.dumps({"obstruction": None}))
        else:
            print("no obstruction: some twist has width at most one")
        return 0
    _print_obstruction(d, obs, args.json)
    return 1


def _cmd_enumerate(args):
    if args.count_only:
        count = count_all(args.n)
        print(json.dumps({"n": args.n, "count": count}) if args.json else count)
        return 0
    for d in enumerate_all(args.n):
        fams = ["{" + " ".join(_ordered(d, d.set_of(m))) + "}" for m in d.masks]
        print(" ".join(fams))
    return 0


def _cmd_verify(args):
    report = verify_theorem(args.n, args.theorem)
    if args.json:
        print(
            json.dumps(
                {
                    "n": report.n,
                    "theorem": report.theorem,
                    "checked": report.checked,
                    "failures": report.failures,
                    "first_counterexample": report.first_counterexample,
                }
            )
        )
    else:
        print(
            f"theorem {report.theorem} at n={report.n}: "
            f"{report.checked} instances checked, "
            f"{report.failures} failures"
        )
        if report.first_counterexample:
            print(f"first counterexample: {report.first_counterexample}")
    return 0 if report.passed else 1


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

    p = add("min-width-twist", _cmd_min_width_twist, "twist set minimizing width")
    p.add_argument("file")
    p.add_argument("--check", action="store_true", help="cross-validate against direct twists")

    add("certify", _cmd_certify, "width<=1 twist witness or forbidden minor").add_argument("file")
    add("obstruct", _cmd_obstruct, "scan for excluded minors").add_argument("file")

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
        return args.func(args)
    except (ParseError, DeltaMatroidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
