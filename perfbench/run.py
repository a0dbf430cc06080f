"""twistwidth benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` next to this directory. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
with ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. The line before it holds the run context: machine,
input digest, sample counts and tail percentiles. The exit code is 0 only
when every output passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n4", "ladder-sampled", "unobstructed")
ENTRY_POINTS = ("validate", "min_width_twist", "certify", "obstruct")
PROBE_REPEATS = 5


def load_library():
    """Import twistwidth from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "twistwidth" / "__init__.py").is_file():
        sys.exit(f"error: no library at {src / 'twistwidth'}")
    sys.path.insert(0, str(src))
    import twistwidth

    if Path(twistwidth.__file__).resolve().parent != (src / "twistwidth").resolve():
        sys.exit(f"error: imported twistwidth from {twistwidth.__file__}")
    return twistwidth


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def warm_up(lib, workload):
    """The lazy set-up the first calls pay: the obstruction catalog, the D5
    scan list with its canonical keys (built by the first is_obstructed
    call), and on sweep-n4 the table of all families on four elements."""
    lib.catalog()
    lib.is_obstructed(lib.validate(["a"], [[], ["a"]]))
    if workload == "sweep-n4":
        lib.count_all(4)


def run_workers(workload, seed, plan, totals):
    """Run the plan's slices one after another, each in a fresh worker.py."""
    for first, last, passes, with_verify in plan:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(first),
             str(last), str(passes), "1" if with_verify else "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            totals.attempted += 1
            totals.fail("worker", f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            totals.add(result)


def machine_context() -> dict:
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }


def timing_summary(samples):
    """Median and tail of call times in ms. The tail is the highest
    percentile with at least ten samples beyond it (the maximum when there
    are ten samples or fewer)."""
    v = sorted(samples)
    n = len(v)
    if n > 10:
        tail, pct = v[n - 11], 100.0 * (n - 10) / n
    else:
        tail, pct = v[-1], 100.0
    return {"p50_ms": 1e3 * statistics.median(v), "tail_ms": 1e3 * tail,
            "tail_pct": round(pct, 1), "count": n}


def interpreter_probes(env):
    """Median wall ms of bare interpreter start, and of `import twistwidth`."""
    def median_ms(code):
        walls = []
        for _ in range(PROBE_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                           check=True, capture_output=True, timeout=120)
            walls.append(1e3 * (perf_counter() - start))
        return statistics.median(walls)

    bare = median_ms("pass")
    return bare, median_ms("import twistwidth") - bare


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_units(name):
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("hit_ratio") or name == "trace.overhead":
        return "ratio"
    if name == "certify.depth_mean":
        return "builds/call"
    if name == "trace.instances_per_s":
        return "1/s"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    sys.path.insert(0, str(HERE))
    import workloads
    from gen import digest
    from tracer import Tracer

    context = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "machine": machine_context()}
    (HERE / "out").mkdir(exist_ok=True)
    items = workloads.INPUTS[args.workload](args.seed)
    context["inputs"] = {"count": len(items),
                         "sha256": digest((it[0], it[1]) for it in items)}

    run = workloads.Totals()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        import twistwidth.cli  # noqa: F401  (loaded before the tracer wraps cli.main)

        warm_up(lib, args.workload)
        work, info = workloads.run_traced(args.workload, lib, items, tracer, str(ROOT))
        run.add(work)
    else:
        plan = workloads.slices(args.workload, len(items))
        run_workers(args.workload, args.seed, plan, run)
        context["workers"] = len(plan)

    setup, raw_setup = run.samples.pop("setup", []), run.raw.pop("setup", [])
    summaries = {op: timing_summary(s) for op, s in sorted(run.samples.items())}
    context["calls"] = summaries
    context["raw_ms"] = {op: timing_summary(s) for op, s in sorted(run.raw.items())}
    context["raw_instances_per_s"] = run.instances / run.raw_busy if run.instances else None
    context["host"] = {"calibration_ms": 1e3 * statistics.median(run.calibration)
                       if run.calibration else None,
                       "reference_ms": 1e3 * workloads.CAL_REF_S}
    if setup:
        context["setup"] = {"count": len(setup), "raw_s": statistics.median(raw_setup)}
    context["failed_ratio"] = run.failed / run.attempted
    if "verify" in summaries:
        context["verify_instances_per_s"] = 5959 / (summaries["verify"]["p50_ms"] / 1e3)
    if run.errors:
        context["errors"] = run.errors

    if args.trace:
        bare_ms, import_ms = interpreter_probes(workloads.lib_env(str(ROOT)))
        values = tracer.metrics()
        values["cli.interpreter_ms"] = bare_ms
        values["cli.import_ms"] = import_ms
        values["trace.instances_per_s"] = info["traced_instances_per_s"]
        values["trace.overhead"] = 1 - info["traced_instances_per_s"] / info["untraced_instances_per_s"]
        context["trace"] = {**info, "absent": tracer.absent,
                            "spans_dropped": tracer.spans_dropped}
        span_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_spans(span_file, {"workload": args.workload, "seed": args.seed})
        context["trace"]["span_file"] = str(span_file.relative_to(ROOT))
        metrics = {k: metric(v, per_layer_units(k)) for k, v in values.items()}
    else:
        ru = resource.getrusage(resource.RUSAGE_CHILDREN)
        metrics = {
            "setup_s": metric(statistics.median(setup) if setup else None, "s"),
            "instances_per_s": metric(run.instances / run.busy if run.busy else None, "1/s"),
        }
        for op in ENTRY_POINTS:
            s = summaries.get(op, {"p50_ms": None, "tail_ms": None})
            metrics[f"{op}_p50_ms"] = metric(s["p50_ms"], "ms")
            metrics[f"{op}_tail_ms"] = metric(s["tail_ms"], "ms")
        metrics["peak_rss_mb"] = metric(ru.ru_maxrss / 1024, "MB")

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
