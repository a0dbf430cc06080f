"""The four workloads: their inputs, closed-loop timed passes, and checks.

Every workload is a single caller in a closed loop: each call starts only
after the previous one returned, and nothing runs in parallel. Timings are
taken around calls into the library's public entry points; checks run
outside the timings and count every mismatch as a failed operation.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import tempfile
from collections import defaultdict
from time import perf_counter

import gen
import oracle

# On a shared 2-vCPU Intel Xeon VM, the same calls ran up to 2x slower from
# one second to the next, and a fixed chunk of work varied as much within
# one process. So a process that times calls also times a pair of
# calibration chunks whenever CALIBRATE_EVERY seconds have passed since the
# last pair, checked before each call, and once at the end; each call's
# time is scaled by CAL_REF_S over the median of the two chunks just before
# it and the two just after it. Untraced runs also split their work over
# fresh worker processes (worker.py), so every median mixes several
# processes.
# ladder-sampled and unobstructed time a few fixed instances several times,
# so the median and the tail fall among the repeats of one instance; a
# fresh random draw per seed moved the medians by 15-40% between seeds. The
# instances come from POOL_SEED; the workload seed orders them. Among pool
# seeds 1-13, 5 gave the cheapest ladder pass (about 2.5 s), so that 14
# repeats fit a run; its n = 10 instance takes about 0.2 s in validate and
# 0.8 s in min_width_twist.
POOL_SEED = 5
LADDER_SIZES = (8, 9, 10)
# (rank, size, with the one-element width-one summand); an odd count puts
# the median on one shape's repeats
UNOBSTRUCTED_SHAPES = (
    (2, 7, False), (3, 7, False), (2, 8, False), (3, 8, False),
    (2, 6, True), (2, 7, True), (3, 7, True),
)
# (worker processes, passes per worker) of an untraced run; sweep-n4 splits
# one pass over its workers. Each worker gives one set-up sample. The tail
# is the highest percentile with ten samples beyond it: with 14 repeats of
# 3 instances, ladder-sampled's is the 4th fastest repeat of the costliest
# instance; with 8 repeats of 7 shapes, unobstructed's is the 6th fastest
# repeat of the second costliest. With fewer repeats the tail fell on the
# fastest few repeats, and moved by up to 30% between runs.
PLAN = {"sweep-n4": (8, 1), "ladder-sampled": (7, 2), "unobstructed": (8, 1)}
# The traced sweep-n4 run also runs this many of its instances (those with
# the empty set feasible) through cli.main, one command at a time.
CLI_FILES = 20
# sweep-n4 calls take well under a millisecond, and host hiccups of a few ms
# decided their p99.8 tails; a sweep-n4 sample is the mean over this many
# consecutive calls of one entry point.
SWEEP_BATCH = 50
# Reference time of one calibration chunk, and seconds of work between chunks.
CAL_REF_S = 0.004
CALIBRATE_EVERY = 0.1
CLI_COMMANDS = (
    ("validate", "validate"),
    ("min_width_twist", "min-width-twist"),
    ("certify", "certify"),
    ("obstruct", "obstruct"),
)

FAILED = object()


def calibration_chunk():
    """Fixed pure-Python work of the library's kind (integer arithmetic,
    dict and set updates) that keeps nothing alive, so its time tracks how
    fast the host runs this process, not the heap the library left."""
    acc = 0
    table = {}
    seen = set()
    for i in range(15000):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 1023] = i
        seen.add(acc >> 6)
    return len(table) + len(seen)


class Failures:
    """Attempted and failed operation counts, with the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, op, why):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{op}: {why}")

    def check(self, op, problem):
        if problem is not None:
            self.fail(op, problem)


class Run(Failures):
    """One process's timed calls as (operation, start, seconds), and its
    calibration chunks as (start, seconds) when calibrating."""

    def __init__(self, calibrating=False):
        super().__init__()
        self.calls = []
        self.chunks = []
        self.calibrating = calibrating
        self._last = perf_counter()

    def calibrate(self):
        """Time a pair of calibration chunks."""
        for _ in range(2):
            start = perf_counter()
            calibration_chunk()
            self._last = perf_counter()
            self.chunks.append((start, self._last - start))

    def call(self, op, fn, *args):
        """Time one call; when calibrating, a chunk pair runs first if the
        last pair ran CALIBRATE_EVERY seconds ago or more."""
        if self.calibrating and perf_counter() - self._last >= CALIBRATE_EVERY:
            self.calibrate()
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a raising entry point is a failed operation
            self.fail(op, f"raised {exc!r}")
            return FAILED
        self.calls.append((op, start, perf_counter() - start))
        return result

    def samples(self, scaled):
        """Seconds per call, by operation. Scaled, each call is taken to the
        reference host speed by the chunks just before and just after it."""
        starts = [start for start, _ in self.chunks]
        out = defaultdict(list)
        for op, start, secs in self.calls:
            if scaled and self.chunks:
                i = bisect.bisect_left(starts, start)
                j = bisect.bisect_left(starts, start + secs)
                near = self.chunks[max(0, i - 2):i] + self.chunks[j:j + 2]
                secs *= CAL_REF_S / statistics.median(d for _, d in near)
            out[op].append(secs)
        return out

    def report(self, batch=1, instances=0):
        """The dict a worker prints: counts, calibration chunk times, and
        per-operation samples, scaled and raw. With ``batch`` > 1, a sample
        is the mean over that many consecutive calls of one operation.
        ``busy`` sums the scaled calls, set-up excluded."""
        out = {"attempted": self.attempted, "failed": self.failed, "errors": self.errors,
               "calibration": [d for _, d in self.chunks], "instances": instances}
        for key, scaled in (("samples", True), ("raw", False)):
            samples = self.samples(scaled)
            out[key + "_busy"] = sum(sum(v) for op, v in samples.items() if op != "setup")
            out[key] = {op: [statistics.fmean(v[i:i + batch]) for i in range(0, len(v), batch)]
                        for op, v in samples.items()}
        return out


class Totals(Failures):
    """Reports pooled over processes; ``samples`` and ``busy`` are at the
    reference host speed, ``raw`` and ``raw_busy`` as measured."""

    def __init__(self):
        super().__init__()
        self.samples = defaultdict(list)
        self.raw = defaultdict(list)
        self.calibration = []
        self.instances = 0
        self.busy = 0.0
        self.raw_busy = 0.0

    def add(self, part: dict):
        self.attempted += part["attempted"]
        self.failed += part["failed"]
        self.errors = (self.errors + part["errors"])[:20]
        self.calibration += part["calibration"]
        self.instances += part["instances"]
        self.busy += part["samples_busy"]
        self.raw_busy += part["raw_busy"]
        for op, values in part["samples"].items():
            self.samples[op] += values
        for op, values in part["raw"].items():
            self.raw[op] += values


def timed_pass(items, step, on_instance=None, check=None):
    """Run ``step(item)`` once per item, one after another.

    With ``check``, each record is checked at once and dropped, so the
    library's calls do not pay for garbage collections over a growing heap
    of kept results. Returns the kept (item, record) pairs and the elapsed
    time without checking.
    """
    records = []
    aside = 0.0
    start = perf_counter()
    for i, item in enumerate(items):
        if on_instance is not None:
            on_instance(i)
        rec = step(item)
        if check is None:
            records.append((item, rec))
        else:
            begin = perf_counter()
            check(item, rec)
            aside += perf_counter() - begin
    return records, perf_counter() - start - aside


def slices(name, count):
    """The untraced run's slices as (start, end, passes, with_verify), one
    per worker process.

    sweep-n4 cuts its instances into parts, the first with the
    verify_theorem call; the others give every worker all instances.
    """
    parts, passes = PLAN[name]
    if name == "sweep-n4":
        bounds = [count * k // parts for k in range(parts + 1)]
        return [(bounds[k], bounds[k + 1], passes, k == 0) for k in range(parts)]
    return [(0, count, passes, False)] * parts


# -- inputs ---------------------------------------------------------------


def _seeded_order(items, seed):
    random.Random(seed).shuffle(items)
    return items


def sweep_inputs(seed):
    labels = gen.labels_for(4)
    return _seeded_order(
        [(labels, m, gen.serialize(labels, m)) for m in gen.all_delta_matroids_n4()], seed
    )


def ladder_inputs(seed):
    rng = random.Random(POOL_SEED)
    return _seeded_order([gen.sampled(n, rng) for n in LADDER_SIZES], seed)


def unobstructed_inputs(seed):
    rng = random.Random(POOL_SEED)
    items = []
    for r, n, summed in UNOBSTRUCTED_SHAPES:
        masks = gen.uniform(r, n)
        if summed:
            masks = gen.direct_sum_width_one(masks, n)
            n += 1
        items.append((gen.labels_for(n), gen.twist(masks, rng.choice(masks))))
    return _seeded_order(items, seed)


INPUTS = {
    "sweep-n4": sweep_inputs,
    "ladder-sampled": ladder_inputs,
    "unobstructed": unobstructed_inputs,
}


# -- library pipelines ----------------------------------------------------


def sweep_step(run, lib, item):
    labels, masks, text = item
    rec = {}
    d = rec["validate"] = run.call("validate", lib.parse, text)
    if d is FAILED:
        return rec
    rec["serialize"] = run.call("serialize", lib.serialize, d)
    rec["min_width_twist"] = run.call("min_width_twist", lib.min_width_twist, d)
    if masks[0] == 0:
        rec["certify"] = run.call("certify", lib.certify, d)
    rec["obstruct"] = run.call("obstruct", lib.is_obstructed, d)
    return rec


def ladder_step(run, lib, item):
    labels, masks = item
    rec = {}
    d = rec["validate"] = run.call("validate", lib.validate, labels, masks)
    if d is FAILED:
        return rec
    rec["min_width_twist"] = run.call("min_width_twist", lib.min_width_twist, d)
    rec["rough"] = run.call("rough", lib.rough_structure_witnesses, d)
    rec["certify"] = run.call("certify", lib.certify, d)
    rec["obstruct"] = run.call("obstruct", lib.is_obstructed, d)
    return rec


def unobstructed_step(run, lib, item):
    labels, masks = item
    rec = {}
    d = rec["validate"] = run.call("validate", lib.validate, labels, masks)
    if d is FAILED:
        return rec
    rec["min_width_twist"] = run.call("min_width_twist", lib.min_width_twist, d)
    rec["certify"] = run.call("certify", lib.certify, d)
    rec["obstruct"] = run.call("obstruct", lib.is_obstructed, d)
    rec["matroid_twist_obstructions"] = run.call(
        "matroid_twist_obstructions", lib.matroid_twist_obstructions, d
    )
    return rec


def check_record(run, lib, item, rec, orc):
    labels, masks = item[:2]
    d = rec["validate"]
    if d is FAILED:
        return
    run.check("validate", oracle.check_dm(d, labels, masks))
    widths = orc.widths(labels, masks)
    best = int(widths.min())
    for op, res in rec.items():
        if res is FAILED or op == "validate":
            continue
        if op == "serialize":
            problem = None if res == item[2] else "serialized text differs"
        elif op == "min_width_twist":
            problem = oracle.check_min_width_twist(res, widths)
        elif op == "rough":
            problem = oracle.check_rough(res, widths)
        elif op == "certify":
            problem = oracle.check_certify(res, d, widths, lib.TwistWitness)
        elif op == "obstruct":
            problem = oracle.check_obstruction(res, d, best > 1)
        else:  # matroid_twist_obstructions
            problem = oracle.check_obstruction(res, d, best > 0)
        run.check(op, problem)


STEPS = {
    "sweep-n4": sweep_step,
    "ladder-sampled": ladder_step,
    "unobstructed": unobstructed_step,
}


def _verify_sweep(run, lib):
    report = run.call("verify", lib.verify_theorem, 4, "t2")
    if report is not FAILED and not (report.passed and report.checked == 5959):
        run.fail("verify", f"t2 report: {report.checked} checked, "
                           f"{report.failures} failures")
    return report


def run_slice(name, lib, items, passes, with_verify, setup):
    """One worker's share of an untraced run: on sweep-n4 optionally one
    verify_theorem(4, "t2"), then ``passes`` timed passes, each output
    checked as it comes. ``setup`` is the worker's set-up call as (start,
    seconds).
    Returns the worker's report."""
    run = Run(calibrating=True)
    run.calls.append(("setup", *setup))
    orc = oracle.Oracle()
    run.calibrate()
    if with_verify:
        _verify_sweep(run, lib)
    timed_pass(
        items * passes, lambda it: STEPS[name](run, lib, it),
        check=lambda it, rec: check_record(run, lib, it, rec, orc),
    )
    run.calibrate()
    return run.report(SWEEP_BATCH if name == "sweep-n4" else 1, len(items) * passes)


def run_traced(name, lib, items, tracer, root):
    """One pass untraced, then one pass traced, in this process; on sweep-n4
    the traced part goes on with one verify_theorem and the CLI commands on
    CLI_FILES instances. Checks follow."""
    run = Run()
    step = STEPS[name]
    records, elapsed = timed_pass(items, lambda it: step(run, lib, it))
    info = {"untraced_instances_per_s": len(records) / elapsed}
    tracer.install()
    try:
        traced, elapsed = timed_pass(
            items, lambda it: step(run, lib, it),
            on_instance=lambda i: setattr(tracer, "instance", i),
        )
        info["traced_instances_per_s"] = len(traced) / elapsed
        if name == "sweep-n4":
            tracer.instance = -1
            _verify_sweep(run, lib)
            files = [it[:2] for it in items if it[1][0] == 0][:CLI_FILES]
            cli_records = run_cli(run, lib, files, root)
    finally:
        tracer.uninstall()
    _check_all(run, lib, records + traced)
    if name == "sweep-n4":
        check_cli(run, lib, files, cli_records)
    return run.report(), info


def _check_all(run, lib, records):
    orc = oracle.Oracle()
    for item, rec in records:
        check_record(run, lib, item, rec, orc)


# -- command line ---------------------------------------------------------


def _ordered(labels, elems):
    elems = set(elems)
    return [e for e in labels if e in elems]


def _obstruction_json(labels, obs):
    return {"obstruction": {
        "delete": _ordered(labels, obs.delete_set),
        "contract": _ordered(labels, obs.contract_set),
        "target_index": obs.target_index,
        "iso": dict(sorted(obs.iso.items())),
    }}


def _expected_cli(run, lib, item, orc):
    """In-process results for one file, checked against the oracle, as the
    (exit code, JSON) each CLI command must print."""
    labels, masks = item
    d = lib.validate(labels, masks)
    widths = orc.widths(labels, masks)
    best = int(widths.min())
    a, w = lib.min_width_twist(d)
    cert = lib.certify(d)
    obs = lib.is_obstructed(d)
    run.check("min_width_twist", oracle.check_min_width_twist((a, w), widths))
    run.check("certify", oracle.check_certify(cert, d, widths, lib.TwistWitness))
    run.check("obstruct", oracle.check_obstruction(obs, d, best > 1))
    if isinstance(cert, lib.TwistWitness):
        cert_out = (0, {"witness": {"twist_set": _ordered(labels, cert.twist_set),
                                    "width": cert.width}})
    else:
        cert_out = (1, _obstruction_json(labels, cert.obstruction))
    return {
        "validate": (0, {"valid": True, "elements": len(labels), "feasible": len(masks)}),
        "min_width_twist": (0, {"twist_set": _ordered(labels, d.set_of(a)), "width": w}),
        "certify": cert_out,
        "obstruct": (0, {"obstruction": None}) if obs is None
        else (1, _obstruction_json(labels, obs)),
    }


def lib_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(run, lib, items, root):
    """Each instance, written to a file, goes through the validate,
    min-width-twist, certify and obstruct commands of cli.main in this
    process, with its output captured. Returns one record per file."""
    workdir = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(root, "perfbench", "out"))
    records = []
    try:
        for i, (labels, masks) in enumerate(items):
            path = os.path.join(workdir, f"{i:03d}.dm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(gen.serialize(labels, masks))
            rec = {}
            for op, command in CLI_COMMANDS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run.call(f"cli-{op}", lib.cli.main, [command, path, "--json"])
                rec[op] = FAILED if code is FAILED else (code, buf.getvalue())
            records.append(rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return records


def check_cli(run, lib, items, records):
    """Every command exits with the expected code and prints the JSON the
    in-process calls give."""
    orc = oracle.Oracle()
    for item, rec in zip(items, records):
        try:
            expected = _expected_cli(run, lib, item, orc)
        except Exception as exc:  # the in-process reference itself failed
            run.fail("reference", f"{item} raised {exc!r}")
            continue
        for op, res in rec.items():
            if res is FAILED:
                continue
            code, stdout = res
            want_code, want_json = expected[op]
            try:
                got = json.loads(stdout)
            except ValueError:
                got = None
            if code != want_code or got != want_json:
                run.fail(op, f"exit {code} output {stdout.strip()!r}, "
                             f"expected exit {want_code} {want_json}")
