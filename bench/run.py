"""seqcert benchmark: one closed-loop client, three workloads, one process.

    python3 bench/run.py --workload paper_batch --seed 1 --seconds 30 --trace 0

Runs the workload's operations one after another (a closed loop with one
client) in whole cycles until ``--seconds`` have passed and at least
``MIN_OPS`` operations are done, checks every output against the recorded
outcomes in ``bench/outcomes.json``, prints every metric on its own line
with its unit, and prints one JSON object as the last line.  Exit code 1
means an output was wrong, 2 that the benchmark could not run.

Operation times are reported at a reference speed: after every operation
a fixed pure-Python calibration routine runs, and each operation's time is
scaled by ``CALIBRATION_MS`` over the routine's local time (unit
``ref_ms``); set-up times are scaled the same way.  The machine's speed
drifts by up to 1.8x in phases of tens of seconds; the ratio does not.
Raw wall-clock figures are printed too.

``--trace 1`` instead runs a fixed list of operations (the start of the
seeded plan) twice, untraced and then with every public function of
each layer wrapped, and reports the per-layer metrics and the tracing
overhead.  ``--record`` rewrites ``outcomes.json`` from the current code.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import fractions
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
OUTCOMES = BENCH_DIR / "outcomes.json"

MIN_OPS = 100  # so that at least ten samples lie beyond p90
SETUP_PROBES = 9
# The calibration routine counts as this many milliseconds: times in
# ``ref_ms`` are what an operation would take on a machine where it does.
CALIBRATION_MS = 5.0
CALIBRATION_WINDOW = 5  # operations whose calibrations give one local speed

END_TO_END = {
    "ops_per_s": "1/ref_s",
    "latency_p50_ms": "ref_ms",
    "latency_p90_ms": "ref_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Self time enters the final JSON as a share of the traced wall time
# (``.self_pct``): a function a workload never calls then reads 0 %, not a
# constant 0 ms.  ``.self_ms`` is printed on the metric lines beside it.
_SPANNED = (
    "cli.scenario_from_json", "cli.report",
    "certify.certify_min", "certify.check_qualification", "certify.check_psc",
    "certify.check_psc_numeric", "certify.gateaux_detect", "certify.subgradient_test",
    "certify.kkt_certify",
    "derivative.dir_deriv", "derivative.dir_deriv_profile",
    "funcs.evaluate", "funcs.delta_along",
    "seqspace.certified_series", "seqspace.pair",
    "symseq.tail_sum", "symseq.eventual_sign",
    "reduce.minimize_reduced",
)
PER_LAYER = (
    *(f"{fn}.{m}" for fn in _SPANNED for m in ("calls", "self_pct", "errors")),
    "cli.load_schema.calls",
    "derivative.quotients", "derivative.evidence_only_share",
    "funcs.evaluate.terms_used", "funcs.delta_along_basis.calls",
    "funcs.analytic_dir_deriv.calls",
    "symseq.tail_sum.terms",
    "reduce.sweeps",
    "sampling.generate_ms",
    "trace.untraced_p50_ms", "trace.traced_p50_ms", "trace.overhead_pct",
)


class BenchError(Exception):
    """The benchmark cannot run here (exit code 2)."""


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_frequency_scaling": "not controlled",
        "cpu_pinning": "not controlled",
    }


def import_program():
    """Import seqcert from this checkout's src directory, never another copy."""
    if not (SRC / "seqcert" / "__init__.py").is_file():
        raise BenchError(f"no seqcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import seqcert

    if Path(seqcert.__file__).resolve().parent != (SRC / "seqcert").resolve():
        raise BenchError(f"imported seqcert from {seqcert.__file__}, not from {SRC}")
    import workloads

    return workloads


def set_up(name: str, seed: int):
    """Import the program and generate the workload's plan; returns
    (workloads module, workload, plan, import seconds, generate seconds)."""
    t0 = time.perf_counter_ns()
    wl_mod = import_program()
    t1 = time.perf_counter_ns()
    workload = wl_mod.make(name)
    plan = workload.plan(seed)
    t2 = time.perf_counter_ns()
    return wl_mod, workload, plan, (t1 - t0) / 1e9, (t2 - t1) / 1e9


def setup_probe(name: str, seed: int) -> None:
    """Child-process entry: time a cold set-up and report it with the digest."""
    wl_mod, _, plan, imp, gen = set_up(name, seed)
    print(json.dumps({"setup_s": imp + gen, "digest": wl_mod.plan_digest(plan)}))


def setup_once(name: str, seed: int, digest: str) -> float:
    """One cold set-up in a fresh interpreter, waited for; returns seconds.

    The child must produce the same input digest as this process, which
    checks that input generation depends on nothing but the seed.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if probe["digest"] != digest:
        raise BenchError(
            f"input digest differs between processes: {probe['digest']} != {digest}"
        )
    return probe["setup_s"]


def calibration_work() -> float:
    """Fixed pure-Python work that uses no seqcert: exact fractions, float
    arithmetic, a dict and a sort, like the certifiers' own mix."""
    acc, counts, total = fractions.Fraction(0), {}, 0.0
    for n in range(1, 400):
        acc += fractions.Fraction(1, n * n)
        counts[n % 37] = counts.get(n % 37, 0) + n
        total += float(acc) * 0.5 ** (n % 13)
    return total + sum(sorted((i * 7919) % 1009 for i in range(2000))) + len(counts)


def calibrate() -> float:
    """Seconds the calibration routine takes now (it runs twice)."""
    t0 = time.perf_counter_ns()
    calibration_work()
    calibration_work()
    return (time.perf_counter_ns() - t0) / 1e9


def speed_factors(calibrations: list[float]) -> list[float]:
    """Per operation, CALIBRATION_MS over the median calibration time of the
    CALIBRATION_WINDOW operations centred on it (in ms), so one slow
    calibration does not skew its operation."""
    half = CALIBRATION_WINDOW // 2
    factors = []
    for i in range(len(calibrations)):
        window = calibrations[max(0, i - half): i + half + 1]
        factors.append(CALIBRATION_MS / (statistics.median(window) * 1e3))
    return factors


class Checker:
    """Compares each operation's outcome with the recorded one."""

    def __init__(self, recorded: dict):
        self.recorded = recorded
        self.mismatches: list[str] = []

    def check(self, key: str, outcome: dict) -> None:
        want = self.recorded.get(key)
        if want is None:
            self.mismatches.append(f"{key}: no recorded outcome")
        elif want != outcome:
            self.mismatches.append(f"{key}: recorded {want}, got {outcome}")


def _null_span(_name):
    return contextlib.nullcontext()


def run_op(workload, op, span=_null_span):
    """Run one operation; returns (seconds, OpResult or None, problem).

    An operation that raises is a failed operation whose outcome is the
    exception class; ``problem`` is set when the operation's own check
    rejected its output, which makes the run incorrect.
    """
    mismatch = sys.modules["workloads"].OutcomeMismatch
    t0 = time.perf_counter_ns()
    try:
        res = workload.run(op, span)
    except mismatch as exc:
        return (time.perf_counter_ns() - t0) / 1e9, None, str(exc)
    except Exception as exc:  # recorded by class, counted as failed
        res = sys.modules["workloads"].OpResult({"error": type(exc).__name__}, True, {})
    return (time.perf_counter_ns() - t0) / 1e9, res, None


def run_checked(workload, op, checker: Checker, span=_null_span):
    seconds, res, problem = run_op(workload, op, span)
    if problem is not None:
        checker.mismatches.append(problem)
    else:
        checker.check(op.key, res.outcome)
    return seconds, res


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    """The smallest sample with at least pct percent of samples at or below it."""
    return sorted_values[max(0, -(-pct * len(sorted_values) // 100) - 1)]


def closed_loop(workload, plan, checker: Checker, seconds: float, max_ops, probe):
    """Whole cycles until the time is up and MIN_OPS are done (or exactly
    ``max_ops`` operations when given).

    Every operation is followed by a calibration, and the SETUP_PROBES
    set-up probes (``probe()``) run between operations, spread evenly over
    the timed loop, so that their median covers the whole run.
    """
    keys, latencies, calibrations, op_tasks, failed = [], [], [], [], 0
    setups = []
    started = time.perf_counter_ns()
    deadline = started + int(seconds * 1e9)
    probe_every = int(seconds * 1e9) // SETUP_PROBES
    cycle_no = 0
    while True:
        for op in plan[cycle_no % len(plan)]:
            if max_ops is not None and len(latencies) >= max_ops:
                break
            dt, res = run_checked(workload, op, checker)
            keys.append(op.key)
            latencies.append(dt)
            calibrations.append(calibrate())
            op_tasks.append({} if res is None else res.task_seconds)
            if res is None or res.failed:
                failed += 1
            if (len(setups) < SETUP_PROBES
                    and time.perf_counter_ns() >= started + len(setups) * probe_every):
                setups.append(probe())
        cycle_no += 1
        if max_ops is not None:
            if len(latencies) >= max_ops:
                break
        elif time.perf_counter_ns() >= deadline and len(latencies) >= MIN_OPS:
            break
    elapsed = (time.perf_counter_ns() - started) / 1e9
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    return keys, latencies, calibrations, op_tasks, failed, elapsed, setups


def end_to_end(name, seed, seconds, max_ops):
    wl_mod, workload, plan, _, _ = set_up(name, seed)
    digest = wl_mod.plan_digest(plan)
    checker = Checker(json.loads(OUTCOMES.read_text(encoding="utf-8")))

    # warm-up: the first operation of every kind and the calibration, not measured
    seen = set()
    for op in plan[0]:
        if op.kind not in seen:
            seen.add(op.kind)
            run_checked(workload, op, checker)
    calibrate()

    def probe():
        # (wall seconds, seconds at reference speed), the speed taken from
        # calibrations right before and after the probe
        before = calibrate()
        wall = setup_once(name, seed, digest)
        after = calibrate()
        return wall, wall * CALIBRATION_MS / ((before + after) / 2 * 1e3)

    keys, lat, calibrations, op_tasks, failed, elapsed, setups = closed_loop(
        workload, plan, checker, seconds, max_ops, probe)
    factors = speed_factors(calibrations)
    ref_ms = [dt * 1e3 * k for dt, k in zip(lat, factors)]
    wall_ms = sorted(dt * 1e3 for dt in lat)
    # An operation's latency is the median over every run of the same input
    # in this run, so one slow repetition does not move the percentiles.
    by_key = {}
    for key, ms in zip(keys, ref_ms):
        by_key.setdefault(key, []).append(ms)
    typical = sorted(statistics.median(by_key[key]) for key in keys)
    attempted = len(lat)
    metrics = {
        "ops_per_s": (attempted - failed) / (sum(ref_ms) / 1e3),
        "latency_p50_ms": nearest_rank(typical, 50),
        "latency_p90_ms": nearest_rank(typical, 90),
        "setup_s": statistics.median(ref for _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Per-task medians exist only on workloads that run the task, so they are
    # printed on metric lines but kept out of the final JSON object, as are
    # the wall-clock figures the reference-speed ones are scaled from.
    extra = {"failed_ratio": (failed / attempted, "ratio")}
    tasks = {}
    for spent, k in zip(op_tasks, factors):
        for task, sec in spent.items():
            tasks.setdefault(task, []).append(sec * 1e3 * k)
    for task in sorted(tasks):
        extra[f"{task}_p50_ms"] = (statistics.median(tasks[task]), "ref_ms")
    extra["wall.ops_per_s"] = ((attempted - failed) / sum(lat), "1/s")
    extra["wall.latency_p50_ms"] = (nearest_rank(wall_ms, 50), "ms")
    extra["wall.latency_p90_ms"] = (nearest_rank(wall_ms, 90), "ms")
    extra["wall.setup_s"] = (statistics.median(wall for wall, _ in setups), "s")
    extra["calibration_p50_ms"] = (statistics.median(calibrations) * 1e3, "ms")
    info = {
        "workload": name, "seed": seed, "digest": digest, "samples": attempted,
        "distinct_inputs": len(by_key),
        "beyond_p90": attempted + (-90 * attempted // 100),  # ranks above the p90 rank
        "measured_s": elapsed, "setup_probes_wall_s": [wall for wall, _ in setups],
        "calibration_ms_min_max": [min(calibrations) * 1e3, max(calibrations) * 1e3],
        "task_samples": {t: len(v) for t, v in sorted(tasks.items())},
    }
    return metrics, END_TO_END, extra, info, checker, attempted, failed


def traced(name, seed, max_ops):
    wl_mod, workload, plan, _, gen_s = set_up(name, seed)
    from tracer import Tracer, layer_metrics

    digest = wl_mod.plan_digest(plan)
    checker = Checker(json.loads(OUTCOMES.read_text(encoding="utf-8")))
    limit = workload.trace_ops if max_ops is None else min(max_ops, workload.trace_ops)
    ops = [op for cycle in plan for op in cycle][:limit]
    run_checked(workload, ops[0], checker)  # warm-up

    # Each operation runs untraced and then traced, back to back, so that
    # drift on a shared machine affects both sides of the overhead alike.
    tracer = Tracer()
    untraced, traced_lat, failed = [], [], 0
    for i, op in enumerate(ops):
        untraced.append(run_checked(workload, op, checker)[0])
        tracer.install()
        try:
            tracer.op = i
            with tracer.span("op"):
                dt, res = run_checked(workload, op, checker, tracer.span)
        finally:
            tracer.uninstall()
        traced_lat.append(dt)
        failed += int(res is None or res.failed)

    layers = layer_metrics(tracer.spans, tracer.counts, sum(traced_lat))
    layers["sampling.generate_ms"] = (gen_s * 1e3, "ms")
    layers["trace.ops"] = (len(ops), "count")
    layers["trace.untraced_p50_ms"] = (statistics.median(untraced) * 1e3, "ms")
    layers["trace.traced_p50_ms"] = (statistics.median(traced_lat) * 1e3, "ms")
    layers["trace.overhead_pct"] = (100.0 * (sum(traced_lat) / sum(untraced) - 1.0), "%")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
    tracer.write(str(spans_path))
    units = {k: layers[k][1] for k in PER_LAYER}
    metrics = {k: layers[k][0] for k in PER_LAYER}
    extra = {k: v for k, v in layers.items() if k not in units}
    info = {"workload": name, "seed": seed, "digest": digest, "samples": len(ops),
            "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, units, extra, info, checker, len(ops), failed


def record() -> int:
    """Run every member of every workload's universe once and store outcomes."""
    wl_mod = import_program()
    recorded, problems = {}, []
    for name in wl_mod.WORKLOADS:
        workload = wl_mod.make(name)
        for op in workload.universe():
            _, res, problem = run_op(workload, op)
            if problem is not None:
                problems.append(problem)
                continue
            recorded[op.key] = res.outcome
            print(f"{op.key}: {res.outcome}", flush=True)
    if problems:
        print("outputs fail their own checks; nothing written:", *problems,
              sep="\n  ", file=sys.stderr)
        return 1
    with open(OUTCOMES, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("paper_batch", "grammar_fuzz", "oracle_descent"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="run exactly this many operations instead of a timed loop (smoke runs)")
    p.add_argument("--record", action="store_true", help="rewrite the recorded outcomes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.record:
            return record()
        if not args.workload:
            p.error("--workload is required")
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        env = environment()
        print("environment " + json.dumps(env, sort_keys=True), flush=True)
        if args.trace:
            result = traced(args.workload, args.seed, args.ops)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, args.ops)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ImportError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    metrics, units, extra, info, checker, attempted, failed = result
    print("inputs " + json.dumps(info, sort_keys=True))
    for key, value in metrics.items():
        print(f"metric {key} {value!r} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"metric {key} {value!r} {unit}")
    for line in checker.mismatches[:20]:
        print(f"MISMATCH {line}")
    correct = not checker.mismatches
    OUT_DIR.mkdir(exist_ok=True)
    summary = {"environment": env, "inputs": info, "correct": correct,
               "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
               "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
               "mismatches": checker.mismatches}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
