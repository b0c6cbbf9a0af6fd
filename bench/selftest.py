"""Self-tests of the benchmark itself (stdlib unittest, under a minute).

    python3 bench/selftest.py

They run the real command on short fixed operation lists (``--ops``), so
they check the benchmark's plumbing, not the program's speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN = BENCH_DIR / "run.py"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("paper_batch", "grammar_fuzz", "oracle_descent")
# one whole cycle of paper_batch, so that every task appears
SHORT_OPS = {"paper_batch": "18", "grammar_fuzz": "3", "oracle_descent": "3"}
TASKS = {
    "paper_batch": ("certify_min", "gateaux", "kkt"),
    "grammar_fuzz": ("certify_min", "gateaux", "subgradient"),
    "oracle_descent": (),
}

sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402  (the benchmark runner, stdlib imports only)


def bench(*args, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, str(runner), *args],
        capture_output=True, text=True, timeout=600, cwd=str(cwd),
    )


def metric_lines(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            out[name] = (float(value), unit)
    return out


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        OUT_DIR.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=OUT_DIR))
        run.import_program()
        import workloads

        cls.workloads = workloads

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))

    def test_short_run_prints_every_metric_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[section]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--ops", SHORT_OPS[name])
                    self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                    lines = metric_lines(proc.stdout)
                    for metric, unit in want.items():
                        self.assertEqual(lines[metric][1], unit, metric)
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(
                        {k: v["unit"] for k, v in last["metrics"].items()}, want)
                    if trace == 0:
                        self.assertIn("failed_ratio", lines)
                        for task in TASKS[name]:
                            self.assertEqual(lines[f"{task}_p50_ms"][1], "ref_ms")
                        for metric, unit in (("wall.ops_per_s", "1/s"),
                                             ("wall.latency_p90_ms", "ms"),
                                             ("wall.setup_s", "s")):
                            self.assertEqual(lines[metric][1], unit)
                    self.assertIn("environment ", proc.stdout)

    def copy_tree(self, name: str, with_program: bool) -> Path:
        """A checkout of its own under the scratch directory: a copy of
        ``bench/`` and ``BENCHMARK.json``, and a link to ``src/`` if asked."""
        tree = self.tmp / name
        shutil.copytree(BENCH_DIR, tree / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
        if with_program:
            (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
        return tree

    def test_tampered_outcomes_are_caught(self):
        recorded = json.loads(run.OUTCOMES.read_text())
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = self.workloads.make(name).plan(5)[0][0]
                tampered = dict(recorded)
                outcome = dict(tampered[first.key])
                field = next(iter(k for k in outcome if k != "passed"))
                outcome[field] = "tampered"
                tampered[first.key] = outcome
                tree = self.copy_tree(f"tampered-{name}", with_program=True)
                (tree / "bench" / "outcomes.json").write_text(json.dumps(tampered))
                proc = bench("--workload", name, "--seed", "5", "--seconds", "1",
                             "--trace", "0", "--ops", "1",
                             cwd=tree, runner=tree / "bench" / "run.py")
                self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
                self.assertIn(f"MISMATCH {first.key}", proc.stdout)
                self.assertFalse(json.loads(proc.stdout.strip().splitlines()[-1])["correct"])

    def test_grade_is_recorded_per_input(self):
        recorded = json.loads(run.OUTCOMES.read_text())
        self.assertEqual(recorded["paper/example4/beta=0.5/k=8"]["grade"], "analytic_all_n")
        self.assertEqual(recorded["paper/example4/beta=0.3/k=8"]["grade"], "numeric_first_n(64)")
        self.assertEqual(recorded["fuzz/seed=6"]["certify_min"], "DomainViolation")

    def test_input_digest_depends_on_the_seed_only(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                w = self.workloads
                a = w.plan_digest(w.make(name).plan(7))
                self.assertEqual(a, w.plan_digest(w.make(name).plan(7)))
                self.assertNotEqual(a, w.plan_digest(w.make(name).plan(8)))

    def test_plan_stays_inside_the_recorded_universe(self):
        recorded = json.loads(run.OUTCOMES.read_text())
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = self.workloads.make(name)
                keys = {op.key for op in workload.universe()}
                self.assertTrue(keys <= set(recorded))
                for seed in (0, 1, 2):
                    for cycle in workload.plan(seed):
                        self.assertTrue({op.key for op in cycle} <= keys)

    def test_speed_factors_follow_the_local_calibration(self):
        # 10 ms calibrations, then 20 ms ones (the machine halved its
        # speed), with one 50 ms outlier that the window's median absorbs
        cal = [0.010] * 6 + [0.050] + [0.010] * 3 + [0.020] * 10
        factors = run.speed_factors(cal)
        self.assertEqual(factors[0], run.CALIBRATION_MS / 10.0)
        self.assertEqual(factors[6], run.CALIBRATION_MS / 10.0)
        self.assertEqual(factors[-1], run.CALIBRATION_MS / 20.0)

    def test_fails_without_the_program(self):
        bare = self.copy_tree("bare", with_program=False)
        proc = bench("--workload", "paper_batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare, runner=bare / "bench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
