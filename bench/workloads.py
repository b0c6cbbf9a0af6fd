"""The three benchmark workloads: input generation, one operation, checks.

Every input a run can meet is a member of a finite universe whose outcome
is recorded in ``outcomes.json``; the run seed decides which members a run
meets and in what order.  Each workload hands the runner a plan: a list of
cycles, each cycle a list of operations.  The runner always finishes the
cycle it is in, so every run measures the same mix of operation kinds.

This module imports ``seqcert``; import it only after the runner has put
the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import jsonschema

from seqcert import certify, cli, reduce, seqspace
from seqcert.certify import CertifyOptions, SetDescriptor
from seqcert.funcs import (
    LimsupSeminorm,
    ScalarConvex,
    SeparableSeries,
    Sum,
    function_to_json,
)
from seqcert.sampling import random_dual, random_function, random_point
from seqcert.seqspace import Point, SpaceDescriptor, TailRule, point_to_json


class OutcomeMismatch(Exception):
    """An operation's output differs from the recorded or expected one."""


@dataclass
class Op:
    """One operation: ``key`` names its recorded outcome, ``kind`` its class
    (the runner warms up one operation of each kind), ``payload`` what the
    operation consumes and ``digest_repr`` its JSON form for the digest."""

    key: str
    kind: str
    payload: Any
    digest_repr: Any


@dataclass
class OpResult:
    outcome: dict
    failed: bool
    # task -> seconds this operation spent on it
    task_seconds: dict


def _digest(ops: list[Op]) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.key, op.digest_repr], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _cert_outcome(cert) -> str:
    return f"{cert.verdict.value}/{cert.grade.render()}"


# ---------------------------------------------------------------------------
# paper_batch: the CLI path over the builtin scenarios and a KKT scenario
# ---------------------------------------------------------------------------

# Dyadic betas are exact in binary; the others are not, which changes the
# grade the certifiers can reach (example4 is analytic_all_n only at dyadic
# beta).  All lie below the summability margin 2/3.
PAPER_BETAS = (0.5, 0.25, 0.125, 0.3, 0.4371, 0.2, 0.55, 0.6)
ORACLE_RANKS = (1, 2, 4, 8)
CERTIFY_BUILTINS = ("example3", "example4", "example5")
GATEAUX_BUILTINS = ("example1", "l1norm")


def kkt_scenario(beta: float) -> dict:
    """Acceptance criterion 8 as a scenario: min sum beta^n x_n^2 subject to
    1 - x_1 <= 0, certified at e_1 by the multiplier 2 beta."""
    return {
        "name": "kkt_box",
        "task": "kkt",
        "space": {"kind": "ell1"},
        "function": {
            "kind": "separable",
            "weight": {"kind": "geometric", "c": 1.0, "r": beta},
            "inner": {"kind": "square"},
        },
        "inequalities": [
            {
                "kind": "sum",
                "terms": [
                    {"kind": "constant", "c": 1.0},
                    {
                        "kind": "linear_functional",
                        "p": {"prefix": [-1.0], "tail": {"kind": "zero"}},
                    },
                ],
            }
        ],
        "x_star": {"prefix": [1.0], "tail": {"kind": "zero"}},
        "set": {"kind": "whole_space"},
        "multipliers": {"lambda": [2.0 * beta], "nu": []},
        "parameters": {"beta": beta},
        "expected": "holds",
    }


# Operations are built once per universe member and shared by every cycle
# that meets the member, so set-up does not grow with the plan's length.
@functools.lru_cache(maxsize=None)
def _paper_op(name: str, beta: float, rank: Optional[int]) -> Op:
    if name == "kkt_box":
        raw = kkt_scenario(beta)
        kind = "kkt"
    else:
        raw = cli.BUILTINS[name][1](beta)
        kind = raw["task"]
    key = f"paper/{name}/beta={beta!r}"
    if rank is not None:
        raw["parameters"]["oracle_k"] = [rank]
        key += f"/k={rank}"
    return Op(key, kind, raw, raw)


class PaperBatch:
    name = "paper_batch"
    plan_cycles = 40
    trace_ops = 36  # two cycles

    def __init__(self):
        self._args = cli._build_parser().parse_args(["paper_batch"])

    def universe(self) -> list[Op]:
        ops = []
        for beta in PAPER_BETAS:
            for name in CERTIFY_BUILTINS:
                ops.extend(_paper_op(name, beta, k) for k in ORACLE_RANKS)
            for name in GATEAUX_BUILTINS + ("kkt_box",):
                ops.append(_paper_op(name, beta, None))
        return ops

    def plan(self, seed: int) -> list[list[Op]]:
        # One cycle: every certify_min builtin at every oracle rank, and both
        # gateaux builtins and the KKT scenario twice, each operation with its
        # own beta.  With the fast scenarios once, the median would sit on the
        # edge between the example5 and example4 latencies; twice puts it
        # inside the example5 cluster.
        rng = random.Random(seed)
        plan = []
        for _ in range(self.plan_cycles):
            cycle = [_paper_op(n, rng.choice(PAPER_BETAS), k)
                     for n in CERTIFY_BUILTINS for k in ORACLE_RANKS]
            cycle += [_paper_op(n, rng.choice(PAPER_BETAS), None)
                      for n in GATEAUX_BUILTINS + ("kkt_box",) for _ in range(2)]
            rng.shuffle(cycle)
            plan.append(cycle)
        return plan

    def run(self, op: Op, span: Callable) -> OpResult:
        """scenario_from_json -> run_scenario -> the --json report step."""
        t0 = time.perf_counter()
        scn = cli.scenario_from_json(op.payload)
        opts = cli._opts_from_args(self._args, scn.parameters)
        oracle_k = tuple(int(k) for k in scn.parameters.get("oracle_k", ()))
        rep = cli.run_scenario(scn, opts, oracle_k)
        with span("cli.report"):
            payload = cli._sanitize(rep.to_json())
            jsonschema.validate(payload, cli.load_schema("report.schema.json"))
            json.dumps(payload, indent=2, sort_keys=True)
        elapsed = time.perf_counter() - t0
        if not rep.passed:
            raise OutcomeMismatch(
                f"{op.key}: verdict {rep.verdict} does not match expected {rep.expected}"
            )
        return OpResult(
            {"verdict": rep.verdict, "grade": rep.grade, "passed": rep.passed},
            False,
            {op.kind: elapsed},
        )


# ---------------------------------------------------------------------------
# grammar_fuzz: the library path over random grammar instances
# ---------------------------------------------------------------------------

# Instance seeds 0..33.  One pass over them is a cycle, about 13 s on the
# reference machine, so a run is three or more whole passes: every run then
# meets each instance equally often whatever its length, and a run ends at
# most one pass after --seconds.  Seeds 6 and 17 make certify_min raise
# DomainViolation at this writing (ROADMAP item 3b); they stay and count as
# failed operations.
FUZZ_POOL = 34
_SPACES = (SpaceDescriptor.rn, SpaceDescriptor.ell1, SpaceDescriptor.ellinf)
_FUZZ_CALLS = ("gateaux", "subgradient", "certify_min")


def fuzz_instance(instance_seed: int):
    rng = random.Random(instance_seed)
    space = rng.choice(_SPACES)()
    f = random_function(rng, space)
    x = random_point(rng, space=space)
    p = random_dual(rng)
    return space, f, x, p


def _fuzz_op(instance_seed: int) -> Op:
    space, f, x, p = fuzz_instance(instance_seed)
    rep = [space.kind.value, function_to_json(f), point_to_json(x), seqspace.dual_to_json(p)]
    return Op(f"fuzz/seed={instance_seed}", "instance", (space, f, x, p), rep)


class GrammarFuzz:
    name = "grammar_fuzz"
    plan_cycles = 6
    trace_ops = FUZZ_POOL  # one pass

    def universe(self) -> list[Op]:
        return [_fuzz_op(s) for s in range(FUZZ_POOL)]

    def plan(self, seed: int) -> list[list[Op]]:
        # One cycle is one pass over the whole pool in seeded order.
        rng = random.Random(seed)
        pool = self.universe()
        plan = []
        for _ in range(self.plan_cycles):
            cycle = list(pool)
            rng.shuffle(cycle)
            plan.append(cycle)
        return plan

    def run(self, op: Op, span: Callable) -> OpResult:
        space, f, x, p = op.payload
        opts = CertifyOptions()
        calls = {
            "gateaux": lambda: certify.gateaux_detect(f, space, x, opts)[0],
            "subgradient": lambda: certify.subgradient_test(f, x, p, opts),
            "certify_min": lambda: certify.certify_min(
                f, SetDescriptor.whole_space(), x, opts
            ),
        }
        outcome, seconds, failed = {}, {}, False
        for task in _FUZZ_CALLS:
            t0 = time.perf_counter()
            try:
                cert = calls[task]()
            except Exception as exc:  # recorded outcome of a failed call
                outcome[task] = type(exc).__name__
                failed = True
                continue
            seconds[task] = time.perf_counter() - t0
            outcome[task] = _cert_outcome(cert)
        return OpResult(outcome, failed, seconds)


# ---------------------------------------------------------------------------
# oracle_descent: the finite-rank reduction oracle alone
# ---------------------------------------------------------------------------

ORACLE_KS = (8, 16, 32)
ORACLE_BETAS = (0.25, 0.3, 0.4, 0.45, 0.5, 0.55)
ORACLE_PERTURBATIONS = 3
ORACLE_FAMILIES = ("example3", "example4", "kkt_box")


def _series_sum(term: Callable[[int], float]) -> float:
    """Plain float sum of a positive, geometrically decaying series."""
    total, n = 0.0, 1
    while True:
        t = term(n)
        total += t
        if abs(t) < 1e-20:
            return total
        n += 1


def oracle_problem(family: str, k: int, beta: float, pert: int):
    """(f, set, anchor, expected optimum) with the anchor's first k
    coordinates perturbed off the known minimizer and its tail pinned there.
    The expected optimum is a closed form, computed without seqcert."""
    rng = random.Random(f"{family}/{k}/{pert}")
    u = [rng.uniform(-0.5, 0.5) for _ in range(k)]
    if family == "example3":
        # limsup|x_n| + sum beta^n (x_n^2 - x_n / n), minimizer 1/(2n)
        f = Sum((
            LimsupSeminorm(),
            SeparableSeries(
                TailRule.geometric(1.0, beta),
                ScalarConvex.affine_quad(1.0, TailRule.harmonic(-1.0)),
            ),
        ))
        s = SetDescriptor.whole_space()
        prefix = [1.0 / (2 * n) + u[n - 1] for n in range(1, k + 1)]
        anchor = Point(prefix, (TailRule.harmonic(0.5),))
        expected = -0.25 * _series_sum(lambda n: beta ** n / n ** 2)
    elif family == "example4":
        # sum x_n - 2 sum beta^n sqrt(x_n) on the positive cone, minimizer beta^(2n)
        f = Sum((
            SeparableSeries(TailRule.const(1.0), ScalarConvex.linear(1.0)),
            SeparableSeries(TailRule.geometric(1.0, beta), ScalarConvex.neg_sqrt(2.0)),
        ))
        s = SetDescriptor.positive_cone_ell1()
        prefix = [beta ** (2 * n) * (1.0 + u[n - 1]) for n in range(1, k + 1)]
        anchor = Point(prefix, (TailRule.geometric(1.0, beta * beta),))
        expected = -(beta * beta) / (1.0 - beta * beta)
    else:
        # acceptance criterion 8 as a box: sum beta^n x_n^2 over x_1 >= 1, minimizer e_1
        f = SeparableSeries(TailRule.geometric(1.0, beta), ScalarConvex.square())
        s = SetDescriptor.box(lower=Point([1.0], ()), upper=None, bound_count=1)
        prefix = [1.5 + u[0]] + [0.4 + u[n - 1] for n in range(2, k + 1)]
        anchor = Point(prefix, ())
        expected = beta
    return f, s, anchor, expected


@functools.lru_cache(maxsize=None)
def _oracle_op(beta: float, pert: int, rot: int) -> Op:
    # Rotation rot runs family i at rank ORACLE_KS[(i + rot) % 3]: a Latin
    # square, so every operation descends once in every family and at every
    # rank, and the costliest rotation takes only about a third longer than
    # the cheapest.
    problems = []
    for i, family in enumerate(ORACLE_FAMILIES):
        k = ORACLE_KS[(i + rot) % len(ORACLE_KS)]
        problems.append((family, k, oracle_problem(family, k, beta, pert)))
    key = f"oracle/beta={beta!r}/pert={pert}/rot={rot}"
    return Op(key, "descent", problems, [point_to_json(p[2][2]) for p in problems])


class OracleDescent:
    name = "oracle_descent"
    plan_cycles = 8
    trace_ops = 12
    tolerance = 1e-6

    def universe(self) -> list[Op]:
        return [
            _oracle_op(beta, pert, rot)
            for beta in ORACLE_BETAS
            for pert in range(ORACLE_PERTURBATIONS)
            for rot in range(len(ORACLE_KS))
        ]

    def plan(self, seed: int) -> list[list[Op]]:
        # One cycle is every member in seeded order.  An operation covers all
        # three families, whose descents differ in cost by a factor of three
        # or four: with one family per operation the median falls on the edge
        # of a family's latency cluster and jumps between clusters when the
        # machine's speed drifts within a run.
        rng = random.Random(seed)
        pool = self.universe()
        plan = []
        for _ in range(self.plan_cycles):
            cycle = list(pool)
            rng.shuffle(cycle)
            plan.append(cycle)
        return plan

    def run(self, op: Op, span: Callable) -> OpResult:
        """Reduce each family at its rank and descend from the anchor."""
        seconds = {}
        for family, k, (f, s, anchor, expected) in op.payload:
            t0 = time.perf_counter()
            prob = reduce.build_reduced(f, s, anchor, k)
            _, value, _ = reduce.minimize_reduced(prob)
            seconds[f"oracle_k{k}"] = time.perf_counter() - t0
            gap = value.value - expected
            if not math.isfinite(gap) or abs(gap) > self.tolerance:
                raise OutcomeMismatch(
                    f"{op.key}: {family} oracle value {value.value!r} at k={k} is "
                    f"{gap:.3e} from f(x*) = {expected!r}"
                )
        return OpResult({"status": "agrees"}, False, seconds)


WORKLOADS = {w.name: w for w in (PaperBatch, GrammarFuzz, OracleDescent)}


def make(name: str):
    return WORKLOADS[name]()


def plan_digest(plan: list[list[Op]]) -> str:
    return _digest([op for cycle in plan for op in cycle])
