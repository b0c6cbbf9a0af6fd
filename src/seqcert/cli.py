"""Scenario runner: JSON problem descriptions in, certified reports out.

A scenario names a task (minimality certification, differentiability
detection, subgradient membership, KKT, or one of the lower-level checks),
a function from the expression grammar, an anchor point, and optionally a
feasible set, probes, witness directions, constraints, and parameters.
Scenario files are read by the strict decoders, which are their run-time
check: a field off the shape that the shipped scenario.schema.json
describes, an unknown field included, is refused with its JSON path
before anything runs.  Reports take their shape from Report.to_json,
Certificate.to_json and _sanitize; the tests check that shape against
the shipped report.schema.json, so no run depends on jsonschema.

Reports go to stdout in human-readable form; --json writes a
machine-readable report whose bytes are deterministic for a fixed
scenario and seed (timing appears only in the human output for exactly
that reason).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .certify import (
    Certificate,
    CertifyOptions,
    SeriesFamily,
    SetDescriptor,
    SetKind,
    Verdict,
    certify_min,
    check_psc,
    check_psc_numeric,
    check_qualification,
    family_from_json,
    gateaux_detect,
    kkt_certify,
    series_differentiate,
    set_from_json,
    subgradient_test,
)
from .derivative import dir_deriv_profile
from .errors import (
    DomainViolation,
    InfeasiblePoint,
    MaxSweeps,
    ScenarioError,
    SeqcertError,
    ShapeError,
    Unbounded,
)
from .funcs import FunctionExpr, evaluate, function_from_json
from .reduce import build_reduced, minimize_reduced
from .seqspace import (
    DualPoint,
    Point,
    SpaceDescriptor,
    _describe,
    dual_from_json,
    json_enum,
    json_field,
    json_fields,
    json_integer,
    json_list,
    json_number,
    point_from_json,
    space_from_json,
)

TASKS = (
    "certify_min",
    "gateaux",
    "subgradient",
    "kkt",
    "psc",
    "qualification",
    "series_diff",
    "dir_profile",
)

_BETA_CAP = 2.0 / 3.0


# ---------------------------------------------------------------------------
# Scenario loading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    task: str
    space: SpaceDescriptor
    function: Optional[FunctionExpr] = None
    x_star: Optional[Point] = None
    feasible_set: SetDescriptor = SetDescriptor.whole_space()
    dual: Optional[DualPoint] = None
    probes: tuple[Point, ...] = ()
    directions: tuple[Point, ...] = ()
    inequalities: tuple[FunctionExpr, ...] = ()
    equalities: tuple[FunctionExpr, ...] = ()
    lam: tuple[float, ...] = ()
    nu: tuple[float, ...] = ()
    family: Optional[SeriesFamily] = None
    parameters: dict = field(default_factory=dict)
    expected: Optional[str] = None


def load_schema(name: str) -> dict:
    """A JSON schema shipped in the package's schemas/ directory.  No run
    reads one; the benchmark harness and the tests validate reports and
    scenarios against them."""
    return json.loads((resources.files("seqcert") / "schemas" / name).read_text(encoding="utf-8"))


_VERDICTS = ("holds", "fails", "inconclusive")
_NEEDS_FUNCTION = ("certify_min", "gateaux", "subgradient", "kkt", "psc", "dir_profile")
_REQUIRED = frozenset({"name", "task", "space"})
_OPTIONAL = frozenset({
    "function", "x_star", "set", "dual", "probes", "directions", "inequalities",
    "equalities", "multipliers", "family", "parameters", "expected",
})
# the bounds the CLI flags of the same names enforce (_build_parser)
_PARAMETERS = {
    "beta": json_number,
    "tol": lambda v: json_number(v, 0.0, strict=True),
    "coords": lambda v: json_integer(v, 1),
    "psc_depth": lambda v: json_integer(v, 1),
    "seed": lambda v: json_integer(v, 0),
    "oracle_k": lambda v: json_list(v, lambda k: json_integer(k, 1)),
}


def _name(value) -> str:
    if not isinstance(value, str) or not value:
        raise ShapeError(f"expected a nonempty string, got {_describe(value)}")
    return value


def _multipliers(obj) -> dict:
    json_fields(obj, "the multipliers", frozenset(), frozenset({"lambda", "nu"}))
    return {key: tuple(json_field(obj, key, json_list, json_number)) for key in obj}


def _parameters(obj) -> dict:
    json_fields(obj, "the parameters", frozenset(), frozenset(_PARAMETERS))
    return {key: json_field(obj, key, _PARAMETERS[key]) for key in obj}


def _decode(obj) -> Scenario:
    """The scenario obj holds, through the strict decoders."""
    json_fields(obj, "a scenario", _REQUIRED, _OPTIONAL)

    def optional(key, decode, *args, default=None):
        return json_field(obj, key, decode, *args) if key in obj else default

    mult = optional("multipliers", _multipliers, default={})
    return Scenario(
        name=json_field(obj, "name", _name),
        task=json_field(obj, "task", json_enum, TASKS),
        space=json_field(obj, "space", space_from_json),
        function=optional("function", function_from_json),
        x_star=optional("x_star", point_from_json),
        feasible_set=optional("set", set_from_json, default=SetDescriptor.whole_space()),
        dual=optional("dual", dual_from_json),
        probes=tuple(optional("probes", json_list, point_from_json, default=())),
        directions=tuple(optional("directions", json_list, point_from_json, default=())),
        inequalities=tuple(optional("inequalities", json_list, function_from_json, default=())),
        equalities=tuple(optional("equalities", json_list, function_from_json, default=())),
        lam=mult.get("lambda", ()),
        nu=mult.get("nu", ()),
        family=optional("family", family_from_json),
        parameters=optional("parameters", _parameters, default={}),
        expected=optional("expected", json_enum, _VERDICTS),
    )


def scenario_from_json(obj: dict) -> Scenario:
    """Decode a scenario through the strict decoders, which are its run-time
    check.  A document off the shape scenario.schema.json describes is
    refused with the path of the offending field, a value the mathematics
    refuses (a non-finite coefficient, a geometric ratio outside (-1, 1))
    with the scenario's name, and a task without a field it needs by that
    field."""
    try:
        scn = _decode(obj)
    except ShapeError as exc:
        raise ScenarioError(f"scenario invalid at {exc.where}: {exc.reason}") from exc
    except (ValueError, SeqcertError) as exc:
        raise ScenarioError(f"scenario {obj.get('name', '?')!r}: {exc}") from exc

    task = scn.task
    if task in _NEEDS_FUNCTION and scn.function is None:
        raise ScenarioError(f"task {task} requires a function")
    if scn.x_star is None:
        raise ScenarioError(f"task {task} requires x_star")
    if task == "subgradient" and scn.dual is None:
        raise ScenarioError("task subgradient requires a dual point")
    if task == "series_diff" and scn.family is None:
        raise ScenarioError("task series_diff requires a family")
    if task == "kkt" and "multipliers" not in obj:
        raise ScenarioError("task kkt requires multipliers")
    return scn


def _reject_constant(token: str):
    """json's parse_constant: NaN and Infinity are not JSON numbers."""
    raise ValueError(f"{token} is not a JSON number")


def load_scenarios(path: str) -> list[Scenario]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    if isinstance(obj, dict) and "scenarios" in obj:
        unknown = set(obj) - {"scenarios"}
        if unknown:
            raise ScenarioError(f"batch file has unknown fields: {sorted(unknown)}")
        if not isinstance(obj["scenarios"], list):
            raise ScenarioError("'scenarios' must be a list")
        return [scenario_from_json(o) for o in obj["scenarios"]]
    if not isinstance(obj, dict):
        raise ScenarioError("scenario file must hold an object or a batch")
    return [scenario_from_json(obj)]


# ---------------------------------------------------------------------------
# Built-in scenarios
# ---------------------------------------------------------------------------


def _builtin_example1(beta: float) -> dict:
    return {
        "name": "example1",
        "task": "gateaux",
        "space": {"kind": "ellinf"},
        "function": {"kind": "limsup"},
        "x_star": {"prefix": [], "tail": {"kind": "zero"}},
        "directions": [{"prefix": [], "tail": {"kind": "const", "c": 1.0}}],
        "parameters": {"beta": beta},
        "expected": "fails",
    }


def _builtin_example3(beta: float) -> dict:
    return {
        "name": "example3",
        "task": "certify_min",
        "space": {"kind": "ellinf"},
        "function": {
            "kind": "sum",
            "terms": [
                {"kind": "limsup"},
                {
                    "kind": "separable",
                    "weight": {"kind": "geometric", "c": 1.0, "r": beta},
                    "inner": {
                        "kind": "affine_quad",
                        "a": 1.0,
                        "b": {"kind": "harmonic", "c": -1.0},
                    },
                },
            ],
        },
        "x_star": {"prefix": [], "tail": {"kind": "harmonic", "c": 0.5}},
        "set": {"kind": "whole_space"},
        "parameters": {"beta": beta},
        "expected": "holds",
    }


def _builtin_example4(beta: float) -> dict:
    return {
        "name": "example4",
        "task": "certify_min",
        "space": {"kind": "ell1"},
        "function": {
            "kind": "sum",
            "terms": [
                {"kind": "separable", "weight": 1.0, "inner": {"kind": "linear", "b": 1.0}},
                {
                    "kind": "separable",
                    "weight": {"kind": "geometric", "c": 1.0, "r": beta},
                    "inner": {"kind": "neg_sqrt", "c": 2.0},
                },
            ],
        },
        "x_star": {"prefix": [], "tail": {"kind": "geometric", "c": 1.0, "r": beta * beta}},
        "set": {"kind": "positive_cone_ell1"},
        "parameters": {"beta": beta},
        "expected": "holds",
    }


def _builtin_example5(beta: float) -> dict:
    return {
        "name": "example5",
        "task": "certify_min",
        "space": {"kind": "ellinf"},
        "function": {
            "kind": "sum",
            "terms": [
                {"kind": "limsup"},
                {
                    "kind": "separable",
                    "weight": {"kind": "geometric", "c": 1.0, "r": beta},
                    "inner": {"kind": "affine_quad", "a": 1.0, "b": -2.0},
                },
            ],
        },
        "x_star": {"prefix": [], "tail": {"kind": "const", "c": 1.0}},
        "probes": [{"prefix": [], "tail": {"kind": "const", "c": 0.5}}],
        "set": {"kind": "whole_space"},
        "parameters": {"beta": beta},
        "expected": "fails",
    }


def _builtin_l1norm(beta: float) -> dict:
    return {
        "name": "l1norm",
        "task": "gateaux",
        "space": {"kind": "ell1"},
        "function": {"kind": "separable", "weight": 1.0, "inner": {"kind": "abs"}},
        "x_star": {"prefix": [1.0], "tail": {"kind": "zero"}},
        "parameters": {"beta": beta},
        "expected": "fails",
    }


BUILTINS = {
    "example1": ("limsup seminorm on l-infinity: not differentiable at 0", _builtin_example1),
    "example3": ("weighted quadratic series plus limsup: certified minimum", _builtin_example3),
    "example4": ("weighted sqrt objective on positive cone", _builtin_example4),
    "example5": ("vanishing basis derivatives that do not certify a minimum", _builtin_example5),
    "l1norm": ("the l1 norm and its kink at a zero coordinate", _builtin_l1norm),
}


def list_builtins() -> list[tuple[str, str]]:
    """Names and one-line descriptions, in stable alphabetical order."""
    return [(name, BUILTINS[name][0]) for name in sorted(BUILTINS)]


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class Report:
    name: str
    task: str
    verdict: Optional[str]
    grade: Optional[str]
    expected: Optional[str]
    passed: bool
    flags: list[str] = field(default_factory=list)
    table: list[dict] = field(default_factory=list)
    probe_log: list[dict] = field(default_factory=list)
    oracle: list[dict] = field(default_factory=list)
    certificate: Optional[dict] = None
    notes: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "task": self.task,
            "verdict": self.verdict,
            "grade": self.grade,
            "expected": self.expected,
            "passed": self.passed,
            "flags": self.flags,
            "table": self.table,
            "probe_log": self.probe_log,
            "oracle": self.oracle,
            "certificate": self.certificate,
            "notes": self.notes,
        }


def _sanitize(obj):
    """Make a report JSON-safe: non-finite floats become strings."""
    if isinstance(obj, float):
        if math.isfinite(obj):
            return obj
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _certify_table(cert: Certificate) -> list[dict]:
    stat = cert.evidence.get("stationarity", {})
    return [
        {"n": row["n"], "value": row["analytic"], "method": "analytic"}
        for row in stat.get("derivatives", [])
    ]


def _run_oracle(scn: Scenario, ks: Sequence[int]) -> list[dict]:
    rows = []
    f_star = evaluate(scn.function, scn.x_star)
    for k in ks:
        try:
            y, value, sweeps = minimize_reduced(
                build_reduced(scn.function, scn.feasible_set, scn.x_star, k)
            )
        except (InfeasiblePoint, Unbounded, MaxSweeps, DomainViolation) as exc:
            # an anchor the rank cannot start from, or a descent that does
            # not finish, is this rank's answer, not the run's
            rows.append({"k": k, "error": f"{type(exc).__name__}: {exc}"})
            continue
        rows.append(
            {
                "k": k,
                "value": value.value,
                "gap_to_anchor": value.value - f_star.value,
                "minimizer": y,
                "sweeps": sweeps,
            }
        )
    return rows


def run_scenario(
    scn: Scenario, opts: CertifyOptions, oracle_k: Sequence[int] = ()
) -> Report:
    started = time.monotonic()
    flags = []
    beta = scn.parameters.get("beta")
    if beta is not None and beta >= _BETA_CAP:
        flags.append(
            f"beta={beta:g} does not satisfy the summability margin (needs beta < 2/3)"
        )

    verdict: Optional[str] = None
    grade: Optional[str] = None
    cert: Optional[Certificate] = None
    table: list[dict] = []
    probe_log: list[dict] = []
    notes: list[str] = []
    oracle_rows: list[dict] = []

    if scn.task == "certify_min":
        cert = certify_min(
            scn.function, scn.feasible_set, scn.x_star, opts,
            probes=scn.probes or None,
        )
        table = _certify_table(cert)
        probe_log = cert.evidence.get("probe_log", [])
        notes.append(f"f(x*) = {cert.evidence.get('f_at_anchor')!r}")
        if oracle_k:
            oracle_rows = _run_oracle(scn, oracle_k)
    elif scn.task == "gateaux":
        cert, deriv = gateaux_detect(
            scn.function, scn.space, scn.x_star, opts,
            witness_directions=scn.directions,
        )
        if deriv is not None:
            method = "analytic" if deriv.tail is not None else "numeric"
            count = min(opts.coords, 16)
            table = [
                {"n": n, "value": deriv.coefficient(n), "method": method}
                for n in range(1, count + 1)
            ]
    elif scn.task == "subgradient":
        cert = subgradient_test(scn.function, scn.x_star, scn.dual, opts)
        table = [
            {"n": row["n"], "value": row["derivative"], "method": "analytic"}
            for row in cert.evidence.get("matches", [])[:16]
        ]
    elif scn.task == "kkt":
        cert = kkt_certify(
            scn.function, scn.inequalities, scn.equalities,
            scn.feasible_set, scn.x_star, scn.lam, scn.nu, opts,
        )
        table = [
            {"n": row["n"], "value": row["lagrangian_derivative"], "method": "analytic"}
            for row in cert.evidence.get("stationarity", [])
        ]
        if oracle_k:
            if scn.inequalities and scn.feasible_set.kind is SetKind.WHOLE_SPACE:
                notes.append(
                    "oracle reduces over the declared set only; describe the "
                    "constraint region as a box set for constrained cross-checks"
                )
            oracle_rows = _run_oracle(scn, oracle_k)
    elif scn.task == "psc":
        cert = check_psc(scn.function, scn.x_star, depth=opts.psc_depth)
        if scn.probes and cert.verdict is Verdict.HOLDS:
            cert.evidence.update(check_psc_numeric(
                scn.function, scn.feasible_set, scn.x_star, scn.probes, opts.psc_depth,
            ))
    elif scn.task == "qualification":
        cert = check_qualification(scn.feasible_set, scn.x_star, opts.coords)
    elif scn.task == "series_diff":
        cert, values = series_differentiate(scn.family, scn.x_star, opts=opts)
        table = [
            {"n": n, "value": v, "method": cert.grade.render().split("(")[0]}
            for n, v in enumerate(values, start=1)
        ][:16]
    elif scn.task == "dir_profile":
        results = dir_deriv_profile(scn.function, scn.x_star, opts.coords)
        table = [
            {
                "n": n,
                "value": res.value,
                "method": res.method,
                "left": res.left,
                "right": res.right,
            }
            for n, res in enumerate(results, start=1)
        ]
        notes.append("profile task has no verdict; table lists per-direction results")
    else:
        raise ScenarioError(f"unknown task {scn.task!r}")

    if cert is not None:
        verdict = cert.verdict.value
        grade = cert.grade.render()

    passed = scn.expected is None or scn.expected == verdict
    return Report(
        name=scn.name,
        task=scn.task,
        verdict=verdict,
        grade=grade,
        expected=scn.expected,
        passed=passed,
        flags=flags,
        table=table,
        probe_log=probe_log,
        oracle=oracle_rows,
        certificate=cert.to_json() if cert is not None else None,
        notes=notes,
        elapsed=time.monotonic() - started,
    )


def render_human(report: Report) -> str:
    lines = [
        f"scenario: {report.name}",
        f"  task: {report.task}",
    ]
    if report.verdict is not None:
        lines.append(f"  verdict: {report.verdict} ({report.grade})")
    if report.expected is not None:
        mark = "PASS" if report.passed else "MISMATCH"
        lines.append(f"  expected: {report.expected} -> {mark}")
    for flag in report.flags:
        lines.append(f"  flag: {flag}")
    for note in report.notes:
        lines.append(f"  note: {note}")
    if report.certificate:
        reason = report.certificate.get("reason")
        if reason:
            lines.append(f"  reason: {reason}")
        witness = report.certificate.get("witness")
        if witness:
            lines.append(f"  witness: {json.dumps(_sanitize(witness), sort_keys=True)}")
    if report.table:
        lines.append("  derivative table (first rows):")
        for row in report.table[:8]:
            val = row.get("value")
            shown = "none" if val is None else f"{val:.6g}"
            lines.append(f"    n={row['n']:<3d} value={shown:<14s} method={row['method']}")
    if report.oracle:
        for row in report.oracle:
            if "error" in row:
                lines.append(f"  oracle k={row['k']}: {row['error']}")
                continue
            lines.append(
                f"  oracle k={row['k']}: value={row['value']:.12g} "
                f"gap={row['gap_to_anchor']:.3e} sweeps={row['sweeps']}"
            )
    if report.probe_log:
        lines.append(f"  probes checked: {len(report.probe_log)}")
    lines.append(f"  time: {report.elapsed:.3f}s")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _at_least(kind: type, low: float, strict: bool = False):
    """An argparse type= for a finite number >= low (> low when strict),
    so an out-of-range flag is a usage error (exit 2) like a malformed one."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")
        if not math.isfinite(value) or not (value > low if strict else value >= low):
            raise argparse.ArgumentTypeError(
                f"must be a number {'>' if strict else '>='} {low:g}, got {text!r}"
            )
        return value

    return parse


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="seqcert",
        description="Certify optimality and differentiability claims on sequence spaces.",
    )
    p.add_argument(
        "target",
        nargs="?",
        help="builtin scenario name or path to a scenario JSON file",
    )
    p.add_argument("--list", action="store_true", help="list builtin scenarios and exit")
    p.add_argument("--json", metavar="PATH", help="write the JSON report to this path")
    # the bounds of the scenario schema's "parameters"
    positive, nonneg, count = _at_least(float, 0, strict=True), _at_least(int, 0), _at_least(int, 1)
    p.add_argument("--seed", type=nonneg, default=None, help="seed for random probes (default 42)")
    p.add_argument("--tol", type=positive, default=None, help="decision tolerance (default 1e-7)")
    p.add_argument("--coords", type=count, default=None, help="basis directions to check (default 64)")
    p.add_argument("--psc-depth", type=count, default=None, help="truncation depth for psc probing")
    p.add_argument(
        "--oracle-k",
        metavar="LIST",
        help="comma-separated reduction dimensions to cross-check, e.g. 1,2,4,8",
    )
    return p


def _opts_from_args(args, parameters: dict) -> CertifyOptions:
    # Explicit flags win, then scenario parameters, then library defaults.
    def pick(flag_value, key, fallback):
        if flag_value is not None:
            return flag_value
        if key in parameters:
            return parameters[key]
        return fallback

    lib = CertifyOptions()
    return CertifyOptions(
        coords=int(pick(args.coords, "coords", lib.coords)),
        tol=float(pick(args.tol, "tol", lib.tol)),
        psc_depth=int(pick(args.psc_depth, "psc_depth", lib.psc_depth)),
        seed=int(pick(args.seed, "seed", lib.seed)),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, desc in list_builtins():
            print(f"{name}: {desc}")
        return 0
    if not args.target:
        parser.print_usage(sys.stderr)
        print("error: give a builtin name or a scenario file (or --list)", file=sys.stderr)
        return 2

    try:
        if args.target in BUILTINS:
            beta = 0.5
            raw = BUILTINS[args.target][1](beta)
            scenarios = [scenario_from_json(raw)]
        else:
            scenarios = load_scenarios(args.target)

        oracle_k: tuple[int, ...] = ()
        if args.oracle_k:
            try:
                oracle_k = tuple(int(tok) for tok in args.oracle_k.split(",") if tok)
            except ValueError as exc:
                raise ScenarioError(f"--oracle-k expects integers: {exc}") from exc
            if any(k < 1 for k in oracle_k):
                raise ScenarioError("--oracle-k entries must be >= 1")

        reports = []
        for scn in scenarios:
            params = dict(scn.parameters)
            if "oracle_k" in params and not oracle_k:
                ks = params["oracle_k"]
                oracle_for_this = tuple(int(k) for k in ks)
            else:
                oracle_for_this = oracle_k
            opts = _opts_from_args(args, params)
            reports.append(run_scenario(scn, opts, oracle_for_this))
    except (SeqcertError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for report in reports:
        print(render_human(report))

    if args.json:
        if len(reports) == 1:
            payload = _sanitize(reports[0].to_json())
        else:
            payload = {"reports": [_sanitize(r.to_json()) for r in reports]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc}", file=sys.stderr)
            return 2

    return 0 if all(r.passed for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
