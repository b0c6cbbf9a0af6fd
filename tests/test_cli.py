"""End-to-end runs of the command line: exit codes, determinism of the
JSON reports, schema conformance, and diagnostics for malformed input."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from seqcert.certify import CertifyOptions, family_from_json, family_to_json
from seqcert.cli import (
    BUILTINS,
    _build_parser,
    _opts_from_args,
    list_builtins,
    main,
    run_scenario,
    scenario_from_json,
)
from seqcert.errors import ScenarioError

PKG_ROOT = Path(__file__).resolve().parents[1]
# the child interpreter finds the package in src/, installed or not
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(PKG_ROOT / "src"), os.environ.get("PYTHONPATH")])
    ),
}
REPORT_SCHEMA = json.loads(
    (PKG_ROOT / "src" / "seqcert" / "schemas" / "report.schema.json").read_text()
)
SCENARIO_SCHEMA = json.loads(
    (PKG_ROOT / "src" / "seqcert" / "schemas" / "scenario.schema.json").read_text()
)

EXPECTED_VERDICTS = {
    "example1": ("gateaux", "fails"),
    "example3": ("certify_min", "holds"),
    "example4": ("certify_min", "holds"),
    "example5": ("certify_min", "fails"),
    "l1norm": ("gateaux", "fails"),
}


def run_cli(*argv, timeout=90):
    return subprocess.run(
        [sys.executable, "-m", "seqcert.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=PKG_ROOT,
        env=CLI_ENV,
    )


def run_json(tmp_path, *argv, name="out.json"):
    out = tmp_path / name
    proc = run_cli(*argv, "--json", str(out))
    payload = json.loads(out.read_text()) if out.exists() else None
    return proc, payload


def test_list_names_every_builtin():
    proc = run_cli("--list")
    assert proc.returncode == 0
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    names = [ln.split(":")[0] for ln in lines]
    assert names == sorted(EXPECTED_VERDICTS)
    assert names == [n for n, _ in list_builtins()]


def test_no_target_is_a_usage_error():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()
    assert "error: give a builtin name" in proc.stderr
    assert proc.stdout == ""


def test_missing_file_is_an_error():
    proc = run_cli("/nonexistent/scenario.json")
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("name", sorted(EXPECTED_VERDICTS))
def test_builtin_reports_validate_and_match(name, tmp_path):
    proc, report = run_json(tmp_path, name)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    task, verdict = EXPECTED_VERDICTS[name]
    assert report["task"] == task
    assert report["verdict"] == verdict
    jsonschema.validate(report, REPORT_SCHEMA)
    # timing never leaks into the machine report
    assert "elapsed" not in report
    assert report["name"] == name


def test_json_report_is_byte_identical_across_runs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("example3", "--seed", "7", "--json", str(a)).returncode == 0
    assert run_cli("example3", "--seed", "7", "--json", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_human_output_mentions_verdict_and_time():
    proc = run_cli("example3")
    assert proc.returncode == 0
    assert "holds" in proc.stdout
    # wall time appears only in the human rendering
    assert "s" in proc.stdout


def test_expected_mismatch_exits_one(tmp_path):
    raw = BUILTINS["example3"][1](0.5)
    raw["expected"] = "fails"
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    proc, report = run_json(tmp_path, str(f))
    assert proc.returncode == 1
    assert report["verdict"] == "holds"
    assert report["expected"] == "fails"
    assert report["passed"] is False
    assert "MISMATCH" in proc.stdout


def test_bad_json_reports_line_and_column(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"name": "x", ')
    proc = run_cli(str(f))
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "line" in proc.stderr or ":1:" in proc.stderr
    assert proc.stdout == ""


def nan_dual_scenario() -> dict:
    # f = sum 0.5^n x_n^2 at x* = (1, 0, ...): f'(x*; e_1) = 1, dual p_1 = NaN
    return {
        "name": "nan_dual",
        "task": "subgradient",
        "space": {"kind": "rn"},
        "function": {
            "kind": "separable",
            "weight": {"kind": "geometric", "c": 1.0, "r": 0.5},
            "inner": {"kind": "square"},
        },
        "x_star": {"prefix": [1.0]},
        "dual": {"prefix": [float("nan")]},
    }


@pytest.mark.parametrize("where", ["dual", "x_star"])
def test_non_finite_numbers_are_malformed_json(where, tmp_path, capsys):
    # json.dumps writes NaN and -Infinity tokens, which json.load would accept
    raw = nan_dual_scenario()
    if where == "x_star":
        raw["dual"] = {"prefix": [1.0]}
        raw["x_star"] = {"prefix": [float("-inf")]}
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    assert main([str(f)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error:")
    assert ("NaN" if where == "dual" else "-Infinity") in err
    assert out == ""


def test_unwritable_json_path_is_an_error_not_a_traceback(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    assert main(["example3", "--json", str(target)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {target}")
    # the human report went out before the write failed; the error did not
    assert "error:" not in out
    assert not target.exists()


def test_unknown_field_is_rejected_with_a_path(tmp_path):
    raw = BUILTINS["example3"][1](0.5)
    raw["surprise"] = 1
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    proc = run_cli(str(f))
    assert proc.returncode == 2
    assert "surprise" in proc.stderr
    assert proc.stdout == ""


def test_wrong_type_diagnostic_names_the_location(tmp_path):
    raw = BUILTINS["example3"][1](0.5)
    raw["space"] = {"kind": "hilbert"}
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    proc = run_cli(str(f))
    assert proc.returncode == 2
    assert "space" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("missing", ["r", "c"])
@pytest.mark.parametrize("where", ["point", "weight"])
def test_a_geometric_atom_missing_a_field_is_a_scenario_error(where, missing, tmp_path, capsys):
    raw = BUILTINS["example3"][1](0.5)
    atom = {"kind": "geometric", "c": 1.0, "r": 0.5}
    del atom[missing]
    if where == "point":
        raw["x_star"]["tail"] = atom
        path = "x_star/tail"
    else:
        raw["function"]["terms"][1]["weight"] = atom
        path = "function/terms/1/weight"
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    assert main([str(f)]) == 2
    reason = "the geometric tail atom requires this field"
    assert capsys.readouterr() == ("", f"error: scenario invalid at {path}/{missing}: {reason}\n")


def test_the_ci_scenario_without_a_ratio_is_a_scenario_error(capsys):
    assert main([str(PKG_ROOT / "tests" / "data" / "geometric_tail_without_ratio.json")]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert out == ""


#: The two overflowing scenarios of the CI smoke run: f = sum x_n^2 at a
#: tail whose square's coefficient (1e400) no double holds, and a tail of
#: two constant atoms whose merged coefficient overflows.
OVERFLOW_TAILS = {
    "square_beyond_the_double_range": {"kind": "geometric", "c": 1e200, "r": 0.5},
    "two_atoms_beyond_the_double_range": [{"kind": "const", "c": 1e308}] * 2,
}


@pytest.mark.parametrize("name", sorted(OVERFLOW_TAILS))
def test_an_overflowing_scenario_is_an_error_line_not_a_traceback(name, tmp_path):
    raw = {
        "name": name,
        "task": "certify_min",
        "space": {"kind": "ell1"},
        "function": {"kind": "separable", "weight": 1.0, "inner": {"kind": "square"}},
        "x_star": {"prefix": [], "tail": OVERFLOW_TAILS[name]},
        "set": {"kind": "whole_space"},
    }
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    proc = run_cli(str(f))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


BOOLEAN_WEIGHT = PKG_ROOT / "tests" / "data" / "boolean_weight.json"


def test_a_boolean_weight_is_refused_at_its_own_path():
    # example3 with function.terms[1].weight.c = true: the path is the
    # boolean's, not that of a valid neighbour such as terms/1/inner
    proc = run_cli(str(BOOLEAN_WEIGHT))
    assert proc.returncode == 2
    assert proc.stderr == (
        "error: scenario invalid at function/terms/1/weight/c: expected a number, got true\n"
    )
    assert proc.stdout == ""


def _prefix_as_string(raw):
    raw["x_star"]["prefix"] = ["0.5"]


def _surprise(raw):
    raw["surprise"] = 1


def _fractional_rank(raw):
    raw["parameters"]["oracle_k"] = [2.5]


@pytest.mark.parametrize(
    "change, message",
    [
        (_prefix_as_string, 'x_star/prefix/0: expected a number, got "0.5"'),
        (_surprise, "surprise: not a field of a scenario"),
        (_fractional_rank, "parameters/oracle_k/0: expected an integer, got 2.5"),
    ],
)
def test_a_refusal_by_shape_names_the_exact_path(change, message, tmp_path, capsys):
    raw = BUILTINS["example3"][1](0.5)
    change(raw)
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    assert main([str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: scenario invalid at {message}\n")


@pytest.mark.parametrize(
    "document, message",
    [
        ({"scenarios": [1]}, "scenario invalid at <root>: a scenario must be an object, got 1"),
        ([BUILTINS["example3"][1](0.5)], "scenario file must hold an object or a batch"),
    ],
)
def test_a_document_that_is_no_scenario_is_a_scenario_error(document, message, tmp_path, capsys):
    f = tmp_path / "doc.json"
    f.write_text(json.dumps(document))
    assert main([str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_an_integer_valued_float_is_an_integer_where_the_schema_says_integer(tmp_path):
    # JSON Schema reads 2.0 as an integer, and so do the decoders: an oracle
    # rank of 2.0 runs as rank 2, and a box's bound_count of 2.0 bounds
    # coordinates 1 and 2
    raw = BUILTINS["example3"][1](0.5)
    raw["parameters"]["oracle_k"] = [2]
    whole = tmp_path / "whole.json"
    whole.write_text(json.dumps(raw))
    raw["parameters"]["oracle_k"] = [2.0]
    fractional = tmp_path / "float.json"
    fractional.write_text(json.dumps(raw))
    _, want = run_json(tmp_path, str(whole), name="whole.out.json")
    proc, got = run_json(tmp_path, str(fractional), name="float.out.json")
    assert proc.returncode == 0, proc.stderr
    assert [row["k"] for row in got["oracle"]] == [2]
    assert got == want
    box = {"kind": "box", "lower": {"prefix": [0.0, 0.0]}, "bound_count": 2.0}
    scn = scenario_from_json({**BUILTINS["example4"][1](0.5), "set": box})
    assert scn.feasible_set.bound_count == 2


@pytest.mark.parametrize("task", ["qualification", "gateaux"])
def test_missing_anchor_is_named_for_every_task(task):
    raw = {"name": "a", "task": task, "space": {"kind": "rn"}, "function": {"kind": "limsup"}}
    with pytest.raises(ScenarioError, match=f"^task {task} requires x_star$"):
        scenario_from_json(raw)


def test_unset_flags_fall_back_to_the_library_defaults():
    assert _opts_from_args(_build_parser().parse_args(["example3"]), {}) == CertifyOptions()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--tol", "-1"),
        ("--tol", "0"),
        ("--tol", "nan"),
        ("--coords", "-3"),
        ("--coords", "0"),
        ("--psc-depth", "0"),
        ("--seed", "-1"),
    ],
)
def test_out_of_range_flag_is_a_usage_error(flag, value, capsys):
    # the scenario schema's parameter bounds hold for the flags too
    with pytest.raises(SystemExit) as exc:
        main(["example3", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a number" in capsys.readouterr().err


def test_batch_reports_keep_order(tmp_path):
    one = BUILTINS["example3"][1](0.5)
    two = BUILTINS["example4"][1](0.5)
    one["name"] = "first"
    two["name"] = "second"
    f = tmp_path / "batch.json"
    f.write_text(json.dumps({"scenarios": [one, two]}))
    proc, payload = run_json(tmp_path, str(f))
    assert proc.returncode == 0
    assert [r["name"] for r in payload["reports"]] == ["first", "second"]
    for r in payload["reports"]:
        jsonschema.validate(r, REPORT_SCHEMA)
    assert proc.stdout.index("first") < proc.stdout.index("second")


def test_batch_rejects_unknown_top_level_fields(tmp_path):
    f = tmp_path / "batch.json"
    f.write_text(json.dumps({"scenarios": [], "mode": "fast"}))
    proc = run_cli(str(f))
    assert proc.returncode == 2
    assert "mode" in proc.stderr
    assert proc.stdout == ""


def test_oracle_rows_track_requested_ranks(tmp_path):
    proc, report = run_json(tmp_path, "example3", "--oracle-k", "1,2,4")
    assert proc.returncode == 0
    ks = [row["k"] for row in report["oracle"]]
    assert ks == [1, 2, 4]
    for row in report["oracle"]:
        assert abs(row["gap_to_anchor"]) <= 1e-6


ORACLE_UNBOUNDED_BATCH = PKG_ROOT / "tests" / "data" / "oracle_unbounded_batch.json"
UNBOUNDED_ROW = {
    "k": 1,
    "error": "Unbounded: coordinate 1 runs to the search cap 1e+06 while still descending",
}


def test_an_unbounded_oracle_rank_is_a_row_not_an_abort(tmp_path):
    # f = <e_1, .> has no minimum: the rank-1 descent runs to the search
    # cap, and the certificate still comes out with that row beside it.
    batch = json.loads(ORACLE_UNBOUNDED_BATCH.read_text())
    linear = batch["scenarios"][1]
    f = tmp_path / "linear.json"
    f.write_text(json.dumps(linear))
    proc, report = run_json(tmp_path, str(f))
    assert proc.returncode == 0, proc.stdout
    assert report["verdict"] == "fails"
    assert report["oracle"] == [UNBOUNDED_ROW]
    jsonschema.validate(report, REPORT_SCHEMA)
    assert f"oracle k=1: {UNBOUNDED_ROW['error']}" in proc.stdout


def test_an_unbounded_oracle_rank_keeps_the_rest_of_the_batch(tmp_path):
    proc, payload = run_json(tmp_path, str(ORACLE_UNBOUNDED_BATCH))
    assert proc.returncode == 0, proc.stdout
    first, second = payload["reports"]
    assert (first["name"], first["verdict"]) == ("example3", "holds")
    assert [row["k"] for row in first["oracle"]] == [1, 2]
    for row in first["oracle"]:
        assert abs(row["gap_to_anchor"]) <= 1e-6
    assert (second["name"], second["verdict"]) == ("linear_unbounded", "fails")
    assert second["oracle"] == [UNBOUNDED_ROW]
    for r in payload["reports"]:
        jsonschema.validate(r, REPORT_SCHEMA)


LIST_FAMILY = PKG_ROOT / "tests" / "data" / "list_family.json"


def test_a_list_family_reaches_series_diff_through_the_cli(tmp_path):
    # the schema takes a list family in the form family_to_json writes:
    # {"kind": "list", "terms": [...]}; d/dx_1 of sum x_n^2 at 0.5 is 1
    scenario = json.loads(LIST_FAMILY.read_text())
    encoded = family_to_json(family_from_json(scenario["family"]))
    assert encoded["kind"] == "list"
    jsonschema.validate({**scenario, "family": encoded}, SCENARIO_SCHEMA)
    proc, report = run_json(tmp_path, str(LIST_FAMILY))
    assert proc.returncode == 0, proc.stderr
    assert (report["verdict"], report["grade"]) == ("holds", "analytic_all_n")
    assert report["table"][0] == {"n": 1, "value": 1.0, "method": "analytic_all_n"}
    jsonschema.validate(report, REPORT_SCHEMA)
    # the bare array the schema used to take is refused by the decoder
    scenario["family"] = scenario["family"]["terms"]
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(scenario))
    proc = run_cli(str(bare))
    assert proc.returncode == 2 and proc.stderr.startswith("error: "), proc.stderr


STATIONARITY_REFUTED = PKG_ROOT / "tests" / "data" / "stationarity_refuted.json"


def test_a_stationarity_fails_reports_its_coordinate_and_no_probes(tmp_path):
    # d/dx_1 of sum 0.5^n x_n^2 at (1, 0, ...) is 1: x* is refuted before
    # the psc check and the probe sweep, neither of which runs
    proc, report = run_json(tmp_path, str(STATIONARITY_REFUTED))
    assert proc.returncode == 0, proc.stderr
    assert (report["verdict"], report["passed"]) == ("fails", True)
    assert report["certificate"]["witness"] == {"n": 1, "derivative": 1.0}
    assert report["probe_log"] == []
    assert "psc" not in report["certificate"]["evidence"]
    jsonschema.validate(report, REPORT_SCHEMA)


GATEAUX_ALTERNATING_TAIL = PKG_ROOT / "tests" / "data" / "gateaux_alternating_tail.json"


def test_an_alternating_anchor_tail_is_differentiable_in_closed_form(tmp_path):
    # grammar_fuzz seed 43: an |.| leaf whose anchor tail has ratio -0.413,
    # so sign(x_n) alternates; its validation directions are answered in
    # closed form, each within 1e-12 of the assembled derivative
    proc, report = run_json(tmp_path, str(GATEAUX_ALTERNATING_TAIL))
    assert proc.returncode == 0, proc.stderr
    assert (report["verdict"], report["passed"]) == ("holds", True)
    samples = report["certificate"]["evidence"]["validation_samples"]
    assert len(samples) == 3 and all(s["gap"] <= 1e-12 for s in samples)
    jsonschema.validate(report, REPORT_SCHEMA)


ORACLE_INFEASIBLE_BATCH = PKG_ROOT / "tests" / "data" / "oracle_infeasible_batch.json"


def test_an_infeasible_anchor_is_an_oracle_row_not_an_abort(tmp_path):
    # x* = (-1, 0, ...) lies outside the positive cone: the rank-1 reduction
    # cannot start from it, and the certificate still comes out with that
    # row beside it.
    proc, report = run_json(tmp_path, str(ORACLE_INFEASIBLE_BATCH))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert report["verdict"] == "fails" and report["passed"]
    error = "InfeasiblePoint: anchor is not a certified member of the set (coordinate 1)"
    assert report["oracle"] == [{"k": 1, "error": error}]
    jsonschema.validate(report, REPORT_SCHEMA)
    assert f"oracle k=1: {error}" in proc.stdout


def test_oracle_flag_rejects_bad_ranks():
    assert run_cli("example3", "--oracle-k", "0").returncode == 2
    assert run_cli("example3", "--oracle-k", "two").returncode == 2


def test_cli_verdict_matches_library(tmp_path):
    from seqcert.certify import (
        CertifyOptions,
        SetDescriptor,
        Verdict,
        certify_min,
    )
    from seqcert.funcs import function_from_json
    from seqcert.seqspace import point_from_json

    raw = BUILTINS["example3"][1](0.5)
    cert = certify_min(
        function_from_json(raw["function"]),
        SetDescriptor.whole_space(),
        point_from_json(raw["x_star"]),
        CertifyOptions(),
    )
    _, report = run_json(tmp_path, "example3")
    assert cert.verdict is Verdict.HOLDS
    assert report["verdict"] == cert.verdict.value
    assert report["grade"] == cert.grade.render()


def test_flag_overrides_scenario_parameter(tmp_path):
    raw = BUILTINS["example3"][1](0.5)
    raw.setdefault("parameters", {})["coords"] = 8
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    _, narrow = run_json(tmp_path, str(f), name="narrow.json")
    assert len(narrow["table"]) <= 8
    _, wide = run_json(tmp_path, str(f), "--coords", "16", name="wide.json")
    assert len(wide["table"]) > len(narrow["table"])


def test_nonfinite_values_serialize_as_strings(tmp_path):
    # boundary of the sqrt domain: one-sided derivative is -inf
    raw = {
        "name": "edge",
        "task": "dir_profile",
        "space": {"kind": "ell1"},
        "function": {
            "kind": "separable",
            "weight": {"kind": "geometric", "c": 1.0, "r": 0.5},
            "inner": {"kind": "neg_sqrt", "c": 1.0},
        },
        "x_star": {"prefix": [], "tail": {"kind": "zero"}},
        "parameters": {"coords": 4},
    }
    f = tmp_path / "scn.json"
    f.write_text(json.dumps(raw))
    proc, report = run_json(tmp_path, str(f))
    assert proc.returncode == 0
    text = json.dumps(report)
    assert "Infinity" not in text and "NaN" not in text
    jsonschema.validate(report, REPORT_SCHEMA)


def test_zero_scaled_kink_scenario_is_differentiable():
    # 0 * sum 0.5^n |x_n| + sum 0.5^n x_n^2 at x* = 0: the zero factor
    # flattens the kink, so every basis partial exists
    weight = {"kind": "geometric", "c": 1.0, "r": 0.5}
    raw = {
        "name": "zero_scale",
        "task": "gateaux",
        "space": {"kind": "ell1"},
        "function": {"kind": "sum", "terms": [
            {"kind": "scale", "lam": 0.0,
             "inner": {"kind": "separable", "weight": weight, "inner": {"kind": "abs"}}},
            {"kind": "separable", "weight": weight, "inner": {"kind": "square"}},
        ]},
        "x_star": {"prefix": [], "tail": {"kind": "zero"}},
    }
    report = run_scenario(scenario_from_json(raw), CertifyOptions())
    assert (report.verdict, report.grade) == ("holds", "analytic_all_n")


def test_cli_runs_from_a_copy_of_the_package_alone(tmp_path):
    # the schemas ship inside the package, so no source checkout is needed
    lib = tmp_path / "lib"
    shutil.copytree(
        PKG_ROOT / "src" / "seqcert", lib / "seqcert",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code = "import sys; from seqcert.cli import main; sys.exit(main(['example3']))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=90, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(lib)},
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: holds" in proc.stdout


def test_the_cli_writes_the_same_reports_without_jsonschema(tmp_path):
    # a run needs the standard library only: with jsonschema unimportable,
    # every builtin and a batch file write the bytes of a normal run
    targets = sorted(BUILTINS) + [str(PKG_ROOT / "tests" / "data" / "oracle_unbounded_batch.json")]
    for i, target in enumerate(targets):
        assert main([target, "--json", str(tmp_path / f"normal{i}.json")]) == 0
    code = (
        "import contextlib, io, os, sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from seqcert.cli import main\n"
        "for i, target in enumerate(sys.argv[2:]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([target, '--json', os.path.join(sys.argv[1], f'bare{i}.json')]) == 0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path), *targets],
        capture_output=True, text=True, timeout=90, env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    for i in range(len(targets)):
        assert (tmp_path / f"bare{i}.json").read_bytes() == (tmp_path / f"normal{i}.json").read_bytes()
    code = "import sys, seqcert.cli; print(sorted(m for m in sys.modules if m.startswith('jsonschema')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=90, env=CLI_ENV
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_psc_report_keeps_the_probe_evidence():
    raw = {
        "name": "psc_probes",
        "task": "psc",
        "space": {"kind": "ell1"},
        "function": {"kind": "separable", "weight": {"kind": "geometric", "c": 1.0, "r": 0.5},
                     "inner": {"kind": "square"}},
        "x_star": {"prefix": [1.0], "tail": {"kind": "zero"}},
        "probes": [{"prefix": [0.5, -1.0], "tail": {"kind": "geometric", "c": 1.0, "r": 0.5}}],
    }
    report = run_scenario(scenario_from_json(raw), CertifyOptions())
    assert report.verdict == "holds"
    evidence = report.to_json()["certificate"]["evidence"]
    assert list(evidence)[-2:] == ["probes_checked", "max_truncation_excess"]
    assert evidence["probes_checked"] == 1
    raw.pop("probes")
    report = run_scenario(scenario_from_json(raw), CertifyOptions())
    assert "probes_checked" not in report.to_json()["certificate"]["evidence"]
