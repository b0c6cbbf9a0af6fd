"""The JSON formats against their reference schemas.

The scenario format's run-time check is the package's decoders, from
``cli.scenario_from_json`` down to the tail atoms; the shipped schemas
describe the formats and are the oracles here.  ``tests/data/
reference_schemas/`` holds verbatim copies of both schemas as they stood
while jsonschema checked every scenario and the report schema stated its
choices between JSON types with ``oneOf``.

* The report schema states each such choice once (an enum with null, a
  type list, an ``anyOf`` of disjoint branches).  On every report below
  and on every single-field mutation of one, it decides as the reference
  does.
* Every report shape the CLI writes is valid under the shipped report
  schema: a report of each task, both kinds of oracle row, and each
  certificate of the certifier census in its report.  The CLI does not
  check its reports when it runs, so this is where their shape is proven.
* Whatever the reference scenario schema rejects, ``scenario_from_json``
  refuses.  It refuses by shape ("scenario invalid at <path>: ...")
  exactly where the shipped scenario schema rejects; every other refusal
  is one of NON_STRUCTURAL.
"""

import copy
import functools
import json
import math
import re
from pathlib import Path

import jsonschema
from hypothesis import given, settings, strategies as st

from seqcert.cli import (
    BUILTINS,
    TASKS,
    Report,
    _build_parser,
    _opts_from_args,
    _sanitize,
    run_scenario,
    scenario_from_json,
)
from seqcert.errors import ScenarioError, SeqcertError
from test_certifier_paths import CASES

PKG_ROOT = Path(__file__).resolve().parents[1]
DATA = PKG_ROOT / "tests" / "data"
SHIPPED = PKG_ROOT / "src" / "seqcert" / "schemas"
REFERENCE = DATA / "reference_schemas"
# the fixtures that hold a scenario the decoders refuse, so no report
INVALID_FIXTURES = {"boolean_weight", "geometric_tail_without_ratio"}

PAPER_BETAS = (0.5, 0.25, 0.125, 0.3, 0.4371, 0.2, 0.55, 0.6)
ORACLE_RANKS = (1, 2, 4, 8)


def checked_validator(path: Path):
    schema = json.loads(path.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


OLD_REPORT = checked_validator(REFERENCE / "report.schema.json")
NEW_REPORT = checked_validator(SHIPPED / "report.schema.json")
OLD_SCENARIO = checked_validator(REFERENCE / "scenario.schema.json")
NEW_SCENARIO = checked_validator(SHIPPED / "scenario.schema.json")


def kkt_scenario(beta: float) -> dict:
    """Acceptance criterion 8: min sum beta^n x_n^2 subject to 1 - x_1 <= 0,
    certified at e_1 by the multiplier 2 beta."""
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
                    {"kind": "linear_functional", "p": {"prefix": [-1.0], "tail": {"kind": "zero"}}},
                ],
            }
        ],
        "x_star": {"prefix": [1.0], "tail": {"kind": "zero"}},
        "set": {"kind": "whole_space"},
        "multipliers": {"lambda": [2.0 * beta], "nu": []},
        "parameters": {"beta": beta},
        "expected": "holds",
    }


def fixture_scenarios() -> list[tuple[str, dict]]:
    """Every scenario under tests/data, a batch's members one by one."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        obj = json.loads(path.read_text())
        for i, raw in enumerate(obj["scenarios"] if "scenarios" in obj else [obj]):
            out.append((f"{path.stem}[{i}]", raw))
    return out


def paper_scenarios(betas=PAPER_BETAS, ranks=ORACLE_RANKS) -> list[dict]:
    """Every builtin at each beta and oracle rank, and the KKT scenario."""
    out = []
    for beta in betas:
        for name in sorted(BUILTINS):
            for k in ranks:
                raw = BUILTINS[name][1](beta)
                raw["parameters"]["oracle_k"] = [k]
                out.append(raw)
        out.append(kkt_scenario(beta))
    return out


def valid_fixture_scenarios() -> list[dict]:
    return [raw for name, raw in fixture_scenarios() if name.split("[")[0] not in INVALID_FIXTURES]


def report_of(raw: dict) -> dict:
    """The --json payload the CLI writes for one scenario without flags."""
    scn = scenario_from_json(raw)
    opts = _opts_from_args(_build_parser().parse_args(["report"]), scn.parameters)
    rep = run_scenario(scn, opts, tuple(scn.parameters.get("oracle_k", ())))
    return _sanitize(rep.to_json())


@functools.lru_cache(maxsize=None)
def reports() -> tuple:
    """The --json payload of every paper scenario and valid fixture."""
    return tuple(report_of(raw) for raw in paper_scenarios() + valid_fixture_scenarios())


def census_reports() -> list[dict]:
    """Each certificate of tests/test_certifier_paths.py's census in the
    report run_scenario writes around it; a case that raises has none."""
    out = []
    for name, call in sorted(CASES.items()):
        try:
            result = call()
        except (SeqcertError, ValueError):
            continue
        cert = result[0] if isinstance(result, tuple) else result
        family = name.split("/")[0]
        rep = Report(
            name=name,
            task="series_diff" if family == "series" else family,
            verdict=cert.verdict.value,
            grade=cert.grade.render(),
            expected=None,
            passed=True,
            certificate=cert.to_json(),
        )
        out.append(_sanitize(rep.to_json()))
    return out


# ---------------------------------------------------------------------------
# The report schema against its reference
# ---------------------------------------------------------------------------

# The strings the report schemas compare against; to both, any other
# string is like any other.
SCHEMA_STRINGS = {"holds", "fails", "inconclusive", "inf", "-inf", "nan"}
# Fields whose content neither report schema looks into past its JSON type.
OPAQUE = ("evidence", "witness", "probe_log")


def schema_nodes(schema: dict):
    """Every subschema of schema, schema included."""
    yield schema
    for key, value in schema.items():
        if key in ("properties", "definitions"):
            for sub in value.values():
                yield from schema_nodes(sub)
        elif key in ("items", "not") and isinstance(value, dict):
            yield from schema_nodes(value)
        elif key in ("oneOf", "anyOf", "allOf"):
            for sub in value:
                yield from schema_nodes(sub)


def distinct(values) -> list:
    seen, out = set(), []
    for v in values:
        key = json.dumps(v, sort_keys=True)
        if key not in seen:
            seen.add(key)
            out.append(v)
    return out


def shape(value, opaque: bool = False):
    """value with only what the report schemas tell apart: each number
    becomes the representative of its class (int or float, integral or
    not, its sign), each string outside SCHEMA_STRINGS becomes "s", each
    array keeps one item per distinct shape, and the objects in OPAQUE
    fields lose their content."""
    if isinstance(value, dict):
        return {} if opaque else {k: shape(v, k in OPAQUE) for k, v in value.items()}
    if isinstance(value, list):
        return distinct(shape(v, opaque) for v in value)
    if isinstance(value, str):
        return value if value in SCHEMA_STRINGS else "s"
    if value is None or isinstance(value, bool):
        return value
    sign = (value > 0) - (value < 0)
    integral = isinstance(value, int) or value.is_integer()
    return type(value)(sign if integral else sign * 0.5)


def test_report_shapes_keep_what_the_report_schemas_read():
    # the reduction in shape() is exact only for schemas without length,
    # uniqueness, pattern or cross-field keywords, whose enums hold
    # SCHEMA_STRINGS and null only, whose minimums are 0 or 1, and which
    # read only the JSON type of an OPAQUE field's content
    unread = {
        "minItems", "maxItems", "uniqueItems", "contains", "additionalItems",
        "minLength", "maxLength", "pattern", "format", "const", "dependencies",
        "if", "minProperties", "maxProperties", "propertyNames", "patternProperties",
        "maximum", "exclusiveMinimum", "exclusiveMaximum", "multipleOf",
    }
    for validator in (OLD_REPORT, NEW_REPORT):
        subschemas = list(schema_nodes(validator.schema))
        assert not unread & {key for node in subschemas for key in node}
        assert {v for node in subschemas for v in node.get("enum", ())} <= SCHEMA_STRINGS | {None}
        assert {node["minimum"] for node in subschemas if "minimum" in node} <= {0, 1}
        for node in subschemas:
            for name in OPAQUE:
                sub = node.get("properties", {}).get(name)
                if sub is None:
                    continue
                inner = sub["items"] if name == "probe_log" else sub
                assert {key for n in schema_nodes(inner) for key in n} <= {"type", "oneOf"}, name


def test_every_report_is_valid_under_both_report_schemas():
    reps = reports()
    assert len(reps) == len(PAPER_BETAS) * (len(BUILTINS) * len(ORACLE_RANKS) + 1) + 7
    for rep in reps:
        assert OLD_REPORT.is_valid(rep) and NEW_REPORT.is_valid(rep), rep["name"]


def test_every_report_shape_the_cli_writes_is_valid_under_the_shipped_schema():
    # one report of each task: the grammar tour's, whose inequalities the
    # tour's anchor violates, so the KKT scenario's for kkt
    per_task = [
        report_of(kkt_scenario(0.5) if task == "kkt" else {**GRAMMAR_TOUR, "task": task})
        for task in TASKS
    ]
    census = census_reports()
    reps = list(reports()) + per_task + census
    assert [rep["task"] for rep in per_task] == list(TASKS)
    names = {rep["name"] for rep in reps}
    assert {"stationarity_refuted", "kkt_slackness"} <= names
    rows = [row for rep in reps for row in rep["oracle"]]
    errors = {row["error"].split(":")[0] for row in rows if "error" in row}
    assert {"Unbounded", "InfeasiblePoint"} <= errors
    assert any("sweeps" in row for row in rows)
    assert len(census) == len(CASES) - 10  # ten census cases raise
    for rep in reps:
        error = jsonschema.exceptions.best_match(NEW_REPORT.iter_errors(rep))
        assert error is None, (rep["name"], error and error.message)


REPORT_SWAPS = (None, True, False, 0, 1, -1, 1.5, math.nan, "inf", "x", "holds", [], {})


def nodes(doc, path=()):
    """(path, value) for doc and everything inside it."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, path + (i,))


REMOVE = object()


def changes(doc, swaps) -> list:
    """Every single-field change of doc, as (path, new value or REMOVE):
    each value swapped for each of swaps(value), each object key removed,
    and an unknown key added to each object."""
    out = []
    for path, value in nodes(doc):
        out += [(path, swap) for swap in swaps(value)]
        if isinstance(value, dict):
            out += [(path + (key,), REMOVE) for key in value]
            out.append((path + ("surplus",), 1))
    return out


def changed(doc, path, value):
    """A copy of doc with the value at path replaced, added or removed;
    only the containers along path are copied."""
    if not path:
        return value
    out = copy.copy(doc)
    key = path[0]
    if len(path) > 1:
        out[key] = changed(doc[key], path[1:], value)
    elif value is REMOVE:
        del out[key]
    else:
        out[key] = value
    return out


def property_decider(validator):
    """A function giving validator's answer on a document, fast where the
    document differs from a valid one at one path only.  Each root schema
    here is an object of independent properties, so where the change
    leaves the root's keys as they were, the answer is the changed
    property's alone, which is remembered."""
    root = validator.schema
    assert set(root) <= {"$schema", "title", "description", "type", "required",
                         "additionalProperties", "properties", "definitions"}
    subs = {key: validator.evolve(schema=sub) for key, sub in root["properties"].items()}

    @functools.lru_cache(maxsize=None)
    def decide_property(key, text):
        return subs[key].is_valid(json.loads(text))

    def decide(doc, base=None, path=()):
        """validator's answer on doc, which is base changed at path where
        base is given."""
        if base is not None and (len(path) > 1 or path and path[0] in base and path[0] in doc):
            return decide_property(path[0], json.dumps(doc[path[0]], sort_keys=True))
        return validator.is_valid(doc)

    return decide


def test_the_report_schema_decides_every_mutation_as_its_reference():
    old_decides, new_decides = property_decider(OLD_REPORT), property_decider(NEW_REPORT)
    decided = {True: 0, False: 0}
    for doc in distinct(shape(rep) for rep in reports()):
        for path, value in changes(doc, lambda _: REPORT_SWAPS):
            mutated = changed(doc, path, value)
            old = old_decides(mutated, doc, path)
            assert new_decides(mutated, doc, path) == old, (path, mutated)
            decided[old] += 1
    # both answers occur often, so neither schema passes by accepting all
    assert min(decided.values()) > 1000, decided


# ---------------------------------------------------------------------------
# The decoders against the scenario schemas
# ---------------------------------------------------------------------------

# Refusals of a document both scenario schemas accept: each comes from the
# mathematics or from what the task needs, not from the document's shape.
NON_STRUCTURAL = (
    r"^task \w+ requires (a function|x_star|a dual point|a family|multipliers)$",
    r"^scenario '.*': .*must be finite",
    r"^scenario '.*': geometric tail needs \|r\| < 1",
    r"^scenario '.*': quadratic coefficient must be >= 0 at every index$",
    r"^scenario '.*': square-root coefficient must be >= 0 at every index$",
    r"^scenario '.*': series weight must be >= 0 at every index$",
    r"^scenario '.*': \d+ does not fit in a double$",
)


def scenario_swaps(value) -> tuple:
    """A value of each JSON type, a bool and a numeric string among them;
    for a number also an integer-valued float and values below the
    format's minimums, and for a string one outside every enum and the
    empty one."""
    swaps = (None, True, "1.5", 1.5, [], [{"kind": "zero"}], {})
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return swaps + (2, 2.0, 0, -1)
    if isinstance(value, str):
        return swaps + ("x", "")
    return swaps


# Every kind and optional field of the format, so that mutations reach each.
# The function kinds are spread over three fields: a mutation is decided by
# the field it changes, and a smaller field is checked faster.
GRAMMAR_TOUR = {
    "name": "grammar_tour",
    "task": "certify_min",
    "space": {"kind": "ell1"},
    "function": {"kind": "sum", "terms": [
        {"kind": "constant", "c": 1.5},
        {"kind": "scale", "lam": 2.0, "inner": {
            "kind": "separable", "weight": {"kind": "harmonic", "c": 1.0}, "inner": {"kind": "abs"},
        }},
    ]},
    "x_star": {"prefix": [0.5, 0.0], "tail": {"kind": "zero"}},
    "set": {"kind": "box", "lower": {"prefix": [0.0]}, "upper": {"tail": {"kind": "const", "c": 2.0}},
            "bound_count": 3},
    "dual": {"prefix": [0.0]},
    "probes": [{"prefix": [1.0]}],
    "directions": [{"tail": {"kind": "const", "c": 1.0}}],
    "inequalities": [
        {"kind": "linear_functional", "p": {
            "prefix": [1.0],
            "tail": [{"kind": "geometric", "c": 1.0, "r": 0.5}, {"kind": "harmonic", "c": 0.5}],
        }},
        {"kind": "separable", "weight": 0.5,
         "inner": {"kind": "neg_sqrt", "c": {"kind": "const", "c": 1.0}}},
    ],
    "equalities": [
        {"kind": "separable", "weight": {"kind": "geometric", "c": 1.0, "r": 0.25},
         "inner": {"kind": "linear", "b": -1.0}},
        {"kind": "separable", "weight": {"kind": "zero"}, "inner": {"kind": "square"}},
    ],
    "multipliers": {"lambda": [0.5], "nu": [1.0]},
    "family": {"kind": "scaled", "coeffs": {"kind": "geometric", "c": 1.0, "r": 0.5},
               "base": {"kind": "limsup"}},
    "parameters": {"beta": 0.5, "tol": 1e-7, "coords": 8, "psc_depth": 4, "seed": 3, "oracle_k": [1, 2]},
    "expected": "holds",
}
GRAMMAR_TOURS = [
    GRAMMAR_TOUR,
    {**GRAMMAR_TOUR, "family": {"kind": "diagonal", "weight": 1.0, "inner": {
        "kind": "affine_quad", "a": 1.0, "b": {"kind": "harmonic", "c": -1.0},
    }}},
    {**GRAMMAR_TOUR, "family": {"kind": "list", "terms": [{"kind": "limsup"}]}},
]


def decode(raw) -> tuple[str, str]:
    """("ok", ""), ("shape", message) for a refusal by shape, or
    ("other", message)."""
    try:
        scenario_from_json(raw)
    except ScenarioError as exc:
        message = str(exc)
        return ("shape" if message.startswith("scenario invalid at ") else "other"), message
    return "ok", ""


OLD_SCENARIO_DECIDES = property_decider(OLD_SCENARIO)
NEW_SCENARIO_DECIDES = property_decider(NEW_SCENARIO)


def check_scenario(raw, base=None, path=()) -> str:
    """The decoders' outcome on raw, checked against both scenario schemas;
    raw is base changed at path where base is given."""
    new = NEW_SCENARIO_DECIDES(raw, base, path)
    outcome, message = decode(raw)
    assert (outcome == "shape") == (not new), (outcome, message)
    # what the shipped schema takes, its reference took: so whatever the
    # reference rejects, the decoders refuse by shape
    assert not new or OLD_SCENARIO_DECIDES(raw, base, path), "the reference rejects it"
    if outcome == "other":
        assert any(re.search(p, message) for p in NON_STRUCTURAL), message
    return outcome


def test_every_fixture_builtin_and_kkt_scenario_decodes_as_the_schemas_say():
    for raw in paper_scenarios(ranks=(1,)):
        assert check_scenario(raw) == "ok", raw["name"]
    for name, raw in fixture_scenarios():
        want = "shape" if name.split("[")[0] in INVALID_FIXTURES else "ok"
        assert check_scenario(raw) == want, name
    for raw in GRAMMAR_TOURS:
        assert check_scenario(raw) == "ok"


def test_every_single_field_mutation_decodes_as_the_schemas_say():
    seen = {"ok": 0, "shape": 0, "other": 0}
    for doc in paper_scenarios(betas=(0.5,), ranks=(2,)) + valid_fixture_scenarios() + GRAMMAR_TOURS:
        for path, value in changes(doc, scenario_swaps):
            seen[check_scenario(changed(doc, path, value), doc, path)] += 1
    assert min(seen.values()) > 50, seen


def test_the_shipped_schema_gives_each_tail_atom_kind_its_fields():
    without_ratio = json.loads((DATA / "geometric_tail_without_ratio.json").read_text())
    assert OLD_SCENARIO.is_valid(without_ratio)
    assert not NEW_SCENARIO.is_valid(without_ratio)
    const_with_ratio = {**without_ratio, "x_star": {"tail": {"kind": "const", "c": 1.0, "r": 0.5}}}
    assert not NEW_SCENARIO.is_valid(const_with_ratio)
    for raw in (without_ratio, const_with_ratio):
        assert decode(raw)[0] == "shape"


# a derandomized generator of scenarios the decoders take

numbers = st.one_of(
    st.integers(-3, 3), st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
)
nonneg = st.one_of(st.integers(0, 3), st.floats(0.0, 4.0))
ratios = st.floats(-0.9, 0.9)


def atoms(c=numbers, r=ratios):
    return st.one_of(
        st.just({"kind": "zero"}),
        st.builds(lambda k, c: {"kind": k, "c": c}, st.sampled_from(["const", "harmonic"]), c),
        st.builds(lambda c, r: {"kind": "geometric", "c": c, "r": r}, c, r),
    )


def forms(c=numbers, r=ratios):
    return st.one_of(c, atoms(c, r))


tails = st.one_of(atoms(), st.lists(atoms(), min_size=1, max_size=3))
points = st.fixed_dictionaries(
    {}, optional={"prefix": st.lists(numbers, max_size=3), "tail": tails}
)
nonneg_forms = forms(nonneg, st.floats(0.0, 0.9))
scalars = st.one_of(
    st.just({"kind": "abs"}),
    st.just({"kind": "square"}),
    st.fixed_dictionaries({"kind": st.just("affine_quad"), "a": nonneg_forms, "b": forms()}),
    st.fixed_dictionaries({"kind": st.just("neg_sqrt"), "c": nonneg_forms}),
)
leaves = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "c": numbers}),
    st.just({"kind": "limsup"}),
    st.fixed_dictionaries({"kind": st.just("linear_functional"), "p": points}),
    st.fixed_dictionaries({"kind": st.just("separable"), "weight": nonneg_forms, "inner": scalars}),
    st.fixed_dictionaries({
        "kind": st.just("separable"),
        "weight": forms(),
        "inner": st.fixed_dictionaries({"kind": st.just("linear"), "b": forms()}),
    }),
)
functions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.fixed_dictionaries({"kind": st.just("scale"), "lam": nonneg, "inner": inner}),
        st.fixed_dictionaries({"kind": st.just("sum"), "terms": st.lists(inner, min_size=1, max_size=3)}),
    ),
    max_leaves=4,
)
sets = st.one_of(
    st.sampled_from([{"kind": "whole_space"}, {"kind": "positive_cone_ell1"}]),
    st.fixed_dictionaries(
        {"kind": st.just("box")},
        optional={"lower": points, "upper": points, "bound_count": st.integers(1, 4)},
    ),
)
families = st.one_of(
    st.fixed_dictionaries({"kind": st.just("diagonal"), "weight": forms(), "inner": scalars}),
    st.fixed_dictionaries({"kind": st.just("scaled"), "coeffs": forms(), "base": functions}),
    st.fixed_dictionaries({"kind": st.just("list"), "terms": st.lists(functions, min_size=1, max_size=2)}),
)
parameters = st.fixed_dictionaries({}, optional={
    "beta": numbers,
    "tol": st.floats(1e-12, 1.0),
    "coords": st.integers(1, 64),
    "psc_depth": st.integers(1, 32),
    "seed": st.integers(0, 2**31),
    "oracle_k": st.lists(st.integers(1, 8), max_size=3),
})
scenarios = st.fixed_dictionaries(
    {
        "name": st.text(min_size=1, max_size=8),
        "task": st.sampled_from(
            ["certify_min", "gateaux", "subgradient", "kkt", "psc", "qualification",
             "series_diff", "dir_profile"]
        ),
        "space": st.sampled_from([{"kind": "rn"}, {"kind": "ell1"}, {"kind": "ellinf"}]),
        # every field a task may require, so that each draw decodes
        "function": functions,
        "x_star": points,
        "dual": points,
        "family": families,
        "multipliers": st.fixed_dictionaries(
            {}, optional={"lambda": st.lists(numbers, max_size=2), "nu": st.lists(numbers, max_size=2)}
        ),
    },
    optional={
        "set": sets,
        "probes": st.lists(points, max_size=2),
        "directions": st.lists(points, max_size=2),
        "inequalities": st.lists(functions, max_size=2),
        "equalities": st.lists(functions, max_size=2),
        "parameters": parameters,
        "expected": st.sampled_from(["holds", "fails", "inconclusive"]),
    },
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios, st.data())
def test_generated_scenarios_and_their_mutations_decode_as_the_schemas_say(raw, data):
    assert check_scenario(raw) == "ok"
    every = changes(raw, scenario_swaps)
    path, value = every[data.draw(st.integers(0, len(every) - 1))]
    check_scenario(changed(raw, path, value), raw, path)
