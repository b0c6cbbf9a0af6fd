"""In-memory spans around the public functions of each seqcert module.

The tracer wraps functions from outside the package: for every target it
replaces the function wherever a ``seqcert`` module has bound it (modules
such as ``certify`` and ``reduce`` import names directly, so patching only
the defining module would miss those calls), and puts the originals back
on ``uninstall``.  Spans stay in memory until the run writes them out.

A span is ``[id, parent, op, name, start_ns, end_ns, self_ns, error, extra]``;
``self_ns`` is the duration minus the time covered by direct child spans,
and ``extra`` is a per-function count taken from the return value.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

# layer -> public functions that get a span; "Class.method" wraps a method.
TARGETS = {
    "cli": ("scenario_from_json",),
    "certify": (
        "certify_min", "check_qualification", "check_psc", "check_psc_numeric",
        "gateaux_detect", "subgradient_test", "kkt_certify",
    ),
    "derivative": ("dir_deriv", "dir_deriv_profile"),
    "funcs": ("evaluate", "delta_along"),
    "seqspace": ("certified_series", "pair"),
    "symseq": ("tail_sum", "SymSeq.eventual_sign"),
    "reduce": ("build_reduced", "minimize_reduced"),
}
# Functions called so often (hundreds of thousands of times in one
# oracle_descent cycle) that a span each would distort what is measured:
# only their calls are counted, and their time stays with the caller.
COUNTED = {
    "cli": ("load_schema",),
    "funcs": ("delta_along_basis", "analytic_dir_deriv"),
}


def _stationarity_decided_symbolically(cert) -> bool:
    stat = cert.evidence.get("stationarity", {})
    return isinstance(stat, dict) and stat.get("symbolic") == "ok"


# span name -> count read from the return value
EXTRACT = {
    "derivative.dir_deriv": lambda r: len(r.quotients_log),
    "funcs.evaluate": lambda r: r.terms_used,
    "symseq.tail_sum": lambda r: r[2],
    "reduce.minimize_reduced": lambda r: r[2],
    "certify.certify_min": lambda r: int(_stationarity_decided_symbolically(r)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = None

    # -- spans ---------------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [self._next_id, parent, self.op, name, time.perf_counter_ns(), 0, 0, False, None, 0]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _end(self, span: list, error: bool, extra=None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        duration = end - span[4]
        span[5] = end
        span[6] = duration - span[9]  # span[9] accumulates direct children
        span[7] = error
        span[8] = extra
        del span[9]
        if self._stack:
            self._stack[-1][9] += duration
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(s, True)
            raise
        self._end(s, False)

    def _wrap(self, name: str, fn):
        extract = EXTRACT.get(name)
        tracer = self

        def traced(*args, **kwargs):
            s = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._end(s, True)
                raise
            tracer._end(s, False, extract(result) if extract else None)
            return result

        return functools.update_wrapper(traced, fn)

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counted, fn)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "seqcert" or n.startswith("seqcert."))]
        for table, make in ((TARGETS, self._wrap), (COUNTED, self._count)):
            for layer, names in table.items():
                home = sys.modules[f"seqcert.{layer}"]
                for qual in names:
                    if "." in qual:
                        cls_name, attr = qual.split(".")
                        cls = getattr(home, cls_name)
                        orig = cls.__dict__[attr]
                        self._set(cls, attr, make(f"{layer}.{attr}", orig), orig)
                        continue
                    orig = getattr(home, qual)
                    wrapped = make(f"{layer}.{qual}", orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                self._set(mod, attr, wrapped, orig)

    def _set(self, owner, attr, new, orig) -> None:
        setattr(owner, attr, new)
        self._patched.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "op", "name", "start_ns", "end_ns",
                                 "self_ns", "error", "extra"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(
    spans: list[list], counts: dict[str, int], traced_s: float
) -> dict[str, tuple[float, str]]:
    """Per-function calls, self time and errors, plus the derived counts.

    ``self_pct`` is the self time as a share of ``traced_s``, the wall time
    of the traced operations.
    """
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    extra: dict[str, int] = defaultdict(int)
    by_id = {s[0]: s for s in spans}
    for s in spans:
        name = s[3]
        calls[name] += 1
        self_ns[name] += s[6]
        errors[name] += int(s[7])
        if s[8] is not None:
            # evaluate recurses into itself; count only the outermost call
            parent = by_id.get(s[1])
            if name == "funcs.evaluate" and parent is not None and parent[3] == name:
                continue
            extra[name] += s[8]

    # share of dir_deriv_profile time inside certify_min calls whose
    # stationarity was already decided by the closed form
    profile_ns = evidence_ns = 0
    for s in spans:
        if s[3] != "derivative.dir_deriv_profile":
            continue
        duration = s[5] - s[4]
        profile_ns += duration
        parent = by_id.get(s[1])
        while parent is not None and parent[3] != "certify.certify_min":
            parent = by_id.get(parent[1])
        if parent is not None and parent[8]:
            evidence_ns += duration

    out: dict[str, tuple[float, str]] = {}
    names = [f"{layer}.{qual.split('.')[-1]}" for layer, quals in TARGETS.items()
             for qual in quals] + ["cli.report"]
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_ns[name] / 1e6, "ms")
        out[f"{name}.self_pct"] = (100.0 * self_ns[name] / 1e9 / traced_s, "%")
        out[f"{name}.errors"] = (errors[name], "count")
    for layer, names in COUNTED.items():
        for qual in names:
            out[f"{layer}.{qual}.calls"] = (counts.get(f"{layer}.{qual}", 0), "count")
    out["derivative.quotients"] = (extra["derivative.dir_deriv"], "count")
    out["derivative.evidence_only_share"] = (
        evidence_ns / profile_ns if profile_ns else 0.0, "ratio")
    out["funcs.evaluate.terms_used"] = (extra["funcs.evaluate"], "count")
    out["symseq.tail_sum.terms"] = (extra["symseq.tail_sum"], "count")
    out["reduce.sweeps"] = (extra["reduce.minimize_reduced"], "count")
    return out
