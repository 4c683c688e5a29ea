"""Layer spans and counts for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` replaces the
public functions of each fpsop module, where the package looks them up, with
wrappers that time the call.  The per-scalar methods ``WeightSequence.value``,
``DeltaSequence.value`` and ``DeltaSequence.kernel`` are only counted, since a
span per call would cost more than the call.  This module imports nothing
from fpsop at import time, so a traced process can time the import itself.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

CRITERION_CODES = ("thm21", "thm22", "thm23", "cor24", "thm25", "cor26")

# Every per-layer metric, with its unit, in report order.
LAYER_METRICS = {
    "import.fpsop_ms": "ms",
    "import.numpy_ms": "ms",
    "import.scipy_ms": "ms",
    "cli.parse_config_ms": "ms",
    "cli.self_ms": "ms",
    **{f"criteria.{code}_ms": "ms" for code in CRITERION_CODES},
    "criteria.calls": "count",
    "weights.value_calls": "count",
    "weights.kernel_calls": "count",
    "weights.kernel_distinct_frac": "ratio",
    "combinatorics.power_table_ms": "ms",
    "combinatorics.power_table_entries": "count",
    "series.diamond_product_ms": "ms",
    "series.diamond_product_calls": "count",
    "series.norm_ms": "ms",
    "series.norm_calls": "count",
    "series.compose_ms": "ms",
    "series.compose_calls": "count",
    "operators.build_matrix_ms": "ms",
    "operators.matrix_nnz": "count",
    "operators.column_lower_bound_ms": "ms",
    "operators.norm_estimate_l2_ms": "ms",
    "operators.oracle_ms": "ms",
    "operators.norm_lower_search_calls": "count",
    "operators.oracle_iterations": "count",
    "operators.oracle_unconverged": "count",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}

# Span name -> the metric that sums its self time.
_SELF_TIME_METRICS = {
    "cli.parse_config": "cli.parse_config_ms",
    "cli.run": "cli.self_ms",
    **{f"criteria.{code}": f"criteria.{code}_ms" for code in CRITERION_CODES},
    "combinatorics.PowerTable": "combinatorics.power_table_ms",
    "series.diamond_product": "series.diamond_product_ms",
    "series.norm": "series.norm_ms",
    "series.compose": "series.compose_ms",
    "operators.build_matrix": "operators.build_matrix_ms",
    "operators.column_lower_bound": "operators.column_lower_bound_ms",
    "operators.norm_estimate_l2": "operators.norm_estimate_l2_ms",
}

# Span name -> the metric that counts its calls.
_CALL_METRICS = {
    "series.diamond_product": "series.diamond_product_calls",
    "series.norm": "series.norm_calls",
    "series.compose": "series.compose_calls",
    "operators.norm_lower_search": "operators.norm_lower_search_calls",
}

_ORACLE_SPANS = ("operators.norm_estimate_l2", "operators.norm_lower_search")

_COUNTERS = ("value_calls", "kernel_calls", "kernel_distinct",
             "power_table_entries", "matrix_nnz", "oracle_iterations",
             "oracle_unconverged")


class Tracer:
    """In-memory spans and counters of one process.

    A span is ``[id, parent_id, request_id, name, start_ns, end_ns]``; the
    parent is the span open when it started.  Counters are kept as running
    totals and attributed to requests by their difference across each
    ``request`` block.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request_id = None
        self.totals = dict.fromkeys(_COUNTERS, 0)
        self.kernel_keys: set = set()
        self.request_counts: dict[str, dict] = {}

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, self.request_id, name, perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    @contextmanager
    def request(self, request_id: str):
        """Attribute spans and counter increments inside the block to a request."""
        self.request_id = request_id
        self.kernel_keys = set()
        before = dict(self.totals)
        try:
            yield
        finally:
            self.totals["kernel_distinct"] += len(self.kernel_keys)
            self.request_counts[request_id] = {
                k: self.totals[k] - before[k] for k in _COUNTERS}
            self.request_id = None

    def wrap(self, fn, name: str, after=None):
        """``fn`` with a span around each call; ``after`` sees the result."""

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "request_counts": self.request_counts}, fh)


def install(tracer: Tracer):
    """Route fpsop's public layer functions through ``tracer``.

    Functions are replaced where fpsop looks them up at call time: in the
    module that calls them (``cli`` imports several by name) and in the
    ``cli`` table that dispatches the evaluators.  Returns a function that
    puts every original back.
    """
    from fpsop import cli, criteria, operators, weights

    undo = []

    def patch(owner, attr, value):
        if isinstance(owner, dict):
            old = owner[attr]
            owner[attr] = value
            undo.append(lambda: owner.__setitem__(attr, old))
            return
        had_own = attr in vars(owner)
        old = vars(owner).get(attr)
        setattr(owner, attr, value)
        undo.append(lambda: setattr(owner, attr, old) if had_own else delattr(owner, attr))

    totals = tracer.totals

    def add(counter, amount):
        totals[counter] += amount

    def oracle_stats(cert):
        for note in cert.notes:
            if note.startswith(("iterations=", "evaluations=")):
                add("oracle_iterations", int(note.split("=", 1)[1]))
        add("oracle_unconverged", 0 if cert.converged else 1)

    def table_entries(table):
        stored = 0 if table.method == "direct" else (table.max_power + 1) * (table.degree_bound + 1)
        add("power_table_entries", stored)

    patch(cli, "parse_config", tracer.wrap(cli.parse_config, "cli.parse_config"))
    patch(cli, "run", tracer.wrap(cli.run, "cli.run"))
    for code, fn in list(cli._CRITERION_EVALUATORS.items()):
        traced = tracer.wrap(fn, f"criteria.{code}")
        patch(criteria, fn.__name__, traced)
        patch(cli._CRITERION_EVALUATORS, code, traced)
    patch(criteria, "PowerTable",
          tracer.wrap(criteria.PowerTable, "combinatorics.PowerTable", table_entries))
    patch(cli, "build_matrix", tracer.wrap(
        cli.build_matrix, "operators.build_matrix",
        lambda matrix: add("matrix_nnz", matrix.nnz)))
    patch(cli, "column_lower_bound",
          tracer.wrap(cli.column_lower_bound, "operators.column_lower_bound"))
    for name in ("norm_estimate_l2", "norm_lower_search"):
        patch(operators, name,
              tracer.wrap(getattr(operators, name), f"operators.{name}", oracle_stats))
    for name in ("diamond_product", "norm", "compose"):
        patch(cli, name, tracer.wrap(getattr(cli, name), f"series.{name}"))
    patch(criteria, "norm", tracer.wrap(criteria.norm, "series.norm"))

    for cls in (weights.WeightSequence, weights.DeltaSequence):
        value = cls.value

        def counted_value(self, n, _value=value):
            totals["value_calls"] += 1
            return _value(self, n)

        patch(cls, "value", counted_value)

    kernel = weights.DeltaSequence.kernel

    def counted_kernel(self, n, k):
        totals["kernel_calls"] += 1
        tracer.kernel_keys.add((id(self), n, k))
        return kernel(self, n, k)

    patch(weights.DeltaSequence, "kernel", counted_kernel)

    def restore():
        while undo:
            undo.pop()()

    return restore


def layer_totals(spans: list, request_counts: dict, request_walls_s: dict) -> dict:
    """Per-layer metrics summed over the given requests (one pass).

    Self time is a span's duration minus the time of its direct children;
    spans of one thread nest, so the children never overlap.  Coverage is
    the time inside top-level spans over the requests' wall time.
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] += span[5] - span[4]
    out = dict.fromkeys(LAYER_METRICS, 0)
    for metric in ("weights.kernel_distinct_frac", "trace.overhead_frac",
                   "trace.coverage_frac"):
        out[metric] = 0.0
    covered_ns = 0
    for span in spans:
        sid, parent, _, name, start, end = span
        if parent is None:
            covered_ns += end - start
        self_ms = (end - start - child_ns[sid]) / 1e6
        if name in _SELF_TIME_METRICS:
            out[_SELF_TIME_METRICS[name]] += self_ms
        if name in _CALL_METRICS:
            out[_CALL_METRICS[name]] += 1
        if name in _ORACLE_SPANS:
            out["operators.oracle_ms"] += self_ms
        if name.startswith("criteria."):
            out["criteria.calls"] += 1
    counts = defaultdict(int)
    for per_request in request_counts.values():
        for key, value in per_request.items():
            counts[key] += value
    out["weights.value_calls"] = counts["value_calls"]
    out["weights.kernel_calls"] = counts["kernel_calls"]
    if counts["kernel_calls"]:
        out["weights.kernel_distinct_frac"] = counts["kernel_distinct"] / counts["kernel_calls"]
    out["combinatorics.power_table_entries"] = counts["power_table_entries"]
    out["operators.matrix_nnz"] = counts["matrix_nnz"]
    out["operators.oracle_iterations"] = counts["oracle_iterations"]
    out["operators.oracle_unconverged"] = counts["oracle_unconverged"]
    wall_ns = sum(request_walls_s.values()) * 1e9
    if wall_ns:
        out["trace.coverage_frac"] = covered_ns / wall_ns
    return out


_IMPORTTIME_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$")


def import_times_ms(stderr_text: str) -> dict:
    """Import times, in ms, from ``python -X importtime -c "import fpsop.cli"``.

    The output lists modules children-first, indented by nesting depth.  Each
    package's time is the cumulative time of its outermost modules: for
    ``fpsop`` that is the whole import, and for ``numpy`` and ``scipy`` the
    modules not nested inside a numpy or scipy module, so that numpy
    submodules first imported by scipy count to scipy, once.
    """
    rows = []
    for line in stderr_text.splitlines():
        match = _IMPORTTIME_LINE.match(line)
        if match:
            rows.append((len(match.group(3)), match.group(4), int(match.group(2))))
    groups = {"fpsop": ("fpsop",), "numpy": ("numpy", "scipy"), "scipy": ("numpy", "scipy")}
    out = {}
    for package, enclosing in groups.items():
        total_us = 0
        stack: list[tuple[int, bool]] = []  # (depth, nested in an enclosing package)
        for depth, name, cumulative_us in reversed(rows):  # parents before children
            while stack and stack[-1][0] >= depth:
                stack.pop()
            nested = bool(stack) and stack[-1][1]
            top = name.split(".", 1)[0]
            if top == package and not nested:
                total_us += cumulative_us
            stack.append((depth, nested or top in enclosing))
        out[package] = total_us / 1000.0
    return out
