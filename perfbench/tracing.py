"""Spans around the calls the pipeline makes into each ``defeasidl`` layer.

The tracer wraps module-level functions for the duration of one traced
operation and restores them afterwards, so untraced operations run the
package exactly as shipped.  A wrapper replaces every binding of the
function in every ``defeasidl`` module, which also catches the names the
modules import from each other (``cli`` calls ``eval_wellfounded``
through its own namespace).  Spans stay in memory until :meth:`dump`.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
from time import perf_counter

# (module, function, span name, counter).  A counter maps the call's
# arguments and result to work counts stored on the span.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("parser", "parse_theory", "parser.parse_theory", None),
    ("theory", "validate_theory", "theory.validate_theory", None),
    ("theory", "ground_theory", "theory.ground_theory", "ground_theory"),
    ("compiler", "compile_team", "compiler.compile_team", "compile_team"),
    ("compiler", "compile_individual", "compiler.compile_individual", None),
    ("compiler", "read_conclusions", "compiler.read_conclusions", None),
    ("datalog", "stratify", "datalog.stratify", "stratify"),
    ("check", "_structural", "check._structural", None),
    ("check", "check_theory", "check.check_theory", None),
    ("evaluator", "_ground_clauses", "evaluator._ground_clauses", "ground_clauses"),
    ("evaluator", "eval_wellfounded", "evaluator.eval_wellfounded", None),
    ("evaluator", "eval_hybrid", "evaluator.eval_hybrid", None),
    ("evaluator", "eval_stratified", "evaluator.eval_stratified", None),
    ("evaluator", "eval_fitting", "evaluator.eval_fitting", None),
    ("oracle", "conclusions", "oracle.conclusions", None),
)

# Per-layer metric -> span name.  Each value is the sum over the matching
# spans of one operation.
SPAN_METRICS = {
    "cli.main_s": "cli.main",
    "parser.parse_s": "parser.parse_theory",
    "theory.validate_s": "theory.validate_theory",
    "compiler.team_s": "compiler.compile_team",
    "compiler.individual_s": "compiler.compile_individual",
    "compiler.read_conclusions_s": "compiler.read_conclusions",
    "datalog.stratify_s": "datalog.stratify",
    "datalog.structural_s": "check._structural",
    "evaluator.ground_s": "evaluator._ground_clauses",
    "evaluator.wf_s": "evaluator.eval_wellfounded",
    "evaluator.hybrid_s": "evaluator.eval_hybrid",
    "oracle.conclusions_s": "oracle.conclusions",
    "check.check_theory_s": "check.check_theory",
}

# Per-layer metric -> counter key, summed over the spans of one operation
# (``team_strata`` takes the maximum: one team program is stratified
# several times by one check).
COUNT_METRICS = {
    "evaluator.ground_clauses": "ground_clauses",
    "evaluator.herbrand_base": "herbrand_base",
    "compiler.team_clauses": "team_clauses",
    "compiler.team_size": "team_size",
    "datalog.team_strata": "team_strata",
    "oracle.ground_rules": "ground_rules",
}

# Every per-layer metric :meth:`Tracer.per_operation` reports.
LAYER_METRICS = (
    *SPAN_METRICS,
    "cli.self_s",
    "evaluator.wf_self_s",
    "evaluator.stratified_s",
    *COUNT_METRICS,
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, op, counts]``; ``parent``
    indexes ``spans`` (-1 for a root) and ``op`` numbers the operation."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list[list] = []
        self.ops: list[str] = []
        self._stack: list[int] = []
        self._team_programs: set[int] = set()
        wrappers = []
        for module, attr, name, counter in TARGETS:
            original = getattr(getattr(pkg, module), attr)
            count = getattr(self, f"_count_{counter}") if counter else None
            wrappers.append((original, self._wrap(original, name, count)))
        # Every (namespace, key) bound to a wrapped function, found once.
        self._bindings = [
            (vars(module), key, original, wrapper)
            for module in pkg.modules
            for key, value in vars(module).items()
            for original, wrapper in wrappers
            if value is original
        ]

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, len(self.ops) - 1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return traced

    def _count_ground_theory(self, args, g):
        return {"ground_rules": len(g.rules)}

    def _count_compile_team(self, args, out):
        self._team_programs.add(id(out.program))
        return {
            "team_clauses": len(out.program.clauses),
            "team_size": self.pkg.compiler.compiled_size(out),
        }

    def _count_stratify(self, args, strata):
        if id(args[0]) in self._team_programs and strata is not None:
            return {"team_strata": len(set(strata.values()))}
        return None

    def _count_ground_clauses(self, args, result):
        instances, base = result
        return {"ground_clauses": len(instances), "herbrand_base": len(base)}

    @contextlib.contextmanager
    def operation(self, label: str):
        """Trace the calls made inside the block as one operation."""
        self.ops.append(label)
        self._team_programs.clear()
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper
        try:
            yield
        finally:
            for namespace, key, original, _ in self._bindings:
                namespace[key] = original

    def per_operation(self) -> list[dict[str, float]]:
        """Per-layer values of each traced operation; a layer the operation
        never called is absent from its dict."""
        values: list[dict[str, float]] = [{} for _ in self.ops]
        names = {span_name: metric for metric, span_name in SPAN_METRICS.items()}
        counters = {key: metric for metric, key in COUNT_METRICS.items()}
        child_time = self._child_time()
        ground_child = self._child_time("evaluator._ground_clauses")
        for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
            row = values[op]
            duration = end - start
            metric = names.get(name)
            if metric is not None:
                row[metric] = row.get(metric, 0.0) + duration
            if name == "cli.main":
                row["cli.self_s"] = row.get("cli.self_s", 0.0) + duration - child_time[index]
            elif name == "evaluator.eval_wellfounded":
                row["evaluator.wf_self_s"] = (
                    row.get("evaluator.wf_self_s", 0.0) + duration - ground_child[index]
                )
            elif name == "evaluator.eval_stratified" and (
                parent < 0 or self.spans[parent][0] != "evaluator.eval_hybrid"
            ):
                # The floor of eval_hybrid is part of hybrid_s, not stratified_s.
                row["evaluator.stratified_s"] = row.get("evaluator.stratified_s", 0.0) + duration
            for key, amount in (counts or {}).items():
                metric = counters.get(key)
                if metric is None:
                    continue
                if key == "team_strata":
                    row[metric] = max(row.get(metric, 0), amount)
                else:
                    row[metric] = row.get(metric, 0) + amount
        return values

    def _child_time(self, only: str | None = None) -> list[float]:
        """Time each span spends in its direct children (named ``only``)."""
        totals = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0 and only in (None, name):
                totals[parent] += end - start
        return totals

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child_time = self._child_time()
        totals: dict[str, float] = {}
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, label in enumerate(self.ops):
                handle.write(json.dumps({"op": op, "label": label}) + "\n")
            for index, (name, start, end, parent, op, counts) in enumerate(self.spans):
                record = {"span": index, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op}
                if counts:
                    record["counts"] = counts
                handle.write(json.dumps(record) + "\n")


def layer_medians(rows: list[dict[str, float]], metrics) -> dict[str, float]:
    """Median of each metric over the operations that called the layer;
    0 when no operation of the workload calls it."""
    medians = {}
    for name in metrics:
        values = [row[name] for row in rows if name in row]
        medians[name] = statistics.median(values) if values else 0
    return medians


def module_list(package_name: str = "defeasidl") -> list:
    prefix = package_name + "."
    return [m for n, m in sys.modules.items() if n == package_name or n.startswith(prefix)]
