"""The benchmark tracer's contract with the package: ``perfbench/tracing.py``
wraps functions by module and name, private ones included, so every one
must exist; it wraps ``evaluator._ground_clauses`` and counts the two items
of its result as ground clauses and Herbrand base, so those counts must be
the sizes of the grounding that the traced request evaluates."""

import importlib
import io
import random
import sys
import types
from contextlib import redirect_stdout
from pathlib import Path

from defeasidl import check, cli, evaluator
import corpus

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing
import workloads


def test_every_traced_function_resolves():
    # The tracer wraps functions by name, private ones included.
    for module, attr, _, _ in tracing.TARGETS:
        found = getattr(importlib.import_module(f"defeasidl.{module}"), attr, None)
        assert callable(found), (module, attr)


def test_traced_succ_chain_solve_reports_its_layers(tmp_path):
    path = tmp_path / "succ.dfl"
    path.write_text(workloads.succ_theory(workloads.chain_names(random.Random(1), 40)))
    names = ("cli", "parser", "theory", "compiler", "datalog", "evaluator", "oracle", "check")
    pkg = types.SimpleNamespace(**{n: importlib.import_module(f"defeasidl.{n}") for n in names})
    pkg.modules = tracing.module_list()
    tracer = tracing.Tracer(pkg)
    with tracer.operation("succ wf"), redirect_stdout(io.StringIO()):
        code = cli.main(["--no-timings", "solve", str(path)])
    assert code == 0
    (row,) = tracer.per_operation()
    for metric in ("compiler.read_conclusions_s", "evaluator.ground_s"):
        assert row[metric] > 0, metric
    for metric in ("evaluator.ground_clauses", "evaluator.herbrand_base"):
        assert row[metric] > 3 * 41, metric  # more than the facts' unit clauses


def test_traced_hybrid_solve_counts_its_grounding(tmp_path, monkeypatch):
    path = tmp_path / "reach.dfl"
    path.write_text(workloads.reach_theory(workloads.random_digraph(random.Random(1), 12)))
    groundings = []
    real = evaluator.ground_program

    def recording(*args, **kwargs):
        groundings.append(real(*args, **kwargs))
        return groundings[-1]

    monkeypatch.setattr(cli, "ground_program", recording)
    names = ("cli", "parser", "theory", "compiler", "datalog", "evaluator", "oracle", "check")
    pkg = types.SimpleNamespace(**{n: importlib.import_module(f"defeasidl.{n}") for n in names})
    pkg.modules = tracing.module_list()
    tracer = tracing.Tracer(pkg)
    with tracer.operation("reach hybrid"), redirect_stdout(io.StringIO()):
        code = cli.main(["--no-timings", "solve", str(path), "--backend", "hybrid"])
    assert code == 0
    (row,) = tracer.per_operation()
    (g,) = groundings
    counted = (row["evaluator.ground_clauses"], row["evaluator.herbrand_base"])
    assert counted == (len(g.instances), len(g.herbrand_base)) == (365, 453)


def test_traced_check_reports_its_structural_layers():
    # The tracer finds the structural battery and the strata by the names of
    # check._structural and datalog.stratify, and the team's strata in
    # stratify's mapping; a refactor must not leave these figures at zero.
    names = ("cli", "parser", "theory", "compiler", "datalog", "evaluator", "oracle", "check")
    pkg = types.SimpleNamespace(**{n: importlib.import_module(f"defeasidl.{n}") for n in names})
    pkg.modules = tracing.module_list()
    tracer = tracing.Tracer(pkg)
    with tracer.operation("check tweety"):
        result = check.check_theory(corpus.load("tweety"), "tweety")
    assert result.agree, result.failures
    (row,) = tracer.per_operation()
    for metric in ("datalog.structural_s", "datalog.stratify_s", "check.check_theory_s"):
        assert row.get(metric, 0) > 0, metric
    assert row.get("datalog.team_strata", 0) > 0

