"""Differential harness: oracle closures vs the compiled pipelines.

For each theory this checks, against the proof-theoretic oracle, the
positive atom sets of the well-founded models of both compiled programs,
the hybrid (stratified floor + Fitting) backend, the totality the pure
stratified backend rests on, the structural guarantees of the compilation,
and the subset chain of the four closures.  Failures carry a category
prefix so callers can slice them; a failing theory can be shrunk with
:func:`minimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .compiler import (
    CompilationOutput,
    compile_individual,
    compile_team,
    read_conclusions,
)
from .datalog import (
    compute_signing,
    dependency_graph,
    is_call_consistent,
    is_safe,
    stratify,
    stratify_heads,
)
from .evaluator import eval_hybrid, eval_wellfounded, ground_program
from .mangling import TAG_DEFEASIBLY, TAG_DEFINITELY, TAG_LAMBDA, TAG_OVERRULED
from .oracle import conclusions
from .theory import (
    DefeasibleTheory,
    EmptyUniverse,
    is_hierarchical,
    is_range_restricted,
    validate_theory,
)


@dataclass
class CheckResult:
    name: str
    failures: list[str] = field(default_factory=list)
    skipped_eval: bool = False

    @property
    def agree(self) -> bool:
        return not self.failures

    def failures_in(self, category: str) -> list[str]:
        return [f for f in self.failures if f.startswith(category + ":")]


def _literals(lits) -> str:
    return "{" + ", ".join(sorted(str(l) for l in lits)) + "}"


def _compare(result: CheckResult, category: str, what: str, got, want) -> None:
    if got != want:
        result.failures.append(
            f"{category}: {what}: got {_literals(got)}, want {_literals(want)}"
        )


def _structural(result: CheckResult, theory: DefeasibleTheory, team: CompilationOutput,
                indiv: CompilationOutput, strata: dict, safe: dict) -> None:
    if strata["individual"] is None:
        result.failures.append("structural: individual-defeat program is not stratified")
    if not is_call_consistent(team.program):
        result.failures.append("structural: team program is not call-consistent")
    if is_hierarchical(theory) is not None and strata["team"] is None:
        result.failures.append("structural: hierarchical theory compiled to a non-stratified program")
    rr = is_range_restricted(theory)
    for label, out in (("team", team), ("individual", indiv)):
        if safe[label] != rr:
            result.failures.append(
                f"structural: {label} safety {safe[label]} != range-restriction {rr}"
            )
        floor = out.floor_names
        graph = dependency_graph(out.program)
        if any(p in floor and q not in floor for p, q, _ in graph.edges):
            result.failures.append(f"structural: {label} floor is not downward closed")
        if stratify_heads(graph, floor) is None:
            result.failures.append(f"structural: {label} floor subprogram is not stratified")
        scope = [p for p in out.program.predicates if p not in floor]
        signing = compute_signing(out.program, scope)
        if signing is None:
            result.failures.append(f"structural: {label} above-floor signing not found")
        else:
            for pred in scope:
                base = out.predicate_info[pred].base
                if base == TAG_DEFEASIBLY and signing.sign(pred) != +1:
                    result.failures.append(f"structural: {label} signing gives {pred} sign -1")
                if base == TAG_OVERRULED and signing.sign(pred) != -1:
                    result.failures.append(f"structural: {label} signing gives {pred} sign +1")


def check_theory(theory: DefeasibleTheory, name: str = "theory") -> CheckResult:
    """Run the full differential and structural battery on one theory,
    stratifying and grounding each compiled program once."""
    result = CheckResult(name)
    report = validate_theory(theory)
    if not report.ok:
        result.failures.append("validation: " + "; ".join(i.message for i in report.errors))
        return result

    team = compile_team(theory)
    indiv = compile_individual(theory)
    strata = {out.mode: stratify(out.program) for out in (team, indiv)}
    safe = {out.mode: is_safe(out.program) for out in (team, indiv)}
    _structural(result, theory, team, indiv, strata, safe)

    try:
        oracle = conclusions(theory)
    except EmptyUniverse:
        result.skipped_eval = True
        return result

    if not (oracle.delta <= oracle.dpar_star <= oracle.dpar <= oracle.lam):
        result.failures.append("chain: closure subset chain violated")

    if not safe["team"]:
        result.skipped_eval = True
        return result

    ground = {out.mode: ground_program(out.program, out.constants) for out in (team, indiv)}
    wf = {out.mode: eval_wellfounded(out.program, ground[out.mode]) for out in (team, indiv)}
    for out, closure in ((team, "dpar"), (indiv, "dpar_star")):
        got = read_conclusions(out, wf[out.mode].true_set)
        category = f"oracle-{out.mode}"
        _compare(result, category, "definitely vs delta", got[TAG_DEFINITELY], oracle.delta)
        _compare(result, category, "lambda", got[TAG_LAMBDA], oracle.lam)
        _compare(
            result, category, f"defeasibly vs {closure}", got[TAG_DEFEASIBLY], oracle.tagged()[closure]
        )

    for label, out in (("team", team), ("individual", indiv)):
        hybrid = eval_hybrid(out, ground[label])
        is_defeasibly = lambda p: out.predicate_info[p].base == TAG_DEFEASIBLY
        want = wf[label].true_of(is_defeasibly)
        got = hybrid.true_of(is_defeasibly)
        if got != want:
            result.failures.append(
                f"hybrid: {label} defeasibly truths differ: "
                f"got {sorted(map(str, got))}, want {sorted(map(str, want))}"
            )
        # The stratified backend returns this model, which must then be total.
        if strata[label] is not None and not wf[label].is_total():
            result.failures.append(f"stratified-backend: {label} well-founded model is not total")
    return result


def minimize(
    theory: DefeasibleTheory, still_failing: Callable[[DefeasibleTheory], bool]
) -> DefeasibleTheory:
    """Greedy one-at-a-time shrink keeping ``still_failing`` true: take the
    first smaller candidate that still fails (dropping a rule with its
    superiority pairs, then a fact, then a superiority pair) until none does."""

    def smaller(t: DefeasibleTheory):
        for rule in t.rules:
            yield DefeasibleTheory.of(
                t.facts,
                tuple(r for r in t.rules if r is not rule),
                frozenset(p for p in t.superiority if rule.label not in p),
            )
        for fact in sorted(t.facts):
            yield DefeasibleTheory.of(t.facts - {fact}, t.rules, t.superiority)
        for pair in sorted(t.superiority):
            yield DefeasibleTheory.of(t.facts, t.rules, t.superiority - {pair})

    current = theory
    while True:
        shrunk = next((c for c in smaller(current) if still_failing(c)), None)
        if shrunk is None:
            return current
        current = shrunk


def minimize_failure(theory: DefeasibleTheory) -> Optional[DefeasibleTheory]:
    """Shrink a theory on which :func:`check_theory` reports failures."""
    if check_theory(theory).agree:
        return None

    def still_failing(candidate: DefeasibleTheory) -> bool:
        try:
            return not check_theory(candidate).agree
        except Exception:
            return False

    return minimize(theory, still_failing)
