"""Differential harness: oracle closures vs the compiled pipelines.

For each theory this checks, against the proof-theoretic oracle, the
positive atom sets of the well-founded models of both compiled programs,
the hybrid (stratified floor + Fitting) backend, the totality the pure
stratified backend rests on, the structural guarantees of the compilation,
and the subset chain of the four closures.  Each theory is grounded twice,
the floor by derivability and the part above it on demand from the
derivable defeasibly atoms, the grounding both WF and hybrid are exact on:
the team program whole, then the individual program (spliced from it) on
that grounding's floor, each reading its program's one condensation; the
evaluations share a grounding's occurrence index and condense only residuals.
Failures carry a category prefix to slice them by; a failing theory shrinks
with :func:`minimize`.
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
    NEGATIVE,
    compute_signing,
    dependency_graph,
    is_call_consistent,
    is_safe,
    stratify,
)
from .evaluator import eval_hybrid, eval_wellfounded, ground_program
from .mangling import TAG_DEFEASIBLY, TAG_DEFINITELY, TAG_LAMBDA, TAG_OVERRULED
from .oracle import ChainViolation, conclusions
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


def _literals(lits) -> str:
    return "{" + ", ".join(sorted(str(l) for l in lits)) + "}"


def _compare(result: CheckResult, category: str, what: str, got, want) -> None:
    if got != want:
        result.failures.append(
            f"{category}: {what}: got {_literals(got)}, want {_literals(want)}"
        )


def _structural(result: CheckResult, theory: DefeasibleTheory, team: CompilationOutput,
                indiv: CompilationOutput) -> None:
    if stratify(indiv.program) is None:
        result.failures.append("structural: individual-defeat program is not stratified")
    if not is_call_consistent(team.program):
        result.failures.append("structural: team program is not call-consistent")
    if stratify(team.program) is None and is_hierarchical(theory) is not None:
        result.failures.append("structural: hierarchical theory compiled to a non-stratified program")
    rr = is_range_restricted(theory)
    for out in (team, indiv):
        label, floor, upper = out.mode, out.floor_names, out.upper_names
        if is_safe(out.program) != rr:
            result.failures.append(f"structural: {label} safety {not rr} != range-restriction {rr}")
        graph = dependency_graph(out.program)
        if any(p in floor and not upper.isdisjoint(qs) for p, qs in graph.adjacency.items()):
            result.failures.append(f"structural: {label} floor is not downward closed")
        # A closed floor holds whole components, so it stratifies iff none has a negative
        # edge; check_theory's individual floor is the team's, so only the team's is read.
        elif out is team and any(bits & NEGATIVE and p in floor for p, _, bits in graph.inside):
            result.failures.append(f"structural: {label} floor subprogram is not stratified")
        signing = compute_signing(out.program, upper)
        if signing is None:
            result.failures.append(f"structural: {label} above-floor signing not found")
            continue
        for pred in (p for p in out.program.predicates if p in upper):  # in program order
            base = out.predicate_info[pred].base
            if base == TAG_DEFEASIBLY and signing[pred] != +1:
                result.failures.append(f"structural: {label} signing gives {pred} sign -1")
            if base == TAG_OVERRULED and signing[pred] != -1:
                result.failures.append(f"structural: {label} signing gives {pred} sign +1")


def check_theory(theory: DefeasibleTheory, name: str = "theory") -> CheckResult:
    """Run the full differential and structural battery on one theory,
    condensing each compiled program's graph and grounding it once."""
    result = CheckResult(name)
    report = validate_theory(theory)
    if not report.ok:
        result.failures.append("validation: " + "; ".join(i.message for i in report.errors))
        return result

    team = compile_team(theory)
    indiv = compile_individual(theory, team)
    _structural(result, theory, team, indiv)

    try:
        oracle = conclusions(theory)
    except EmptyUniverse:
        result.skipped_eval = True
        return result
    except ChainViolation as exc:
        result.failures.append(f"chain: {exc}")
        return result

    if not (is_safe(team.program) and is_safe(indiv.program)):  # _structural reported which
        result.skipped_eval = True
        return result

    # The team program is grounded whole, and the individual program, which
    # holds the team's floor clauses, on top of that grounding's floor.
    ground = None
    for out, closure in ((team, "dpar"), (indiv, "dpar_star")):
        ground = ground_program(out.program, out.constants, self_supporting=out.upper_names,
                                demand=out.floor_names | out.defeasibly_names, floor=ground)
        wf = eval_wellfounded(out.program, ground)
        got = read_conclusions(out, wf.true_set)
        category = f"oracle-{out.mode}"
        _compare(result, category, "definitely vs delta", got[TAG_DEFINITELY], oracle.delta)
        _compare(result, category, "lambda", got[TAG_LAMBDA], oracle.lam)
        _compare(result, category, f"defeasibly vs {closure}", got[TAG_DEFEASIBLY],
                 oracle.tagged()[closure])
        hybrid = read_conclusions(out, eval_hybrid(out, ground).true_set, (TAG_DEFEASIBLY,))
        _compare(result, "hybrid", f"{out.mode} defeasibly", hybrid[TAG_DEFEASIBLY],
                 got[TAG_DEFEASIBLY])
        # The stratified backend returns this model, which must then be total.
        if stratify(out.program) is not None and not wf.is_total():
            result.failures.append(f"stratified-backend: {out.mode} well-founded model is not total")
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
        for fact in t.sorted_facts:
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
        except MemoryError:  # no verdict; cli.main reports it (see there on re-raising)
            raise
        except Exception:
            return False

    return minimize(theory, still_failing)
