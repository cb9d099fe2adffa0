from dataclasses import replace

from conftest import theory
from defeasidl import evaluator, generator
from defeasidl import theory as theory_module
from defeasidl.check import CheckResult, _structural, check_theory, minimize, minimize_failure
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import (
    DatalogProgram,
    dependency_graph,
    is_safe,
    parse_datalog,
    stratify,
    stratify_heads,
)
from defeasidl.theory import DefeasibleTheory
from analysis_reference import restrict_to
from test_evaluation import corpus_slice


def test_corpus_theories_agree(tweety, platypus, nonstrat):
    for t in (tweety, platypus, nonstrat):
        result = check_theory(t)
        assert result.agree, result.failures


def test_invalid_theory_reported_not_crashed():
    result = check_theory(theory("r1: p => q.\nr1 > r1."))
    assert not result.agree
    assert result.failures_in("validation")


def test_empty_universe_skips_evaluation():
    result = check_theory(theory("r: p(X) => q(X)."))
    assert result.agree
    assert result.skipped_eval


def test_failure_categories_are_sliceable(rng):
    result = check_theory(generator.random_ground_theory(rng))
    assert result.agree
    assert result.failures_in("oracle-team") == []


def test_minimize_shrinks_to_a_small_witness(tweety):
    # Shrink against a synthetic predicate: "some defeasible rule for neg fly
    # survives".  The minimizer must keep the predicate true while removing
    # everything else.
    def has_neg_fly_rule(t: DefeasibleTheory) -> bool:
        return any(r.head.predicate == "fly" and r.head.negated for r in t.rules)

    small = minimize(tweety, has_neg_fly_rule)
    assert has_neg_fly_rule(small)
    assert len(small.rules) == 1
    assert small.facts == frozenset()
    assert small.superiority == frozenset()


def test_minimize_failure_returns_none_when_agreeing(tweety):
    assert minimize_failure(tweety) is None


def test_mismatched_head_patterns_agree_with_oracle():
    # The defeat clause is keyed on the defender's head vector even when the
    # attacker's pattern differs (diagonal vs general); the ground-level
    # differential is the correctness argument.
    t = theory(
        "r(a, b).\np(a, a).\n"
        "s: p(X, X) => neg q(X, X).\n"
        "t: r(X, Y) => q(X, Y).\n"
        "t > s.\n"
    )
    result = check_theory(t)
    assert result.agree, result.failures
    c = __import__("defeasidl").conclusions(t)
    want = {"q(a, b)", "neg q(a, a)", "r(a, b)", "p(a, a)"}
    assert {str(l) for l in c.dpar} == want


def test_compiling_a_ground_theory_directly_agrees(tweety):
    from defeasidl.theory import DefeasibleTheory, ground_theory

    g = ground_theory(tweety)
    flat = DefeasibleTheory.of(g.facts, g.rules, g.superiority)
    result = check_theory(flat, "ground-tweety")
    assert result.agree, result.failures


def counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper; returns its running call count."""
    calls = [0]
    real = getattr(module, name)

    def wrapper(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_compiled_program_is_grounded_at_most_once(monkeypatch):
    calls = counting(monkeypatch, evaluator, "_ground_clauses")
    evaluated = 0
    for t in corpus_slice():
        before = calls[0]
        result = check_theory(t)
        assert result.agree, result.failures
        assert calls[0] - before <= (0 if result.skipped_eval else 2)
        evaluated += not result.skipped_eval
    assert evaluated > 0


def test_each_theory_is_validated_once(monkeypatch):
    calls = counting(monkeypatch, theory_module, "_validate")
    theories = corpus_slice()
    for t in theories:
        check_theory(t)
    assert calls[0] == len(theories)


def test_floor_is_stratified_on_the_whole_programs_graph():
    # check_theory stratifies each floor from the program's own graph; the
    # verdict and the levels are those of the floor subprogram.
    for t in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(t)
            want = stratify(restrict_to(out.program, out.floor_names))
            got = stratify_heads(dependency_graph(out.program), out.floor_names)
            assert (got is None) == (want is None)
            if want is not None:
                assert {p: got[p] for p in want} == want


def test_non_stratified_floor_is_reported(tweety):
    team, indiv = compile_team(tweety), compile_individual(tweety)
    # Two atoms that defeat each other: call-consistent, but not stratified.
    loop = parse_datalog("p0 :- not p1.\np1 :- not p0.").clauses
    planted = replace(team, program=DatalogProgram(team.program.clauses + loop),
                      floor_names=team.floor_names | {"p0", "p1"})
    programs = (planted, indiv)
    result = CheckResult("planted")
    _structural(result, tweety, planted, indiv,
                {out.mode: stratify(out.program) for out in programs},
                {out.mode: is_safe(out.program) for out in programs})
    assert "structural: team floor subprogram is not stratified" in result.failures
    assert not any(f.startswith("structural: individual") for f in result.failures)
