import random
import sys
from collections import Counter
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest

from conftest import failures_in, theory
from defeasidl import check, datalog, evaluator, generator, oracle
from defeasidl import theory as theory_module
from defeasidl.check import CheckResult, _structural, check_theory, minimize, minimize_failure
from defeasidl.cli import main
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import (
    POSITIVE, DClause, DatalogProgram, DependencyGraph, parse_datalog, stratify)
from defeasidl.evaluator import ThreeValuedInterpretation
from defeasidl.graph import _tarjan_sccs
from defeasidl.parser import parse_theory
from defeasidl.theory import DefeasibleTheory
import corpus
from analysis_reference import restrict_to
from evaluation_reference import reference_wellfounded
from grounding_reference import decoded
from residual_generator import residual_theory
from test_compiler import SHARED_SCHEMAS
from test_evaluation import corpus_slice
from test_grounding import rot_theory

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import chain_names, random_digraph, reach_theory, succ_theory


def test_corpus_theories_agree(tweety, platypus, nonstrat):
    for t in (tweety, platypus, nonstrat):
        result = check_theory(t)
        assert result.agree, result.failures


def test_invalid_theory_reported_not_crashed():
    result = check_theory(theory("r1: p => q.\nr1 > r1."))
    assert not result.agree
    assert failures_in(result, "validation")


def test_empty_universe_skips_evaluation():
    result = check_theory(theory("r: p(X) => q(X)."))
    assert result.agree
    assert result.skipped_eval


def test_an_unsafe_individual_program_skips_evaluation(tweety, monkeypatch, capsys):
    # A safe team program with an unsafe individual one: the structural
    # battery reports it, and neither program is grounded.
    real = check.compile_individual
    unsafe = parse_datalog("defeasibly__fly(X) :- not definitely__bird(X).").clauses

    def planted(theory, team=None):
        out = real(theory, team)
        return replace(out, program=DatalogProgram(out.program.clauses + unsafe))

    monkeypatch.setattr(check, "compile_individual", planted)
    result = check_theory(tweety)
    assert result.failures == ["structural: individual safety False != range-restriction True"]
    assert result.skipped_eval
    assert main(["--no-timings", "check", str(corpus.path("tweety"))]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_residual_slice_agrees_and_mostly_leaves_atoms_unknown():
    # The acceptance corpus almost never reaches the well-founded residual;
    # this slice does, and the count keeps a drifting generator from making
    # it vacuous.  check_theory compares true atoms only, and leaving a
    # residual atom unknown instead of false changes none of them, so the
    # team model is also compared whole with the alternating fixpoint.
    rng = random.Random(20261019)
    unknown = 0
    for i in range(200):
        t = residual_theory(rng)
        result = check_theory(t, f"residual-{i}")
        assert result.agree, (i, result.failures)
        program = compile_team(t).program
        wf = evaluator.eval_wellfounded(program)
        reference = reference_wellfounded(program)
        assert (wf.true_set, wf.false_set) == (reference.true_set, reference.false_set), i
        unknown += not wf.is_total()
    assert unknown >= 100


def test_failure_categories_are_sliceable(rng):
    result = check_theory(generator.random_ground_theory(rng))
    assert result.agree
    assert failures_in(result, "oracle-team") == []


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


def test_minimize_drops_a_superiority_pair_its_rules_do_not_need():
    # Neither rule can go, and there is no fact: only the third shrink step,
    # dropping a superiority pair, keeps the predicate true.
    small = minimize(theory("r1: => p.\nr2: => neg p.\nr1 > r2."), lambda t: len(t.rules) == 2)
    assert len(small.rules) == 2
    assert small.superiority == frozenset()


def test_minimize_failure_returns_none_when_agreeing(tweety):
    assert minimize_failure(tweety) is None


def test_exhausted_memory_while_minimizing_is_not_a_passing_candidate(tweety, monkeypatch,
                                                                     capsys):
    # A candidate whose check runs out of memory has no verdict, so the
    # shrink must stop with the error rather than print a theory it
    # minimized on verdicts it never got.
    def planted(t, name="theory"):
        if t == tweety:
            return CheckResult(name, ["planted: the original fails"])
        raise MemoryError

    monkeypatch.setattr(check, "check_theory", planted)
    with pytest.raises(MemoryError):
        minimize_failure(tweety)
    code = main(["--no-timings", "check", str(corpus.path("tweety"))])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[-1].startswith("error resource-exhausted")
    assert "  minimized:" not in lines


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

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_each_compiled_program_is_grounded_at_most_once(monkeypatch):
    # The team program is grounded whole, and the individual program's part
    # above the floor once, on top of the team grounding's floor.
    calls = counting(monkeypatch, evaluator, "_ground_clauses")
    evaluated = 0
    for t in corpus_slice():
        before = calls[0]
        result = check_theory(t)
        assert result.agree, result.failures
        assert calls[0] - before == (0 if result.skipped_eval else 2)
        evaluated += not result.skipped_eval
    assert evaluated > 0


def test_each_check_builds_and_condenses_two_dependency_graphs(monkeypatch):
    # One signed graph per compiled program, built and condensed by the
    # structural battery; the groundings read that condensation, through the
    # program's cached graph, and build no graph of their own.
    built = counting(monkeypatch, datalog.DependencyGraph, "__init__")
    passes = tarjan_passes(monkeypatch, datalog)
    evaluated = 0
    for t in corpus_slice():
        before = built[0], passes()
        result = check_theory(t)
        assert result.agree, result.failures
        assert (built[0], passes()) == (before[0] + 2, before[1] + 2)
        evaluated += not result.skipped_eval
    assert evaluated > 0


def test_each_theory_is_validated_once(monkeypatch):
    calls = counting(monkeypatch, theory_module, "_validate")
    theories = corpus_slice()
    for t in theories:
        check_theory(t)
    assert calls[0] == len(theories)


def test_each_compiled_program_is_stratified_once(monkeypatch):
    # check_theory asks for each compiled program's strata in the structural
    # battery and again before the totality check; the program's dependency
    # graph keeps them, so each is levelled once.
    calls = counting(monkeypatch, datalog, "levels")
    for t in corpus_slice():
        before = calls[0]
        result = check_theory(t)
        assert result.agree, result.failures
        assert calls[0] - before == 2


def test_floor_is_stratified_on_the_whole_programs_graph():
    # check_theory decides each floor on the whole program's condensation;
    # the verdict is that of the floor subprogram, and where the whole
    # program stratifies, its levels on the floor are the floor's own.
    for t in corpus_slice():
        team, indiv = compile_team(t), compile_individual(t)
        result = CheckResult("floor")
        _structural(result, t, team, indiv)
        for out in (team, indiv):
            want = stratify(restrict_to(out.program, out.floor_names))
            refused = f"structural: {out.mode} floor subprogram is not stratified"
            assert (refused in result.failures) == (want is None)
            whole = stratify(out.program)
            if whole is not None:
                assert {p: whole[p] for p in want} == want


def test_non_stratified_floor_is_reported(tweety):
    team, indiv = compile_team(tweety), compile_individual(tweety)
    # Two atoms that defeat each other: call-consistent, but not stratified.
    loop = parse_datalog("p0 :- not p1.\np1 :- not p0.").clauses
    planted = replace(team, program=DatalogProgram(team.program.clauses + loop),
                      floor_names=team.floor_names | {"p0", "p1"})
    result = CheckResult("planted")
    _structural(result, tweety, planted, indiv)
    assert "structural: team floor subprogram is not stratified" in result.failures
    assert not any(f.startswith("structural: individual") for f in result.failures)


def tarjan_passes(monkeypatch, *modules):
    """Count the ``_tarjan_sccs`` passes made through the given modules'
    bindings, by default through every ``defeasidl`` module that binds it;
    returns a function reading the running total."""
    if not modules:
        modules = [m for name, m in sys.modules.items()
                   if name.startswith("defeasidl") and hasattr(m, "_tarjan_sccs")]
    counts = [counting(monkeypatch, module, "_tarjan_sccs") for module in modules]
    return lambda: sum(calls[0] for calls in counts)


def test_each_theory_condenses_at_most_six_graphs(monkeypatch):
    # One pass per compiled program's signed graph (2) and at most one per
    # grounding (2), which splits the signed components of two or more
    # predicates along their positive edges, plus the superiority cycle
    # search.  A team program that does not stratify adds the hierarchy
    # test, and ground atoms are condensed only where propagation and the
    # unfounded-set pass leave some undecided, in at most one evaluation.
    # No theory of the slice needs both; of the acceptance corpus only
    # ground-0958 does, with 7 passes.
    passes = tarjan_passes(monkeypatch)
    evaluated = 0
    for t in corpus_slice():
        before = passes()
        result = check_theory(t)
        assert result.agree, result.failures
        assert passes() - before <= 6
        evaluated += not result.skipped_eval
    assert evaluated > 0


def test_analyze_condenses_each_compiled_program_once(monkeypatch):
    # Only DependencyGraph.components condenses through the datalog binding.
    passes = tarjan_passes(monkeypatch, datalog)
    code = main(["--no-timings", "analyze", str(corpus.path("tweety"))])
    assert (code, passes()) == (0, 2)


def test_tweety_is_decided_without_condensing_ground_atoms(tweety, monkeypatch):
    out = compile_team(tweety)
    g = evaluator.ground_program(out.program, out.constants)
    passes = tarjan_passes(monkeypatch, evaluator)
    evaluator.eval_wellfounded(out.program, g)
    evaluator.eval_hybrid(out, g)
    assert passes() == 0


def test_only_the_residual_is_condensed_once_per_evaluation(monkeypatch):
    # The positive loop {p, q} and c above it are unfounded; a and b stay
    # unknown, so only they are condensed.
    program = parse_datalog("p :- q.\nq :- p.\nc :- p.\na :- not b.\nb :- not a.\nt.")
    g = evaluator.ground_program(program)
    condensed = []
    real = evaluator._tarjan_sccs

    def recording(nodes, successors):
        condensed.append(sorted(g.atoms[node][0] for node in nodes))
        return real(nodes, successors)

    monkeypatch.setattr(evaluator, "_tarjan_sccs", recording)
    for _ in range(2):
        interp = evaluator.eval_wellfounded(program, g)
        assert interp.unknown_set == {("a", ()), ("b", ())}
    assert evaluator.eval_fitting(program, g).unknown_set == {(n, ()) for n in "abcpq"}
    assert condensed == [["a", "b"], ["a", "b"]]


def test_one_grounding_builds_its_occurrence_index_once(tweety, monkeypatch):
    builds = [0]
    build = evaluator.GroundProgram.occurrences.func

    def counting_build(g):
        builds[0] += 1
        return build(g)

    index = cached_property(counting_build)
    index.__set_name__(evaluator.GroundProgram, "occurrences")
    monkeypatch.setattr(evaluator.GroundProgram, "occurrences", index)
    out = compile_team(tweety)
    g = evaluator.ground_program(out.program, out.constants)
    evaluator.eval_wellfounded(out.program, g)
    evaluator.eval_hybrid(out, g)
    assert builds == [1]
    # check_theory grounds the team program, then the individual program on
    # top of the team grounding's floor, and evaluates each grounding twice.
    groundings = counting(monkeypatch, evaluator, "_ground_clauses")
    assert check_theory(tweety).agree
    assert groundings == [2] and builds == [1 + 2]


def test_one_check_builds_each_clause_once_and_grounds_the_floor_once(tweety, monkeypatch):
    # DClause.__post_init__ runs once per clause built: every team clause and
    # the individual program's own C24, C25 and C26 clauses.  A grounding
    # hands each clause of its components to _fixed once, so a floor clause
    # is grounded once and each program's upper clauses once per program.
    built = [0]
    init = DClause.__post_init__

    def counted_init(clause):
        built[0] += 1
        init(clause)

    monkeypatch.setattr(DClause, "__post_init__", counted_init)
    outputs = []
    for name in ("compile_team", "compile_individual"):
        real = getattr(check, name)
        monkeypatch.setattr(check, name, lambda *args, real=real: outputs.append(real(*args))
                            or outputs[-1])
    grounded = Counter()
    fixed = evaluator._fixed
    monkeypatch.setattr(evaluator, "_fixed", lambda clause: grounded.update([id(clause)])
                        or fixed(clause))
    evaluated = 0
    for t in [tweety, *corpus_slice()]:
        outputs.clear()
        grounded.clear()
        built[0] = 0
        result = check_theory(t)
        team, indiv = outputs
        own = [c for c, info in zip(indiv.program.clauses, indiv.provenance)
               if info.schema not in SHARED_SCHEMAS]
        assert built[0] == len(team.program.clauses) + len(own)
        if result.skipped_eval:
            assert not grounded
            continue
        evaluated += 1
        floor = [c for c in team.program.clauses if c.head.predicate in team.floor_names]
        assert all(grounded[id(c)] == 1 for c in floor)
        uppers = sum(c.head.predicate not in out.floor_names
                     for out in (team, indiv) for c in out.program.clauses)
        assert sum(grounded.values()) == len(floor) + uppers
    assert evaluated > 0


def positively_recursive(program) -> bool:
    """Some component of the program's positive dependency graph is recursive."""
    adjacency = datalog.dependency_graph(program).adjacency
    positive = {p: [q for q, bits in out.items() if bits & POSITIVE]
                for p, out in adjacency.items()}
    return any(len(c) > 1 or c[0] in positive[c[0]] for c in _tarjan_sccs(positive, positive))


def test_variable_free_programs_are_grounded_without_tables(monkeypatch):
    # Without a variable or a positively recursive component, every component
    # joins the grounder's running pass and nothing is joined: no table is read,
    # so none is synced with the atom numbers or filled.
    synced = counting(monkeypatch, evaluator, "_sync")
    filled = counting(monkeypatch, evaluator._Atoms, "add")
    gated = evaluated = 0
    for t in corpus_slice():
        if t.has_variables() or any(positively_recursive(compile_(t).program)
                                    for compile_ in (compile_team, compile_individual)):
            continue
        gated += 1
        evaluated += not check_theory(t).skipped_eval
    assert gated == evaluated >= 30
    assert synced == [0] and filled == [0]


def evaluated_groundings(monkeypatch):
    """The groundings check_theory evaluates, by mode, as it hands them to eval_hybrid."""
    seen = {}
    real = check.eval_hybrid

    def recording(out, g):
        seen[out.mode] = g
        return real(out, g)

    monkeypatch.setattr(check, "eval_hybrid", recording)
    return seen


def test_groundings_on_the_shared_floor_are_the_per_mode_ones(monkeypatch):
    # The team program is grounded whole and the individual program on top
    # of that grounding's floor; each result must be the program's own
    # grounding, with the same well-founded and hybrid models.
    def whole(interp):
        return interp.true_set, interp.false_set, interp.domain

    seen = evaluated_groundings(monkeypatch)
    texts = [reach_theory(random_digraph(random.Random(1), n)) for n in (12, 16, 20)]
    texts += [succ_theory(chain_names(random.Random(1), n)) for n in (10, 40)]
    theories = [*corpus_slice(), rot_theory(8), *(parse_theory(text) for text in texts)]
    compared = 0
    for t in theories:
        seen.clear()
        result = check_theory(t)
        assert result.agree, result.failures
        for out in (compile_team(t), compile_individual(t)):
            got = seen[out.mode]
            want = evaluator.ground_program(out.program, out.constants,
                                            self_supporting=out.upper_names,
                                            demand=out.floor_names | out.defeasibly_names)
            assert sorted(decoded(got)) == sorted(decoded(want))
            assert (got.herbrand_base, got.derived) == (want.herbrand_base, want.derived)
            assert whole(evaluator.eval_wellfounded(out.program, got)) == whole(
                evaluator.eval_wellfounded(out.program, want))
            assert whole(evaluator.eval_hybrid(out, got)) == whole(evaluator.eval_hybrid(out, want))
            compared += 1
    assert compared == 2 * len(theories)


def test_chain_violation_is_a_chain_failure(tweety, monkeypatch):
    # Plant a broken chain: dpar* as large as lambda, which tweety's
    # conflicts make larger than dpar.
    monkeypatch.setattr(oracle, "dpar_star_closure", lambda g, delta, lam: set(lam))
    result = check_theory(tweety)
    assert len(failures_in(result, "chain")) == 1
    assert result.failures == failures_in(result, "chain")


# Each fault below is planted on tweety through a name that ``check``
# imports, and must give exactly these failure lines, all in one category.
BIRD_FREDDIE = ("defeasibly__bird", ("freddie",))
DPAR = "{bird(freddie), bird(tweety), injured(freddie), neg fly(tweety), penguin(tweety)}"
WITHOUT_FREDDIE = "{bird(tweety), injured(freddie), neg fly(tweety), penguin(tweety)}"


def without_bird_freddie(interp):
    return ThreeValuedInterpretation(interp.true_set - {BIRD_FREDDIE}, interp.false_set,
                                     interp.domain)


def one_false_atom_unknown(interp):
    return ThreeValuedInterpretation(interp.true_set, interp.false_set - {min(interp.false_set)},
                                     interp.domain)


def floor_reads_fly(graph):
    edges = [(p, q, bits) for p, out in graph.adjacency.items() for q, bits in out.items()]
    return DependencyGraph(graph.adjacency,
                           [*edges, ("definitely__bird", "defeasibly__fly", POSITIVE)])


def fly_signs_flipped(signing):
    flipped = {"defeasibly__fly", "overruled__fly"}
    return {p: -s if p in flipped else s for p, s in signing.items()}


def dropping_bird_freddie(read_conclusions):
    return lambda out, atoms, *tags: read_conclusions(
        out, [a for a in atoms if a != BIRD_FREDDIE], *tags)


# name -> (its fake, given the real one; the (category, line) pairs expected)
PLANTED = {
    "read_conclusions": (dropping_bird_freddie, [
        ("oracle-team", f"oracle-team: defeasibly vs dpar: got {WITHOUT_FREDDIE}, want {DPAR}"),
        ("oracle-individual",
         f"oracle-individual: defeasibly vs dpar_star: got {WITHOUT_FREDDIE}, want {DPAR}"),
    ]),
    "eval_hybrid": (lambda real: lambda out, g: without_bird_freddie(real(out, g)), [
        ("hybrid", f"hybrid: team defeasibly: got {WITHOUT_FREDDIE}, want {DPAR}"),
        ("hybrid", f"hybrid: individual defeasibly: got {WITHOUT_FREDDIE}, want {DPAR}"),
    ]),
    "eval_wellfounded": (lambda real: lambda program, g: one_false_atom_unknown(real(program, g)), [
        ("stratified-backend", "stratified-backend: team well-founded model is not total"),
        ("stratified-backend", "stratified-backend: individual well-founded model is not total"),
    ]),
    "stratify": (lambda real: lambda program: None, [
        ("structural", "structural: individual-defeat program is not stratified"),
        ("structural", "structural: hierarchical theory compiled to a non-stratified program"),
    ]),
    "is_call_consistent": (lambda real: lambda program: False, [
        ("structural", "structural: team program is not call-consistent"),
    ]),
    "is_safe": (lambda real: lambda program: False, [
        ("structural", "structural: team safety False != range-restriction True"),
        ("structural", "structural: individual safety False != range-restriction True"),
    ]),
    "dependency_graph": (lambda real: lambda program: floor_reads_fly(real(program)), [
        ("structural", "structural: team floor is not downward closed"),
        ("structural", "structural: individual floor is not downward closed"),
    ]),
    "compute_signing": (lambda real: lambda program, scope: None, [
        ("structural", "structural: team above-floor signing not found"),
        ("structural", "structural: individual above-floor signing not found"),
    ]),
    "compute_signing-flipped": (
        lambda real: lambda program, scope: fly_signs_flipped(real(program, scope)), [
            ("structural", "structural: team signing gives defeasibly__fly sign -1"),
            ("structural", "structural: team signing gives overruled__fly sign +1"),
            ("structural", "structural: individual signing gives defeasibly__fly sign -1"),
            ("structural", "structural: individual signing gives overruled__fly sign +1"),
        ]),
}


@pytest.mark.parametrize("planted", PLANTED)
def test_each_planted_fault_gives_its_failure_lines(tweety, monkeypatch, planted):
    fake, expected = PLANTED[planted]
    name = planted.split("-")[0]
    monkeypatch.setattr(check, name, fake(getattr(check, name)))
    result = check_theory(tweety)
    assert result.failures == [line for _, line in expected]
    for category, _ in expected:
        assert failures_in(result, category) == [l for c, l in expected if c == category]
    assert result.skipped_eval == (name == "is_safe")


def test_check_verbose_reports_each_agreeing_theory(capsys):
    path = str(corpus.path("tweety"))
    assert main(["--no-timings", "check", "--verbose", path]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"{path}: agree", "checked 1 theories: all agree"]
