import dataclasses
import random

import pytest

from conftest import theory
from defeasidl import evaluator, generator
from defeasidl.compiler import compile_individual, compile_team, read_conclusions
from defeasidl.datalog import DatalogProgram, is_safe, parse_datalog, stratify
from defeasidl.evaluator import (
    NotStratified,
    ThreeValuedInterpretation,
    UnsafeProgram,
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    format_atom,
    ground_program,
)
from defeasidl.oracle import conclusions
from evaluation_reference import information_leq, true_of, value
from grounding_reference import decoded, is_three_valued_model
from program_generator import random_program
from test_evaluation import corpus_slice


def atom(text: str):
    if "(" not in text:
        return (text, ())
    name, _, rest = text.partition("(")
    return (name, tuple(a.strip() for a in rest[:-1].split(",")))


class TestGrounding:
    def test_simple_instance(self):
        g = ground_program(parse_datalog("p(a). q(X) :- p(X)."))
        heads = {format_atom(c.head) for c in decoded(g)}
        assert heads == {"p(a)", "q(a)"}
        assert g.herbrand_base == {atom("p(a)"), atom("q(a)")}

    def test_propositional_program_unchanged(self):
        text = "p :- q, not r.\nq.\n"
        g = ground_program(parse_datalog(text))
        assert len(g.instances) == 2

    def test_unsafe_rejected(self):
        with pytest.raises(UnsafeProgram):
            ground_program(parse_datalog("p(X) :- not q(X)."))

    def test_positive_loops_are_kept(self):
        g = ground_program(parse_datalog("q :- q.\nr :- not q."))
        assert {format_atom(c.head) for c in decoded(g)} == {"q", "r"}

    def test_unsupported_joins_are_pruned(self):
        g = ground_program(parse_datalog("p(a).\np(b).\nq(X) :- p(X), r(X).\ns(X) :- p(X)."))
        # r has no clauses at all, so no q instance survives.
        assert {format_atom(c.head) for c in decoded(g)} == {"p(a)", "p(b)", "s(a)", "s(b)"}

    def test_tweety_team_instance_counts(self, tweety):
        g = ground_program(compile_team(tweety).program)
        by_pred = {}
        for c in decoded(g):
            by_pred[c.head[0]] = by_pred.get(c.head[0], 0) + 1
        assert by_pred["body__r3__delta"] == 1  # only penguin(tweety) is definite
        assert by_pred["overruled__fly"] == 2  # r2 at tweety, r4 at freddie
        assert by_pred["defeated__fly"] == 1  # r2 > r1 at tweety only


class TestStratifiedSemantics:
    def test_default_negation(self):
        interp = eval_stratified(parse_datalog("p :- not q."))
        assert value(interp, atom("p")) == "true"
        assert value(interp, atom("q")) == "false"
        assert interp.is_total()

    def test_not_stratified_raises(self):
        with pytest.raises(NotStratified):
            eval_stratified(parse_datalog("p :- not p."))

    def test_platypus_individual_mammal_false(self, platypus):
        out = compile_individual(platypus)
        interp = eval_stratified(out.program)
        assert value(interp, atom("defeasibly__mammal(platypus)")) == "false"
        assert value(interp, atom("defeasibly__not__mammal(platypus)")) == "false"

    def test_matches_wellfounded_when_stratified(self, rng):
        hits = 0
        for _ in range(120):
            p = random_program(rng)
            if stratify(p) is None:
                continue
            hits += 1
            s = eval_stratified(p)
            w = eval_wellfounded(p)
            assert s.true_set == w.true_set
            assert s.false_set == w.false_set
            assert s.is_total()
        assert hits > 20


class TestFittingSemantics:
    def test_negative_self_loop_unknown(self):
        assert value(eval_fitting(parse_datalog("p :- not p.")), atom("p")) == "unknown"

    def test_positive_self_loop_unknown(self):
        # No unfoundedness reasoning under Fitting.
        assert value(eval_fitting(parse_datalog("p :- p.")), atom("p")) == "unknown"

    def test_no_clauses_means_false(self):
        interp = eval_fitting(parse_datalog("p :- not q."))
        assert value(interp, atom("q")) == "false"
        assert value(interp, atom("p")) == "true"

    def test_below_wellfounded(self, rng):
        for _ in range(150):
            p = random_program(rng)
            assert information_leq(eval_fitting(p), eval_wellfounded(p))


class TestWellFoundedSemantics:
    def test_positive_loop_false(self):
        assert value(eval_wellfounded(parse_datalog("p :- p.")), atom("p")) == "false"

    def test_negative_loop_unknown(self):
        assert value(eval_wellfounded(parse_datalog("p :- not p.")), atom("p")) == "unknown"

    def test_classic_mixture(self):
        program = parse_datalog("a :- not b.\nb :- not a.\nc :- not d.\nd :- e.\ne :- d.")
        interp = eval_wellfounded(program)
        assert value(interp, atom("a")) == "unknown"
        assert value(interp, atom("b")) == "unknown"
        assert value(interp, atom("c")) == "true"
        assert value(interp, atom("d")) == "false"

    def test_tweety_team(self, tweety):
        interp = eval_wellfounded(compile_team(tweety).program)
        assert value(interp, atom("defeasibly__not__fly(tweety)")) == "true"
        assert value(interp, atom("defeasibly__fly(freddie)")) in ("false", "unknown")

    def test_result_is_a_model(self, rng):
        for _ in range(100):
            p = random_program(rng)
            assert is_three_valued_model(p, eval_wellfounded(p))

    def test_oracle_agreement_on_corpus(self, tweety, platypus, nonstrat):
        for t in (tweety, platypus, nonstrat):
            oracle = conclusions(t)
            team = compile_team(t)
            got = read_conclusions(team, eval_wellfounded(team.program).true_set)
            assert got["definitely"] == oracle.delta
            assert got["lambda"] == oracle.lam
            assert got["defeasibly"] == oracle.dpar
            indiv = compile_individual(t)
            got = read_conclusions(indiv, eval_wellfounded(indiv.program).true_set)
            assert got["defeasibly"] == oracle.dpar_star


class TestFloorTotality:
    def test_floor_atoms_never_unknown(self, tweety, nonstrat, platypus, rng):
        theories = [tweety, nonstrat, platypus]
        theories += [generator.random_ground_theory(rng) for _ in range(40)]
        for t in theories:
            out = compile_team(t)
            interp = eval_wellfounded(out.program)
            floor = out.floor_names
            for a in interp.unknown_set:
                assert a[0] not in floor


class TestHybrid:
    def test_tweety_agrees_with_wellfounded(self, tweety):
        out = compile_team(tweety)
        defeasibly = lambda p: out.predicate_info[p].base == "defeasibly"
        hybrid = eval_hybrid(out)
        wf = eval_wellfounded(out.program)
        assert true_of(hybrid, defeasibly) == true_of(wf, defeasibly)

    def test_nonstratified_team_program_agrees(self, nonstrat):
        out = compile_team(nonstrat)
        assert stratify(out.program) is None  # hybrid must still work
        defeasibly = lambda p: out.predicate_info[p].base == "defeasibly"
        assert true_of(eval_hybrid(out), defeasibly) == true_of(
            eval_wellfounded(out.program), defeasibly
        )

    def test_platypus_individual_three_way(self, platypus):
        out = compile_individual(platypus)
        defeasibly = lambda p: out.predicate_info[p].base == "defeasibly"
        hybrid = true_of(eval_hybrid(out), defeasibly)
        strat = true_of(eval_stratified(out.program), defeasibly)
        wf = true_of(eval_wellfounded(out.program), defeasibly)
        assert hybrid == strat == wf

    def test_upper_clauses_read_the_floor_truths(self):
        # overruled__fly(tweety) lies above the floor and holds only through
        # the floor truth body__r2__lam(tweety); without it both
        # defeasibly__fly(tweety) and defeasibly__not__fly(tweety) would hold.
        out = compile_team(theory("bird(tweety).\nr1: bird(X) => fly(X).\nr2: bird(X) => neg fly(X)."))
        assert "body__r2__lam" in out.floor_names
        assert "overruled__fly" not in out.floor_names
        hybrid = eval_hybrid(out)
        assert atom("body__r2__lam(tweety)") in hybrid.true_set
        defeasibly = lambda p: out.predicate_info[p].base == "defeasibly"
        assert true_of(hybrid, defeasibly) == {atom("defeasibly__bird(tweety)")}

    def test_rejects_programs_without_provenance(self):
        with pytest.raises(TypeError):
            eval_hybrid(parse_datalog("p :- not q."))

    def test_rejects_provenance_not_one_record_per_clause(self, tweety):
        out = compile_team(tweety)
        extra = parse_datalog("p :- not q.").clauses
        for bad in (
            out.program,
            dataclasses.replace(out, provenance=out.provenance[:-1]),
            dataclasses.replace(out, provenance=out.provenance + out.provenance[:1]),
            dataclasses.replace(out, program=DatalogProgram(out.program.clauses + extra)),
        ):
            with pytest.raises(TypeError):
                eval_hybrid(bad)


class TestInternalErrorGuards:
    # A planted fault: the evaluation leaves one true floor atom unknown.
    @pytest.fixture(autouse=True)
    def faulty(self, monkeypatch):
        evaluate = evaluator._evaluate

        def leaves_one_unknown(g, *args):
            interp = evaluate(g, *args)
            left = min(a for a in interp.true_set if a[0].startswith("definitely__"))
            return ThreeValuedInterpretation(interp.true_set - {left}, interp.false_set,
                                             interp.domain)

        monkeypatch.setattr(evaluator, "_evaluate", leaves_one_unknown)

    def test_stratified(self, tweety):
        with pytest.raises(RuntimeError,
                           match=r"^stratified program left atoms unknown \(internal error\)$"):
            eval_stratified(compile_individual(tweety).program)

    def test_hybrid(self, tweety):
        with pytest.raises(RuntimeError,
                           match=r"^hybrid floor left atoms unknown \(internal error\)$"):
            eval_hybrid(compile_team(tweety))


def test_a_shared_grounding_evaluates_as_a_fresh_one():
    # The grounding caches its condensation; every evaluation of it, in
    # either order, must equal the same evaluation of a fresh grounding.
    cases = [(out, out.program, out.constants)
             for t in corpus_slice()
             for out in (compile_team(t), compile_individual(t))
             if is_safe(out.program)]
    rng = random.Random(7)
    cases += [(None, p, None) for p in (random_program(rng) for _ in range(60))]
    for out, program, constants in cases:
        runs = [(eval_wellfounded, program), (eval_fitting, program)]
        if out is not None:
            runs.insert(0, (eval_hybrid, out))
        for order in (runs, runs[::-1]):
            shared = ground_program(program, constants)
            for evaluate, arg in order:
                fresh = evaluate(arg, ground_program(program, constants))
                assert evaluate(arg, shared) == fresh


def test_interpretation_invariants():
    with pytest.raises(ValueError):
        ThreeValuedInterpretation(frozenset({atom("p")}), frozenset({atom("p")}))
    interp = ThreeValuedInterpretation(
        frozenset({atom("p")}), frozenset({atom("q")}), frozenset({atom("r")})
    )
    assert interp.unknown_set == {atom("r")}
    assert not interp.is_total()
