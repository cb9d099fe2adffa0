import pytest

from defeasidl import generator
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import (
    DatalogProgram,
    DatalogSyntaxError,
    DClause,
    Signing,
    compute_signing,
    dependency_graph,
    is_call_consistent,
    is_safe,
    parse_datalog,
    print_datalog,
    stratify,
)
from defeasidl.theory import is_hierarchical
from analysis_reference import has_negative_edge_in_scc, reference_call_consistent, reference_strata
from test_evaluation import corpus_slice


# Independent cross-checks of the analyses.

def is_valid_stratification(program: DatalogProgram, mapping: dict[str, int]) -> bool:
    for clause in program.clauses:
        m = mapping.get(clause.head.predicate)
        if m is None:
            return False
        for a in clause.positive:
            if a.predicate not in mapping or mapping[a.predicate] > m:
                return False
        for a in clause.negative:
            if a.predicate not in mapping or mapping[a.predicate] >= m:
                return False
    return True


def signing_satisfies_edges(program: DatalogProgram, signing: Signing) -> bool:
    graph = dependency_graph(program)
    for p, q, sign in graph.edges:
        if p in signing.scope and q in signing.scope:
            if signing.mapping[p] != signing.mapping[q] * sign:
                return False
    return True


class TestParsing:
    def test_negative_only_body(self):
        p = parse_datalog("p :- not q.")
        (clause,) = p.clauses
        assert clause.positive == () and len(clause.negative) == 1

    def test_function_symbol_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_datalog("p(f(X)).")

    def test_arity_conflict_rejected(self):
        with pytest.raises(DatalogSyntaxError):
            parse_datalog("p(a).\np(a, b).")

    def test_error_location(self):
        with pytest.raises(DatalogSyntaxError) as exc:
            parse_datalog("p(a).\nq :- r(.\n")
        assert exc.value.line == 2

    def test_round_trip_random(self, rng):
        for _ in range(100):
            p = generator.random_program(rng)
            assert set(parse_datalog(print_datalog(p)).clauses) == set(p.clauses)

    def test_comments_and_multiline(self):
        p = parse_datalog("% top\np(a, b). q(X) :-\n  p(X, Y). % tail\n")
        assert len(p.clauses) == 2


class TestDependencyGraph:
    def test_negative_edge(self):
        g = dependency_graph(parse_datalog("p :- not q."))
        assert g.edges == {("p", "q", -1)}

    def test_both_signs(self):
        g = dependency_graph(parse_datalog("p :- q, not q."))
        assert g.edges == {("p", "q", +1), ("p", "q", -1)}

    def test_compiled_defeat_cycle(self, nonstrat):
        g = dependency_graph(compile_team(nonstrat).program)
        for edge in [
            ("defeasibly__q", "overruled__q", -1),
            ("overruled__q", "defeated__not__q", -1),
            ("defeated__not__q", "body__t__d", +1),
            ("body__t__d", "defeasibly__q", +1),
        ]:
            assert edge in g.edges


class TestStratification:
    def test_negative_self_loop(self):
        assert stratify(parse_datalog("p :- not p.")) is None

    def test_even_negative_cycle_not_stratified(self):
        assert stratify(parse_datalog("p :- not q. q :- not p.")) is None

    def test_individual_compilation_always_stratified(self, rng, tweety, platypus, nonstrat):
        theories = [tweety, platypus, nonstrat]
        theories += [generator.random_ground_theory(rng) for _ in range(60)]
        for t in theories:
            program = compile_individual(t).program
            mapping = stratify(program)
            assert mapping is not None
            assert is_valid_stratification(program, mapping)

    def test_team_nonstrat_example(self, nonstrat):
        assert stratify(compile_team(nonstrat).program) is None

    def test_mapping_is_always_a_valid_witness(self, rng):
        for _ in range(100):
            p = generator.random_program(rng)
            mapping = stratify(p)
            if mapping is not None:
                assert is_valid_stratification(p, mapping)

    def test_agrees_with_scc_characterisation(self, rng):
        for _ in range(150):
            p = generator.random_program(rng)
            assert (stratify(p) is None) == has_negative_edge_in_scc(p)

    def test_mapping_is_the_least_stratification(self, rng):
        programs = [generator.random_program(rng) for _ in range(150)]
        programs += [compile_(t).program for t in corpus_slice()
                     for compile_ in (compile_team, compile_individual)]
        outcomes = {stratify(p) is None for p in programs}
        assert outcomes == {True, False}
        for p in programs:
            assert stratify(p) == reference_strata(p)

    def test_hierarchical_theory_matches_paper_witness(self, tweety):
        # The explicit level construction from the hierarchy mapping is a
        # valid stratification of the team compilation.
        out = compile_team(tweety)
        levels = is_hierarchical(tweety)
        assert levels is not None
        mapping = {}
        for pred, info in out.predicate_info.items():
            if info.base == "body":
                head = next(
                    r.head for r in tweety.rules if r.label == info.rule_label
                )
                n = levels[head.predicate]
                mapping[pred] = {"delta": 0, "lam": 1, "d": 3 * n + 3}[info.flavor]
            else:
                n = levels[info.source_predicate]
                mapping[pred] = {
                    "definitely": 0,
                    "lambda": 1,
                    "defeasibly": 3 * n + 5,
                    "overruled": 3 * n + 4,
                    "defeated": 3 * n + 3,
                }[info.base]
        assert is_valid_stratification(out.program, mapping)
        assert stratify(out.program) is not None


class TestCallConsistency:
    def test_negative_self_loop(self):
        assert not is_call_consistent(parse_datalog("p :- not p."))

    def test_even_cycle_is_call_consistent(self):
        assert is_call_consistent(parse_datalog("p :- not q. q :- not p."))

    def test_odd_three_cycle(self):
        assert not is_call_consistent(parse_datalog("p :- not q. q :- r. r :- p."))

    def test_team_compilation_always_call_consistent(self, rng, tweety, nonstrat):
        theories = [tweety, nonstrat] + [generator.random_ground_theory(rng) for _ in range(60)]
        for t in theories:
            assert is_call_consistent(compile_team(t).program)

    def test_agrees_with_product_graph_search(self, rng):
        programs = [generator.random_program(rng) for _ in range(150)]
        programs += [compile_(t).program for t in corpus_slice()
                     for compile_ in (compile_team, compile_individual)]
        verdicts = [is_call_consistent(p) for p in programs]
        assert set(verdicts) == {True, False}
        assert verdicts == [reference_call_consistent(p) for p in programs]

    def test_stratified_implies_call_consistent(self, rng):
        for _ in range(150):
            p = generator.random_program(rng)
            if stratify(p) is not None:
                assert is_call_consistent(p)


class TestSigning:
    def test_team_above_floor_signing(self, tweety, nonstrat, platypus):
        for t in (tweety, nonstrat, platypus):
            for out in (compile_team(t), compile_individual(t)):
                scope = [p for p in out.program.predicates if p not in out.floor_names]
                signing = compute_signing(out.program, scope)
                assert signing is not None
                assert signing_satisfies_edges(out.program, signing)
                for pred in scope:
                    base = out.predicate_info[pred].base
                    if base == "defeasibly":
                        assert signing.sign(pred) == +1
                    if base == "overruled":
                        assert signing.sign(pred) == -1

    def test_parity_conflict(self):
        assert compute_signing(parse_datalog("p :- not p."), {"p"}) is None

    def test_empty_scope(self):
        signing = compute_signing(parse_datalog("p :- not p."), set())
        assert signing is not None and signing.mapping == {}

    def test_found_signings_satisfy_constraint(self, rng):
        found = 0
        for _ in range(150):
            p = generator.random_program(rng)
            signing = compute_signing(p, p.predicates)
            if signing is not None:
                found += 1
                assert signing_satisfies_edges(p, signing)
        assert found > 5

    def test_canonical_least_predicate_positive(self):
        signing = compute_signing(parse_datalog("b :- not z. z :- c."), {"b", "z", "c"})
        assert signing is not None
        assert signing.mapping["b"] == +1  # lexicographically least in its component


class TestSafety:
    def test_compiled_range_restricted_theory_is_safe(self, tweety):
        assert is_safe(compile_team(tweety).program)

    def test_unbound_head_variable(self):
        assert not is_safe(parse_datalog("p(X) :- q."))

    def test_negation_safe_example(self):
        assert is_safe(parse_datalog("p :- q(X), not r(X)."))

    def test_unbound_negative_variable(self):
        assert not is_safe(parse_datalog("p :- q, not r(X)."))


def test_arity_check_in_constructor():
    from defeasidl.theory import Atom, Term

    with pytest.raises(ValueError):
        DatalogProgram(
            (
                DClause(Atom("p", (Term("a"),))),
                DClause(Atom("p", (Term("a"), Term("b")))),
            )
        )


def test_dependency_graph_round_trip(rng):
    for _ in range(50):
        p = generator.random_program(rng)
        g1 = dependency_graph(p)
        g2 = dependency_graph(parse_datalog(print_datalog(p)))
        assert g1.nodes == g2.nodes and g1.edges == g2.edges
