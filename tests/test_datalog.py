import pytest

from defeasidl import generator
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import (
    NEGATIVE,
    POSITIVE,
    DatalogProgram,
    DatalogSyntaxError,
    DClause,
    compute_signing,
    dependency_graph,
    is_call_consistent,
    is_safe,
    parse_datalog,
    print_datalog,
    stratify,
)
from defeasidl.theory import Atom, is_hierarchical
from analysis_reference import (
    has_negative_edge_in_scc,
    reference_call_consistent,
    reference_components,
    reference_signing,
    reference_strata,
    signed_edges,
)
from test_evaluation import corpus_slice
from program_generator import random_program


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


def signing_satisfies_edges(program: DatalogProgram, signing: dict[str, int]) -> bool:
    # The signing's keys are its scope.
    for p, q, sign in signed_edges(program):
        if p in signing and q in signing and signing[p] != signing[q] * sign:
            return False
    return True


def as_signed(edges) -> set[tuple[str, str, int]]:
    """``(p, q, bits)`` edges as the ``(p, q, +1 / -1)`` ones ``signed_edges`` lists."""
    return {(p, q, sign) for p, q, bits in edges
            for sign, bit in ((+1, POSITIVE), (-1, NEGATIVE)) if bits & bit}


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
        # The offending token's line and column, as in ".dfl" errors.
        cases = {
            "p(a).\nq :- r(.\n": (2, 8),
            "p(a).\np(a, b).": (2, 1),
            "p(f(X)).": (1, 4),
            "p(X) :-\n  q(X) r.": (2, 8),
        }
        for text, location in cases.items():
            with pytest.raises(DatalogSyntaxError) as exc:
                parse_datalog(text)
            assert (exc.value.line, exc.value.column) == location, text
        with pytest.raises(DatalogSyntaxError, match=r"^2:8: expected a term, found \.$"):
            parse_datalog("p(a).\nq :- r(.\n")

    def test_not_negates_only_before_a_name(self):
        for text, positive, negative in [
            ("p :- not.", ["not"], []),
            ("p :- not(q).", ["not(q)"], []),
            ("p :- not not, q.", ["q"], ["not"]),
        ]:
            (clause,) = parse_datalog(text).clauses
            assert [str(a) for a in clause.positive] == positive, text
            assert [str(a) for a in clause.negative] == negative, text

    def test_fuzz_total(self, rng):
        # The ".dl" punctuation, "not", comments, a non-ASCII letter, a
        # whitespace character other than space, tab, CR and LF, and "½",
        # alphanumeric but neither a letter nor a digit.
        pieces = ["p", "q", "X", "0", "_", "(", ")", ",", ".", ":-", ":", "-", "not",
                  " ", "\n", "\t", "%", "½", "é", "\f"]
        for _ in range(1000):
            text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
            try:
                result = parse_datalog(text)
            except DatalogSyntaxError:
                continue
            assert isinstance(result, DatalogProgram)

    def test_round_trip_random(self, rng):
        for _ in range(100):
            p = random_program(rng)
            assert set(parse_datalog(print_datalog(p)).clauses) == set(p.clauses)

    def test_comments_and_multiline(self):
        p = parse_datalog("% top\np(a, b). q(X) :-\n  p(X, Y). % tail\n")
        assert len(p.clauses) == 2


class TestDependencyGraph:
    def test_negative_edge(self):
        g = dependency_graph(parse_datalog("p :- not q."))
        assert g.adjacency == {"p": {"q": NEGATIVE}, "q": {}}

    def test_both_signs(self):
        g = dependency_graph(parse_datalog("p :- q, not q."))
        assert g.adjacency == {"p": {"q": NEGATIVE | POSITIVE}, "q": {}}

    def test_compiled_defeat_cycle(self, nonstrat):
        g = dependency_graph(compile_team(nonstrat).program)
        for p, q, bit in [
            ("defeasibly__q", "overruled__q", NEGATIVE),
            ("overruled__q", "defeated__not__q", NEGATIVE),
            ("defeated__not__q", "body__t__d", POSITIVE),
            ("body__t__d", "defeasibly__q", POSITIVE),
        ]:
            assert g.adjacency[p][q] & bit

    def test_components_and_inside_match_mutual_reachability(self, rng):
        programs = [parse_datalog(text) for text in (
            "p :- q, not q.", "p :- p.", "p :- not p.", "p :- q, not p. q :- p.", "p.")]
        programs += [random_program(rng) for _ in range(150)]
        programs += [compile_(t).program for t in corpus_slice()
                     for compile_ in (compile_team, compile_individual)]
        nontrivial = 0
        for p in programs:
            graph = dependency_graph(p)
            components, inside = reference_components(p)
            assert sorted(len(c) for c in graph.components) == sorted(len(c) for c in components)
            assert {frozenset(c) for c in graph.components} == components
            assert len(graph.inside) == len(set(graph.inside))
            assert as_signed(graph.inside) == inside
            nontrivial += bool(inside)
        assert nontrivial > 50


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
            p = random_program(rng)
            mapping = stratify(p)
            if mapping is not None:
                assert is_valid_stratification(p, mapping)

    def test_agrees_with_scc_characterisation(self, rng):
        for _ in range(150):
            p = random_program(rng)
            assert (stratify(p) is None) == has_negative_edge_in_scc(p)

    def test_mapping_is_the_least_stratification(self, rng):
        programs = [random_program(rng) for _ in range(150)]
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
        programs = [random_program(rng) for _ in range(150)]
        programs += [compile_(t).program for t in corpus_slice()
                     for compile_ in (compile_team, compile_individual)]
        verdicts = [is_call_consistent(p) for p in programs]
        assert set(verdicts) == {True, False}
        assert verdicts == [reference_call_consistent(p) for p in programs]

    def test_stratified_implies_call_consistent(self, rng):
        for _ in range(150):
            p = random_program(rng)
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
                        assert signing[pred] == +1
                    if base == "overruled":
                        assert signing[pred] == -1

    def test_parity_conflict(self):
        assert compute_signing(parse_datalog("p :- not p."), {"p"}) is None

    def test_empty_scope(self):
        assert compute_signing(parse_datalog("p :- not p."), set()) == {}

    def test_found_signings_satisfy_constraint(self, rng):
        found = 0
        for _ in range(150):
            p = random_program(rng)
            signing = compute_signing(p, p.predicates)
            if signing is not None:
                found += 1
                assert signing_satisfies_edges(p, signing)
        assert found > 5

    def test_signings_match_a_reference_on_every_scope(self, rng):
        # Complete as well as sound: ``None`` exactly when the parity
        # equations have no solution, else the same canonical mapping.
        cases = []
        for _ in range(150):
            p = random_program(rng)
            cases.append((p, p.predicates))
            cases.append((p, rng.sample(sorted(p.predicates), rng.randint(0, len(p.predicates)))))
        for t in corpus_slice():
            for out in (compile_team(t), compile_individual(t)):
                cases.append((out.program, out.upper_names))
        outcomes = []
        for p, scope in cases:
            got = compute_signing(p, scope)
            assert got == reference_signing(p, scope), (str(p), sorted(scope))
            outcomes.append(got is None)
        assert outcomes.count(True) > 20 and outcomes.count(False) > 20

    def test_canonical_least_predicate_positive(self):
        signing = compute_signing(parse_datalog("b :- not z. z :- c."), {"b", "z", "c"})
        assert signing is not None
        assert signing["b"] == +1  # lexicographically least in its component


class TestSafety:
    def test_compiled_range_restricted_theory_is_safe(self, tweety):
        assert is_safe(compile_team(tweety).program)

    def test_unbound_head_variable(self):
        assert not is_safe(parse_datalog("p(X) :- q."))

    def test_negation_safe_example(self):
        assert is_safe(parse_datalog("p :- q(X), not r(X)."))

    def test_unbound_negative_variable(self):
        assert not is_safe(parse_datalog("p :- q, not r(X)."))

    def test_clause_flags_match_a_naive_reading(self, rng):
        # Each clause reads its variables once, on construction; this
        # re-reads them per atom, and ``is_safe`` by the set formula it
        # replaced.  Two variants of each random program unbind its head
        # variables (no positive body) or its negated ones (the body negated
        # under a variable-free head), so unsafe clauses of both kinds occur.
        def variables(atoms):
            return {t.name for a in atoms for t in a.args if t.is_variable}

        programs = [compile_(t).program for t in corpus_slice()
                    for compile_ in (compile_team, compile_individual)]
        for _ in range(300):
            p = random_program(rng)
            programs.append(p)
            programs.append(DatalogProgram(tuple(DClause(c.head, (), c.negative) for c in p.clauses)))
            programs.append(DatalogProgram(tuple(
                DClause(Atom("u"), (), c.positive + c.negative) for c in p.clauses)))
        seen = set()
        for p in programs:
            for c in p.clauses:
                ground = not variables(c.atoms())
                safe = all(t.name in variables(c.positive) for a in (c.head, *c.negative)
                           for t in a.args if t.is_variable)
                assert (c.ground, c.safe) == (ground, safe), str(c)
                seen.add((ground, safe))
            assert is_safe(p) == all(
                variables([c.head, *c.negative]) <= variables(c.positive) for c in p.clauses
            )
        assert seen == {(True, True), (False, True), (False, False)}


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
        p = random_program(rng)
        g1 = dependency_graph(p)
        g2 = dependency_graph(parse_datalog(print_datalog(p)))
        assert g1.adjacency == g2.adjacency
