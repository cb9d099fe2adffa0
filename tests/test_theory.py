import copy
import pickle
import re

import pytest

from analysis_reference import reference_levels
from conftest import lit, theory
from defeasidl import generator
from defeasidl.theory import (
    Atom,
    DefeasibleTheory,
    EmptyUniverse,
    Literal,
    Rule,
    RuleKind,
    Term,
    ground_theory,
    is_hierarchical,
    is_locally_hierarchical,
    is_range_restricted,
    theory_size,
    validate_theory,
)


def codes(issues):
    return [issue.code for issue in issues]


def messages(issues):
    return [issue.message for issue in issues]


class TestComplement:
    def test_flips_sign(self):
        assert lit("fly(tweety)").complement() == lit("neg fly(tweety)")
        assert lit("neg fly(tweety)").complement() == lit("fly(tweety)")

    def test_involution_on_random_literals(self, rng):
        for _ in range(200):
            t = generator.random_variable_theory(rng)
            for l in t.literals():
                assert l.complement().complement() == l


class TestValidation:
    def test_tweety_clean(self, tweety):
        report = validate_theory(tweety)
        assert report.ok
        assert report.warnings == []

    def test_superiority_self_loop_is_cycle(self):
        t = theory("r1: p => q.\nr1 > r1.")
        assert "superiority-cycle" in codes(validate_theory(t).errors)
        assert messages(validate_theory(t).errors) == ["superiority relation has a cycle: r1 > r1"]

    def test_superiority_two_cycle_message(self):
        t = theory("r1: => q.\nr2: => neg q.\nr1 > r2.\nr2 > r1.")
        assert messages(validate_theory(t).errors) == ["superiority relation has a cycle: r1 > r2 > r1"]

    def test_superiority_cycle_message_names_a_real_cycle(self, rng):
        labels = [f"r{i}" for i in range(6)]
        rules = [Rule(label, (), lit("p")) for label in labels]
        outcomes = set()
        for _ in range(300):
            pairs = {(rng.choice(labels), rng.choice(labels)) for _ in range(rng.randint(1, 8))}
            report = validate_theory(DefeasibleTheory.of(rules=rules, superiority=pairs))
            edges: dict[str, set[str]] = {}
            for t, s in pairs:
                edges.setdefault(t, set()).add(s)
            cyclic = reference_levels(labels, edges) is None
            outcomes.add(cyclic)
            assert codes(report.errors) == (["superiority-cycle"] if cyclic else [])
            if cyclic:
                (issue,) = report.errors
                prefix = "superiority relation has a cycle: "
                assert issue.message.startswith(prefix)
                cycle = issue.message[len(prefix):].split(" > ")
                assert cycle[0] == cycle[-1] == issue.location
                assert all(pair in pairs for pair in zip(cycle, cycle[1:]))
        assert outcomes == {True, False}

    def test_superiority_longer_cycle(self):
        t = theory("r1: => q.\nr2: => neg q.\nr3: => q.\nr1 > r2.\nr2 > r3.\nr3 > r1.")
        assert "superiority-cycle" in codes(validate_theory(t).errors)

    def test_non_ground_fact(self):
        t = DefeasibleTheory.of(facts=[lit("fly(X)")])
        assert "non-ground-fact" in codes(validate_theory(t).errors)

    def test_non_ground_facts_are_listed_in_literal_order(self):
        texts = ["q(X, b)", "neg p(Y)", "p(X)", "p(1, Z)", "q(a, X)", "neg q(0, X)", "p(a)", "q(a, b)"]
        t = DefeasibleTheory.of(facts=[lit(text) for text in texts])
        errors = [issue for issue in validate_theory(t).errors if issue.code == "non-ground-fact"]
        want = [f for f in sorted(t.facts) if not f.is_ground()]
        assert [issue.location for issue in errors] == [str(f) for f in want]
        assert [issue.location for issue in errors] == [
            "p(1, Z)", "p(X)", "neg p(Y)", "neg q(0, X)", "q(X, b)", "q(a, X)"]

    def test_duplicate_labels(self):
        r = Rule("r", (), lit("p"), RuleKind.DEFEASIBLE)
        t = DefeasibleTheory.of(rules=[r, Rule("r", (), lit("q"), RuleKind.STRICT)])
        assert "duplicate-label" in codes(validate_theory(t).errors)

    def test_undefined_superiority_label(self):
        t = DefeasibleTheory.of(
            rules=[Rule("r1", (), lit("p"))], superiority=[("r1", "ghost")]
        )
        assert "undefined-superiority-label" in codes(validate_theory(t).errors)

    def test_arity_mismatch(self):
        t = theory("p(a).\nr: p(a, b) => q.")
        assert "arity-mismatch" in codes(validate_theory(t).errors)

    def test_mangling_collision(self):
        # "neg fly" and the predicate "not__fly" both mangle to ..__not__fly.
        t = theory("r1: p => neg fly(a).\nr2: p => not__fly(a).")
        assert "mangling-collision" in codes(validate_theory(t).errors)

    def test_inert_superiority_warns(self):
        t = theory("r1: => p.\nr2: => q.\nr1 > r2.")
        report = validate_theory(t)
        assert report.ok
        assert "inert-superiority" in codes(report.warnings)

    def test_defeater_superior_warns(self):
        t = theory("r1: a ~> p.\nr2: => neg p.\nr1 > r2.")
        report = validate_theory(t)
        assert report.ok
        assert "defeater-superior" in codes(report.warnings)


class TestRangeRestriction:
    def test_tweety(self, tweety):
        assert is_range_restricted(tweety)

    def test_unbound_head_variable(self):
        assert not is_range_restricted(theory("r: => p(X)."))
        assert not is_range_restricted(theory("r: q(Y) => p(X, Y)."))

    def test_propositional_is_vacuous(self):
        assert is_range_restricted(theory("r: a, neg b => c."))


class TestGrounding:
    def test_tweety_instance_counts(self, tweety):
        g = ground_theory(tweety)
        # Two constants, each rule has one variable: two instances per rule.
        assert len(g.rules) == 8
        # r2 > r1 lifts only to the instance pairs with complementary heads.
        assert len(g.superiority) == 2
        assert all(not l.args or l.is_ground() for r in g.rules for l in (*r.body, r.head))

    def test_superiority_lifts_only_to_complementary_heads(self):
        # reach over the path n0 -> n1 -> n2 -> n3: four constants, so r1 and
        # r3 have 16 instances and r2 has 64.  Each ground head of r1 meets
        # one r3 instance with the complementary head (16 pairs) and each of
        # r2's 16 heads, made by 4 instances, meets one (64 pairs); lifting
        # every instance pair would give 16 * 16 + 64 * 16 = 1,280.
        t = theory(
            "edge(n0, n1).\nedge(n1, n2).\nedge(n2, n3).\n"
            "r1: edge(X,Y) => path(X,Y).\n"
            "r2: path(X,Z), edge(Z,Y) => path(X,Y).\n"
            "r3: edge(X,Y) => neg path(Y,X).\n"
            "r1 > r3.\nr2 > r3.\n"
        )
        g = ground_theory(t)
        assert len(g.superiority) == 80
        heads = {r.label: r.head for r in g.rules}
        assert all(heads[a] == heads[b].complement() for a, b in g.superiority)

    def test_identity_on_variable_free(self):
        t = theory("p(a).\nr: p(a) => q(a).")
        g = ground_theory(t)
        assert g.rules == t.rules
        assert g.facts == t.facts
        g2 = ground_theory(
            DefeasibleTheory.of(g.facts, g.rules, g.superiority)
        )
        assert g2.rules == g.rules

    def test_idempotent_after_grounding(self, tweety):
        g = ground_theory(tweety)
        again = ground_theory(DefeasibleTheory.of(g.facts, g.rules, g.superiority))
        assert again.rules == g.rules
        assert again.superiority == g.superiority

    def test_empty_universe(self):
        with pytest.raises(EmptyUniverse):
            ground_theory(theory("r: p(X) => q(X)."))

    def test_instance_count_formula(self, rng):
        for _ in range(50):
            t = generator.random_variable_theory(rng)
            constants = t.constants()
            if t.has_variables() and not constants:
                continue
            g = ground_theory(t)
            expected = sum(
                max(len(constants), 1) ** len(r.variables()) if t.has_variables() else 1
                for r in t.rules
            )
            assert len(g.rules) == expected


class TestHierarchy:
    def test_tweety_levels(self, tweety):
        assert is_hierarchical(tweety) == {"injured": 0, "penguin": 0, "bird": 1, "fly": 2}

    def test_recursion_through_complement_blocks(self):
        assert is_hierarchical(theory("t: q => q.\ns: => neg q.\nt > s.")) is None
        assert is_hierarchical(theory("t: neg q => q.")) is None

    def test_empty_theory(self):
        assert is_hierarchical(DefeasibleTheory()) == {}

    def test_locally_hierarchical_examples(self, tweety):
        assert is_locally_hierarchical(tweety)
        assert not is_locally_hierarchical(theory("r: p => p."))
        assert not is_locally_hierarchical(theory("e(a, b).\ne(b, a).\nr: e(X, Y), p(X) => p(Y)."))

    def test_hierarchical_implies_locally(self, rng):
        seen = 0
        for _ in range(200):
            t = generator.random_variable_theory(rng)
            if is_hierarchical(t) is None:
                continue
            if t.has_variables() and not t.constants():
                continue
            seen += 1
            assert is_locally_hierarchical(t)
        assert seen > 20

    def test_agrees_with_depth_first_levels(self, rng):
        theories = [generator.random_variable_theory(rng) for _ in range(150)]
        theories += [generator.random_ground_theory(rng) for _ in range(150)]
        hierarchical, locally = set(), set()
        for t in theories:
            edges: dict[str, set[str]] = {}
            for r in t.rules:
                edges.setdefault(r.head.predicate, set()).update(b.predicate for b in r.body)
            levels = is_hierarchical(t)
            assert levels == reference_levels(t.predicates(), edges)
            hierarchical.add(levels is not None)
            if t.has_variables() and not t.constants():
                continue
            atoms: dict[str, set[str]] = {}
            for r in ground_theory(t).rules:
                atoms.setdefault(str(r.head.atom), set()).update(str(b.atom) for b in r.body)
            acyclic = reference_levels(set(atoms).union(*atoms.values()), atoms) is not None
            assert is_locally_hierarchical(t) == acyclic
            locally.add(acyclic)
        assert hierarchical == locally == {True, False}

    def test_witness_respects_every_rule(self, rng):
        for _ in range(100):
            t = generator.random_ground_theory(rng)
            levels = is_hierarchical(t)
            if levels is None:
                continue
            for r in t.rules:
                for b in r.body:
                    assert levels[r.head.predicate] > levels[b.predicate]


class TestTheorySize:
    def test_empty(self):
        assert theory_size(DefeasibleTheory()) == 0

    def test_single_fact(self):
        assert theory_size(theory("p(a).")) == 3

    def test_tweety_frozen_value(self, tweety):
        # 4 rules of (label + arrow + 2 literals of pred+arg) + 3 facts + 1 pair.
        assert theory_size(tweety) == 4 * 6 + 3 * 3 + 3
        assert theory_size(tweety) == theory_size(tweety)


def test_terms_reject_malformed_names():
    with pytest.raises(ValueError):
        Term("")
    with pytest.raises(ValueError):
        Term("_x")
    with pytest.raises(ValueError):
        Term("a-b")
    with pytest.raises(ValueError):
        Atom("Pred")
    with pytest.raises(ValueError):
        Rule("Label", (), lit("p"))


class TestDataModel:
    """``Term``, ``Atom`` and ``Literal`` are immutable tuples of their fields:
    checked names, hashes and orders of those tuples, and the reprs, the
    pickles and the copies that the dataclasses they replaced gave."""

    A, B = Term("a"), Term("b")

    @pytest.mark.parametrize("build, message", [
        (lambda: Term(""), "malformed term name: ''"),
        (lambda: Term("a-b"), "malformed term name: 'a-b'"),
        (lambda: Term("_x"), "term name must start with a letter or digit: '_x'"),
        (lambda: Atom("p q"), "malformed predicate name: 'p q'"),
        (lambda: Atom("_p"), "predicate name must start with a letter or digit: '_p'"),
        (lambda: Atom("Pred"), "predicate must start with a lowercase letter: 'Pred'"),
        (lambda: Atom("1p", (Term("a"),)), "predicate must start with a lowercase letter: '1p'"),
        (lambda: Literal(Atom("Pred"), True), "predicate must start with a lowercase letter: 'Pred'"),
    ])
    def test_malformed_names_keep_their_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_unchecked_atoms_skip_the_name_check(self):
        atom = Atom.unchecked("Not-a-name", (self.A,))
        assert type(atom) is Atom and (atom.predicate, atom.args) == ("Not-a-name", (self.A,))
        assert Atom.unchecked("q") == Atom("q")

    def test_hash_and_equality_are_those_of_the_field_tuple(self):
        atom = Atom("p", (self.A,))
        for value, fields in [(self.A, ("a",)), (atom, ("p", (self.A,))),
                              (Literal(atom, True), (atom, True)), (Literal(atom), (atom, False))]:
            assert hash(value) == hash(fields) and value == fields
        # By content across types: a 0-ary atom equals the engine's atom for q.
        assert Atom("q") == ("q", ()) and Term("a") == ("a",)

    def test_order_is_by_fields(self):
        p_a, p_b = Atom("p", (self.A,)), Atom("p", (self.B,))
        assert self.A < self.B and Atom("p") < p_a < p_b < Atom("q")
        assert Literal(p_a) < Literal(p_a, True) < Literal(p_b)
        assert sorted([Literal(p_b), Literal(p_a, True), Literal(p_a)]) == [
            Literal(p_a), Literal(p_a, True), Literal(p_b)]

    def test_reprs_are_unchanged(self):
        value = Literal(Atom("p", (self.A,)), True)
        assert repr(value) == ("Literal(atom=Atom(predicate='p', args=(Term(name='a'),)), "
                               "negated=True)")
        assert repr(Atom("q")) == "Atom(predicate='q', args=())"
        assert repr(Literal(Atom("q"))) == "Literal(atom=Atom(predicate='q', args=()), negated=False)"

    def test_fields_cannot_be_assigned(self):
        atom = Atom("p", (self.A,))
        for value, field in [(self.A, "name"), (atom, "predicate"), (atom, "args"),
                             (Literal(atom), "atom"), (Literal(atom), "negated"), (atom, "other")]:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(value, field, None))

    def test_pickle_and_deepcopy_round_trip(self):
        atom = Atom("p", (self.A, Term("X")))
        rule = Rule("r1", (Literal(atom),), Literal(Atom("q", (Term("X"),)), True))
        for value in (self.A, atom, Literal(atom, True), rule):
            copies = [copy.deepcopy(value)] + [pickle.loads(pickle.dumps(value, protocol))
                                               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in copies:
                assert twin == value and repr(twin) == repr(value)
