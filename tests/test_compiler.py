import random
from itertools import combinations

import pytest

from conftest import lit, theory
from defeasidl import compiler, generator
from defeasidl.compiler import (
    compile_individual,
    compile_team,
    compiled_size,
    emit_datalog_text,
    read_conclusions,
)
from defeasidl.datalog import DatalogProgram, DClause, is_safe, parse_datalog
from defeasidl.evaluator import eval_wellfounded
from defeasidl.mangling import TAG_DEFEASIBLY, TAG_DEFEATS, MangledPredicate
from defeasidl.theory import (
    Atom,
    DefeasibleTheory,
    Literal,
    ValidationFailed,
    _check_name,
    theory_size,
    validate_theory,
)
from analysis_reference import signed_edges
import corpus
from residual_generator import residual_theory
from test_evaluation import corpus_slice


WORKED_PAIR = theory(
    "s: p(X, Y), q(Y, X) => neg q(X, Y).\n"
    "t: p(X, Z), neg p(Z, Y) => q(X, Y).\n"
    "t > s.\n"
)

# The eleven clauses the worked two-rule example compiles to (team defeat).
WORKED_PAIR_EXPECTED = """
lambda__q(X, Y) :- body__t__lam(X, Y), not definitely__not__q(X, Y).
lambda__not__q(X, Y) :- body__s__lam(X, Y), not definitely__q(X, Y).
defeasibly__q(X, Y) :- body__t__d(X, Y), not definitely__not__q(X, Y), not overruled__q(X, Y).
defeasibly__not__q(X, Y) :- body__s__d(X, Y), not definitely__q(X, Y), not overruled__not__q(X, Y).
body__t__lam(X, Y) :- lambda__p(X, Z), lambda__not__p(Z, Y).
body__s__lam(X, Y) :- lambda__p(X, Y), lambda__q(Y, X).
body__t__d(X, Y) :- defeasibly__p(X, Z), defeasibly__not__p(Z, Y).
body__s__d(X, Y) :- defeasibly__p(X, Y), defeasibly__q(Y, X).
overruled__not__q(X, Y) :- body__t__lam(X, Y), not defeated__q(t, X, Y).
overruled__q(X, Y) :- body__s__lam(X, Y), not defeated__not__q(s, X, Y).
defeated__not__q(s, X, Y) :- body__t__d(X, Y).
"""


# The schemas both modes emit alike: every one but C20, C23, C24, C25 and C26.
SHARED_SCHEMAS = frozenset({"fact", "C15", "C16", "C17", "C18", "C19", "C21", "C22"})


def clause_set(program):
    return set(program.clauses)


class TestTeamSchemata:
    def test_worked_pair_is_the_eleven_clauses(self):
        out = compile_team(WORKED_PAIR)
        assert len(out.program.clauses) == 11
        assert clause_set(out.program) == clause_set(parse_datalog(WORKED_PAIR_EXPECTED))

    def test_strict_rule_compiles_to_four_clauses(self):
        out = compile_team(theory("r3: penguin(X) -> bird(X)."))
        expected = parse_datalog(
            "definitely__bird(X) :- body__r3__delta(X).\n"
            "lambda__bird(X) :- body__r3__delta(X).\n"
            "defeasibly__bird(X) :- body__r3__delta(X).\n"
            "body__r3__delta(X) :- definitely__penguin(X).\n"
            # A strict rule is also strict-or-defeasible:
            "lambda__bird(X) :- body__r3__lam(X), not definitely__not__bird(X).\n"
            "defeasibly__bird(X) :- body__r3__d(X), not definitely__not__bird(X),"
            " not overruled__bird(X).\n"
            "body__r3__lam(X) :- lambda__penguin(X).\n"
            "body__r3__d(X) :- defeasibly__penguin(X).\n"
            "overruled__not__bird(X) :- body__r3__lam(X), not defeated__bird(r3, X).\n"
        )
        assert clause_set(out.program) == clause_set(expected)
        c15_to_c18 = [info for info in out.provenance if info.schema in
                      ("C15", "C16", "C17", "C18")]
        assert len(c15_to_c18) == 4

    def test_empty_theory_compiles_to_empty_program(self):
        out = compile_team(DefeasibleTheory())
        assert out.program.clauses == ()
        assert emit_datalog_text(out) == ""

    def test_fact_unit_clauses(self):
        out = compile_team(theory("p(a)."))
        expected = parse_datalog("definitely__p(a).\nlambda__p(a).\ndefeasibly__p(a).")
        assert clause_set(out.program) == clause_set(expected)

    def test_defeaters_get_lambda_bodies_only(self, tweety):
        out = compile_team(tweety)
        preds = out.program.predicates
        assert "body__r4__lam" in preds
        assert "body__r4__d" not in preds
        assert "body__r4__delta" not in preds

    def test_inert_superiority_compiles_to_nothing(self):
        inert = theory("r1: => p.\nr2: => q.\nr1 > r2.")
        plain = theory("r1: => p.\nr2: => q.")
        assert clause_set(compile_team(inert).program) == clause_set(compile_team(plain).program)

    def test_defeater_superior_compiles_to_nothing(self):
        t = theory("r1: a ~> p.\nr2: => neg p.\nr1 > r2.")
        out = compile_team(t)
        assert not any(info.schema == "C24" for info in out.provenance)


class TestIndividualSchemata:
    def test_defeats_unit_clauses_per_pair(self, platypus):
        out = compile_individual(platypus)
        units = [c for c, info in zip(out.program.clauses, out.provenance) if info.schema == "C24"]
        assert len(units) == 2
        # Indexed by the inferior (attacking) rule's head literal.
        texts = sorted(str(c) for c in units)
        assert texts == [
            "defeats__not__mammal(r1, r3).",
            "defeats__not__mammal(r2, r4).",
        ]

    def test_superiority_free_theory_has_no_defeats_units(self, tweety):
        bare = DefeasibleTheory.of(tweety.facts, tweety.rules, frozenset())
        out = compile_individual(bare)
        units = [c for c in out.program.clauses if not c.positive and not c.negative]
        assert not any(c.head.predicate.startswith("defeats__") for c in units)

    def test_overruled_is_rule_indexed(self, tweety):
        out = compile_individual(tweety)
        text = emit_datalog_text(out)
        assert "overruled__not__fly(r2, X) :- body__r1__lam(X), not defeats__fly(r2, r1)." in text
        assert "defeasibly__not__fly(X) :- body__r2__d(X), not definitely__fly(X)," \
               " not overruled__not__fly(r2, X)." in text


class TestCompileGuards:
    def test_validation_failure_raises(self):
        bad = DefeasibleTheory.of(facts=[lit("fly(X)")])
        with pytest.raises(ValidationFailed):
            compile_team(bad)
        # Also once the report is computed and kept on the theory.
        assert not validate_theory(bad).ok
        for compile_ in (compile_team, compile_individual):
            with pytest.raises(ValidationFailed):
                compile_(bad)

    def test_emitted_predicate_names_are_well_formed(self):
        # The emitter builds its atoms without the name check.
        names = 0
        for t in corpus_slice():
            for out in (compile_team(t), compile_individual(t)):
                for name in out.program.predicates:
                    _check_name(name, "predicate")
                    assert name[0].islower(), name
                    names += 1
        assert names > 0

    def test_handed_arity_table_is_the_derived_one(self, tweety, monkeypatch):
        # The compiler hands over the arity it fixed per mangled predicate;
        # a program built from the same clauses derives and checks its own.
        derived = 0
        for t in [*(corpus.load(name) for name in corpus.names()), *corpus_slice()]:
            for out in (compile_team(t), compile_individual(t)):
                rebuilt = DatalogProgram(out.program.clauses)
                assert out.program.predicates == rebuilt.predicates
                assert out.program == rebuilt
                derived += 1
        assert derived > 2 * len(corpus.names())
        # Compiling reads no atom to build the table.
        monkeypatch.setattr(DClause, "atoms", None)
        for compile_ in (compile_team, compile_individual):
            assert compile_(tweety).program.predicates

    def test_floor_is_downward_closed(self, tweety, nonstrat):
        for t in (tweety, nonstrat, WORKED_PAIR):
            for out in (compile_team(t), compile_individual(t)):
                floor = out.floor_names
                edges = signed_edges(out.program)
                assert not any(p in floor and q not in floor for p, q, _ in edges)

    def test_one_floor_for_both_compilations(self):
        # Team and individual defeat differ only above the floor: the floor's
        # predicates, their descriptors, and its clauses in program order with
        # their provenance are the same in both compilations.
        def floor_part(out):
            floor = out.floor_names
            return (floor, {p: out.predicate_info[p] for p in floor},
                    [(clause, info) for clause, info in zip(out.program.clauses, out.provenance)
                     if clause.head.predicate in floor])

        with_floor = 0
        for t in corpus_slice():
            team = floor_part(compile_team(t))
            assert team == floor_part(compile_individual(t))
            with_floor += bool(team[2])
        assert with_floor >= len(corpus_slice()) - 1  # one generated theory is empty

    def test_defeasibly_names_are_the_defeasibly_predicates(self):
        # The individual compilation takes the team's set; it must name
        # exactly its own defeasibly predicates, none of them in the floor.
        for t in [*(corpus.load(name) for name in corpus.names()), *corpus_slice()]:
            for out in (compile_team(t), compile_individual(t)):
                want = {p for p, mp in out.predicate_info.items() if mp.base == TAG_DEFEASIBLY}
                assert out.defeasibly_names == want
                assert want.isdisjoint(out.floor_names)

    def test_individual_output_built_on_the_team_output_is_the_same(self, monkeypatch, tweety,
                                                                      platypus):
        # compile_individual(t, team) takes every clause both modes share, and
        # its record, from the team output; only C25, C26 and the defeats
        # units are built.  Without a team it compiles one through the module
        # name, where a wrapper (the benchmark's tracer) sees it.
        def whole(out):
            return (out.mode, out.program.clauses, out.provenance, out.predicate_info,
                    out.floor_names, out.constants, list(out.program.predicates.items()))

        teams = []
        compile_team_ = compiler.compile_team

        def counted(t):
            teams.append(compile_team_(t))
            return teams[-1]

        monkeypatch.setattr(compiler, "compile_team", counted)
        rng = random.Random(20261019)
        theories = [*(corpus.load(name) for name in corpus.names()), *corpus_slice(),
                    *(residual_theory(rng) for _ in range(200))]
        built = 0
        for t in theories:
            team = compile_team_(t)
            reused = compile_individual(t, team)
            assert not teams
            assert whole(reused) == whole(compile_individual(t))
            assert len(teams) == 1 and teams.pop().theory is t
            for at, info in enumerate(reused.provenance):
                if info.schema in SHARED_SCHEMAS:
                    assert reused.program.clauses[at] is team.program.clauses[at]
                    assert info is team.provenance[at]
                else:
                    built += 1
                    assert info.schema in ("C24", "C25", "C26")
            assert reused.floor_names is team.floor_names
            assert reused.constants is team.constants
        assert built > 0
        # An individual output shares the same clauses; another theory's does not fit.
        fresh = compile_individual(tweety)
        assert whole(compile_individual(tweety, fresh)) == whole(fresh)
        with pytest.raises(RuntimeError, match="shared compilation"):
            compile_individual(platypus, compile_team_(tweety))

    def test_a_team_output_of_another_theory_is_refused(self):
        # Same labels, schemas and clause counts, but r1 reads another predicate:
        # the team output's C21 and C22 would read bird where penguin is meant.
        facts = "bird(t). penguin(t).\n"
        bird, penguin = (theory(facts + f"r1: {p}(X) => fly(X).") for p in ("bird", "penguin"))
        with pytest.raises(RuntimeError, match="shared compilation"):
            compile_individual(penguin, compile_team(bird))
        # An equal theory, parsed again, compiles the same program.
        again = theory(facts + "r1: penguin(X) => fly(X).")
        assert again is not penguin
        assert (compile_individual(penguin, compile_team(again)).program.clauses
                == compile_individual(penguin).program.clauses)

    def test_one_descriptor_per_compiled_predicate(self, monkeypatch, tweety):
        # The team output builds one descriptor per predicate; the individual
        # output reuses them and builds only its defeats predicates'.
        built = [0]
        init = MangledPredicate.__init__

        def counted(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def building(compile_, *args):
            before = built[0]
            out = compile_(*args)
            assert set(out.predicate_info) == set(out.program.predicates)
            return out, built[0] - before

        monkeypatch.setattr(MangledPredicate, "__init__", counted)
        defeats = 0
        for t in [tweety, *corpus_slice()]:
            validate_theory(t)  # the collision check builds its own candidates
            team, in_team = building(compile_team, t)
            assert in_team == len(team.program.predicates)
            indiv, in_splice = building(compile_individual, t, team)
            assert in_splice == sum(mp.base == TAG_DEFEATS for mp in indiv.predicate_info.values())
            assert building(compile_individual, t)[1] == in_team + in_splice
            defeats += in_splice
        assert defeats > 0

    def test_provenance_is_aligned_with_the_clauses(self, tweety, platypus):
        # Each record's schema names the tag of its own clause's head.
        heads = {
            "fact": ("definitely", "lambda", "defeasibly"),
            "C15": ("definitely",), "C16": ("lambda",), "C17": ("defeasibly",),
            "C18": ("body",), "C19": ("lambda",), "C20": ("defeasibly",),
            "C21": ("body",), "C22": ("body",), "C23": ("overruled",),
            "C24": ("defeated", "defeats"), "C25": ("defeasibly",), "C26": ("overruled",),
        }
        for t in (tweety, platypus, WORKED_PAIR, *corpus_slice()):
            for out in (compile_team(t), compile_individual(t)):
                assert len(out.provenance) == len(out.program.clauses)
                for clause, info in zip(out.program.clauses, out.provenance):
                    base = out.predicate_info[clause.head.predicate].base
                    assert base in heads[info.schema], (clause, info)

    def test_deterministic_output(self, tweety):
        a = emit_datalog_text(compile_team(tweety))
        b = emit_datalog_text(compile_team(tweety))
        assert a == b


def random_facts(rng, consistent):
    """Ground literals over a few predicates, negated or not, with constants
    that start with a digit or share prefixes; ``consistent`` gives each
    predicate one arity, else a predicate mixes arities 0 to 3."""
    constants = ["a", "b", "ab", "0", "1", "10", "1a", "2b", "a0"]
    facts = set()
    for _ in range(rng.randint(1, 25)):
        pred = rng.choice(["p", "q", "p0", "pq"])
        arity = len(pred) if consistent else rng.randint(0, 3)
        args = ", ".join(rng.choice(constants) for _ in range(arity))
        facts.add(lit(("neg " if rng.random() < 0.4 else "") + (f"{pred}({args})" if args else pred)))
    return facts


class TestFactOrder:
    def test_facts_compile_in_literal_order(self, rng):
        for _ in range(50):
            t = DefeasibleTheory.of(facts=random_facts(rng, consistent=True))
            for out in (compile_team(t), compile_individual(t)):
                sources = [info.source for info in out.provenance if info.schema == "fact"]
                assert sources == [str(fact) for fact in sorted(t.facts) for _ in range(3)]


class TestEmission:
    def test_round_trip_corpus(self):
        for name in corpus.names():
            t = corpus.load(name)
            for out in (compile_team(t), compile_individual(t)):
                reparsed = parse_datalog(emit_datalog_text(out))
                assert clause_set(reparsed) == clause_set(out.program)

    def test_round_trip_random(self, rng):
        for _ in range(50):
            t = generator.random_ground_theory(rng)
            out = compile_team(t)
            assert clause_set(parse_datalog(emit_datalog_text(out))) == clause_set(out.program)

    def test_worked_pair_emits_paper_line(self):
        text = emit_datalog_text(compile_team(WORKED_PAIR))
        assert "overruled__not__q(X, Y) :- body__t__lam(X, Y), not defeated__q(t, X, Y)." in text


def replicate(theory_obj: DefeasibleTheory, copies: int) -> DefeasibleTheory:
    """Disjoint renamed copies of a theory, for the linear-size family."""
    from defeasidl.parser import format_theory, parse_theory
    import re

    chunks = []
    for k in range(copies):
        text = format_theory(theory_obj)
        text = re.sub(
            r"\b([a-z][A-Za-z0-9_]*)\b",
            lambda m, k=k: m.group(1) if m.group(1) == "neg" else f"{m.group(1)}_c{k}",
            text,
        )
        chunks.append(text)
    combined = parse_theory("\n".join(chunks))
    assert isinstance(combined, DefeasibleTheory)
    return combined


class TestSizes:
    def test_empty_theory_size_zero(self):
        assert compiled_size(compile_team(DefeasibleTheory())) == 0

    def test_single_fact_three_unit_clauses(self):
        out = compile_team(theory("p(a)."))
        assert compiled_size(out) == 9  # three unit clauses of (marker + pred + arg)

    def test_linear_family_ratio_constant(self, tweety):
        ratios_team = []
        ratios_indiv = []
        for k in (1, 2, 4, 8):
            family = replicate(tweety, k)
            size = theory_size(family)
            ratios_team.append(compiled_size(compile_team(family)) / size)
            ratios_indiv.append(compiled_size(compile_individual(family)) / size)
        assert max(ratios_team) - min(ratios_team) < 1e-9
        assert max(ratios_indiv) - min(ratios_indiv) < 1e-9


class TestReadback:
    def test_tags_pick_the_keys_read_back(self):
        # For each set of WF atoms, reading back any non-empty subset of the
        # three tags gives exactly those keys, in order, with the full sets.
        tags = ("definitely", "lambda", "defeasibly")
        subsets = [subset for n in (1, 2, 3) for subset in combinations(tags, n)]
        read = 0
        for t in corpus_slice():
            for out in (compile_team(t), compile_individual(t)):
                if not is_safe(out.program):
                    continue
                wf = eval_wellfounded(out.program)
                for atoms in (wf.true_set, wf.false_set, wf.unknown_set):
                    whole = read_conclusions(out, atoms)
                    assert list(whole) == list(tags)
                    for subset in subsets:
                        got = read_conclusions(out, atoms, subset)
                        assert list(got) == list(subset)
                        assert got == {tag: whole[tag] for tag in subset}
                    read += any(whole.values())
        assert read > 0

    def test_round_trip_literals(self, tweety):
        out = compile_team(tweety)
        atoms = [
            ("defeasibly__not__fly", ("tweety",)),
            ("definitely__bird", ("freddie",)),
            ("lambda__penguin", ("tweety",)),
            ("body__r1__lam", ("tweety",)),  # not a tagged-literal predicate: ignored
        ]
        sets = read_conclusions(out, atoms)
        assert sets["defeasibly"] == {lit("neg fly(tweety)")}
        assert sets["definitely"] == {lit("bird(freddie)")}
        assert sets["lambda"] == {lit("penguin(tweety)")}

    def test_each_constant_becomes_one_checked_term(self, tweety, monkeypatch):
        out = compile_team(tweety)
        built = []
        real = compiler.Term

        def counting(name):
            built.append(name)
            return real(name)

        monkeypatch.setattr(compiler, "Term", counting)
        atoms = [(pred, ("tweety",)) for pred in ("defeasibly__fly", "definitely__bird",
                                                   "lambda__penguin", "lambda__bird")]
        sets = read_conclusions(out, atoms + [("definitely__bird", ("freddie",))])
        assert sorted(built) == ["freddie", "tweety"]
        assert sets["lambda"] == {lit("penguin(tweety)"), lit("bird(tweety)")}
        with pytest.raises(ValueError):
            read_conclusions(out, [("definitely__bird", ("no-name",))])

    def test_atoms_are_built_unchecked(self, tweety, monkeypatch):
        out = compile_team(tweety)
        true_atoms = eval_wellfounded(out.program).true_set
        checked = {tag: {Literal(Atom(l.atom.predicate, l.atom.args), l.negated) for l in lits}
                   for tag, lits in read_conclusions(out, true_atoms).items()}
        checked_names = []  # what each name check was for
        real = _check_name

        def counting(name, what):
            checked_names.append(what)
            real(name, what)

        monkeypatch.setattr("defeasidl.theory._check_name", counting)
        sets = read_conclusions(out, true_atoms)
        assert set(checked_names) == {"term"}  # each constant's term, and no atom
        assert sets == checked and sets["defeasibly"]
