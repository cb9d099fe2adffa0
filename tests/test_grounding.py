"""Differential gate for the grounder: with every predicate self-supporting
and with none, ``evaluator._ground_clauses`` must give the same instance
set and Herbrand base as the naive round-based reference of that seed on
compiled corpus programs, random programs and hand-picked corner cases;
the two seeds must give the same well-founded and stratified conclusions,
the per-component mix ``solve --three-valued`` grounds must give the same
well-founded and hybrid ones, and the demand grounding ``solve --backend
hybrid`` and ``check`` use must hold what the conclusions reach and give
the same well-founded and hybrid values over its base."""

import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import defeasidl
from defeasidl import evaluator, generator
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import DatalogProgram, dependency_graph, is_safe, parse_datalog, stratify
from defeasidl.evaluator import (
    GroundClause,
    GroundProgram,
    NotStratified,
    _evaluate,
    _ground_clauses,
    _head_instances,
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    ground_program,
)
from defeasidl.parser import parse_theory
from analysis_reference import restrict_to
from evaluation_reference import value
from grounding_reference import (
    decoded,
    naive_derivable_clauses,
    naive_ground_clauses,
    relevant_clauses,
)
from program_generator import ProgramShape, random_program

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import chain_names, random_digraph, reach_theory, succ_theory  # noqa: E402

CORPUS_SEED = 20260809
GROUND_THEORIES = 60
VARIABLE_THEORIES = 30


def atom(text: str):
    if "(" not in text:
        return (text, ())
    name, _, rest = text.partition("(")
    return (name, tuple(a.strip() for a in rest[:-1].split(",")))


def decode(result):
    """A ``_ground_clauses`` result, numbered instances and the atoms by
    number, as the references give it: instances of atoms, and the base."""
    instances, atoms = result
    ground = GroundProgram(tuple(instances), atoms)
    return list(decoded(ground)), set(ground.herbrand_base)


def assert_seeds_agree(program, constants):
    """The derivable grounding gives the well-founded true and unknown sets
    and the stratified model of the self-supporting one."""
    full = ground_program(program, constants)
    small = ground_program(program, constants, self_supporting=set())
    wf, wf_small = eval_wellfounded(program, full), eval_wellfounded(program, small)
    assert wf_small.true_set == wf.true_set
    assert wf_small.unknown_set == wf.unknown_set
    if stratify(program) is not None:
        assert eval_stratified(program, small).true_set == eval_stratified(program, full).true_set


def assert_same_grounding(program, constants=None):
    """Hold both seeds to their references and to each other; return the
    self-supporting grounding."""
    if constants is None:
        constants = program.constants()
    results = {}
    for seed, kept, reference in (
        ("derivable", set(), naive_derivable_clauses(program)),
        ("self-supporting", None, naive_ground_clauses(program, constants)),
    ):
        instances, base = results[seed] = decode(
            _ground_clauses(program, constants, self_supporting=kept))
        assert len(instances) == len(set(instances)), seed
        assert set(instances) == set(reference[0]), seed
        assert base == reference[1], seed
    assert_seeds_agree(program, constants)
    return results["self-supporting"]


def grounding_cases(out):
    """(program, constant pool) pairs for one compiled theory: the whole
    program over the theory's constants, as ``solve`` and ``check`` ground
    it; the same over the program's own constants, rule labels included, as
    ``eval`` grounds its text; and the stratified floor over the theory's
    constants."""
    yield out.program, out.constants
    yield out.program, out.program.constants()
    yield restrict_to(out.program, out.floor_names), out.constants


def corpus_slice():
    rng = random.Random(CORPUS_SEED)
    theories = [generator.random_ground_theory(rng) for _ in range(GROUND_THEORIES)]
    theories += [generator.random_variable_theory(rng) for _ in range(VARIABLE_THEORIES)]
    return theories


def test_corpus_slice_matches_reference():
    checked = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            for program, constants in grounding_cases(out):
                assert_same_grounding(program, constants)
                checked += 1
    assert checked >= 3 * 2 * GROUND_THEORIES


def test_random_programs_match_reference(rng):
    # With arity 3, the two variables of a random atom often repeat in it.
    for shape in (ProgramShape(), ProgramShape(max_arity=3)):
        for _ in range(150):
            assert_same_grounding(random_program(rng, shape))


@pytest.mark.parametrize(
    "text",
    [
        "p(X) :- p(X), e(X).\ne(a).",
        "e(a, a).\ne(a, b).\ne(b, b).\np(X) :- e(X, X).\nq(X, Y) :- e(X, Y), e(Y, Y).",
        "e(a, b).\ne(b, c).\ne(c, a).\np(Y) :- e(b, Y).\nq :- e(a, c).\nr :- e(c, a), e(a, b).",
        "p :- not q.\nr(a) :- not s(a).\nt(b).",
        "p(a).\nq(X) :- p(X), r(X).\nr(X) :- q(X).\ns(X) :- p(X), not q(X).",
        "p(a).\np(a).\nq(X) :- p(X).\nq(X) :- p(X).",
        # Two predicates that support each other, without and with a base case.
        "p(X, Y) :- q(Y, X).\nq(X, Y) :- p(X, Y).\ne(a, b).",
        "p(X, Y) :- q(Y, X).\nq(X, Y) :- p(X, Y).\nq(X, Y) :- e(X, Y).\ne(a, b).",
        # A non-recursive predicate that reads a recursive one.
        "e(a, b).\ne(b, c).\nt(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n"
        "s(X) :- t(a, X), not e(X, a).",
        # A body predicate with no clauses at all.
        "e(a).\np(X) :- e(X), missing(X).\nq(X) :- e(X), not p(X).",
        # A recursive head that repeats a variable.
        "e(a, b).\ne(b, a).\ne(b, b).\np(a, b).\np(X, X) :- p(X, Y), e(Y, X).",
        # A constant inside a recursive head.
        "e(a, b).\ne(b, c).\ne(c, c).\nt(X, Y) :- e(X, Y).\nt(a, Y) :- t(X, Y), e(X, Y).",
        # A variable repeated inside one arity-3 body atom, twice or three times.
        "f(a, a, b).\nf(a, b, a).\nf(b, b, b).\nf(c, a, a).\n"
        "p(X, Y) :- f(X, X, Y).\nq(X) :- f(X, Y, X).\nr(Y) :- f(X, Y, Y).\ns(X) :- f(X, X, X).",
        # A variable first bound by the second body atom, then used negatively.
        "e(a).\ne(b).\ng(a, b).\ng(a, c).\nh(c).\np(X, Y) :- e(X), g(X, Y), not h(Y).",
        # Zero-arity atoms in one recursive component.
        "p :- q, r.\nq :- p.\nq :- not s.\nr.\ns :- p, not r.\nu :- u.",
        # Variable-free clauses: a positive atom never derived although its
        # predicate has other atoms (and s has numbered it), and a negative
        # atom that is never a head although its predicate has one.
        "e(a).\ne(b) :- z.\ns :- e(a), not e(b), not w(a).\np :- s, e(b).\nw(b) :- e(a).",
        # Variable-free clauses reading members of a recursive component that
        # is derivable, from inside it and from above it.
        "e(a, b).\ne(b, c).\nt(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).\n"
        "t(c, a) :- t(a, c).\nt(c, c) :- t(b, a).\nu :- t(c, a), not t(a, a).\nv :- t(b, a).",
        # ... and of a self-supporting one: q(b) and r(b) support only each other.
        "e(a).\nq(X) :- r(X).\nr(X) :- q(X).\nq(a) :- e(a).\nq(b) :- r(b).\n"
        "r(b) :- q(b).\nu :- q(b).\nw :- r(a), not q(c).",
    ],
)
def test_hand_cases_match_reference(text):
    assert_same_grounding(parse_datalog(text))


def test_head_instances_match_each_pattern_exactly():
    # A head of distinct variables is filled straight from the product of
    # the pool; any other head keeps only the tuples its constants and
    # repeated variables allow.
    constants = ["a", "b", "c"]
    heads = ["p(X, Y)", "p(X, X)", "p(a, Y)", "p(X, Y, X)", "p(X, b, Z)", "p(X)", "p"]
    for head in heads:
        (clause,) = parse_datalog(f"{head} :- e.").clauses
        args = clause.head.args
        want = set()
        for values in product(constants, repeat=len(args)):
            binding = {}
            if all(value == (binding.setdefault(t.name, value) if t.is_variable else t.name)
                   for t, value in zip(args, values)):
                want.add(values)
        assert {p: set(args) for p, args in _head_instances([clause], constants).items()} \
            == {"p": want}, head


# Grounds a reach theory both ways, each seed mode (the demand seed runs its
# demand pass here), and as check_theory does (the team program whole, the
# individual one on the team grounding's floor), and prints one digest over
# every grounding's numbered instances and atoms.
HASH_SEED_DIGEST = """
import hashlib
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.evaluator import ground_program
from defeasidl.parser import parse_theory
theory = parse_theory(
    "edge(a, b). edge(b, c). edge(c, a). edge(c, d).\\n"
    "r1: edge(X,Y) => path(X,Y).\\n"
    "r2: path(X,Z), edge(Z,Y) => path(X,Y).\\n"
    "r3: edge(X,Y) => neg path(Y,X).\\n"
    "r1 > r3.\\nr2 > r3.\\n")
digest = hashlib.sha256()
for compile_ in (compile_team, compile_individual):
    out = compile_(theory)
    for keep, demand in ((None, None), (out.upper_names, None), (frozenset(), None),
                         (out.upper_names, out.defeasibly_names)):
        g = ground_program(out.program, out.constants, self_supporting=keep, demand=demand)
        digest.update(repr((g.instances, g.atoms)).encode())
team = compile_team(theory)
g = None
for out in (team, compile_individual(theory, team)):
    g = ground_program(out.program, out.constants, self_supporting=out.upper_names,
                       demand=out.defeasibly_names, floor=g)
    digest.update(repr((g.instances, g.atoms)).encode())
print(digest.hexdigest())
"""


def test_grounding_does_not_depend_on_the_hash_seed():
    # The self-supporting seeds come in product order, not in a set's, so the
    # atom numbers and the instance order are the same under every hash seed.
    package_root = str(Path(defeasidl.__file__).resolve().parent.parent)
    digests = set()
    for seed in ("0", "1", "3"):
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_DIGEST], capture_output=True, text=True,
            timeout=60, env={**os.environ, "PYTHONPATH": package_root, "PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1, digests


def test_positive_self_support_is_kept():
    instances, base = assert_same_grounding(parse_datalog("q :- q.\nr :- not q."))
    assert {c.head for c in instances} == {atom("q"), atom("r")}
    assert base == {atom("q"), atom("r")}


def test_repeated_variable_within_one_atom():
    instances, _ = assert_same_grounding(
        parse_datalog("e(a, a).\ne(a, b).\np(X) :- e(X, X).")
    )
    assert {c.head for c in instances if c.head[0] == "p"} == {atom("p(a)")}


def test_constants_in_body_atoms():
    instances, _ = assert_same_grounding(
        parse_datalog("e(a, b).\ne(b, c).\np(Y) :- e(b, Y).")
    )
    assert {c.head for c in instances if c.head[0] == "p"} == {atom("p(c)")}


def test_support_only_from_external_truths():
    # p and h read f, whose only support is the unit clause f(a).
    text = "p(X) :- f(X), not g(X).\nh(X) :- p(X), f(X)."
    assert assert_same_grounding(parse_datalog(text)) == ([], set())
    instances, base = assert_same_grounding(parse_datalog(text + "\nf(a)."))
    assert {c.head for c in instances} == {atom("f(a)"), atom("p(a)"), atom("h(a)")}
    assert base == {atom("f(a)"), atom("g(a)"), atom("p(a)"), atom("h(a)")}


def test_external_truth_outlives_its_dropped_clause():
    # f(b) :- g(b) goes because nothing supports g(b), but the unit clause
    # f(b) still supports f(b), so h(b) :- f(b) stays.
    program = parse_datalog("f(X) :- g(X).\ng(b) :- z.\nh(X) :- f(X).\nf(b).")
    instances, _ = assert_same_grounding(program)
    assert set(instances) == {
        GroundClause(atom("f(b)"), (), ()),
        GroundClause(atom("h(b)"), (atom("f(b)"),), ()),
    }


def test_clause_without_positive_body():
    instances, base = assert_same_grounding(parse_datalog("p :- not q.\nr(a) :- not s(a)."))
    assert {c.head for c in instances} == {atom("p"), atom("r(a)")}
    assert base == {atom("p"), atom("q"), atom("r(a)"), atom("s(a)")}


def test_unsupported_atoms_are_dropped_in_cascade():
    # q(b) has no derivable clause, so r(b) and then s(b) lose their only
    # instances; q(a) and r(a) support each other and stay.
    program = parse_datalog(
        "e(a).\nq(X) :- e(X), r(X).\nr(X) :- q(X).\ns(X) :- r(X).\nq(b) :- z."
    )
    instances, base = assert_same_grounding(program)
    assert {c.head for c in instances} == {atom("e(a)"), atom("q(a)"), atom("r(a)"), atom("s(a)")}
    assert base == {atom("e(a)"), atom("q(a)"), atom("r(a)"), atom("s(a)")}


def test_path_supported_only_through_a_cycle():
    # a and b form a cycle and c is no edge source, so path(c, a) and
    # path(c, b) support only each other: the grounding keeps them, Fitting
    # leaves them unknown, and the well-founded semantics makes them false.
    program = parse_datalog(
        "edge(a, b).\nedge(b, a).\nedge(a, c).\n"
        "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), edge(Z, Y)."
    )
    _, base = assert_same_grounding(program)
    cycle = {atom("path(c, a)"), atom("path(c, b)")}
    assert cycle <= base
    assert {value(eval_fitting(program), a) for a in cycle} == {"unknown"}
    assert {value(eval_wellfounded(program), a) for a in cycle} == {"false"}


def reach_path(edges: int):
    """The team compilation of reachability over a path of ``edges`` links,
    with a defeated ``neg path`` rule."""
    text = "".join(f"edge(n{i}, n{i + 1}).\n" for i in range(edges))
    text += (
        "r1: edge(X,Y) => path(X,Y).\nr2: path(X,Z), edge(Z,Y) => path(X,Y).\n"
        "r3: edge(X,Y) => neg path(Y,X).\nr1 > r3.\nr2 > r3.\n"
    )
    return compile_team(parse_theory(text))


def test_few_instances_are_built_to_be_dropped(monkeypatch):
    # Under the self-supporting seed only positively recursive components
    # join over a universe of all head instances; the others join over
    # final atoms and keep what they build.  Under the derivable seed every
    # instance is built once and kept: a body with two recursive atoms
    # reads the older atoms before the delta step and all atoms after it.
    built = 0
    real = evaluator.GroundClause

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(evaluator, "GroundClause", counting)
    out = reach_path(20)
    for program in (out.program, restrict_to(out.program, out.floor_names)):
        built = 0
        instances, _ = _ground_clauses(program, out.constants)
        assert built <= 2.5 * len(instances)
        built = 0
        instances, _ = _ground_clauses(program, out.constants, self_supporting=set())
        assert built == len(instances)
    squared = parse_datalog(
        "".join(f"edge(n{i}, n{(i + 1) % 12}).\n" for i in range(12))
        + "path(X, Y) :- edge(X, Y).\npath(X, Y) :- path(X, Z), path(Z, Y)."
    )
    built = 0
    result = _ground_clauses(squared, squared.constants(), self_supporting=set())
    assert built == len(result[0]) == 12 + 12 + 12**3
    assert set(decode(result)[0]) == set(naive_derivable_clauses(squared)[0])


def test_variable_free_clauses_are_not_planned(monkeypatch):
    # A succ chain's team compilation is mostly unit clauses of facts: each
    # gives one instance without a join plan, so only the clauses with
    # variables are planned, once per grounding.
    calls = 0
    real = evaluator._plan

    def counting(clause):
        nonlocal calls
        calls += 1
        return real(clause)

    monkeypatch.setattr(evaluator, "_plan", counting)
    names = [f"k{i}" for i in range(61)]
    text = f"p({names[0]}).\n" + "".join(f"succ({a}, {b}).\n" for a, b in zip(names, names[1:]))
    out = compile_team(parse_theory(text + "r1: p(X), succ(X,Y) => p(Y).\n"
                                    "r2: succ(X,Y) => neg p(Y).\nr1 > r2.\n"))
    with_variables = sum(any(t.is_variable for a in c.atoms() for t in a.args)
                         for c in out.program.clauses)
    assert with_variables == 11 and len(out.program.clauses) == 11 + 3 * 61
    for kept in (set(), None, upper_names(out)):
        calls = 0
        ground = ground_program(out.program, out.constants, self_supporting=kept)
        assert calls <= with_variables
        assert {c.head for c in decoded(ground) if c.head[0] == "defeasibly__p"} == {
            ("defeasibly__p", (name,)) for name in names}


def rot_theory(n: int):
    """``n`` constants, one triple, its rotations by defeasible rule, and a
    rule for ``neg t(c, c, c)`` on every constant."""
    text = "".join(f"e(c{i}).\n" for i in range(n))
    return parse_theory(text + "t(c0, c1, c2).\nr1: t(X,Y,Z) => t(Y,Z,X).\nr2: e(X) => neg t(X,X,X).\n")


def test_rot_grounds_only_derivable_triples():
    # The self-supporting seed starts t from all n**3 triples, nearly all
    # of which support each other around a rotation; the derivable seed
    # keeps the three rotations of the fact and the triples (c, c, c) that
    # r2 reads.
    rotations = {("c0", "c1", "c2"), ("c1", "c2", "c0"), ("c2", "c0", "c1")}
    kept = 0
    for compile_ in (compile_team, compile_individual):
        out = compile_(rot_theory(40))
        instances, base = decode(_ground_clauses(out.program, out.constants, self_supporting=set()))
        reference, reference_base = naive_derivable_clauses(out.program)
        assert len(instances) == len(set(instances))
        assert set(instances) == set(reference) and base == reference_base
        triples = {args for _, args in base if len(args) == 3}
        assert triples == rotations | {(c, c, c) for c in out.constants}
        kept += len(instances)
    assert kept == 676


def test_fitting_refuses_a_derivable_grounding():
    program = parse_datalog("q :- q.\nr :- not q.")
    ground = ground_program(program, self_supporting=set())
    assert decoded(ground) == (GroundClause(atom("r"), (), (atom("q"),)),)
    assert ground.derived == {"q", "r"}
    assert eval_wellfounded(program, ground).true_set == {atom("r")}
    with pytest.raises(ValueError):
        eval_fitting(program, ground)
    # Naming q keeps its self-support; r alone is derived, and Fitting's
    # operator still decides it.
    ground = ground_program(program, self_supporting={"q"})
    assert ground.derived == {"r"}
    assert set(decoded(ground)) == set(decoded(ground_program(program)))
    with pytest.raises(ValueError):
        eval_fitting(program, ground)
    ground = ground_program(program, self_supporting={"q", "r"})
    assert eval_fitting(program, ground).unknown_set == {atom("q"), atom("r")}


def upper_names(out):
    """The predicates above a compiled program's floor, the ones ``solve
    --backend hybrid`` and ``check`` keep self-supporting."""
    return out.program.predicates.keys() - out.floor_names


def true_and_unknown(interp):
    return interp.true_set, interp.unknown_set


def assert_floor_by_derivability_agrees(program, constants, floor):
    """Grounding the downward-closed ``floor`` by derivability and the rest
    self-supporting changes no well-founded or floor-over-Fitting true or
    unknown atom; the false atoms it loses are those that leave the base,
    floor atoms and the upper atoms whose every instance read one."""
    full = ground_program(program, constants)
    mixed = ground_program(program, constants,
                           self_supporting=program.predicates.keys() - floor)
    for wf in (None, floor):
        want = _evaluate(full, wf)
        got = _evaluate(mixed, wf)
        assert true_and_unknown(got) == true_and_unknown(want), wf
        assert got.false_set == want.false_set & mixed.herbrand_base, wf
    return full, mixed


def test_floor_by_derivability_on_the_corpus_slice():
    checked = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            full, mixed = assert_floor_by_derivability_agrees(
                out.program, out.constants, out.floor_names)
            assert mixed.derived == out.floor_names
            got, want = eval_hybrid(out, mixed), eval_hybrid(out, full)
            assert true_and_unknown(got) == true_and_unknown(want)
            checked += 1
    assert checked >= 2 * GROUND_THEORIES


def downward_closure(program, start):
    """``start`` and every predicate it depends on, positively or negatively."""
    adjacency = dependency_graph(program).adjacency
    closed, stack = set(), [start]
    while stack:
        pred = stack.pop()
        if pred not in closed:
            closed.add(pred)
            stack.extend(adjacency[pred])
    return closed


def test_floor_by_derivability_on_random_programs(rng):
    for shape in (ProgramShape(), ProgramShape(max_arity=3)):
        for _ in range(100):
            program = random_program(rng, shape)
            heads = sorted({c.head.predicate for c in program.clauses})
            floor = downward_closure(program, rng.choice(heads)) if heads else set()
            assert_floor_by_derivability_agrees(program, program.constants(), floor)


def test_a_grounding_on_its_own_floor_is_the_same_grounding(rng):
    # Given a floor grounding, the grounder takes its instances whose heads it
    # derived, numbered without gaps, and grounds the other clauses on top.
    for shape in (ProgramShape(), ProgramShape(max_arity=3)):
        for _ in range(100):
            program = random_program(rng, shape)
            heads = sorted({c.head.predicate for c in program.clauses})
            floor = downward_closure(program, rng.choice(heads)) if heads else set()
            keep = program.predicates.keys() - floor
            whole = ground_program(program, self_supporting=keep)
            on_top = ground_program(program, self_supporting=keep, floor=whole)
            assert sorted(decoded(on_top)) == sorted(decoded(whole))
            assert (on_top.herbrand_base, on_top.derived) == (whole.herbrand_base, whole.derived)
            shared = [inst for inst in whole.instances if whole.atoms[inst.head][0] in floor]
            numbers = {n for inst in on_top.instances[:len(shared)]
                       for n in (inst.head, *inst.positive, *inst.negative)}
            assert numbers == set(range(len(numbers)))
            assert all(on_top.atoms[inst.head][0] in floor
                       for inst in on_top.instances[:len(shared)])


def test_a_floor_deriving_predicates_the_program_lacks_is_refused(tweety):
    team = compile_team(tweety)
    ground = ground_program(team.program, team.constants, self_supporting=upper_names(team))
    indiv = compile_individual(tweety, team)
    on_top = ground_program(indiv.program, indiv.constants, self_supporting=upper_names(indiv),
                            floor=ground)
    assert on_top.derived == ground.derived == team.floor_names
    with pytest.raises(ValueError, match="floor grounding derived predicates the program lacks"):
        ground_program(parse_datalog("bird(tweety)."), floor=ground)


@pytest.mark.parametrize("n", [20, 24])
def test_rot_hybrid_floor_grounds_only_derivable_atoms(n):
    # The self-supporting seed gives the floor's t component all n**3
    # triples; grounded by derivability it holds what the naive derivable
    # twin holds, while the upper part keeps its universe.
    for compile_ in (compile_team, compile_individual):
        out = compile_(rot_theory(n))
        floor = out.floor_names
        ground = ground_program(out.program, out.constants, self_supporting=upper_names(out))
        got = {c for c in decoded(ground) if c.head[0] in floor}
        want, _ = naive_derivable_clauses(restrict_to(out.program, floor))
        assert got == set(want)
        assert len(got) < 8 * n  # against n**3 under the self-supporting seed
        assert len(ground.instances) - len(got) > n**3


def test_fitting_and_hybrid_refuse_derivable_atoms_they_would_decide(tweety):
    out = compile_team(tweety)
    upper = upper_names(out)
    for kept, hybrid_ok, fitting_ok in (
        (None, True, True),
        (upper, True, False),  # the floor is derived, so Fitting alone refuses
        (set(), False, False),
        (out.floor_names, False, False),  # the upper part is derived
    ):
        ground = ground_program(out.program, out.constants, self_supporting=kept)
        for evaluate, ok in ((lambda: eval_hybrid(out, ground), hybrid_ok),
                             (lambda: eval_fitting(out.program, ground), fitting_ok)):
            if ok:
                evaluate()
            else:
                with pytest.raises(ValueError):
                    evaluate()
        eval_wellfounded(out.program, ground)
    # A demand grounding derives the floor, so hybrid takes it and Fitting
    # alone refuses it, with or without a demand pass (rot has a wide component).
    for out in (out, compile_team(rot_theory(8))):
        ground = ground_program(out.program, out.constants, self_supporting=upper_names(out),
                                demand=out.defeasibly_names)
        assert ground.derived == out.floor_names
        eval_hybrid(out, ground)
        with pytest.raises(ValueError):
            eval_fitting(out.program, ground)
        eval_wellfounded(out.program, ground)


def canonical(clauses):
    """Instances up to the order of their body atoms."""
    return {(c.head, frozenset(c.positive), frozenset(c.negative)) for c in clauses}


def assert_demand_grounding_exact(program, constants, floor, demand):
    """Ground the predicates above the downward-closed ``floor`` on demand
    from the derivable atoms of ``demand``.  The grounding must hold every
    atom and upper instance of the reference: the full self-supporting
    grounding over a floor decided as under the well-founded semantics, cut
    down to what those atoms reach.  Over its own base it must give the
    true and unknown atoms of the full grounding, floor-over-Fitting and
    well-founded, and so hold every true atom of ``demand``."""
    floor = program.predicates.keys() & floor
    upper = program.predicates.keys() - floor
    got = ground_program(program, constants, self_supporting=upper, demand=demand)
    assert got.derived == floor
    full = ground_program(program, constants)
    derivable = {c.head for c in decoded(ground_program(program, constants, self_supporting=set()))}
    want, reached = relevant_clauses(
        decoded(full), [a for a in derivable if a[0] in demand],
        [a for a in full.herbrand_base if a[0] in floor and a not in derivable])
    base = got.herbrand_base
    assert reached <= base
    assert canonical(c for c in want if c.head[0] in upper) <= canonical(decoded(got))
    for wf in (None, frozenset(floor)):
        have, exact = _evaluate(got, wf), _evaluate(full, wf)
        assert have.true_set == exact.true_set & base, wf
        assert have.unknown_set == exact.unknown_set & base, wf
        assert {a for a in exact.true_set if a[0] in demand} <= base, wf
    return got


@pytest.fixture(params=[False, True], ids=["as-is", "all-wide"])
def all_wide(request, monkeypatch):
    """Run as the grounder decides, and with every positively recursive
    component above the floor taken as wide, so the demand pass runs
    wherever such a component exists."""
    if request.param:
        monkeypatch.setattr(evaluator, "_universe", lambda arity, constants: float("inf"))
    return request.param


def test_demand_grounding_on_the_corpus_slice(all_wide):
    checked = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if is_safe(out.program):
                assert_demand_grounding_exact(out.program, out.constants, out.floor_names,
                                              out.defeasibly_names)
                checked += 1
    assert checked >= 2 * GROUND_THEORIES


def test_demand_grounding_on_random_programs(rng, all_wide):
    for shape in (ProgramShape(), ProgramShape(max_arity=3)):
        for _ in range(150):
            program = random_program(rng, shape)
            heads = sorted({c.head.predicate for c in program.clauses})
            floor = downward_closure(program, rng.choice(heads)) if heads else set()
            demand = {p for p in sorted(program.predicates.keys() - floor) if rng.random() < 0.5}
            assert_demand_grounding_exact(program, program.constants(), floor, demand)


# A narrow positive loop {a, b} reads the wide component t through b only,
# and b's instance from t's self-supporting cycle decides d under Fitting.
NARROW_OVER_WIDE = """e(c0). e(c1). e(c2). e(c3). z.
t(X, Y, Z) :- t(Y, Z, X).
{a} :- {b}, not z.
{b} :- {a}.
{b} :- t(c1, c2, c3).
d :- not {b}.
"""
# e8(a, a) supports itself only through e1(a, a), on a self-loop of another
# recursive part that e8 reads in a clause outside its own recursion.
BASE_OVER_LOOP = """e4.
e1(b, a).
e1(Y, Y) :- e1(Y, a).
e8(X, a) :- e1(X, Y).
e8(Y, a) :- e8(Y, b).
e4 :- e8(Y, Y).
"""
DEMAND_HAND_CASES = [
    (NARROW_OVER_WIDE.format(a="a", b="b"), {"e", "z"}, {"d"}),
    (NARROW_OVER_WIDE.format(a="b", b="a"), {"e", "z"}, {"d"}),
    (BASE_OVER_LOOP, set(), {"e4"}),
]


@pytest.mark.parametrize("text, floor, demand", DEMAND_HAND_CASES)
def test_demand_grounding_on_hand_cases(text, floor, demand, all_wide):
    program = parse_datalog(text)
    assert_demand_grounding_exact(program, program.constants(), floor, demand)


def compiled_workloads():
    """rot-8, the reach graphs of 12 and 16 edges and succ chains of 10 and
    30 links, each compiled both ways."""
    texts = [reach_theory(random_digraph(random.Random(1), n)) for n in (12, 16)]
    texts += [succ_theory(chain_names(random.Random(1), n)) for n in (10, 30)]
    for theory in (rot_theory(8), *map(parse_theory, texts)):
        for compile_ in (compile_team, compile_individual):
            yield compile_(theory)


def test_demand_grounding_on_rot_reach_and_succ(all_wide, monkeypatch):
    passes = []
    real = evaluator._demand
    monkeypatch.setattr(evaluator, "_demand", lambda *args: passes.append(1) or real(*args))
    for out in compiled_workloads():
        assert_demand_grounding_exact(out.program, out.constants, out.floor_names,
                                      out.defeasibly_names)
    # rot and reach have a wide component above the floor; succ's universe
    # is one atom per constant, so it is grounded self-supporting as it is.
    assert len(passes) == (10 if all_wide else 6)


@pytest.mark.parametrize("n", [20, 40])
def test_rot_demand_grounds_linearly_many_upper_instances(n):
    # Three per constant (its e fact, r2's body and neg t(c, c, c)) and seven
    # for the rotations of the fact, where the self-supporting seed starts t
    # from all n**3 triples.
    for compile_ in (compile_team, compile_individual):
        out = compile_(rot_theory(n))
        ground = ground_program(out.program, out.constants, self_supporting=upper_names(out),
                                demand=out.defeasibly_names)
        upper = [c for c in ground.instances if ground.atoms[c.head][0] not in out.floor_names]
        assert len(upper) == 3 * n + 7


def interpretations(program, constants):
    ground = ground_program(program, constants)
    results = []
    for evaluate in (eval_wellfounded, eval_fitting, eval_stratified):
        try:
            interp = evaluate(program, ground)
        except NotStratified:
            results.append(None)
        else:
            results.append((interp.true_set, interp.false_set, interp.domain))
    return results


def test_clause_order_changes_nothing():
    # Each program is compared with its clauses reversed or, every other
    # program, shuffled.
    rng = random.Random(CORPUS_SEED)
    checked = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            for program, constants in grounding_cases(out):
                clauses = list(program.clauses)
                if checked % 2:
                    rng.shuffle(clauses)
                else:
                    clauses.reverse()
                reordered = DatalogProgram(tuple(clauses))
                instances, base = decode(_ground_clauses(program, constants))
                got, got_base = decode(_ground_clauses(reordered, constants))
                assert set(got) == set(instances) and got_base == base
                assert interpretations(reordered, constants) == interpretations(program, constants)
                checked += 1
    assert checked >= 3 * 2 * GROUND_THEORIES
