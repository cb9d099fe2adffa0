"""Differential gate for the component-wise evaluation engine:
``eval_wellfounded``, ``eval_stratified``, ``eval_fitting`` and
``eval_hybrid`` must give the same whole interpretation (true set, false
set and domain) as the whole-program references in
``evaluation_reference`` on compiled corpus programs, on random programs
and on hand-picked corner cases."""

import random
import time

import pytest

from defeasidl import evaluator, generator
from defeasidl.compiler import compile_individual, compile_team
from defeasidl.datalog import is_safe, parse_datalog, stratify
from defeasidl.evaluator import (
    NotStratified,
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    ground_program,
)
from defeasidl.parser import parse_theory
from analysis_reference import restrict_to
from evaluation_reference import (
    information_leq,
    reference_fitting,
    reference_hybrid,
    reference_stratified,
    reference_wellfounded,
    value,
)
from grounding_reference import decoded
from program_generator import random_program

CORPUS_SEED = 20260809
GROUND_THEORIES = 60
VARIABLE_THEORIES = 30


def atom(text: str):
    if "(" not in text:
        return (text, ())
    name, _, rest = text.partition("(")
    return (name, tuple(a.strip() for a in rest[:-1].split(",")))


def whole(interp):
    return interp.true_set, interp.false_set, interp.domain


def assert_same_evaluation(program):
    """Compare the engine with the references; returns the WF model."""
    got = eval_wellfounded(program)
    assert whole(got) == whole(reference_wellfounded(program))
    assert whole(eval_fitting(program)) == whole(reference_fitting(program))
    if stratify(program) is None:
        with pytest.raises(NotStratified):
            eval_stratified(program)
    else:
        assert whole(eval_stratified(program)) == whole(reference_stratified(program))
    return got


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
            assert_same_evaluation(out.program)
            assert_same_evaluation(restrict_to(out.program, out.floor_names))
            assert whole(eval_hybrid(out)) == whole(reference_hybrid(out))
            checked += 1
    assert checked >= 2 * GROUND_THEORIES


def test_hybrid_floor_atoms_take_their_wellfounded_values():
    # The floor is total, and one grounding over the theory's constants
    # serves every backend: its floor part is exactly the floor's own
    # grounding, so no floor atom the upper clauses read goes ungrounded.
    floor_atoms = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            g = ground_program(out.program, out.constants)
            floor = ground_program(restrict_to(out.program, out.floor_names), out.constants)
            assert {c for c in decoded(g) if c.head[0] in out.floor_names} == set(decoded(floor))
            assert {a for a in g.herbrand_base if a[0] in out.floor_names} == floor.herbrand_base
            hybrid = eval_hybrid(out, g)
            wf = eval_wellfounded(out.program, g)
            for a in floor.herbrand_base:
                assert value(hybrid, a) == value(wf, a) != "unknown", a
            floor_atoms += len(floor.herbrand_base)
    assert floor_atoms > 0


def test_hybrid_verdicts_are_wellfounded_verdicts():
    # Fitting's operator above the well-founded floor decides less than the
    # well-founded semantics and never otherwise, and the hybrid result is
    # reported whole: atoms above the floor that it makes false stay false.
    false_above_floor = 0
    for theory in corpus_slice():
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            g = ground_program(out.program, out.constants)
            hybrid = eval_hybrid(out, g)
            assert information_leq(hybrid, eval_wellfounded(out.program, g))
            false_above_floor += sum(a[0] not in out.floor_names for a in hybrid.false_set)
    assert false_above_floor > 0


def test_compiled_domains_hold_only_theory_constants():
    # Rule labels are constants of a compiled program but not of its theory:
    # they may fill only the label positions of defeated, overruled and
    # defeats atoms, never a source predicate's argument.
    checked = 0
    for theory in corpus_slice():
        arity = {lit.predicate: lit.atom.arity for lit in theory.literals()}
        constants = theory.constants()
        for compile_ in (compile_team, compile_individual):
            out = compile_(theory)
            if not is_safe(out.program):
                continue
            domain = ground_program(out.program, out.constants).herbrand_base
            assert eval_hybrid(out).domain == domain
            for pred, args in domain:
                mp = out.predicate_info[pred]
                labels = 0
                if mp.base == "defeats":
                    labels = len(args)
                elif mp.base in ("defeated", "overruled"):
                    labels = len(args) - arity[mp.source_predicate]
                assert set(args[labels:]) <= constants, (pred, args)
                checked += 1
    assert checked > 0


def test_random_programs_match_reference(rng):
    for _ in range(150):
        assert_same_evaluation(random_program(rng))


def random_normal_program(rng: random.Random) -> str:
    """A propositional program whose bodies may be purely negative, unlike
    ``random_program``'s: few atoms, many clauses, so it makes
    large components with negative edges and many unknown atoms."""
    atoms = "abcdefg"[: rng.randint(2, 7)]
    clauses = []
    for _ in range(rng.randint(1, 12)):
        body = [
            ("not " if rng.random() < 0.5 else "") + rng.choice(atoms)
            for _ in range(rng.randint(0, 3))
        ]
        clauses.append(rng.choice(atoms) + (" :- " + ", ".join(body) if body else "") + ".")
    return "\n".join(clauses)


def test_random_normal_programs_match_reference(rng):
    unknown = 0
    for _ in range(300):
        interp = assert_same_evaluation(parse_datalog(random_normal_program(rng)))
        unknown += bool(interp.unknown_set)
    assert unknown > 50


@pytest.mark.parametrize(
    "text, values",
    [
        # Unknown atoms flow upward across components.
        (
            "a :- not b.\nb :- not a.\nc :- a.\nd :- not c.\ne :- c, not d.",
            {name: "unknown" for name in "abcde"},
        ),
        ("p :- p.", {"p": "false"}),
        ("p :- not p.", {"p": "unknown"}),
        # q has no clauses.
        ("p :- not q.", {"p": "true", "q": "false"}),
        # One component {p, q} with a positive and a negative edge.
        ("p :- q.\nq :- not p.", {"p": "unknown", "q": "unknown"}),
        ("p :- q.\nq :- not p.\nq :- r.\nr.", {"p": "true", "q": "true"}),
        ("p :- q.\nq :- not p.\np :- not r.\nr.", {"p": "unknown", "q": "unknown"}),
        # The same component fed an unknown atom from below.
        ("p :- q, u.\nq :- not p.\nu :- not v.\nv :- not u.", {"p": "unknown", "q": "unknown"}),
        # A positive component fed an unknown atom, and one fed a true atom.
        ("p :- q.\nq :- p.\np :- u.\nu :- not u.", {"p": "unknown", "q": "unknown"}),
        ("p :- q.\nq :- p.\np :- t.\nt :- not f.", {"p": "true", "q": "true"}),
        # An unknown atom negated inside a component.
        ("p :- not q, not u.\nq :- not p.\nu :- not u.", {"p": "unknown", "q": "unknown"}),
        ("p :- q, not u.\nq :- p.\nq :- not w.\nu :- not u.", {"p": "unknown", "q": "true"}),
        # A repeated body atom, an atom read both ways, and a head with one
        # clause killed and one satisfied.
        ("p :- q, q.\nq.", {"p": "true", "q": "true"}),
        ("p :- q, not q.\nq.", {"p": "false", "q": "true"}),
        ("p :- not q.\np :- r.\nq.\nr :- q.", {"p": "true", "q": "true", "r": "true"}),
    ],
)
def test_hand_cases(text, values):
    interp = assert_same_evaluation(parse_datalog(text))
    assert {name: value(interp, atom(name)) for name in values} == values


@pytest.mark.parametrize(
    "text, values",
    [
        # Unknown atoms flow upward across components.
        (
            "a :- not b.\nb :- not a.\nc :- a.\nd :- not c.\ne :- c, not d.\nf :- not e, g.\ng.",
            {name: "unknown" for name in "abcdef"},
        ),
        # No unfoundedness reasoning under Fitting.
        ("p :- p.", {"p": "unknown"}),
        ("p :- not p.", {"p": "unknown"}),
        ("p :- q.\nq :- p.\nr :- not p.", {"p": "unknown", "q": "unknown", "r": "unknown"}),
        # One component {a, b, c, d} that truth enters at a and crosses one
        # atom at a time.
        (
            "a :- b.\nb :- a.\nb :- c.\nc :- b.\nc :- d.\nd :- c.\na :- t.\nt.",
            {name: "true" for name in "abcd"},
        ),
        # One component {a, b}: b is true at once, which makes a false.
        ("a :- not b.\nb :- not a.\nb.", {"a": "false", "b": "true"}),
        ("p :- q, q.\nq.", {"p": "true", "q": "true"}),
        ("p :- q, not q.\nq.", {"p": "false", "q": "true"}),
        # One clause of p is killed by q, the other satisfied by r.
        ("p :- not q.\np :- r.\nq.\nr :- q.", {"p": "true", "q": "true", "r": "true"}),
    ],
)
def test_fitting_hand_cases(text, values):
    program = parse_datalog(text)
    assert_same_evaluation(program)
    interp = eval_fitting(program)
    assert {name: value(interp, atom(name)) for name in values} == values


def test_truth_crosses_a_component_one_atom_at_a_time():
    # Listed against the direction truth flows in, the chain of two-atom
    # loops is decided from d upward.
    program = parse_datalog("a :- b.\nb :- a.\nb :- c.\nc :- b.\nc :- d.\nd :- c.\nd.")
    for evaluate in (eval_fitting, eval_wellfounded):
        interp = evaluate(program)
        assert interp.true_set == {atom(name) for name in "abcd"} and not interp.false_set


def gated_loops(links: int, *more: str):
    """``x0 :- x0.`` and, per link i, ``y_i :- not x_i.``, ``x_{i+1} :-
    x_{i+1}.`` and ``x_{i+1} :- not y_i.``, then the clauses ``more``: each
    loop is unfounded only once the one below it is decided."""
    text = ["x0 :- x0."]
    for i in range(links):
        text += [f"y{i} :- not x{i}.", f"x{i + 1} :- x{i + 1}.", f"x{i + 1} :- not y{i}."]
    return parse_datalog("\n".join(text + list(more)))


def gated_ring(links: int):
    """``gated_loops(links)`` closed into a ring through ``u``: ``x1`` reads
    ``u``, which reads the top gate, and ``u`` and ``v`` block each other."""
    return gated_loops(links, "x1 :- x1, u.", f"u :- not v, y{links - 1}.", "v :- not u.")


def test_gated_loops_are_decided_exactly():
    program = gated_loops(30)
    interp = assert_same_evaluation(program)
    assert interp.false_set == {atom(f"x{i}") for i in range(31)}
    assert interp.true_set == {atom(f"y{i}") for i in range(30)}


def test_a_ring_of_gated_loops_is_decided_one_loop_per_pass(monkeypatch):
    # Once x0 is false, the loops x1 .. x29, their gates, u and v form one
    # component, where each unfounded-set pass decides only the lowest loop
    # left; x30 is a component above it.
    program = gated_ring(30)
    interp = assert_same_evaluation(program)
    assert interp.false_set == {atom(f"x{i}") for i in range(31)}
    assert interp.true_set == {atom(f"y{i}") for i in range(30)}
    assert interp.unknown_set == {atom("u"), atom("v")}
    g = ground_program(program)
    components = []
    real = evaluator._tarjan_sccs

    def recording(nodes, successors):
        found = real(nodes, successors)
        components.extend({g.atoms[node] for node in component} for component in found)
        return found

    monkeypatch.setattr(evaluator, "_tarjan_sccs", recording)
    eval_wellfounded(None, g)
    ring = {atom(f"{name}{i}") for name in "xy" for i in range(1, 30)} | {atom("u"), atom("v")}
    assert len(ring) == 60 and sorted(components, key=len) == [{atom("x30")}, ring]


def test_a_pass_covers_the_positive_readers_of_what_lost_a_clause():
    # m and r hold each other up inside the ring, and m loses its gate only
    # once the passes up the ring decide y3; r lost no clause, but the next
    # pass must cover it, as it reads m, or neither is found unfounded.
    program = gated_loops(6, "x1 :- x1, u.", "u :- not v, y5.", "v :- not u.",
                          "m :- r.", "r :- m.", "m :- not y3.", "x1 :- x1, m.")
    interp = assert_same_evaluation(program)
    assert {atom("m"), atom("r")} <= interp.false_set
    assert interp.unknown_set == {atom("u"), atom("v")}


def test_gated_loops_take_linear_time():
    # Host-independent: twice the links may take at most three times as
    # long.  Each of three rounds times both sizes back to back, so a burst
    # of load elsewhere slows both, and the best round counts.
    groundings = [ground_program(gated_loops(n)) for n in (2000, 4000)]
    for links, g in zip((2000, 4000), groundings):  # builds each grounding's index
        assert len(eval_wellfounded(None, g).true_set) == links
    ratios = []
    for _ in range(3):
        times = []
        for g in groundings:
            started = time.perf_counter()
            eval_wellfounded(None, g)
            times.append(time.perf_counter() - started)
        ratios.append(times[1] / times[0])
    assert min(ratios) <= 3


def gated_loops_under_a_ring(links: int):
    """``gated_loops(links)`` under a positive ring ``c0 :- c(links - 1).``,
    ``c_j :- c_(j - 1).``, where ``c_j :- not y_j.`` also holds each ``c_j``:
    every gate decided kills a clause of the ring, which is unfounded only
    once all of them are decided."""
    ring = [f"c{j} :- c{(j - 1) % links}." for j in range(links)]
    return gated_loops(links, *ring, *(f"c{j} :- not y{j}." for j in range(links)))


def best_time_ratio(make, sizes) -> float:
    """The best of three rounds' ratio of evaluation times of the groundings
    of ``make(n)`` for the two ``sizes``, timed back to back in each round."""
    groundings = [ground_program(make(n)) for n in sizes]
    for g in groundings:  # builds each grounding's index
        eval_wellfounded(None, g)
    ratios = []
    for _ in range(3):
        times = []
        for g in groundings:
            started = time.perf_counter()
            eval_wellfounded(None, g)
            times.append(time.perf_counter() - started)
        ratios.append(times[1] / times[0])
    return min(ratios)


def test_a_ring_of_gated_loops_takes_linear_time():
    # The ring is one component decided one loop per pass; each pass after
    # the first covers only the loop whose gate the last one decided, so
    # twice the links may take at most three times as long.
    assert best_time_ratio(gated_ring, (800, 1600)) <= 3


def test_gated_loops_under_a_ring_take_linear_time():
    # Each gate decided kills a clause of the ring, whose members all read
    # each other positively; condensed apart, the ring is passed over once,
    # after the last gate, not once per gate.
    program = gated_loops_under_a_ring(30)
    interp = assert_same_evaluation(program)
    assert {atom(f"c{j}") for j in range(30)} <= interp.false_set
    assert best_time_ratio(gated_loops_under_a_ring, (800, 1600)) <= 3


def test_evaluation_builds_no_ground_clause(monkeypatch):
    # The engine reads the grounding's numbered instances and decides the
    # residual over their indices, so evaluating a prebuilt grounding copies
    # no clause, however many times it is evaluated.
    loops = ground_program(gated_loops(30))
    residual = ground_program(
        parse_datalog("p :- q.\nq :- p.\nc :- p.\na :- not b.\nb :- not a.\nt."))
    built = 0
    real = evaluator.GroundClause

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(evaluator, "GroundClause", counting)
    for _ in range(2):
        assert len(eval_wellfounded(None, loops).true_set) == 30
        assert eval_wellfounded(None, residual).unknown_set == {atom("a"), atom("b")}
    assert built == 0


def succ_chain(length: int):
    names = [f"c{i}" for i in range(length + 1)]
    text = f"p({names[0]}).\n" + "".join(f"succ({a}, {b}).\n" for a, b in zip(names, names[1:]))
    text += "r1: p(X), succ(X,Y) => p(Y).\nr2: succ(X,Y) => neg p(Y).\nr1 > r2.\n"
    return names, compile_team(parse_theory(text))


def best_of_3(evaluate, argument) -> float:
    times = []
    for _ in range(3):
        started = time.perf_counter()
        evaluate(argument)
        times.append(time.perf_counter() - started)
    return min(times)


def test_succ_chain_200_is_fast():
    names, out = succ_chain(200)
    program = out.program
    assert stratify(program) is None
    started = time.perf_counter()
    interp = eval_wellfounded(program)
    elapsed = time.perf_counter() - started
    assert {a for a in interp.true_set if a[0] == "defeasibly__p"} == {
        ("defeasibly__p", (name,)) for name in names
    }
    assert elapsed < 1.0


def test_fitting_and_hybrid_keep_pace_with_wellfounded():
    # Host-independent: each is timed against the well-founded engine on
    # the same succ-chain-400 team program.
    _, out = succ_chain(400)
    wf = best_of_3(eval_wellfounded, out.program)
    assert best_of_3(eval_fitting, out.program) <= 4 * wf
    assert best_of_3(eval_hybrid, out) <= 4 * wf
