"""Metamorphic relations over theories: renaming the rule labels, the
constants or the predicates of a theory, shuffling the order of its rules,
or adding superiority pairs that cannot matter must not change its
conclusions, on any backend or on the oracle; and the disjoint union of two
theories concludes what the two conclude.

Labels never occur in source literals, so the conclusions map back to the
original theory unchanged; renamed constants and predicates are mapped back
by the inverse renaming.  Renaming constants reorders them, and with them
the grounder's pool and its atom numbering.  Each backend is compared on its whole
interpretation, read back as true, false and unknown source literals, so a
label that leaks into the grounding as an individual shows as a changed
false or unknown literal (``-dpar q(r0)`` becoming ``-dpar q(x1)``)."""

import random

import pytest

from conftest import theory
from defeasidl.compiler import compile_individual, compile_team, read_conclusions
from defeasidl.datalog import is_safe, stratify
from defeasidl.evaluator import (
    eval_fitting,
    eval_hybrid,
    eval_stratified,
    eval_wellfounded,
    ground_program,
)
from defeasidl.mangling import mangling_collisions
from defeasidl.oracle import conclusions
from defeasidl.theory import (
    Atom,
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    Term,
    validate_theory,
)
import corpus
from test_evaluation import corpus_slice

LABEL_EXAMPLE = "q(a).\nr0: q(X) -> q(X).\nr1: q(X) => p(X).\n"


def rename_labels(t: DefeasibleTheory, rng: random.Random) -> DefeasibleTheory:
    """The theory with its labels mapped, in a shuffled order, to fresh ones."""
    labels = [r.label for r in t.rules]
    fresh = [f"x{i}" for i in range(len(labels))]
    assert not set(fresh) & set(labels)
    new = dict(zip(labels, rng.sample(fresh, len(fresh))))
    return DefeasibleTheory.of(
        t.facts,
        [Rule(new[r.label], r.body, r.head, r.kind) for r in t.rules],
        [(new[a], new[b]) for a, b in t.superiority],
    )


def rename_constants(t: DefeasibleTheory, rng: random.Random):
    """The theory with its constants mapped by a shuffled bijection onto
    fresh names, in an order other than theirs, and the map back.  The fresh
    names avoid the theory's constants and labels, the reserved ``neg`` and
    every name that mangles to a collision."""
    constants = sorted(t.constants())
    labels = {r.label for r in t.rules}
    collisions = mangling_collisions(t.predicates())
    reserved = {*constants, *labels, "neg", *(name for name, _, _ in collisions)}
    fresh = [f"k{i}" for i in range(len(constants) + len(reserved))]
    fresh = [name for name in fresh if name not in reserved][: len(constants)]
    order = rng.sample(fresh, len(fresh))
    while len(order) > 1 and sorted(order) == order:  # never the same order
        rng.shuffle(order)
    new = dict(zip(constants, order))

    def rename(lit: Literal) -> Literal:
        args = tuple(Term(new.get(term.name, term.name)) for term in lit.args)
        return Literal(Atom(lit.predicate, args), lit.negated)

    renamed = DefeasibleTheory.of(
        map(rename, t.facts),
        [Rule(r.label, tuple(map(rename, r.body)), rename(r.head), r.kind) for r in t.rules],
        t.superiority,
    )
    return renamed, {name: Term(constant) for constant, name in new.items()}


def rename_predicates(t: DefeasibleTheory, rng: random.Random, avoid=frozenset()):
    """The theory with its predicates mapped by a shuffled bijection onto
    fresh names, in an order other than theirs, and the map back.  The fresh
    names avoid the theory's names, those in ``avoid`` and the reserved
    ``neg``, and the renamed theory mangles without a collision."""
    predicates = sorted(t.predicates())
    reserved = {*predicates, *(r.label for r in t.rules), *t.constants(), *avoid, "neg"}
    fresh = [f"f{i}" for i in range(len(predicates) + len(reserved))]
    fresh = [name for name in fresh if name not in reserved][: len(predicates)]
    order = rng.sample(fresh, len(fresh))
    while len(order) > 1 and sorted(order) == order:  # never the same order
        rng.shuffle(order)
    new = dict(zip(predicates, order))

    def rename(lit: Literal) -> Literal:
        return Literal(Atom(new[lit.predicate], lit.args), lit.negated)

    renamed = DefeasibleTheory.of(
        map(rename, t.facts),
        [Rule(r.label, tuple(map(rename, r.body)), rename(r.head), r.kind) for r in t.rules],
        t.superiority,
    )
    assert mangling_collisions(renamed.predicates()) == []
    return renamed, {name: predicate for predicate, name in new.items()}


def map_literals(views, change):
    """``conclusions_by_backend`` output with ``change`` applied to every literal."""
    if isinstance(views, dict):
        return {key: map_literals(value, change) for key, value in views.items()}
    if isinstance(views, frozenset):
        return frozenset(map(change, views))
    return type(views)(map_literals(value, change) for value in views)


def map_back(views, back: dict):
    """``conclusions_by_backend`` output with every literal's constants
    mapped through ``back``."""
    return map_literals(views, lambda lit: Literal(
        Atom(lit.predicate, tuple(back[term.name] for term in lit.args)), lit.negated))


def conclusions_by_backend(t: DefeasibleTheory) -> dict:
    """Every backend's interpretation of both compilations, as source
    literals, and the oracle's closures."""
    views = {}
    for compile_ in (compile_team, compile_individual):
        out = compile_(t)
        g = ground_program(out.program, out.constants)
        interps = {
            "wf": eval_wellfounded(out.program, g),
            "fitting": eval_fitting(out.program, g),
            "hybrid": eval_hybrid(out, g),
        }
        if stratify(out.program) is not None:
            interps["stratified"] = eval_stratified(out.program, g)
        for name, interp in interps.items():
            views[out.mode, name] = [
                read_conclusions(out, atoms)
                for atoms in (interp.true_set, interp.false_set, interp.unknown_set)
            ]
    c = conclusions(t)
    views["oracle"] = (c.delta, c.lam, c.dpar, c.dpar_star)
    return views


def bundled_cases():
    yield "label-example", theory(LABEL_EXAMPLE)
    for name in ("tweety", "platypus", "nonstrat", "selfloop", "worked_pair", "chain"):
        yield name, corpus.load(name)


def renaming_cases():
    yield from bundled_cases()
    for i, t in enumerate(corpus_slice()):
        if is_safe(compile_team(t).program) and (t.constants() or not t.has_variables()):
            yield f"corpus-{i}", t


CASES = list(renaming_cases())


@pytest.mark.parametrize("name, t", CASES, ids=[name for name, _ in CASES])
def test_renaming_labels_changes_no_conclusion(name, t):
    renamed = rename_labels(t, random.Random(name))
    assert conclusions_by_backend(renamed) == conclusions_by_backend(t)


# A self-supporting loop whose instances the grounder seeds from the
# constant pool: Fitting leaves q(b) and q(c) unknown; a seed universe that
# missed one constant of the pool would make its q false instead.
CONSTANT_EXAMPLE = (
    "e(a).\ne(b).\ne(c).\nq(a).\n"
    "r0: q(X) -> q(X).\nr1: e(X) => p(X).\nr2: q(X) => neg p(X).\nr2 > r1.\n"
)

CONSTANT_CASES = [("constant-example", theory(CONSTANT_EXAMPLE)), *CASES]


@pytest.mark.parametrize("name, t", CONSTANT_CASES, ids=[name for name, _ in CONSTANT_CASES])
def test_renaming_constants_changes_no_conclusion(name, t):
    renamed, back = rename_constants(t, random.Random(name))
    pool = [back[fresh].name for fresh in sorted(back)]  # the constants in the renamed order
    assert len(pool) < 2 or pool != sorted(pool)
    assert map_back(conclusions_by_backend(renamed), back) == conclusions_by_backend(t)


BUNDLED = list(bundled_cases())


@pytest.mark.parametrize("name, t", BUNDLED, ids=[name for name, _ in BUNDLED])
def test_shuffling_rules_changes_no_conclusion(name, t):
    rng, shuffled = random.Random(name), list(t.rules)
    while len(shuffled) > 1 and shuffled == list(t.rules):  # never the same order
        rng.shuffle(shuffled)
    permuted = DefeasibleTheory.of(t.facts, shuffled, t.superiority)
    assert conclusions_by_backend(permuted) == conclusions_by_backend(t)


def with_inert_pairs(t: DefeasibleTheory) -> DefeasibleTheory:
    """The theory plus every superiority pair that is inert, between rules
    whose heads are not complementary or with a defeater as the superior
    rule, except those that would close a cycle."""
    succs: dict[str, set[str]] = {}
    for a, b in t.superiority:
        succs.setdefault(a, set()).add(b)

    def reaches(src: str, dst: str) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            fresh = succs.get(node, set()) - seen
            seen |= fresh
            stack.extend(fresh)
        return False

    added = set(t.superiority)
    for sup in t.rules:
        for inf in t.rules:
            complementary = sup.head.predicate == inf.head.predicate and sup.head.negated != inf.head.negated
            if complementary and sup.kind is not RuleKind.DEFEATER:
                continue
            if (sup.label, inf.label) in added or reaches(inf.label, sup.label):
                continue
            added.add((sup.label, inf.label))
            succs.setdefault(sup.label, set()).add(inf.label)
    return DefeasibleTheory.of(t.facts, t.rules, added)


# Were the defeater d counted as a supporter of flies(tweety), the inert
# pair d > r2 would beat r2 and make flies(tweety) a +dpar conclusion.
DEFEATER_EXAMPLE = (
    "bird(tweety).\npenguin(tweety).\n"
    "r1: bird(X) => flies(X).\nr2: penguin(X) => neg flies(X).\nd: bird(X) ~> flies(X).\n"
)

INERT = [
    (name, t, more)
    for name, t in [("defeater-example", theory(DEFEATER_EXAMPLE)), *CASES]
    if (more := with_inert_pairs(t)).superiority != t.superiority
]


@pytest.mark.parametrize("name, t, more", INERT, ids=[case[0] for case in INERT])
def test_inert_superiority_pairs_change_no_conclusion(name, t, more):
    report = validate_theory(more)
    assert report.ok, [issue.message for issue in report.errors]
    # Validation warns of each added pair as inert.
    warned = {issue.location for issue in report.warnings}
    assert {f"{a} > {b}" for a, b in more.superiority - t.superiority} <= warned
    assert conclusions_by_backend(more) == conclusions_by_backend(t)


# has__wings holds the mangling separator: a read-back that took a compiled
# name's last ``__`` component for the source predicate would conclude
# ``wings(tweety)`` from it.
SEPARATOR_EXAMPLE = (
    "has__wings(tweety).\nbird(tweety).\npenguin(tweety).\n"
    "r1: bird(X), has__wings(X) => flies(X).\nr2: penguin(X) => neg flies(X).\nr2 > r1.\n"
)

PREDICATE_CASES = [("separator-example", theory(SEPARATOR_EXAMPLE)), *BUNDLED]


@pytest.mark.parametrize("name, t", PREDICATE_CASES, ids=[name for name, _ in PREDICATE_CASES])
def test_renaming_predicates_changes_no_conclusion(name, t):
    renamed, back = rename_predicates(t, random.Random(name))
    views = map_literals(conclusions_by_backend(renamed),
                         lambda lit: Literal(Atom(back[lit.predicate], lit.args), lit.negated))
    assert views == conclusions_by_backend(t)


def disjoint_union(a: DefeasibleTheory, b: DefeasibleTheory) -> DefeasibleTheory:
    assert not a.predicates() & b.predicates()
    assert not {r.label for r in a.rules} & {r.label for r in b.rules}
    return DefeasibleTheory.of(a.facts | b.facts, [*a.rules, *b.rules], a.superiority | b.superiority)


def united(a, b):
    """Two theories' ``conclusions_by_backend`` outputs joined set by set, on
    the backends both have (the union is stratified when both parts are)."""
    if isinstance(a, dict):
        return {key: united(a[key], b[key]) for key in a.keys() & b.keys()}
    if isinstance(a, frozenset):
        return a | b
    return type(a)(united(x, y) for x, y in zip(a, b))


def true_only(views):
    """``conclusions_by_backend`` output cut to the true literals and the oracle."""
    return {key: value if key == "oracle" else value[0] for key, value in views.items()}


# Both parts conclude about k, through predicates of their own.  An oracle
# that looked up a literal's attackers by their polarity and arguments, not
# their predicate, would let each part's rule attack the other's conclusion
# in the union, which would then conclude neither.
UNION_EXAMPLE = ("e(k).\nr1: e(X) => p(X).\n", "f(k).\ns1: f(X) => neg q(X).\n")


def union_cases():
    yield "union-example", theory(UNION_EXAMPLE[0]), theory(UNION_EXAMPLE[1])
    pairs = list(zip(CASES[0::2], CASES[1::2]))
    for (first, a), (second, b) in pairs[:4] + pairs[-4:]:
        rng = random.Random(first + second)
        b = rename_labels(rename_predicates(b, rng, avoid=a.predicates())[0], rng)
        yield f"{first}+{second}", a, b


UNIONS = list(union_cases())


@pytest.mark.parametrize("name, a, b", UNIONS, ids=[case[0] for case in UNIONS])
def test_a_disjoint_union_concludes_what_its_parts_conclude(name, a, b):
    got = conclusions_by_backend(disjoint_union(a, b))
    want = united(conclusions_by_backend(a), conclusions_by_backend(b))
    if a.has_variables() or b.has_variables():
        # Variable rules range over the union's constants, so a part's
        # false and unknown literals can gain the other part's constants.
        got, want = true_only(got), true_only(want)
    assert got == want
