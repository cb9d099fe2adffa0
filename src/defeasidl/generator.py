"""Seeded random generators for theories.

Used by the differential harness: propositional ground theories biased
toward genuine conflicts (complementary heads with superiority between
them), and range-restricted variable theories over a small constant pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .theory import Atom, DefeasibleTheory, Literal, Rule, RuleKind, Term


# The constants of random variable theories: ``TheoryShape.constants`` of them.
CONSTANT_POOL = "abc"


@dataclass
class TheoryShape:
    atoms: int = 8
    rules: int = 12
    superiority: int = 6
    defeater_ratio: float = 0.2
    strict_ratio: float = 0.25
    max_body: int = 3
    max_facts: int = 4
    constants: int = 3
    max_arity: int = 2


def _pick_kind(rng: random.Random, shape: TheoryShape) -> RuleKind:
    roll = rng.random()
    if roll < shape.strict_ratio:
        return RuleKind.STRICT
    if roll < shape.strict_ratio + shape.defeater_ratio:
        return RuleKind.DEFEATER
    return RuleKind.DEFEASIBLE


def _acyclic_superiority(
    rng: random.Random, rules: list[Rule], budget: int
) -> frozenset[tuple[str, str]]:
    """Pairs between complementary-headed rules, kept acyclic by construction."""
    by_head: dict[tuple[str, bool], list[Rule]] = {}
    for r in rules:
        by_head.setdefault((r.head.predicate, r.head.negated), []).append(r)
    candidates = []
    for (pred, neg), group in by_head.items():
        for other in by_head.get((pred, not neg), []):
            for r in group:
                if r.label != other.label:
                    candidates.append((r.label, other.label))
    rng.shuffle(candidates)
    chosen: set[tuple[str, str]] = set()
    edges: dict[str, set[str]] = {}

    def reaches(src: str, dst: str) -> bool:
        stack, seen = [src], {src}
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in edges.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    for t, s in candidates:
        if len(chosen) >= budget:
            break
        if (t, s) in chosen or reaches(s, t):
            continue
        chosen.add((t, s))
        edges.setdefault(t, set()).add(s)
    return frozenset(chosen)


def random_ground_theory(rng: random.Random, shape: TheoryShape = TheoryShape()) -> DefeasibleTheory:
    """A propositional theory over at most ``shape.atoms`` atoms."""
    n_atoms = rng.randint(1, shape.atoms)
    atoms = [Atom(f"p{i}") for i in range(n_atoms)]

    def literal() -> Literal:
        return Literal(rng.choice(atoms), rng.random() < 0.5)

    facts = {literal() for _ in range(rng.randint(0, shape.max_facts))}
    rules = []
    for i in range(rng.randint(0, shape.rules)):
        body = tuple(dict.fromkeys(literal() for _ in range(rng.randint(0, shape.max_body))))
        rules.append(Rule(f"r{i}", body, literal(), _pick_kind(rng, shape)))
    sup = _acyclic_superiority(rng, rules, rng.randint(0, shape.superiority))
    return DefeasibleTheory.of(facts, rules, sup)


def random_variable_theory(rng: random.Random, shape: TheoryShape = TheoryShape()) -> DefeasibleTheory:
    """A range-restricted theory with variables over a small constant pool."""
    n_preds = rng.randint(1, max(2, shape.atoms // 2))
    arities = {f"q{i}": rng.randint(0, shape.max_arity) for i in range(n_preds)}
    constants = [Term(ch) for ch in CONSTANT_POOL[: shape.constants]]
    variables = [Term("X"), Term("Y")]

    def ground_literal() -> Literal:
        pred = rng.choice(list(arities))
        args = tuple(rng.choice(constants) for _ in range(arities[pred]))
        return Literal(Atom(pred, args), rng.random() < 0.5)

    def body_literal() -> Literal:
        pred = rng.choice(list(arities))
        args = tuple(
            rng.choice(variables) if rng.random() < 0.6 else rng.choice(constants)
            for _ in range(arities[pred])
        )
        return Literal(Atom(pred, args), rng.random() < 0.5)

    facts = {ground_literal() for _ in range(rng.randint(0, shape.max_facts))}
    rules = []
    for i in range(rng.randint(0, shape.rules)):
        body = tuple(dict.fromkeys(body_literal() for _ in range(rng.randint(0, shape.max_body))))
        bound = [t for lit in body for t in lit.args if t.is_variable]
        pred = rng.choice(list(arities))
        head_args = tuple(
            rng.choice(bound) if bound and rng.random() < 0.7 else rng.choice(constants)
            for _ in range(arities[pred])
        )
        head = Literal(Atom(pred, head_args), rng.random() < 0.5)
        rules.append(Rule(f"r{i}", body, head, _pick_kind(rng, shape)))
    sup = _acyclic_superiority(rng, rules, rng.randint(0, shape.superiority))
    return DefeasibleTheory.of(facts, rules, sup)
