"""Seeded random safe Datalog programs, for exercising the grounder, the
evaluators and the structural analyses directly."""

import random
from dataclasses import dataclass

from defeasidl.datalog import DatalogProgram, DClause
from defeasidl.theory import Atom, Term


@dataclass
class ProgramShape:
    predicates: int = 10
    clauses: int = 20
    max_arity: int = 2
    max_body: int = 3
    negation_ratio: float = 0.4


def random_program(rng: random.Random, shape: ProgramShape = ProgramShape()) -> DatalogProgram:
    """A safe Datalog program: head and negative variables are bound by
    positive body literals by construction."""
    n_preds = rng.randint(1, shape.predicates)
    arities = {f"e{i}": rng.randint(0, shape.max_arity) for i in range(n_preds)}
    constants = [Term(c) for c in ("a", "b", "c")]
    variables = [Term("X"), Term("Y")]

    def ground_atom() -> Atom:
        pred = rng.choice(list(arities))
        return Atom(pred, tuple(rng.choice(constants) for _ in range(arities[pred])))

    def open_atom() -> Atom:
        pred = rng.choice(list(arities))
        args = tuple(
            rng.choice(variables) if rng.random() < 0.6 else rng.choice(constants)
            for _ in range(arities[pred])
        )
        return Atom(pred, args)

    def bound_atom(bound: list[Term]) -> Atom:
        pred = rng.choice(list(arities))
        args = tuple(
            rng.choice(bound) if bound and rng.random() < 0.7 else rng.choice(constants)
            for _ in range(arities[pred])
        )
        return Atom(pred, args)

    clauses = []
    for _ in range(rng.randint(1, shape.clauses)):
        if rng.random() < 0.3:
            clauses.append(DClause(ground_atom()))
            continue
        positive = tuple(dict.fromkeys(open_atom() for _ in range(rng.randint(1, shape.max_body))))
        bound = [t for a in positive for t in a.args if t.is_variable]
        negative = tuple(
            dict.fromkeys(bound_atom(bound) for _ in range(rng.randint(0, 2)))
            if rng.random() < shape.negation_ratio
            else ()
        )
        clauses.append(DClause(bound_atom(bound), positive, negative))
    return DatalogProgram(tuple(clauses))
