"""Whole-program reference evaluators, kept as test cross-checks.

These are the stratified and well-founded evaluators the component-wise
engine of ``defeasidl.evaluator`` replaced: ``reference_stratified``
runs a least model per predicate stratum, and ``reference_wellfounded``
runs the alternating fixpoint over the whole ground program, so it is
quadratic in chain depth.  Both are plainly correct, so the differential
tests hold the engine to them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from defeasidl.datalog import DatalogProgram, stratify
from defeasidl.evaluator import (
    GAtom,
    GroundClause,
    NotStratified,
    ThreeValuedInterpretation,
    ground_program,
)


def least_model(
    clauses: Iterable[GroundClause],
    assumed_false: Optional[set[GAtom]] = None,
    seed: Iterable[GAtom] = (),
) -> set[GAtom]:
    """Least model over ``seed`` of the positive reduct: a clause
    participates iff all its negative atoms are in ``assumed_false``
    (negation is ignored entirely when None; callers prefilter then)."""
    usable = [
        c
        for c in clauses
        if assumed_false is None or all(n in assumed_false for n in c.negative)
    ]
    waiting: dict[GAtom, list[int]] = {}
    need: list[int] = []
    true: set[GAtom] = set()
    queue: list[GAtom] = []

    def fire(atom: GAtom) -> None:
        if atom not in true:
            true.add(atom)
            queue.append(atom)

    for idx, clause in enumerate(usable):
        distinct = set(clause.positive)
        need.append(len(distinct))
        if not distinct:
            fire(clause.head)
        for atom in distinct:
            waiting.setdefault(atom, []).append(idx)
    for atom in seed:
        fire(atom)
    while queue:
        atom = queue.pop()
        for idx in waiting.get(atom, ()):
            need[idx] -= 1
            if need[idx] == 0:
                fire(usable[idx].head)
    return true


def reference_stratified(program: DatalogProgram) -> ThreeValuedInterpretation:
    """Iterated least models along a stratification; the result is total."""
    strata = stratify(program)
    if strata is None:
        raise NotStratified("program has a negative edge inside a recursive component")
    g = ground_program(program)
    by_stratum: dict[int, list[GroundClause]] = {}
    for clause in g.clauses:
        by_stratum.setdefault(strata[clause.head[0]], []).append(clause)
    true: set[GAtom] = set()
    for level in sorted(by_stratum):
        layer = by_stratum[level]
        # Negative atoms live strictly below this stratum, so they are decided.
        usable = [c for c in layer if all(n not in true for n in c.negative)]
        true = least_model(usable, seed=true)
    return ThreeValuedInterpretation(
        true_set=frozenset(true),
        false_set=frozenset(g.herbrand_base - true),
        domain=g.herbrand_base,
    )


def reference_wellfounded(program: DatalogProgram) -> ThreeValuedInterpretation:
    """The well-founded model via the alternating fixpoint over the whole
    ground program: underestimates of truth and overestimates alternate
    until both stabilise."""
    g = ground_program(program)
    base = set(g.herbrand_base)
    lower: set[GAtom] = set()
    previous_upper = base
    while True:
        upper = least_model(g.clauses, assumed_false=base - lower)
        new_lower = least_model(g.clauses, assumed_false=base - upper)
        if not lower <= new_lower:
            raise RuntimeError("true underestimate decreased (internal error)")
        if not upper <= previous_upper:
            raise RuntimeError("false-complement overestimate increased (internal error)")
        previous_upper = upper
        if new_lower == lower:
            return ThreeValuedInterpretation(
                true_set=frozenset(lower),
                false_set=frozenset(base - upper),
                domain=g.herbrand_base,
            )
        lower = new_lower
