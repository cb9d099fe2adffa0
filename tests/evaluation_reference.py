"""Whole-program reference evaluators, kept as test cross-checks.

These are the evaluators the component-wise engine of
``defeasidl.evaluator`` replaced: ``reference_stratified`` runs a least
model per predicate stratum, ``reference_wellfounded`` runs the
alternating fixpoint over the whole ground program, and
``reference_fitting`` rescans every undecided atom of the whole ground
program on each Kleene pass; the last two are quadratic in chain depth.
``reference_hybrid`` grounds the whole compiled program with the naive
grounder, decides the floor stratum by stratum and runs the naive Kleene
iteration above it.  All are plainly correct, so the differential tests
hold the engine to them; the engine decides what propagation leaves by
unfounded-set passes, so it shares no method with ``reference_wellfounded``.
``information_leq`` is the information ordering the tests compare models by,
and ``value`` and ``true_of`` read one model.
"""

from __future__ import annotations

from typing import Iterable, Optional

from defeasidl.compiler import CompilationOutput
from defeasidl.datalog import DatalogProgram, stratify
from defeasidl.evaluator import (
    GAtom,
    GroundClause,
    NotStratified,
    ThreeValuedInterpretation,
    ground_program,
)
from analysis_reference import restrict_to
from grounding_reference import decoded, naive_ground_clauses


def information_leq(lower: ThreeValuedInterpretation, upper: ThreeValuedInterpretation) -> bool:
    """Every atom ``lower`` decides keeps its value in ``upper``."""
    return lower.true_set <= upper.true_set and lower.false_set <= upper.false_set


def value(interp: ThreeValuedInterpretation, atom: GAtom) -> str:
    """The atom's truth value: "true", "false" or "unknown"."""
    if atom in interp.true_set:
        return "true"
    if atom in interp.false_set:
        return "false"
    return "unknown"


def true_of(interp: ThreeValuedInterpretation, predicate_test) -> frozenset[GAtom]:
    """The true atoms whose predicate passes ``predicate_test``."""
    return frozenset(a for a in interp.true_set if predicate_test(a[0]))


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


def stratum_by_stratum(clauses: Iterable[GroundClause], strata: dict[str, int]) -> set[GAtom]:
    """The true atoms of iterated least models along the predicate strata."""
    by_stratum: dict[int, list[GroundClause]] = {}
    for clause in clauses:
        by_stratum.setdefault(strata[clause.head[0]], []).append(clause)
    true: set[GAtom] = set()
    for level in sorted(by_stratum):
        layer = by_stratum[level]
        # Negative atoms live strictly below this stratum, so they are decided.
        usable = [c for c in layer if all(n not in true for n in c.negative)]
        true = least_model(usable, seed=true)
    return true


def reference_stratified(program: DatalogProgram) -> ThreeValuedInterpretation:
    """Iterated least models along a stratification; the result is total."""
    strata = stratify(program)
    if strata is None:
        raise NotStratified("program has a negative edge inside a recursive component")
    g = ground_program(program)
    true = stratum_by_stratum(decoded(g), strata)
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
    clauses, base = decoded(g), set(g.herbrand_base)
    lower: set[GAtom] = set()
    previous_upper = base
    while True:
        upper = least_model(clauses, assumed_false=base - lower)
        new_lower = least_model(clauses, assumed_false=base - upper)
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


def naive_kleene(
    clauses: Iterable[GroundClause], undecided: set[GAtom], true: set[GAtom], false: set[GAtom]
) -> None:
    """Kleene iteration of the three-valued immediate-consequence operator
    on the ``undecided`` atoms, rescanning all of them on every pass until
    one changes nothing; ``true`` and ``false`` grow in place."""
    by_head: dict[GAtom, list[GroundClause]] = {}
    for clause in clauses:
        by_head.setdefault(clause.head, []).append(clause)
    changed = True
    while changed:
        changed = False
        for atom in list(undecided):
            some_true = False
            all_false = True
            for clause in by_head.get(atom, ()):
                body_false = any(p in false for p in clause.positive) or any(
                    n in true for n in clause.negative
                )
                if body_false:
                    continue
                all_false = False
                if all(p in true for p in clause.positive) and all(
                    n in false for n in clause.negative
                ):
                    some_true = True
                    break
            if some_true:
                true.add(atom)
            elif all_false:
                false.add(atom)
            else:
                continue
            undecided.discard(atom)
            changed = True


def reference_fitting(program: DatalogProgram) -> ThreeValuedInterpretation:
    """Kleene iteration from all-unknown over the whole ground program."""
    g = ground_program(program)
    true: set[GAtom] = set()
    false: set[GAtom] = set()
    naive_kleene(decoded(g), set(g.herbrand_base), true, false)
    return ThreeValuedInterpretation(frozenset(true), frozenset(false), g.herbrand_base)


def reference_hybrid(compiled: CompilationOutput) -> ThreeValuedInterpretation:
    """The naive grounding of the whole program over the theory's
    constants, its floor decided by ``stratum_by_stratum`` and the atoms
    above it by ``naive_kleene``."""
    floor_names = compiled.floor_names
    strata = stratify(restrict_to(compiled.program, floor_names))
    if strata is None:
        raise NotStratified("the floor has a negative edge inside a recursive component")
    clauses, base = naive_ground_clauses(compiled.program, compiled.constants)
    floor = {a for a in base if a[0] in floor_names}
    true = stratum_by_stratum([c for c in clauses if c.head in floor], strata)
    false = floor - true
    naive_kleene(clauses, base - floor, true, false)
    return ThreeValuedInterpretation(frozenset(true), frozenset(false), frozenset(base))
