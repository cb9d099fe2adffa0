"""Naive reference grounders and model check, kept as test cross-checks.

``naive_ground_clauses`` is the round-based greatest fixpoint the package
grounder replaced: every round re-joins each clause by an unindexed
nested loop over the atoms still supported, until the supported set stops
shrinking.  ``naive_derivable_clauses`` is its least-fixpoint twin, with
the same join run from no atoms until no head is new.  They are slow and
plainly correct, so the differential tests hold ``evaluator._ground_clauses``
to them, one per seed.  Both match atoms against clause patterns through
a name-to-value binding (``_match``, ``_instantiate``), independently of
the package grounder's join plans.  ``decoded`` reads a package
grounding's numbered instances as clauses of atoms, to compare them with.
``relevant_clauses`` is the reference of the demand seed: a grounding cut
down, by a plain search, to what the given atoms reach.
"""

from __future__ import annotations

from typing import Iterable, Optional

from defeasidl.datalog import DatalogProgram
from defeasidl.evaluator import (
    GAtom,
    GroundClause,
    GroundProgram,
    ThreeValuedInterpretation,
    _head_instances,
)


def decoded(g: GroundProgram) -> tuple[GroundClause, ...]:
    """The grounding's instances, each atom number replaced by its atom."""
    atom = g.atoms.__getitem__
    return tuple(GroundClause(atom(head), tuple(map(atom, pos)), tuple(map(atom, neg)))
                 for head, pos, neg in g.instances)


def _compile_clauses(program: DatalogProgram):
    """Each clause as (head, positive, negative) patterns, an atom pattern
    being (predicate, ((is_variable, name), ...))."""
    def pattern(atom):
        return (atom.predicate, tuple((t.is_variable, t.name) for t in atom.args))

    return [
        (pattern(c.head), tuple(map(pattern, c.positive)), tuple(map(pattern, c.negative)))
        for c in program.clauses
    ]


def _instantiate(pattern, binding) -> GAtom:
    pred, args = pattern
    return (pred, tuple(binding[name] if is_var else name for is_var, name in args))


def _match(pattern_args, ground_args, binding) -> Optional[list[str]]:
    """Extend ``binding`` so the pattern matches, returning the names it
    bound, or leave it as it was and return None."""
    added: list[str] = []
    for (is_var, name), value in zip(pattern_args, ground_args):
        if is_var:
            bound = binding.get(name)
            if bound is None:
                binding[name] = value
                added.append(name)
            elif bound != value:
                for n in added:
                    del binding[n]
                return None
        elif name != value:
            for n in added:
                del binding[n]
            return None
    return added


def _naive_join(compiled, universe: dict[str, set[tuple]]):
    """Every instance of the compiled clauses whose positive atoms are in
    ``universe``, by an unindexed nested loop, and the heads they support."""
    instances: list[GroundClause] = []
    seen: set[GroundClause] = set()
    supported: dict[str, set[tuple]] = {}

    def add_instance(head, pos, neg) -> None:
        inst = GroundClause(head, pos, neg)
        if inst not in seen:
            seen.add(inst)
            instances.append(inst)
            supported.setdefault(head[0], set()).add(head[1])

    for head, pos, neg in compiled:
        binding: dict[str, str] = {}

        def join(i: int) -> None:
            if i == len(pos):
                add_instance(
                    _instantiate(head, binding),
                    tuple(_instantiate(p, binding) for p in pos),
                    tuple(_instantiate(n, binding) for n in neg),
                )
                return
            pred, pattern_args = pos[i]
            for ground_args in universe.get(pred, ()):
                added = _match(pattern_args, ground_args, binding)
                if added is not None:
                    join(i + 1)
                    for name in added:
                        del binding[name]

        join(0)
    return instances, supported


def _fixpoint(program: DatalogProgram, universe, external: dict[str, set[tuple]]):
    """Rejoin every clause over ``universe`` until the supported atoms, with
    the ``external`` ones, are the universe again; return the last round's
    instances and the atoms they mention."""
    compiled = _compile_clauses(program)
    while True:
        instances, supported = _naive_join(compiled, universe)
        for pred, argsets in external.items():
            supported.setdefault(pred, set()).update(argsets)
        if supported == universe:
            base = {a for inst in instances for a in (inst.head, *inst.positive, *inst.negative)}
            return instances, base
        universe = supported


def naive_ground_clauses(
    program: DatalogProgram, constants: Iterable[str], external_true: Iterable[GAtom] = ()
) -> tuple[list[GroundClause], set[GAtom]]:
    """Start from every head-pattern instance over the constant pool
    ``constants`` plus ``external_true`` and repeatedly drop atoms no
    retained clause instance supports; an ``external_true`` atom needs no
    clause (only ``is_three_valued_model`` passes any)."""
    external: dict[str, set[tuple]] = {}
    for pred, args in external_true:
        external.setdefault(pred, set()).add(args)
    universe = {pred: set(argsets)
                for pred, argsets in _head_instances(program.clauses, sorted(constants)).items()}
    for pred, argsets in external.items():
        universe.setdefault(pred, set()).update(argsets)
    return _fixpoint(program, universe, external)


def naive_derivable_clauses(program: DatalogProgram) -> tuple[list[GroundClause], set[GAtom]]:
    """The least fixpoint twin: start from no atoms and rejoin every clause
    over the heads of the last round until no head is new, so the kept
    instances are those whose positive atoms are all derivable.  The
    constant pool only matters to the head-pattern universe, so this needs
    none."""
    return _fixpoint(program, {}, {})


def is_three_valued_model(program: DatalogProgram, interp: ThreeValuedInterpretation) -> bool:
    """No ground clause has a true body and a non-true head."""
    constants = program.constants() | {name for _, args in interp.true_set for name in args}
    instances, _ = naive_ground_clauses(program, constants, external_true=interp.true_set)
    for clause in instances:
        body_true = all(p in interp.true_set for p in clause.positive) and all(
            n in interp.false_set for n in clause.negative
        )
        if body_true and clause.head not in interp.true_set:
            return False
    return True


def relevant_clauses(instances: Iterable[GroundClause], seeds: Iterable[GAtom],
                     false: Iterable[GAtom] = ()) -> tuple[list[GroundClause], set[GAtom]]:
    """The instances of the atoms that ``seeds`` reach through instance
    bodies, positive and negative, and the atoms reached.  An instance that
    reads an atom of ``false`` positively is left out first: its body is
    false, so it neither decides its head nor makes its body atoms relevant.
    An atom whose every instance is left out so is false too, in turn."""
    false = set(false)
    kept = list(instances)
    while True:
        live = [inst for inst in kept if false.isdisjoint(inst.positive)]
        lost = {inst.head for inst in kept} - {inst.head for inst in live}
        kept = live
        if not lost:
            break
        false |= lost
    by_head: dict[GAtom, list[GroundClause]] = {}
    for inst in kept:
        by_head.setdefault(inst.head, []).append(inst)
    reached: set[GAtom] = set()
    stack = list(seeds)
    while stack:
        atom = stack.pop()
        if atom not in reached:
            reached.add(atom)
            for inst in by_head.get(atom, ()):
                stack.extend(inst.positive)
                stack.extend(inst.negative)
    return [inst for atom in reached for inst in by_head.get(atom, ())], reached
