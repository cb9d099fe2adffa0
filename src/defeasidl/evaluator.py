"""Grounding and evaluation of safe Datalog-with-negation programs.

Fitting's semantics is the least fixpoint of the three-valued
immediate-consequence operator: an atom becomes true when some clause
body is true, false when every clause body is false (so atoms with no
clauses are false at once).  The well-founded semantics also falsifies
atoms supported only through positive loops.  One engine computes both,
one strongly connected component of the ground atom graph at a time:
Fitting's operator decides each component, or, for the well-founded
semantics, each single atom without a self-loop, and the alternating
fixpoint decides the other well-founded components.  On stratified
programs the well-founded result is the total perfect model.  The hybrid
backend for compiled programs decides the stratified floor's components
under the well-founded semantics and the components above it under
Fitting's; this provably recovers exactly the well-founded truths of the
defeasibly predicates.

Ground atoms are plain ``(predicate, args)`` tuples for speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple, Optional

from .compiler import CompilationOutput
from .datalog import DatalogProgram, is_safe, stratify
from .graph import _tarjan_sccs

GAtom = tuple  # (predicate: str, args: tuple[str, ...])


class UnsafeProgram(Exception):
    """Grounding requires every clause variable to be positively bound."""


class NotStratified(Exception):
    """The stratified semantics was requested for a non-stratified program."""


class GroundClause(NamedTuple):
    head: GAtom
    positive: tuple[GAtom, ...]
    negative: tuple[GAtom, ...]


@dataclass(frozen=True)
class GroundProgram:
    """Relevance-pruned ground instances plus the Herbrand base they span."""

    clauses: tuple[GroundClause, ...]
    herbrand_base: frozenset[GAtom]


def format_atom(atom: GAtom) -> str:
    pred, args = atom
    return f"{pred}({', '.join(args)})" if args else pred


@dataclass(frozen=True)
class ThreeValuedInterpretation:
    """Disjoint true/false sets over a ground-atom domain; the rest is unknown."""

    true_set: frozenset[GAtom]
    false_set: frozenset[GAtom]
    domain: frozenset[GAtom] = frozenset()

    def __post_init__(self):
        if self.true_set & self.false_set:
            raise ValueError("true and false sets overlap")
        object.__setattr__(self, "domain", self.domain | self.true_set | self.false_set)

    def value(self, atom: GAtom) -> str:
        if atom in self.true_set:
            return "true"
        if atom in self.false_set:
            return "false"
        return "unknown"

    @property
    def unknown_set(self) -> frozenset[GAtom]:
        return self.domain - self.true_set - self.false_set

    def is_total(self) -> bool:
        return not self.unknown_set

    def leq(self, other: "ThreeValuedInterpretation") -> bool:
        """Information ordering: decided atoms keep their values in ``other``."""
        return self.true_set <= other.true_set and self.false_set <= other.false_set

    def true_of(self, predicate_test) -> frozenset[GAtom]:
        return frozenset(a for a in self.true_set if predicate_test(a[0]))


def _compile_clauses(program: DatalogProgram):
    compiled = []
    for clause in program.clauses:
        head = (clause.head.predicate, tuple((t.is_variable, t.name) for t in clause.head.args))
        pos = tuple(
            (a.predicate, tuple((t.is_variable, t.name) for t in a.args)) for a in clause.positive
        )
        neg = tuple(
            (a.predicate, tuple((t.is_variable, t.name) for t in a.args)) for a in clause.negative
        )
        compiled.append((head, pos, neg))
    return compiled


def _instantiate(pattern, binding) -> GAtom:
    pred, args = pattern
    return (pred, tuple(binding[name] if is_var else name for is_var, name in args))


def _match(pattern_args, ground_args, binding) -> Optional[list[str]]:
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


def _join(steps, i: int, binding: dict[str, str], chosen: list[GAtom], probe, emit) -> None:
    """Match positive body steps ``i:`` in order, calling ``emit`` once per
    complete binding with the matched atoms in ``chosen``.

    Module-level on purpose: a recursive nested function is a reference
    cycle, which would keep the grounder's tables alive until the cyclic
    garbage collector ran and so raise the process's peak memory."""
    if i == len(steps):
        emit()
        return
    pred, pattern_args, positions, key_args = steps[i]
    key = tuple(binding[name] if is_var else name for is_var, name in key_args)
    for atom in probe(pred, positions, key):
        added = _match(pattern_args, atom[1], binding)
        if added is not None:
            chosen.append(atom)
            _join(steps, i + 1, binding, chosen, probe, emit)
            chosen.pop()
            for name in added:
                del binding[name]


def _head_instances(compiled, constants: list[str]) -> dict[str, set[tuple]]:
    """Every instance of the given clauses' head patterns over the constant
    pool.

    ``_ground_clauses`` seeds a positively recursive component with it: the
    coarsest universe of atoms any semantics could make true there.  Unlike
    a derivability overestimate it keeps positively self-supporting atoms
    (``q :- q``), which Fitting's semantics must leave unknown.
    """
    universe: dict[str, set[tuple]] = {}
    for head, _, _ in compiled:
        pred, args = head
        names = list(dict.fromkeys(name for is_var, name in args if is_var))
        bucket = universe.setdefault(pred, set())
        if not names:
            bucket.add(tuple(name for _, name in args))
            continue
        for values in product(constants, repeat=len(names)):
            binding = dict(zip(names, values))
            bucket.add(tuple(binding[name] if is_var else name for is_var, name in args))
    return universe


def _drop_unsupported(found: list[GroundClause], members: set[str]) -> list[GroundClause]:
    """The greatest subset of one component's instances that supports itself.

    Counter-based deletion: each atom counts the instances that have it as
    head, a ``members`` atom with no support is dropped, and dropping an
    atom drops the instances that use it positively, which decrements their
    heads' counts in turn.  Atoms of other predicates are final."""
    support: dict[GAtom, int] = {}
    for inst in found:
        support[inst.head] = support.get(inst.head, 0) + 1
    dead = {a for inst in found for a in inst.positive if a[0] in members and a not in support}
    if not dead:
        return found
    users: dict[GAtom, list[int]] = {}
    for idx, inst in enumerate(found):
        for atom in inst.positive:
            users.setdefault(atom, []).append(idx)
    alive = [True] * len(found)
    stack = list(dead)
    while stack:
        for idx in users.get(stack.pop(), ()):
            if alive[idx]:
                alive[idx] = False
                lost = found[idx].head
                support[lost] -= 1
                if not support[lost]:
                    stack.append(lost)
    return [inst for inst, keep in zip(found, alive) if keep]


def _ground_clauses(program: DatalogProgram, constants) -> tuple[list[GroundClause], set[GAtom]]:
    """Clause instances over ``constants`` whose positive body atoms can all appear as heads.

    This is the greatest set of atoms that supports itself: an atom stays
    when it is the head of a retained instance, and an instance stays when
    every positive body atom does.  Dropped atoms are false under the
    stratified, Fitting and well-founded semantics alike (each of their
    clause bodies contains an atom already proven false), so the pruning
    changes no verdict over the retained base.

    It is computed one component of the positive predicate dependency
    graph at a time, dependencies first, so the atoms of lower components
    are final when a component is joined.  Each clause is joined once,
    probing a hash index per (predicate, bound positions) that is built on
    first use; bound positions are the constant positions and those whose
    variable an earlier body atom bound.  A component that is one predicate
    without a positive self-edge reads final atoms only, so every instance
    it joins is kept and its heads are its final atoms.  Only a positively
    recursive component is joined over a universe of its own atoms, every
    instance of its head patterns (``_head_instances``), and then pruned to
    the greatest fixpoint by ``_drop_unsupported``.  Every atom is
    interned, so each ground atom is one object however many instances
    mention it.

    It must stay a greatest fixpoint.  A least fixpoint (derivability)
    would drop positively self-supporting atoms (``q :- q``, or ``path(x,
    a)`` supported only around a cycle through ``a``) together with their
    clauses, making them false; Fitting's semantics has to leave them
    unknown, and only the well-founded and stratified semantics make them
    false.
    """
    compiled = _compile_clauses(program)
    clauses_of: dict[str, list] = {}
    uses: dict[str, list[str]] = {}  # positive predicate dependencies
    for clause in compiled:
        pred = clause[0][0]
        clauses_of.setdefault(pred, []).append(clause)
        uses.setdefault(pred, []).extend(p for p, _ in clause[1])
    constants = sorted(constants)
    interned: dict[GAtom, GAtom] = {}
    atoms: dict[str, list[GAtom]] = {}  # final atoms, or a recursive component's universe
    indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[GAtom]]] = {}

    def probe(pred: str, positions: tuple[int, ...], key: tuple) -> list[GAtom]:
        if not positions:
            return atoms.get(pred, [])
        index = indexes.get((pred, positions))
        if index is None:
            index = indexes[(pred, positions)] = {}
            for atom in atoms.get(pred, ()):
                args = atom[1]
                index.setdefault(tuple(args[i] for i in positions), []).append(atom)
        return index.get(key, [])

    def intern(pattern, binding) -> GAtom:
        atom = _instantiate(pattern, binding)
        return interned.setdefault(atom, atom)

    instances: list[GroundClause] = []
    for component in _tarjan_sccs(clauses_of, uses):
        rules = [clause for pred in component for clause in clauses_of.get(pred, ())]
        recursive = len(component) > 1 or component[0] in uses.get(component[0], ())
        if recursive:
            for pred, argsets in _head_instances(rules, constants).items():
                atoms[pred] = [interned.setdefault((pred, a), (pred, a)) for a in argsets]
        found: dict[GroundClause, None] = {}
        for head, pos, neg in rules:
            steps = []
            bound: set[str] = set()
            for pred, pattern_args in pos:
                positions = tuple(
                    i for i, (is_var, name) in enumerate(pattern_args) if not is_var or name in bound
                )
                steps.append(
                    (pred, pattern_args, positions, tuple(pattern_args[i] for i in positions))
                )
                bound.update(name for is_var, name in pattern_args if is_var)
            binding: dict[str, str] = {}
            chosen: list[GAtom] = []

            def emit() -> None:
                inst = GroundClause(
                    intern(head, binding), tuple(chosen), tuple(intern(n, binding) for n in neg)
                )
                found[inst] = None

            _join(steps, 0, binding, chosen, probe, emit)
        kept = list(found)
        if recursive:
            members = set(component)
            kept = _drop_unsupported(kept, members)
            # Only a recursive component reads its own atoms, so only its
            # indexes were built over a universe instead of final atoms.
            for key in [key for key in indexes if key[0] in members]:
                del indexes[key]
        for pred in component:
            atoms[pred] = []
        for head in dict.fromkeys(inst.head for inst in kept):
            atoms[head[0]].append(head)
        instances += kept
    base = {a for inst in instances for a in (inst.head, *inst.positive, *inst.negative)}
    return instances, base


def ground_program(program: DatalogProgram, constants=None) -> GroundProgram:
    """Ground a safe program over the constant pool ``constants``, by default
    its own constants, pruning the clause instances that ``_ground_clauses``
    shows can never fire.  A compiled program's own constants include its
    rule labels, so it is grounded over ``CompilationOutput.constants``."""
    if not is_safe(program):
        raise UnsafeProgram("program is not safe; grounding would not terminate on ground atoms")
    pool = program.constants() if constants is None else constants
    instances, base = _ground_clauses(program, pool)
    return GroundProgram(tuple(instances), frozenset(base))


def _least_model(clauses: list[GroundClause], blocked: set[GAtom]) -> set[GAtom]:
    """Least model of the clauses with no negative atom in ``blocked``; the
    negative literals of those clauses count as satisfied."""
    usable = [c for c in clauses if blocked.isdisjoint(c.negative)]
    need = [len(set(c.positive)) for c in usable]
    waiting: dict[GAtom, list[int]] = {}
    for idx, clause in enumerate(usable):
        for atom in set(clause.positive):
            waiting.setdefault(atom, []).append(idx)
    queue = [c.head for c, n in zip(usable, need) if not n]
    true: set[GAtom] = set()
    while queue:
        atom = queue.pop()
        if atom not in true:
            true.add(atom)
            for idx in waiting.get(atom, ()):
                need[idx] -= 1
                if not need[idx]:
                    queue.append(usable[idx].head)
    return true


def _alternate(component, by_head, true: set[GAtom], false: set[GAtom]) -> None:
    """Decide a component by the alternating fixpoint over its own atoms.
    An outside atom is in ``true``, in ``false``, or else unknown: a false
    outside literal drops its clause, and an unknown one is satisfied in
    the overestimate only.  Blocking sets lie inside the component, so the
    first round is final unless an internal negative edge makes it alternate."""
    inside = set(component)
    maybe: list[GroundClause] = []  # clauses of the overestimate
    sure: list[GroundClause] = []  # those whose outside literals are all true
    for c in (c for atom in component for c in by_head.get(atom, ())):
        if not (false.isdisjoint(c.positive) and true.isdisjoint(c.negative)):
            continue
        local = GroundClause(c.head, tuple(p for p in c.positive if p in inside), c.negative)
        maybe.append(local)
        if true.issuperset(p for p in c.positive if p not in inside) and false.issuperset(
            n for n in c.negative if n not in inside
        ):
            sure.append(local)
    alternates = any(n in inside for c in maybe for n in c.negative)
    lower, upper = set(), inside
    while True:
        new_upper = _least_model(maybe, blocked=lower)
        new_lower = _least_model(sure, blocked=new_upper)
        if not (lower <= new_lower and new_upper <= upper):
            raise RuntimeError("alternating fixpoint is not monotone (internal error)")
        if new_lower == lower or not alternates:
            break
        lower, upper = new_lower, new_upper
    true |= new_lower
    false |= inside - new_upper


def _kleene(component, by_head, true: set[GAtom], false: set[GAtom]) -> None:
    """Decide a component by Fitting's operator over its own atoms, pass
    after pass until one changes nothing: an atom becomes true once some
    clause body is true and false once every clause body is false.  Outside
    atoms are final, so a single atom without a self-loop takes one pass."""
    undecided = component
    while undecided:
        left = []
        for atom in undecided:
            verdict: Optional[set[GAtom]] = false
            for c in by_head.get(atom, ()):
                if false.isdisjoint(c.positive) and true.isdisjoint(c.negative):
                    if true.issuperset(c.positive) and false.issuperset(c.negative):
                        verdict = true
                        break
                    verdict = None  # a body neither true nor false, so far
            if verdict is None:
                left.append(atom)
            else:
                verdict.add(atom)
        if len(left) == len(undecided):
            return
        undecided = left


def _evaluate(g: GroundProgram, fitting: bool, floor=frozenset()) -> ThreeValuedInterpretation:
    """Fitting's or the well-founded model, one strongly connected component
    of the ground atom graph (head to positive and negative body atoms) at
    a time, dependencies first.  ``_kleene`` decides every component under
    Fitting's semantics, and a single atom without a self-loop under the
    well-founded one, where any other component alternates.  With
    ``fitting``, the components of ``floor`` predicates are still decided
    as under the well-founded semantics."""
    by_head: dict[GAtom, list[GroundClause]] = {}
    successors: dict[GAtom, list[GAtom]] = {}
    for clause in g.clauses:
        by_head.setdefault(clause.head, []).append(clause)
        successors.setdefault(clause.head, []).extend(clause.positive + clause.negative)
    true: set[GAtom] = set()
    false: set[GAtom] = set()
    for component in _tarjan_sccs(g.herbrand_base, successors):
        atom = component[0]
        single = len(component) == 1 and atom not in successors.get(atom, ())
        if single or (fitting and atom[0] not in floor):
            _kleene(component, by_head, true, false)
        else:
            _alternate(component, by_head, true, false)
    return ThreeValuedInterpretation(frozenset(true), frozenset(false), g.herbrand_base)


def eval_stratified(program: DatalogProgram,
                    ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """The perfect model of a stratified program: its total well-founded
    model, over ``ground`` if given, else over ``ground_program(program)``."""
    if stratify(program) is None:
        raise NotStratified("program has a negative edge inside a recursive component")
    interp = _evaluate(ground or ground_program(program), fitting=False)
    if not interp.is_total():
        raise RuntimeError("stratified program left atoms unknown (internal error)")
    return interp


def eval_fitting(program: DatalogProgram,
                 ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """Fitting's model, the least fixpoint of the three-valued immediate-consequence
    operator, over ``ground`` if given, else over ``ground_program(program)``."""
    return _evaluate(ground or ground_program(program), fitting=True)


def eval_wellfounded(program: DatalogProgram,
                     ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """The well-founded model, computed one ground component at a time
    over ``ground`` if given, else over ``ground_program(program)``."""
    return _evaluate(ground or ground_program(program), fitting=False)


def eval_hybrid(compiled: CompilationOutput,
                ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """Stratified floor, then Fitting above it, in one pass over ``ground``
    (by default ``compiled.program`` over ``compiled.constants``).  The floor
    is downward closed and stratified, so it gets its well-founded values;
    above it the result is below the well-founded model, which may decide
    more atoms, and has exactly its true defeasibly atoms."""
    if not isinstance(compiled, CompilationOutput) or not all(
        clause in compiled.provenance for clause in compiled.program.clauses
    ):
        raise TypeError("hybrid evaluation needs a compiler-produced program with provenance")
    floor = compiled.floor_names
    interp = _evaluate(ground or ground_program(compiled.program, compiled.constants),
                       fitting=True, floor=floor)
    if any(a[0] in floor for a in interp.unknown_set):
        raise RuntimeError("hybrid floor left atoms unknown (internal error)")
    return interp
