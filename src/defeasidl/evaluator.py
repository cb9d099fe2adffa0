"""Grounding and evaluation of safe Datalog-with-negation programs.

The grounder seeds each positively recursive component one of two ways
(see ``_ground_clauses``): self-supporting, keeping every atom that
supports itself, where Fitting's operator decides atoms; or derivable,
keeping the least model of the positive part, found by semi-naive rounds,
which is smaller and exact where atoms are decided as under the WF model.

Fitting's semantics is the least fixpoint of the three-valued
immediate-consequence operator: an atom becomes true when some clause
body is true, false when every clause body is false (so atoms with no
clauses are false at once).  The well-founded semantics also falsifies
atoms supported only through positive loops.  One engine computes both
in three phases, over an occurrence index built once per grounding: it
propagates Fitting's operator to its fixpoint by counting each clause's
pending body literals and each atom's live clauses; for the well-founded
semantics it falsifies the undecided atoms outside the least model of
their live clauses (the greatest unfounded set), then condenses those
left and decides each component, dependencies first, by the alternating
fixpoint, propagating each decision.  On stratified programs the result
is the total perfect model.  The hybrid backend decides the stratified
floor's atoms as under the well-founded semantics and the rest by
Fitting's operator; its defeasibly truths are exactly the well-founded ones.

Ground atoms are plain ``(predicate, args)`` tuples for speed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, product
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .compiler import CompilationOutput
from .datalog import DClause, DatalogProgram, is_safe, stratify
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
    """Relevance-pruned ground instances plus the Herbrand base they span;
    ``derived`` names the predicates grounded by derivability."""

    clauses: tuple[GroundClause, ...]
    herbrand_base: frozenset[GAtom]
    derived: frozenset[str] = frozenset()

    @cached_property
    def occurrences(self) -> tuple:
        """The index ``_evaluate`` propagates over: atom numbers, in mapping
        order; per clause, its head and body length; per atom, its clause count
        and the clauses reading it positively and negatively, once per
        occurrence; and the first decisions: facts true, atoms without clause false."""
        number = {atom: i for i, atom in enumerate(self.herbrand_base)}
        live = [0] * len(number)
        positive: list[list[int]] = [[] for _ in number]
        negative: list[list[int]] = [[] for _ in number]
        heads = [number[head] for head, _, _ in self.clauses]
        need = [len(pos) + len(neg) for _, pos, neg in self.clauses]
        for idx, (_, pos, neg) in enumerate(self.clauses):
            live[heads[idx]] += 1
            for atom in pos:
                positive[number[atom]].append(idx)
            for atom in neg:
                negative[number[atom]].append(idx)
        return (number, heads, need, live, positive, negative,
                [(head, 1) for head, n in zip(heads, need) if not n]
                + [(atom, 2) for atom, n in enumerate(live) if not n])


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


class _Step(NamedTuple):
    """One positive body atom of a join plan.  ``positions`` are the atom's
    constant positions and those whose variable an earlier step bound;
    ``key`` reads their probe key from the slot array (None when there are
    none, and the step scans every atom); ``binds`` copies the atom's
    values into the slots of the variables it binds first; ``checks``
    compares a variable repeated inside the atom with its first value."""

    pred: str
    positions: tuple[int, ...]
    key: Optional[Callable]
    binds: tuple[tuple[int, int], ...]
    checks: tuple[tuple[int, int], ...]


class _Plan(NamedTuple):
    """A clause compiled for joining: ``values`` is the slot array, with
    each constant in its slot and each variable's slot empty; the head and
    the negative atoms read their arguments from it."""

    values: tuple
    head: tuple[str, Callable]
    steps: tuple[_Step, ...]
    negative: tuple[tuple[str, Callable], ...]


def _no_args(values) -> tuple:
    return ()


def _slot_reader(slots: list[int]) -> Callable:
    """A function from the slot array to the tuple of the ``slots``' values."""
    if len(slots) > 1:
        return itemgetter(*slots)
    if slots:
        (slot,) = slots
        return lambda values: (values[slot],)
    return _no_args


def _plan(clause: DClause) -> _Plan:
    """The join plan of a safe clause: one slot per variable and per
    constant, and the positive atoms as steps in body order."""
    slot_of: dict[str, int] = {}
    values: list = []
    steps = []
    for atom in clause.positive:
        positions, key, binds, checks = [], [], [], []
        fresh = len(values)  # the slots from here on are new in this atom
        for position, term in enumerate(atom.args):
            slot = slot_of.get(term.name)
            if slot is None:
                slot = slot_of[term.name] = len(values)
                if term.is_variable:
                    values.append(None)
                    binds.append((position, slot))
                    continue
                values.append(term.name)
            elif slot >= fresh and values[slot] is None:  # a variable this atom binds
                checks.append((position, slot))
                continue
            positions.append(position)  # a constant, or a variable an earlier step bound
            key.append(slot)
        steps.append(_Step(atom.predicate, tuple(positions), itemgetter(*key) if key else None,
                           tuple(binds), tuple(checks)))

    def reader(atom) -> Callable:
        slots = []
        for term in atom.args:
            slot = slot_of.get(term.name)
            if slot is None:  # a constant: the clause is safe, so every variable has a slot
                slot = slot_of[term.name] = len(values)
                values.append(term.name)
            slots.append(slot)
        return _slot_reader(slots)

    head = (clause.head.predicate, reader(clause.head))
    negative = tuple((atom.predicate, reader(atom)) for atom in clause.negative)
    return _Plan(tuple(values), head, tuple(steps), negative)


def _join(plan: _Plan, tables: list, interned: dict, found: dict) -> None:
    """Add to ``found`` one ``GroundClause`` per way of matching the plan's
    steps in order, ``tables[i]`` being step i's index (or, for a step
    without positions, its atom list).

    It walks the steps with one iterator each, without recursion, so a body
    of any length joins.  A step's iterator yields only the atoms whose
    indexed positions hold the probe key, so matching an atom just copies
    the values it binds into their slots, where they stay until the step's
    next atom overwrites them, and checks its repeated variables."""
    values = list(plan.values)
    steps = plan.steps
    head_pred, head_args = plan.head
    negative = plan.negative
    if not steps:  # a safe clause without positive atoms has no variables
        head = (head_pred, head_args(values))
        neg = [(pred, get(values)) for pred, get in negative]
        found[GroundClause(interned.setdefault(head, head), (),
                           tuple(interned.setdefault(atom, atom) for atom in neg))] = None
        return
    last = len(steps) - 1
    chosen: list[GAtom] = [None] * len(steps)
    iters = [None] * len(steps)
    first = steps[0]
    iters[0] = iter(tables[0] if first.key is None else tables[0].get(first.key(values), ()))
    i = 0
    while i >= 0:
        binds, checks = steps[i].binds, steps[i].checks
        for atom in iters[i]:
            args = atom[1]
            for position, slot in binds:
                values[slot] = args[position]
            if checks and any(args[position] != values[slot] for position, slot in checks):
                continue
            chosen[i] = atom
            if i < last:
                i += 1
                step = steps[i]
                table = tables[i]
                iters[i] = iter(table if step.key is None else table.get(step.key(values), ()))
                break
            head = (head_pred, head_args(values))
            neg = []
            for pred, get in negative:
                other = (pred, get(values))
                neg.append(interned.setdefault(other, other))
            found[GroundClause(interned.setdefault(head, head), tuple(chosen), tuple(neg))] = None
        else:
            i -= 1


def _head_instances(clauses: Iterable[DClause], constants: list[str]) -> dict[str, set[tuple]]:
    """Every instance of the given clauses' head patterns over the constant
    pool.

    The self-supporting seed of ``_ground_clauses`` starts a positively
    recursive component from it: the coarsest universe of atoms any
    semantics could make true there.  Unlike the derivable seed it keeps
    positively self-supporting atoms (``q :- q``), which Fitting's
    semantics must leave unknown.
    """
    universe: dict[str, set[tuple]] = {}
    for clause in clauses:
        args = clause.head.args
        names = list(dict.fromkeys(t.name for t in args if t.is_variable))
        bucket = universe.setdefault(clause.head.predicate, set())
        if len(names) == len(args):  # distinct variables: every tuple is an instance
            bucket.update(product(constants, repeat=len(args)))
            continue
        for values in product(constants, repeat=len(names)):
            binding = dict(zip(names, values))
            bucket.add(tuple(binding[t.name] if t.is_variable else t.name for t in args))
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


class _Atoms:
    """Ground atoms by predicate, with a hash index per (predicate, probed
    positions) that is built on first use and then grows with every atom
    added.  ``table`` gives a join step its index, or the predicate's atom
    list when the step probes no position."""

    __slots__ = ("lists", "indexes")

    def __init__(self, lists: Optional[dict[str, list[GAtom]]] = None):
        self.lists: dict[str, list[GAtom]] = {} if lists is None else lists
        self.indexes: dict[str, dict[tuple[int, ...], tuple[Callable, dict]]] = {}

    def add(self, atoms: Iterable[GAtom]) -> None:
        lists, indexes = self.lists, self.indexes
        for atom in atoms:
            pred = atom[0]
            bucket = lists.get(pred)
            if bucket is None:
                lists[pred] = [atom]
            else:
                bucket.append(atom)
            by_positions = indexes.get(pred)
            if by_positions:
                for key, index in by_positions.values():
                    index.setdefault(key(atom[1]), []).append(atom)

    def table(self, step: _Step):
        if not step.positions:
            atoms = self.lists.get(step.pred)
            if atoms is None:
                atoms = self.lists[step.pred] = []
            return atoms
        by_positions = self.indexes.get(step.pred)
        if by_positions is None:
            by_positions = self.indexes[step.pred] = {}
        entry = by_positions.get(step.positions)
        if entry is None:
            key = itemgetter(*step.positions)
            index: dict[tuple, list[GAtom]] = {}
            for atom in self.lists.get(step.pred, ()):
                index.setdefault(key(atom[1]), []).append(atom)
            entry = by_positions[step.positions] = (key, index)
        return entry[1]


def _derive(plans: list[_Plan], members: set[str], new: list[GAtom], final: _Atoms,
            interned: dict) -> list[GroundClause]:
    """The instances of a positively recursive component after its round 0,
    by semi-naive rounds; ``new`` holds round 0's heads, and every derived
    atom goes into ``final``.

    Each round joins only the instances that read at least one atom new in
    the last round (the delta): for each member step of a body in turn,
    the earlier member steps read the older atoms, that step the delta, and
    the later ones every atom derived so far.  So each instance is built in
    exactly one round and one of its body's variants, and none is dropped:
    the positive atoms of every instance are derivable.  The member indexes
    of ``final`` and of the older atoms grow in place, so a variant's other
    tables stay valid from round to round; the delta's are built once per
    round."""
    older = _Atoms()
    keep_older = False  # only a body with two member atoms reads the older ones
    variants = []  # (plan, its delta step's position, the tables of its steps)
    for plan in plans:
        inner = [i for i, step in enumerate(plan.steps) if step.pred in members]
        keep_older = keep_older or len(inner) > 1
        for j in inner:
            tables = [(older if i < j and i in inner else final).table(step)
                      for i, step in enumerate(plan.steps)]
            variants.append((plan, j, tables))
    derived = set(new)
    instances: list[GroundClause] = []
    while new:
        final.add(new)
        delta = _Atoms()
        delta.add(new)
        found: dict[GroundClause, None] = {}
        for plan, j, tables in variants:
            step = plan.steps[j]
            if step.pred in delta.lists:
                tables[j] = delta.table(step)
                _join(plan, tables, interned, found)
        if keep_older:
            older.add(new)
        new = []
        for inst in found:
            if inst.head not in derived:
                derived.add(inst.head)
                new.append(inst.head)
        instances += found
    return instances


def _ground_clauses(program: DatalogProgram, constants, *,
                    self_supporting=None) -> tuple[list[GroundClause], set[GAtom]]:
    """Clause instances over ``constants`` whose positive body atoms can all
    appear as heads, and the atoms they mention.

    It works one component of the positive predicate dependency graph at a
    time, dependencies first, so the atoms of lower components are final
    when a component is joined.  Each clause is joined through its plan
    (``_plan``, walked by ``_join``), probing a hash index per (predicate,
    bound positions) that is built on first use and grows in place
    (``_Atoms``); bound
    positions are the constant positions and those whose variable an
    earlier body atom bound.  A component that is one predicate without a
    positive self-edge reads final atoms only, so every instance it joins
    is kept and its heads are its final atoms.  Every atom is interned, so
    each ground atom is one object however many instances mention it.

    A positively recursive component is seeded self-supporting if
    ``self_supporting`` is None or names one of its predicates, else derivable:

    * derivable: from none of its atoms.  Round 0 joins its clauses over
      the final atoms, and ``_derive`` runs semi-naive rounds from there,
      so the component keeps the instances whose positive atoms are in the
      least model of the program's positive part.  Every other atom is
      false in the well-founded model, whose first upper bound is that
      least model, so this grounding is exact where atoms are decided as
      under the well-founded semantics; a later instance that read a dropped
      atom positively had a false body, so no Fitting value changes either.
    * self-supporting: from every instance of its head patterns
      (``_head_instances``), joined once and pruned by ``_drop_unsupported``
      to the greatest set of atoms that supports itself: an atom stays when
      it is the head of a retained instance, and an instance stays when
      every positive body atom does.  Dropped atoms are false under every
      semantics (each of their clause bodies contains an atom already
      proven false), so the pruning changes no verdict over the retained
      base.

    The grounding must stay self-supporting where Fitting's operator
    decides atoms.  The derivable seed drops positively self-supporting
    atoms (``q :- q``, or ``path(x, a)`` supported only around a cycle
    through ``a``) together with their clauses, making them false; Fitting's
    semantics has to leave them unknown, and only the well-founded and
    stratified semantics make them false.
    """
    clauses_of: dict[str, list[DClause]] = {}
    uses: dict[str, list[str]] = {}  # positive predicate dependencies
    for clause in program.clauses:
        pred = clause.head.predicate
        clauses_of.setdefault(pred, []).append(clause)
        uses.setdefault(pred, []).extend(a.predicate for a in clause.positive)
    constants = sorted(constants)
    interned: dict[GAtom, GAtom] = {}
    final = _Atoms()  # the atoms of finished components, and those derived so far
    final_table = final.table
    instances: list[GroundClause] = []
    for component in _tarjan_sccs(clauses_of, uses):
        rules = [clause for pred in component for clause in clauses_of.get(pred, ())]
        plans = list(map(_plan, rules))
        recursive = len(component) > 1 or component[0] in uses.get(component[0], ())
        members = set(component) if recursive else ()  # the predicates a body reads recursively
        derivable = (recursive and self_supporting is not None
                     and members.isdisjoint(self_supporting))
        start = final  # what the member steps of round 0 read
        if recursive:
            start = _Atoms() if derivable else _Atoms({
                pred: [interned.setdefault((pred, args), (pred, args)) for args in argsets]
                for pred, argsets in _head_instances(rules, constants).items()})
        found: dict[GroundClause, None] = {}
        for plan in plans:
            tables = [start.table(step) if step.pred in members else final_table(step)
                      for step in plan.steps]
            _join(plan, tables, interned, found)
        kept = list(found)
        if recursive and not derivable:
            kept = _drop_unsupported(kept, members)
        heads = dict.fromkeys(inst.head for inst in kept)
        if derivable:
            kept += _derive(plans, members, heads, final, interned)
        else:
            final.add(heads)
        instances += kept
    base = {a for inst in instances for a in (inst.head, *inst.positive, *inst.negative)}
    return instances, base


def ground_program(program: DatalogProgram, constants=None, *,
                   self_supporting=None) -> GroundProgram:
    """Ground a safe program over the constant pool ``constants``, by default
    its own constants, keeping the clause instances whose positive atoms
    ``_ground_clauses`` can support.  The default ``self_supporting=None``
    suits every semantics; predicates left out of it are recorded as
    ``derived``, and Fitting's operator must not decide them.  A compiled
    program's own constants include its rule labels, so it is grounded over
    ``CompilationOutput.constants``."""
    if not is_safe(program):
        raise UnsafeProgram("program is not safe; grounding would not terminate on ground atoms")
    pool = program.constants() if constants is None else constants
    instances, base = _ground_clauses(program, pool, self_supporting=self_supporting)
    derived = frozenset() if self_supporting is None else program.predicates.keys() - self_supporting
    return GroundProgram(tuple(instances), frozenset(base), frozenset(derived))


def _founded(pending: dict, waiting, heads) -> set:
    """The least model of the clauses of ``pending``, which counts each one's
    positive atoms not yet derived: a derived atom counts down the clauses in
    ``waiting[atom]``, and one at 0 derives its head, ``heads[clause]``."""
    queue = [heads[idx] for idx, n in pending.items() if not n]
    true = set()
    while queue:
        atom = queue.pop()
        if atom not in true:
            true.add(atom)
            for idx in waiting[atom]:
                if idx in pending:
                    pending[idx] -= 1
                    if not pending[idx]:
                        queue.append(heads[idx])
    return true


def _least_model(clauses: list[GroundClause], blocked: set) -> set:
    """Least model of the clauses with no negative atom in ``blocked``; the
    negative literals of those clauses count as satisfied."""
    usable = [c for c in clauses if blocked.isdisjoint(c.negative)]
    waiting: defaultdict[int, list[int]] = defaultdict(list)
    for idx, clause in enumerate(usable):
        for atom in clause.positive:
            waiting[atom].append(idx)
    return _founded({idx: len(c.positive) for idx, c in enumerate(usable)}, waiting,
                    [c.head for c in usable])


def _alternate(component, held, value: bytearray) -> list[tuple[int, int]]:
    """The (atom, value) pairs a component's alternating fixpoint decides.
    An outside atom is true (``value`` 1), false (2) or else unknown: a false
    outside literal drops its clause, and an unknown one is satisfied in the
    overestimate only.  Blocking sets lie inside the component, so the first
    round is final unless an internal negative edge makes it alternate."""
    inside = set(component)
    maybe, sure = [], []  # the overestimate's clauses, and those with true outside literals
    for c in (c for atom in component for c in held[atom]):
        if all(value[p] != 2 for p in c.positive) and all(value[n] != 1 for n in c.negative):
            inner = tuple(p for p in c.positive if p in inside)
            maybe.append(GroundClause(c.head, inner, c.negative))
            if all(value[a] or a in inside for a in c.positive + c.negative):
                sure.append(maybe[-1])
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
    return [(atom, 1) for atom in new_lower] + [(atom, 2) for atom in inside - new_upper]


def _evaluate(g: GroundProgram, fitting: bool, floor=frozenset()) -> ThreeValuedInterpretation:
    """Fitting's or the well-founded model, in the module docstring's three phases; with
    ``fitting``, ``floor`` predicates' atoms are still decided as under the well-founded one."""
    if fitting and not g.derived <= floor:
        raise ValueError("Fitting's operator would decide atoms grounded by derivability")
    number, heads, need, live, positive, negative, seeds = g.occurrences
    need, live = need.copy(), live.copy()  # pending literals per clause, live clauses per atom
    alive = bytearray(b"\1") * len(heads)
    value = bytearray(len(number))  # 0 undecided, 1 true, 2 false

    def settle(queue: list[tuple[int, int]]) -> None:
        """Decide the (atom, value) pairs of ``queue``, and propagate."""
        while queue:
            atom, verdict = queue.pop()
            if value[atom]:
                continue
            value[atom] = verdict
            met, broken = (positive, negative) if verdict == 1 else (negative, positive)
            for idx in met[atom]:
                need[idx] -= 1
                if not need[idx]:
                    queue.append((heads[idx], 1))
            for idx in broken[atom]:
                if alive[idx]:
                    alive[idx] = 0
                    live[heads[idx]] -= 1
                    if not live[heads[idx]]:
                        queue.append((heads[idx], 2))

    settle(seeds.copy())
    scope = {i for i, (atom, v) in enumerate(zip(number, value))
             if not v and (not fitting or atom[0] in floor)}
    if scope:
        pending = {idx: 0 for idx in compress(range(len(heads)), alive) if heads[idx] in scope}
        for atom in scope:
            for idx in positive[atom]:
                if idx in pending:  # a live clause of the scope
                    pending[idx] += 1
        founded = _founded(pending, positive, heads)
        settle([(atom, 2) for atom in scope - founded])
        scope = [atom for atom in scope if not value[atom]]
    if scope:
        held: dict[int, list[GroundClause]] = {atom: [] for atom in scope}  # live, numbered
        for idx in compress(range(len(heads)), alive):
            if heads[idx] in held:
                _, pos, neg = g.clauses[idx]
                held[heads[idx]].append(GroundClause(heads[idx], (*map(number.get, pos),),
                                                     (*map(number.get, neg),)))
        successors = {atom: [b for c in held[atom] for b in c.positive + c.negative if b in held]
                      for atom in scope}
        for component in _tarjan_sccs(scope, successors):
            component = [atom for atom in component if not value[atom]]
            if component:
                settle(_alternate(component, held, value))
    return ThreeValuedInterpretation(frozenset(a for a, v in zip(number, value) if v == 1),
                                     frozenset(a for a, v in zip(number, value) if v == 2),
                                     g.herbrand_base)


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
    """The well-founded model, over ``ground`` if given, else over
    ``ground_program(program)``."""
    return _evaluate(ground or ground_program(program), fitting=False)


def eval_hybrid(compiled: CompilationOutput,
                ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """Stratified floor, then Fitting above it, in one pass over ``ground``
    (by default ``compiled.program`` over ``compiled.constants``).  The floor
    is downward closed and stratified, so it gets its well-founded values;
    above it the result is below the well-founded model, which may decide
    more atoms, and has exactly its true defeasibly atoms."""
    if not isinstance(compiled, CompilationOutput) or len(compiled.provenance) != len(
        compiled.program.clauses
    ):
        raise TypeError("hybrid evaluation needs a compiler-produced program with provenance")
    floor = compiled.floor_names
    interp = _evaluate(ground or ground_program(compiled.program, compiled.constants),
                       fitting=True, floor=floor)
    if any(a[0] in floor for a in interp.unknown_set):
        raise RuntimeError("hybrid floor left atoms unknown (internal error)")
    return interp
