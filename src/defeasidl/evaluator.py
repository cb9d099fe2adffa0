"""Grounding and evaluation of safe Datalog-with-negation programs.

The grounder seeds each positively recursive component one of two ways
(see ``_ground_clauses``): self-supporting, keeping every atom that
supports itself, where Fitting's operator decides atoms; or derivable,
keeping the least model of the positive part, found by semi-naive rounds,
which is smaller and exact where atoms are decided as under the WF model.
A third seed grounds the part above a floor on demand (``_demand``), from
the derivable atoms of the conclusion predicates down, which is exact
under both semantics, since both are relevant.

Fitting's semantics is the least fixpoint of the three-valued
immediate-consequence operator: an atom becomes true when some clause
body is true, false when every clause body is false (so atoms with no
clauses are false at once).  The well-founded semantics also falsifies
atoms supported only through positive loops.  One engine computes both
with two routines over an occurrence index built once per grounding:
propagation runs Fitting's operator to its fixpoint by counting each
clause's pending body literals and each atom's live clauses, and the
unfounded-set pass falsifies the atoms of a group that lie outside the
least model of their live clauses (the group's greatest unfounded set)
and propagates.  For the well-founded semantics one pass covers every
undecided atom; the atoms it leaves are condensed, and each component,
dependencies first, is passed over, then over just the atoms that lost a
clause and their positive readers until none is left: the well-founded model.
On stratified programs it is the total perfect model.  The hybrid
backend decides the stratified floor's atoms as under the well-founded
semantics and the rest by Fitting's operator; its defeasibly truths are
exactly the well-founded ones.

The grounder numbers each ground atom, a ``(predicate, args)`` tuple, once,
in an order that does not depend on the string-hash seed; instances, join
tables and the occurrence index hold numbers, which a ``GroundProgram``
decodes only for its base and its models.  A clause without variables (the
compiler's three unit clauses per fact) has one instance, built directly,
with no join plan.  The grounder walks the program's signed condensation and
grounds its non-recursive components in one running pass (``_ground_clauses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, product
from operator import itemgetter
from typing import Callable, Collection, Iterable, NamedTuple, Optional

from .compiler import CompilationOutput
from .datalog import POSITIVE, DClause, DatalogProgram, dependency_graph, is_safe, stratify
from .graph import _tarjan_sccs
from .theory import Atom

GAtom = tuple  # (predicate: str, args: tuple[str, ...])


class UnsafeProgram(Exception):
    """Grounding requires every clause variable to be positively bound."""


class NotStratified(Exception):
    """The stratified semantics was requested for a non-stratified program."""


class GroundClause(NamedTuple):  # of atom numbers
    head: int
    positive: tuple[int, ...]
    negative: tuple[int, ...]


@dataclass(frozen=True)
class GroundProgram:
    """Relevance-pruned ground instances over numbered atoms: ``atoms`` maps
    the number of each atom of the Herbrand base to the atom, in number
    order, and ``derived`` names the predicates grounded by derivability.
    ``herbrand_base`` is decoded on first read."""

    instances: tuple[GroundClause, ...]
    atoms: dict[int, GAtom]
    derived: frozenset[str] = frozenset()

    @cached_property
    def herbrand_base(self) -> frozenset[GAtom]:
        return frozenset(self.atoms.values())

    @cached_property
    def occurrences(self) -> tuple:
        """The index ``_evaluate`` propagates over: per clause, its head and
        body length; per atom number, its clause count and the clauses reading
        it positively and negatively, once per occurrence; and the first
        decisions: facts true, atoms without clause false."""
        size = next(reversed(self.atoms), -1) + 1  # numbers grounding dropped have no entry
        live = [0] * size
        positive: list[list[int]] = [[] for _ in range(size)]
        negative: list[list[int]] = [[] for _ in range(size)]
        heads = [head for head, _, _ in self.instances]
        need = [len(pos) + len(neg) for _, pos, neg in self.instances]
        for idx, (head, pos, neg) in enumerate(self.instances):
            live[head] += 1
            for atom in pos:
                positive[atom].append(idx)
            for atom in neg:
                negative[atom].append(idx)
        return (heads, need, live, positive, negative,
                [(head, 1) for head, n in zip(heads, need) if not n]
                + [(atom, 2) for atom in self.atoms if not live[atom]])


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

    @property
    def unknown_set(self) -> frozenset[GAtom]:
        return self.domain - self.true_set - self.false_set

    def is_total(self) -> bool:
        return not self.unknown_set


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


def _join(plan: _Plan, tables: list, number: dict, atoms: list, found: dict) -> None:
    """Add to ``found`` one ``GroundClause`` per way of matching the plan's
    steps in order, ``tables[i]`` being step i's index (or, for a step
    without positions, its atom list); ``atoms[n]`` is the atom numbered n
    in ``number``, which numbers each new head or negative atom.

    It walks the steps with one iterator each, without recursion, so a body
    of any length joins.  A step's iterator yields only the atoms whose
    indexed positions hold the probe key, so matching an atom just copies
    the values it binds into their slots, where they stay until the step's
    next atom overwrites them, and checks its repeated variables."""
    values, (head_pred, head_args), steps, negative = plan
    values = list(values)
    numbered = number.setdefault  # an atom's number, or else the next one
    last = len(steps) - 1
    chosen: list[int] = [None] * len(steps)
    iters = [None] * len(steps)
    first = steps[0]
    iters[0] = iter(tables[0] if first.key is None else tables[0].get(first.key(values), ()))
    i = 0
    while i >= 0:
        binds, checks = steps[i].binds, steps[i].checks
        for n in iters[i]:
            args = atoms[n][1]
            for position, slot in binds:
                values[slot] = args[position]
            if checks and any(args[position] != values[slot] for position, slot in checks):
                continue
            chosen[i] = n
            if i < last:
                i += 1
                step = steps[i]
                table = tables[i]
                iters[i] = iter(table if step.key is None else table.get(step.key(values), ()))
                break
            neg = []
            for pred, get in negative:
                neg.append(numbered((pred, get(values)), len(number)))
            head = numbered((head_pred, head_args(values)), len(number))
            found[GroundClause(head, tuple(chosen), tuple(neg))] = None
        else:
            i -= 1


def _head_instances(clauses: Iterable[DClause], constants: list[str]) -> dict[str, dict]:
    """Every instance of the given clauses' head patterns over the constant
    pool, by predicate, in clause and then ``product`` order, so the seeds
    (and so the atom numbers) do not depend on the string-hash seed.

    The self-supporting seed of ``_ground_clauses`` starts a positively
    recursive component from it: the coarsest universe of atoms any
    semantics could make true there.  Unlike the derivable seed it keeps
    positively self-supporting atoms (``q :- q``), which Fitting's
    semantics must leave unknown.
    """
    universe: dict[str, dict[tuple, None]] = {}  # an insertion-ordered set per predicate
    for clause in clauses:
        args = clause.head.args
        names = list(dict.fromkeys(t.name for t in args if t.is_variable))
        bucket = universe.setdefault(clause.head.predicate, {})
        if len(names) == len(args):  # distinct variables: every tuple is an instance
            bucket.update(dict.fromkeys(product(constants, repeat=len(args))))
            continue
        for values in product(constants, repeat=len(names)):
            binding = dict(zip(names, values))
            bucket[tuple(binding[t.name] if t.is_variable else t.name for t in args)] = None
    return universe


def _drop_unsupported(found: list[GroundClause], seeds: list[int]) -> list[GroundClause]:
    """The greatest subset of one component's instances that supports itself.

    Counter-based deletion: each atom counts the instances that have it as
    head, a seed with no support is dropped, and dropping an atom drops the
    instances that use it positively, which decrements their heads' counts
    in turn.  A body reads the component's seeds and other predicates' final atoms."""
    support: dict[int, int] = {}
    for inst in found:
        support[inst.head] = support.get(inst.head, 0) + 1
    stack = [seed for seed in seeds if seed not in support]
    if not stack:
        return found
    users: dict[int, list[int]] = {}
    for idx, inst in enumerate(found):
        for atom in inst.positive:
            users.setdefault(atom, []).append(idx)
    alive = [True] * len(found)
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
    """Atom numbers by predicate, with a hash index per (predicate, probed
    positions) that is built on first use and then grows with every atom
    added.  ``table`` gives a join step its index, or the predicate's atom
    list when the step probes no position.  ``atoms``, the atoms by number,
    must hold every atom added (see ``_sync``)."""

    __slots__ = ("atoms", "lists", "indexes")

    def __init__(self, atoms: list[GAtom]):
        self.atoms = atoms
        self.lists: dict[str, list[int]] = {}
        self.indexes: dict[str, dict[tuple[int, ...], tuple[Callable, dict]]] = {}

    def add(self, numbers: Iterable[int]) -> None:
        atoms, lists, indexes = self.atoms, self.lists, self.indexes
        for n in numbers:
            pred, args = atoms[n]
            bucket = lists.get(pred)
            if bucket is None:
                lists[pred] = [n]
            else:
                bucket.append(n)
            by_positions = indexes.get(pred)
            if by_positions:
                for key, index in by_positions.values():
                    index.setdefault(key(args), []).append(n)

    def clear(self) -> None:
        """Empty every list and index in place, so the tables handed out stay valid."""
        for bucket in self.lists.values():
            bucket.clear()
        for by_positions in self.indexes.values():
            for _, index in by_positions.values():
                index.clear()

    def table(self, step: _Step):
        if not step.positions:
            return self.lists.setdefault(step.pred, [])
        by_positions = self.indexes.setdefault(step.pred, {})
        entry = by_positions.get(step.positions)
        if entry is None:
            key = itemgetter(*step.positions)
            index: dict[tuple, list[int]] = {}
            for n in self.lists.get(step.pred, ()):
                index.setdefault(key(self.atoms[n][1]), []).append(n)
            entry = by_positions[step.positions] = (key, index)
        return entry[1]


def _sync(number: dict[GAtom, int], atoms: list[GAtom]) -> None:
    """Extend ``atoms``, the atoms by number, with those ``number`` numbered since."""
    if len(atoms) < len(number):
        atoms += reversed(list(islice(reversed(number), len(number) - len(atoms))))


def _fixed(clause: DClause) -> Optional[tuple[GAtom, list[GAtom], list[GAtom]]]:
    """The one instance of a clause without variables, as its head, positive
    and negative atoms; None when the clause has a variable."""
    if not clause.ground:
        return None
    atoms = [(atom.predicate, tuple([t.name for t in atom.args]))
             for atom in (clause.head, *clause.positive, *clause.negative)]
    k = len(clause.positive) + 1
    return atoms[0], atoms[1:k], atoms[k:]


def _derive(plans: list[_Plan], members: set[str], new: list[int], final: _Atoms,
            derived: set[int], number: dict[GAtom, int]) -> list[GroundClause]:
    """The instances of a positively recursive component after its round 0,
    by semi-naive rounds; ``new`` holds round 0's heads, and every derived
    atom goes into ``final`` and ``derived``.

    Each round joins only the instances that read at least one atom new in
    the last round (the delta): for each member step of a body in turn,
    the earlier member steps read the older atoms, that step the delta, and
    the later ones every atom derived so far.  So each instance is built in
    exactly one round and one of its body's variants, and none is dropped:
    the positive atoms of every instance are derivable.  Every table grows in
    place and the delta's are emptied in place, so a variant finds its tables once."""
    older, delta = _Atoms(final.atoms), _Atoms(final.atoms)
    keep_older = False  # only a body with two member atoms reads the older ones
    variants = []  # (plan, the delta's atoms of its delta step, the tables of its steps)
    for plan in plans:
        inner = [i for i, step in enumerate(plan.steps) if step.pred in members]
        keep_older = keep_older or len(inner) > 1
        for j in inner:
            tables = [(delta if i == j else older if i < j and i in inner else final).table(step)
                      for i, step in enumerate(plan.steps)]
            variants.append((plan, delta.lists.setdefault(plan.steps[j].pred, []), tables))
    instances: list[GroundClause] = []
    while new:
        final.add(new)
        delta.clear()
        delta.add(new)
        found: dict[GroundClause, None] = {}
        for plan, pending, tables in variants:
            if pending:
                _join(plan, tables, number, final.atoms, found)
        if keep_older:
            older.add(new)
        _sync(number, final.atoms)
        new = [head for head in dict.fromkeys(inst.head for inst in found) if head not in derived]
        derived.update(new)
        instances += found
    return instances


def _universe(arity: int, constants: list[str]) -> int:
    """How many atoms of an arity the self-supporting seed can start from."""
    return len(constants) ** arity


def _unsettled(program: DatalogProgram, parts: list[list[str]], positive: dict[str, list[str]],
               upper, constants: list[str]) -> dict[str, None]:
    """The predicates of ``upper`` whose derivable atoms need not be all
    that support themselves: each positively recursive component of
    ``parts`` (listed dependencies first, with their positive edges inside
    ``positive``) that is wide, a predicate of it having more atoms over the
    pool than the program has clauses, and each part with a member that
    reads an unsettled predicate positively.  Empty without a wide
    component: there the self-supporting seed is the cheaper one."""
    arities = program.predicates
    big = {p for p in positive if p in upper
           and _universe(arities[p], constants) > len(program.clauses)}
    unsettled: dict[str, None] = {}
    if not big:
        return unsettled
    adjacency = dependency_graph(program).adjacency
    for part in parts:
        recursive = len(part) > 1 or part[0] in positive.get(part[0], ())
        reads = any(bits & POSITIVE and q in unsettled  # through any member of the part
                    for p in part for q, bits in adjacency[p].items())
        if not big.isdisjoint(part) and recursive or reads:
            unsettled.update(dict.fromkeys(part))
    return unsettled


class _Pattern(NamedTuple):
    """A clause's atoms rearranged for a demand plan (``_demand_plans``)."""

    head: object
    positive: tuple
    negative: tuple


def _demand_plans(clauses: list[DClause], unsettled: dict, delta: _Atoms, final: _Atoms,
                  number: dict[GAtom, int], constants: list[str], pool: list[int]) -> list:
    """A predicate's clauses that read an unsettled atom positively, as
    demand plans with the arguments ``_join_demand`` takes.

    A demand plan's first step is the head, over ``delta``; the other
    positive atoms follow, looked up among the final atoms, then a step over
    ``pool``, the constants as "" atoms, per variable only unsettled atoms
    bind.  The unsettled atoms are read like negative ones, before those."""
    plans = []
    for clause in clauses:
        read = [a for a in clause.positive if a.predicate in unsettled]
        if not read:  # the derivable grounding found all its instances
            continue
        probed = [a for a in clause.positive if a.predicate not in unsettled]
        bound = {t.name for a in (clause.head, *probed) for t in a.args}
        free = dict.fromkeys(t for a in read for t in a.args
                             if t.is_variable and t.name not in bound)
        if free and not pool:  # one "" atom per constant, never in an instance
            pool += [number.setdefault(("", (c,)), len(number)) for c in constants]
            _sync(number, final.atoms)
        plan = _plan(_Pattern(clause.head, (clause.head, *probed, *(
            Atom.unchecked("", (t,)) for t in free)), (*read, *clause.negative)))
        plans.append((plan, [delta.table(plan.steps[0])] + [
            final.table(step) for step in plan.steps[1:len(probed) + 1]
        ] + [pool] * len(free), len(probed) + 1, len(read)))
    return plans


def _join_demand(plan: _Plan, tables: list, k: int, r: int, done: set[int],
                 number: dict[GAtom, int], atoms: list[GAtom],
                 found: dict[GroundClause, None]) -> None:
    """Add to ``found`` the instances a demand plan joins, as clause
    instances: step 0 is the head, steps 1 to k - 1 the atoms looked up,
    and the first r negative atoms the ones read, which the instance holds
    positively.  An instance is left out when its head and read atoms are
    all in ``done``: the derivable grounding has it."""
    joined: dict[GroundClause, None] = {}
    _join(plan, tables, number, atoms, joined)
    for _, chosen, neg in joined:
        if chosen[0] not in done or not done.issuperset(neg[:r]):
            found[GroundClause(chosen[0], chosen[1:k] + neg[:r], neg[r:])] = None


def _demand(program: DatalogProgram, clauses_of: dict[str, list[DClause]], upper,
            unsettled: dict, demand, final: _Atoms, done: set[int], number: dict[GAtom, int],
            constants: list[str], above: dict[GroundClause, None]) -> list[GroundClause]:
    """The instances of the atoms of ``upper`` that the derivable atoms of
    the ``demand`` predicates reach through instance bodies, positive and
    negative, less those that read an atom without support positively: the
    ground form of magic sets.

    ``above`` holds the derivable grounding's instances of ``upper``: all of
    an atom's instances unless its predicate is ``unsettled``.  An unsettled
    atom has the clauses that read unsettled atoms joined (one ``_join_demand``
    per clause and round, over the atoms demanded in the last round), and the
    instances that read an atom that is not derivable are added.  A joined
    instance is held until the unsettled atoms it reads positively, demanded
    at once, are decided: one that is not derivable stays if it supports
    itself (``_drop_unsupported``), as under the self-supporting seed, and
    else is false under every semantics, so what reads it positively is
    dropped.  Only then are the atoms of the held instances kept demanded."""
    atoms = final.atoms
    known: dict[int, list[GroundClause]] = {}
    for inst in above:
        known.setdefault(inst.head, []).append(inst)
    new = [n for p in program.predicates if p in upper and p in demand
           for n in final.lists.get(p, ())]
    delta = _Atoms(atoms)
    joins: dict[str, list] = {}  # per unsettled predicate: _demand_plans
    pool: list[int] = []
    seen = set(new)  # the atoms demanded so far
    dead: set[int] = set()  # the unsettled atoms found without support
    instances: list[GroundClause] = []
    while new:
        held: dict[GroundClause, None] = {}
        joined: list[int] = []  # the atoms joined here that are not derivable
        while new:
            delta.clear()
            batch = [inst for n in new for inst in known.get(n, ())]
            todo = [n for n in new if atoms[n][0] in unsettled]
            for pred in {atoms[n][0] for n in todo} - joins.keys():
                joins[pred] = _demand_plans(clauses_of.get(pred, ()), unsettled, delta, final,
                                            number, constants, pool)
            joined += [n for n in todo if n not in done]
            delta.add(todo)
            found: dict[GroundClause, None] = {}
            for pred, pending in delta.lists.items():
                if pending:
                    for plan in joins[pred]:
                        _join_demand(*plan, done, number, atoms, found)
            _sync(number, atoms)
            instances += batch
            held.update(found)
            fresh = set(chain.from_iterable([inst[1] + inst[2] for inst in batch]))
            fresh.update([n for inst in found for n in inst.positive if atoms[n][0] in unsettled])
            fresh -= seen
            seen |= fresh
            new = [n for n in fresh if atoms[n][0] in upper]
        # Earlier dead atoms are seeds without instances here, so they drop their readers.
        kept = _drop_unsupported([inst for inst in held if inst.head not in done],
                                 joined + list(dead))
        dead.update(set(joined).difference([inst.head for inst in kept]))
        kept += [inst for inst in held if inst.head in done and dead.isdisjoint(inst.positive)]
        instances += kept
        fresh = set(chain.from_iterable([inst[1] + inst[2] for inst in kept]))
        fresh -= seen
        seen |= fresh
        new = [n for n in fresh if atoms[n][0] in upper]
    return instances


def _ground_clauses(program: DatalogProgram, constants, *, self_supporting=None, demand=None,
                    floor=None) -> tuple[list[GroundClause], dict[int, GAtom]]:
    """Clause instances over ``constants`` whose positive body atoms can all
    appear as heads, and the atoms they mention; an instance holds atom
    numbers, and the atoms come by number, in number order.

    It works one component of the positive predicate dependency graph at a
    time, dependencies first, so the atoms of lower components are final
    when a component is joined.  They come from the program's cached signed
    condensation: one predicate is positively recursive iff it has a positive
    self-edge, and one ``_tarjan_sccs`` pass over the positive edges inside
    the larger components splits them.  A clause without variables that
    reads no atom of its own component (``_fixed``) is kept when its positive
    atoms are final.  Every other clause is joined through its plan (``_plan``,
    walked by ``_join``), probing a hash index per (predicate, bound
    positions) that is built on first use and grows in place (``_Atoms``);
    bound positions are the constant positions and those whose variable an
    earlier body atom bound.  A component that is one predicate without a
    positive self-edge reads final atoms only, so such components share one
    running pass: each instance is kept and its head is final at once, and
    the tables get the new final atoms only before a join reads them.  Each
    atom is numbered when first met; one the pruning drops is left out.
    A ``floor``, a grounding of a program with the same clauses for the
    downward-closed part it ``derived``, gives its instances there, their atoms
    renumbered without gaps, and the other clauses are grounded on top.

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

    Given ``demand``, the part above the floor (the predicates of
    ``self_supporting``, all of them if it is None) is grounded on demand
    when one of its positively recursive components is wide: a predicate of
    it has more atoms over the pool than the program has clauses, so the
    self-supporting seed would start from many (on narrower ones the pass
    costs more than it saves; README, Grounding).  A wide component and the
    components reading an unsettled predicate positively are unsettled,
    grounded by derivability, and ``_demand`` keeps above the floor what
    the derivable atoms of the ``demand`` predicates reach, adding the
    instances that read atoms that support themselves without being
    derivable.  Fitting's
    and the well-founded semantics are relevant (an atom's value depends
    only on the atoms it reaches through clause bodies), and every reached
    atom has the instances the self-supporting seed would give it, so the
    grounding is exact under both over its base, which holds every true
    atom of the ``demand`` predicates.
    """
    floor = floor or GroundProgram((), {})
    clauses_of: dict[str, list[DClause]] = {}
    for clause in program.clauses:
        if clause.head.predicate not in floor.derived:
            clauses_of.setdefault(clause.head.predicate, []).append(clause)
    constants = sorted(constants)
    shared = [inst for inst in floor.instances if floor.atoms[inst.head][0] in floor.derived]
    renumber = {n: i for i, n in enumerate(dict.fromkeys(  # the floor's atoms, on first mention
        [n for head, pos, neg in shared for n in (head, *pos, *neg)]))}
    instances = [GroundClause(renumber[head], tuple(map(renumber.get, pos)),
                              tuple(map(renumber.get, neg))) for head, pos, neg in shared]
    number: dict[GAtom, int] = {floor.atoms[n]: i for n, i in renumber.items()}
    atoms: list[GAtom] = list(number)  # by number
    pending = list(dict.fromkeys(inst.head for inst in instances))  # final, not yet in tables
    done: set[int] = set(pending)  # the numbers of the final atoms
    final = _Atoms(atoms)  # the tables of the final atoms, and those derived so far
    final_table = final.table
    found: dict[GroundClause, None] = {}  # the running pass's instances, or one component's
    plans: list[_Plan] = []  # the join plans since the last recursive component began
    graph = dependency_graph(program)
    positive: dict[str, list[str]] = {}  # the positive edges inside a signed component
    for p, q, bits in graph.inside:
        if bits & POSITIVE:
            positive.setdefault(p, []).append(q)
    signed = graph.components
    inner = {p: i for i, comp in enumerate(signed) if len(comp) > 1 for p in comp}
    split: dict[int, list[list[str]]] = {}
    for comp in _tarjan_sccs(inner, positive):
        split.setdefault(inner[comp[0]], []).append(comp)
    # A list, not a generator: one left suspended by a MemoryError is finalised at the cap.
    parts = [part for i, comp in enumerate(signed) for part in split.get(i, (comp,))]
    unsettled: Collection[str] = ()  # the predicates _unsettled names, grounded by derivability
    if demand is not None:
        upper = program.predicates if self_supporting is None else self_supporting
        unsettled = _unsettled(program, parts, positive, upper, constants)
        if not unsettled:
            demand = None
    above: dict[GroundClause, None] = {}  # the instances of ``upper``, for the demand pass
    for component in parts:
        if component[0] not in clauses_of:  # body-only, or grounded in the floor
            continue
        recursive = len(component) > 1 or component[0] in positive.get(component[0], ())
        rules = ([clause for pred in component for clause in clauses_of.get(pred, ())]
                 if recursive else clauses_of.get(component[0], ()))
        members = set(component) if recursive else ()  # the predicates a body reads recursively
        aside = demand is not None and component[0] in upper  # its instances go to ``above``
        derivable = recursive and (component[0] in unsettled or self_supporting is not None
                                   and members.isdisjoint(self_supporting))
        if recursive:  # flush the running pass
            instances += found
            found.clear()
            plans.clear()
        start = final  # what the member steps of round 0 read: no member atom is final yet
        if recursive and not derivable:
            start = _Atoms(atoms)
            seeds = [number.setdefault((pred, args), len(number))
                     for pred, argsets in _head_instances(rules, constants).items()
                     for args in argsets]
            _sync(number, atoms)
            start.add(seeds)
        for clause in rules:
            fixed = _fixed(clause)
            if fixed is not None and not (members and any(p in members for p, _ in fixed[1])):
                pos = tuple(map(number.get, fixed[1]))  # kept when its positive atoms are final
                if not done.issuperset(pos):
                    continue
                neg = tuple([number.setdefault(atom, len(number)) for atom in fixed[2]])
                new = (GroundClause(number.setdefault(fixed[0], len(number)), pos, neg),)
            else:
                if pending:  # the tables get every final atom before a join reads them
                    _sync(number, atoms)
                    final.add(pending)
                    pending.clear()
                plans.append(plan := _plan(clause))
                _join(plan, [start.table(step) if step.pred in members else final_table(step)
                             for step in plan.steps], number, atoms, new := {})
            into = found if recursive or not aside else above
            for inst in new:
                into[inst] = None
                if not recursive and inst.head not in done:  # final at once
                    done.add(inst.head)
                    pending.append(inst.head)
        if not recursive:
            continue
        _sync(number, atoms)
        kept = list(found)
        found.clear()
        if not derivable:
            kept = _drop_unsupported(kept, seeds)
        heads = dict.fromkeys(inst.head for inst in kept)
        done.update(heads)
        if derivable:
            kept += _derive(plans, members, heads, final, done, number)
        else:
            final.add(heads)
        if aside:
            above.update(dict.fromkeys(kept))
        else:
            instances += kept
    instances += found
    if demand is not None:
        _sync(number, atoms)
        final.add(pending)
        instances += _demand(program, clauses_of, upper, unsettled, demand, final, done, number,
                             constants, above)
    base = {a for inst in instances for a in (inst.head, *inst.positive, *inst.negative)}
    return instances, {n: atom for atom, n in number.items() if n in base}


def ground_program(program: DatalogProgram, constants=None, *, self_supporting=None, demand=None,
                   floor: Optional[GroundProgram] = None) -> GroundProgram:
    """Ground a safe program over the constant pool ``constants``, by default
    its own constants, keeping the clause instances whose positive atoms
    ``_ground_clauses`` can support.  The default ``self_supporting=None``
    suits every semantics; predicates left out of it are recorded as
    ``derived``, and Fitting's operator must not decide them.  A compiled
    program's own constants include its rule labels, so it is grounded over
    ``CompilationOutput.constants``.  A ``floor``, built on as in ``_ground_clauses``,
    derives only ``program``'s predicates, and ``self_supporting`` leaves them out.
    ``demand`` names the predicates whose derivable atoms seed the demand
    grounding of the predicates in ``self_supporting``, which must be closed
    upward (no other predicate reads one of them); see ``_ground_clauses``."""
    if not is_safe(program):
        raise UnsafeProgram("program is not safe; grounding would not terminate on ground atoms")
    if floor is not None and not floor.derived <= program.predicates.keys():
        raise ValueError("the floor grounding derived predicates the program lacks")
    pool = program.constants() if constants is None else constants
    instances, atoms = _ground_clauses(program, pool, self_supporting=self_supporting,
                                       demand=demand, floor=floor)
    derived = frozenset() if self_supporting is None else program.predicates.keys() - self_supporting
    return GroundProgram(tuple(instances), atoms, frozenset(derived))


def _evaluate(g: GroundProgram, wf=None) -> ThreeValuedInterpretation:
    """The atoms of the predicates in ``wf`` (``None``: every predicate) decided as
    under the well-founded model, by the module docstring's propagation and
    unfounded-set passes, and the rest by propagation alone, as under Fitting's."""
    if wf is not None and not g.derived <= wf:
        raise ValueError("Fitting's operator would decide atoms grounded by derivability")
    clauses, atoms = g.instances, g.atoms
    heads, need, live, positive, negative, seeds = g.occurrences
    need, live = need.copy(), live.copy()  # pending literals per clause, live clauses per atom
    alive = bytearray(b"\1") * len(heads)
    value = bytearray(len(live))  # by atom number: 0 undecided, 1 true, 2 false
    lost: list[int] = []  # the heads of the clauses settle kills

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
                    lost.append(heads[idx])
                    live[heads[idx]] -= 1
                    if not live[heads[idx]]:
                        queue.append((heads[idx], 2))

    def unfounded(group: Collection[int]) -> list[int]:
        """Make false the atoms of ``group`` outside the least model of their
        live clauses, with positive atoms outside ``group`` true, and
        propagate; return the atoms of ``group`` still undecided."""
        inside = set(group)
        pending = {idx: sum(p in inside for p in clauses[idx].positive)
                   for atom in group for idx in held[atom] if alive[idx]}
        queue = [heads[idx] for idx, n in pending.items() if not n]
        founded = set()
        while queue:
            atom = queue.pop()
            if atom not in founded:
                founded.add(atom)
                for idx in positive[atom]:
                    if idx in pending:
                        pending[idx] -= 1
                        if not pending[idx]:
                            queue.append(heads[idx])
        settle([(atom, 2) for atom in group if atom not in founded])
        return [atom for atom in group if not value[atom]]

    settle(seeds.copy())
    scope = [n for n, atom in atoms.items() if not value[n] and (wf is None or atom[0] in wf)]
    if scope:
        held: dict[int, list[int]] = {atom: [] for atom in scope}  # live clauses by head
        for idx in compress(range(len(heads)), alive):
            if heads[idx] in held:
                held[heads[idx]].append(idx)
        scope = unfounded(scope)
    if scope:  # a successor decided by now is a component of its own, skipped
        successors = {atom: [b for idx in held[atom] if alive[idx]
                             for b in clauses[idx].positive + clauses[idx].negative if b in held]
                      for atom in scope}
        for component in _tarjan_sccs(scope, successors):
            members = group = {atom for atom in component if not value[atom]}
            while group:
                lost.clear()
                unfounded(group)
                # Only a member that lost a clause, or reads one positively, can turn unfounded.
                group = {atom for atom in lost if atom in members and not value[atom]}
                for atom in (order := list(group)):  # grows as readers join
                    for idx in positive[atom]:
                        head = heads[idx]
                        if alive[idx] and head in members and not value[head] and head not in group:
                            group.add(head)
                            order.append(head)
    return ThreeValuedInterpretation(frozenset(a for n, a in atoms.items() if value[n] == 1),
                                     frozenset(a for n, a in atoms.items() if value[n] == 2),
                                     g.herbrand_base)


def eval_stratified(program: DatalogProgram,
                    ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """The perfect model of a stratified program: its total well-founded
    model, over ``ground`` if given, else over ``ground_program(program)``."""
    if stratify(program) is None:
        raise NotStratified("program has a negative edge inside a recursive component")
    interp = _evaluate(ground or ground_program(program))
    if not interp.is_total():
        raise RuntimeError("stratified program left atoms unknown (internal error)")
    return interp


def eval_fitting(program: DatalogProgram,
                 ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """Fitting's model, the least fixpoint of the three-valued immediate-consequence
    operator, over ``ground`` if given, else over ``ground_program(program)``."""
    return _evaluate(ground or ground_program(program), frozenset())


def eval_wellfounded(program: DatalogProgram,
                     ground: Optional[GroundProgram] = None) -> ThreeValuedInterpretation:
    """The well-founded model, over ``ground`` if given, else over
    ``ground_program(program)``."""
    return _evaluate(ground or ground_program(program))


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
    interp = _evaluate(ground or ground_program(compiled.program, compiled.constants), floor)
    if any(a[0] in floor for a in interp.unknown_set):
        raise RuntimeError("hybrid floor left atoms unknown (internal error)")
    return interp

