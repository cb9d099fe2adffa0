"""Data model for defeasible theories.

A theory is a triple (facts, rules, superiority): ground facts, labelled
rules of three kinds (strict ``->``, defeasible ``=>``, defeater ``~>``),
and an acyclic priority relation over rule labels.  This module owns
validation, grounding over the Herbrand universe, and the structural
checks (range restriction, hierarchy) that the compiler and the analyses
rely on.  Everything here is immutable and side-effect free.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Iterable, Optional

from .graph import _tarjan_sccs, levels
from .mangling import mangling_collisions


class EmptyUniverse(Exception):
    """The theory contains variables but no constants to instantiate them."""


class ValidationFailed(Exception):
    """A downstream operation was handed a theory that fails validation."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(issue.message for issue in report.errors))
        self.report = report


def _check_name(name: str, what: str) -> None:
    if not name or not all(ch.isalnum() or ch == "_" for ch in name):
        raise ValueError(f"malformed {what} name: {name!r}")
    first = name[0]
    if not (first.isalpha() or first.isdigit()):
        raise ValueError(f"{what} name must start with a letter or digit: {name!r}")


# Term, Atom and Literal are tuples of their fields, so they hash, compare and
# order in C.  Equality is by content, across types: ``Atom("q") == ("q", ())``,
# the engine's atom for ``q``, so never mix the two in one container.
class Term(namedtuple("Term", "name")):
    """A variable (uppercase-initial) or a constant (lowercase/digit-initial)."""

    __slots__ = ()

    def __new__(cls, name: str):
        _check_name(name, "term")
        return tuple.__new__(cls, (name,))

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


class Atom(namedtuple("Atom", "predicate args")):
    """A predicate applied to terms; arity is fixed per predicate by validation."""

    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple[Term, ...] = ()):
        _check_name(predicate, "predicate")
        if predicate[0].isdigit() or predicate[0].isupper():
            raise ValueError(f"predicate must start with a lowercase letter: {predicate!r}")
        return tuple.__new__(cls, (predicate, args))

    @classmethod
    def unchecked(cls, predicate: str, args: tuple[Term, ...] = ()) -> "Atom":
        """An atom built without the name check, for a predicate name the
        caller has already made well-formed (the compiler's mangled names,
        the parser's lexed ones)."""
        return tuple.__new__(cls, (predicate, args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def is_ground(self) -> bool:
        return not any(t.is_variable for t in self.args)

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(t.name for t in self.args)})"


class Literal(namedtuple("Literal", "atom negated", defaults=(False,))):
    """A possibly classically-negated atom."""

    __slots__ = ()

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    @property
    def args(self) -> tuple[Term, ...]:
        return self.atom.args

    def complement(self) -> "Literal":
        return Literal(self.atom, not self.negated)

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def __str__(self) -> str:
        return f"neg {self.atom}" if self.negated else str(self.atom)


class RuleKind(Enum):
    STRICT = "->"
    DEFEASIBLE = "=>"
    DEFEATER = "~>"

    @property
    def arrow(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Rule:
    """A labelled rule.  The body may be empty; the head is a single literal."""

    label: str
    body: tuple[Literal, ...]
    head: Literal
    kind: RuleKind = RuleKind.DEFEASIBLE

    def __post_init__(self):
        _check_name(self.label, "rule label")
        if self.label[0].isupper():
            raise ValueError(f"rule label must not look like a variable: {self.label!r}")

    @property
    def is_strict_or_defeasible(self) -> bool:
        return self.kind is not RuleKind.DEFEATER

    def variables(self) -> tuple[str, ...]:
        """Distinct variable names, in first-occurrence order (body first)."""
        seen: dict[str, None] = {}
        for lit in (*self.body, self.head):
            for t in lit.args:
                if t.is_variable:
                    seen.setdefault(t.name, None)
        return tuple(seen)

    def __str__(self) -> str:
        body = ", ".join(str(b) for b in self.body)
        sep = f"{body} " if body else ""
        return f"{self.label}: {sep}{self.kind.arrow} {self.head}"


@dataclass(frozen=True)
class DefeasibleTheory:
    """An immutable theory (facts, rules, superiority over labels)."""

    facts: frozenset[Literal] = frozenset()
    rules: tuple[Rule, ...] = ()
    superiority: frozenset[tuple[str, str]] = frozenset()

    @staticmethod
    def of(
        facts: Iterable[Literal] = (),
        rules: Iterable[Rule] = (),
        superiority: Iterable[tuple[str, str]] = (),
    ) -> "DefeasibleTheory":
        return DefeasibleTheory(frozenset(facts), tuple(rules), frozenset(superiority))

    @cached_property
    def _validation(self) -> "ValidationReport":
        return _validate(self)

    @cached_property
    def sorted_facts(self) -> tuple[Literal, ...]:
        """The facts in literal order (by predicate, then argument names, then
        polarity: tuple order), sorted once per theory."""
        return tuple(sorted(self.facts))

    def rule_map(self) -> dict[str, Rule]:
        return {r.label: r for r in self.rules}

    def literals(self) -> Iterable[Literal]:
        """The facts in order, then each rule's body and head."""
        yield from self.sorted_facts
        for r in self.rules:
            yield from r.body
            yield r.head

    def predicates(self) -> set[str]:
        return {lit.predicate for lit in self.literals()}

    def constants(self) -> set[str]:
        return {t.name for lit in self.literals() for t in lit.args if not t.is_variable}

    def has_variables(self) -> bool:
        return any(t.is_variable for lit in self.literals() for t in lit.args)


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    location: str = ""


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def error(self, code: str, message: str, location: str = "") -> None:
        self.errors.append(ValidationIssue(code, message, location))

    def warn(self, code: str, message: str, location: str = "") -> None:
        self.warnings.append(ValidationIssue(code, message, location))


def _superiority_cycle(pairs: Iterable[tuple[str, str]]) -> Optional[list[str]]:
    """One cycle of labels in the superiority digraph, if any: the walk from
    the least label that reaches a cycle, along the least successors that
    do, until a label repeats.  That is the cycle a depth-first search in
    label order meets first."""
    succs: dict[str, list[str]] = {}
    for t, s in sorted(pairs):
        succs.setdefault(t, []).append(s)
    live: set[str] = set()  # the labels that reach a cycle
    for comp in _tarjan_sccs(succs, succs):  # successors first
        if len(comp) > 1 or any(s in live or s == comp[0] for s in succs.get(comp[0], ())):
            live.update(comp)
    if not live:
        return None
    walk = [min(live)]
    while walk[-1] not in walk[:-1]:
        walk.append(next(s for s in succs[walk[-1]] if s in live))
    return walk[walk.index(walk[-1]):]


def validate_theory(theory: DefeasibleTheory) -> ValidationReport:
    """Structural validation; a theory with errors is rejected downstream.

    Errors: duplicate rule labels, superiority over undefined labels,
    superiority cycles, non-ground facts, arity mismatches, and mangling
    collisions between generated predicate names.  Warnings flag
    superiority pairs that cannot influence compilation (non-complementary
    heads, or a defeater in the superior position).

    A theory is immutable, so its report is computed once, on the first
    call, and every later call (the compiler's too) returns that same
    report; callers must not modify it.
    """
    return theory._validation


def inert_superiority(sup: Rule, inf: Rule) -> Optional[tuple[str, str]]:
    """Why ``sup > inf`` compiles to nothing, as a warning code and its
    reason, or None when the pair compiles to a defeat clause."""
    if sup.head.predicate != inf.head.predicate or sup.head.negated == inf.head.negated:
        return "inert-superiority", "rule heads are not complementary"
    if sup.kind is RuleKind.DEFEATER:
        return "defeater-superior", f"superior rule {sup.label} is a defeater"
    return None


def _validate(theory: DefeasibleTheory) -> ValidationReport:
    report = ValidationReport()

    seen_labels: set[str] = set()
    for rule in theory.rules:
        if rule.label in seen_labels:
            report.error("duplicate-label", f"duplicate rule label {rule.label!r}", rule.label)
        seen_labels.add(rule.label)

    for fact in theory.sorted_facts:
        if not fact.is_ground():
            report.error("non-ground-fact", f"fact {fact} contains variables", str(fact))

    arities: dict[str, tuple[int, str]] = {}
    for lit in theory.literals():
        known = arities.get(lit.predicate)
        if known is None:
            arities[lit.predicate] = (lit.atom.arity, str(lit))
        elif known[0] != lit.atom.arity:
            report.error(
                "arity-mismatch",
                f"predicate {lit.predicate!r} used with arities {known[0]} and {lit.atom.arity}",
                str(lit),
            )

    rule_map = theory.rule_map()
    for t, s in sorted(theory.superiority):
        missing = [lbl for lbl in (t, s) if lbl not in rule_map]
        if missing:
            report.error(
                "undefined-superiority-label",
                f"superiority {t} > {s} refers to undefined label(s) {', '.join(missing)}",
                f"{t} > {s}",
            )
    if not any(i.code == "undefined-superiority-label" for i in report.errors):
        cycle = _superiority_cycle(theory.superiority)
        if cycle is not None:
            report.error(
                "superiority-cycle",
                "superiority relation has a cycle: " + " > ".join(cycle),
                cycle[0],
            )
        for t, s in sorted(theory.superiority):
            inert = inert_superiority(rule_map[t], rule_map[s])
            if inert is not None:
                code, reason = inert
                report.warn(code, f"superiority {t} > {s} is inert: {reason}", f"{t} > {s}")

    for name, a, b in mangling_collisions(theory.predicates()):
        report.error(
            "mangling-collision",
            f"generated predicate name {name!r} is produced by both {a} and {b}",
            name,
        )
    return report


def is_range_restricted(theory: DefeasibleTheory) -> bool:
    """True iff every head variable occurs in the rule body and facts are ground."""
    if any(not f.is_ground() for f in theory.facts):
        return False
    for rule in theory.rules:
        body_vars = {t.name for lit in rule.body for t in lit.args if t.is_variable}
        for t in rule.head.args:
            if t.is_variable and t.name not in body_vars:
                return False
    return True


def _apply(lit: Literal, binding: dict[str, Term]) -> Literal:
    args = tuple(binding[t.name] if t.is_variable else t for t in lit.args)
    return Literal(Atom(lit.predicate, args), lit.negated)


def ground_theory(theory: DefeasibleTheory) -> DefeasibleTheory:
    """The variable-free theory of all instantiations of the rules over the
    theory's own constants.

    A variable-free theory grounds to itself, labels included; otherwise
    the ground rule labels are synthesized as ``<source>__<ordinal>``.
    Superiority ``t > s`` lifts only to the instance pairs whose ground
    heads are complementary: the oracle reads no other pair.
    """
    if not theory.has_variables():
        return theory
    constants = sorted(theory.constants())
    if not constants:
        raise EmptyUniverse("theory has variables but no constants")
    universe = [Term(c) for c in constants]

    ground_rules: list[Rule] = []
    # source label -> ground head -> labels of the instances with that head
    instances: dict[str, dict[Literal, list[str]]] = {}
    for rule in theory.rules:
        names = rule.variables()
        by_head: dict[Literal, list[str]] = {}
        for ordinal, values in enumerate(product(universe, repeat=len(names)), start=1):
            binding = dict(zip(names, values))
            label = f"{rule.label}__{ordinal}"
            head = _apply(rule.head, binding)
            ground_rules.append(
                Rule(
                    label=label,
                    body=tuple(_apply(b, binding) for b in rule.body),
                    head=head,
                    kind=rule.kind,
                )
            )
            by_head.setdefault(head, []).append(label)
        instances[rule.label] = by_head

    lifted = frozenset(
        (gt, gs)
        for t, s in theory.superiority
        for head, superior in instances.get(t, {}).items()
        for gt in superior
        for gs in instances.get(s, {}).get(head.complement(), ())
    )
    return DefeasibleTheory(
        facts=theory.facts,
        rules=tuple(ground_rules),
        superiority=lifted,
    )


def is_hierarchical(theory: DefeasibleTheory) -> Optional[dict[str, int]]:
    """A witness level mapping on predicates, or None if rule dependencies cycle.

    The mapping places every rule head strictly above every body predicate,
    ignoring polarity.
    """
    steps: dict[str, dict[str, int]] = {}  # head -> body predicate -> step 1
    for rule in theory.rules:
        steps.setdefault(rule.head.predicate, {}).update((b.predicate, 1) for b in rule.body)
    return levels(_tarjan_sccs(theory.predicates(), steps), steps)[0]


def is_locally_hierarchical(theory: DefeasibleTheory) -> bool:
    """True iff the ground-atom dependency graph of ground(theory) is acyclic."""
    g = ground_theory(theory)
    steps: dict[str, dict[str, int]] = {}
    for rule in g.rules:
        steps.setdefault(str(rule.head.atom), {}).update((str(b.atom), 1) for b in rule.body)
    return levels(_tarjan_sccs(steps, steps), steps)[0] is not None


def theory_size(theory) -> int:
    """Symbol count: every predicate/constant/variable/label occurrence,
    plus one marker per rule arrow, per fact, and per superiority pair."""
    total = 0
    for fact in theory.facts:
        total += 1 + 1 + len(fact.args)
    for rule in theory.rules:
        total += 1 + 1  # label + arrow
        for lit in (*rule.body, rule.head):
            total += 1 + len(lit.args)
    total += 3 * len(theory.superiority)  # two labels + pair marker
    return total
