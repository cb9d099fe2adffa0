"""Proof-theoretic oracle: forward chaining on ground theories.

Computes the four closures directly from the inference rules of the
logic: definite conclusions (strict rules and facts only), potential
defeasible conclusions, and the two defeasible consequence relations --
team defeat (an attacked conclusion survives if every applicable
attacker is beaten by some applicable supporting rule) and individual
defeat (one supporting rule must beat every attacker itself), which
differ only in that beat test.  One naive fixpoint computes all four.
This is the ground truth the compiled pipeline is differential-tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .theory import (
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    ground_theory,
)


class ChainViolation(RuntimeError):
    """The closures break the chain Delta <= dpar* <= dpar <= lambda (internal error)."""


@dataclass(frozen=True)
class ConclusionSet:
    """The four closures; the inclusion chain delta <= dpar_star <= dpar <= lam
    holds by construction and is re-asserted when built via :func:`conclusions`."""

    delta: frozenset[Literal]
    lam: frozenset[Literal]
    dpar: frozenset[Literal]
    dpar_star: frozenset[Literal]

    def tagged(self) -> dict[str, frozenset[Literal]]:
        return {"delta": self.delta, "lambda": self.lam, "dpar": self.dpar, "dpar_star": self.dpar_star}


def _closure(rules, start, ready) -> set[Literal]:
    """Naive forward chaining: the least superset of ``start`` holding the
    head of every rule whose body it holds and for which ``ready(rule,
    state)`` is true of the current set."""
    state = set(start)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in state and all(b in state for b in rule.body) and ready(rule, state):
                state.add(rule.head)
                changed = True
    return state


def delta_closure(g: DefeasibleTheory) -> set[Literal]:
    """Least set containing the facts and closed under the strict rules."""
    strict = [r for r in g.rules if r.kind is RuleKind.STRICT]
    return _closure(strict, g.facts, lambda rule, state: True)


def lambda_closure(g: DefeasibleTheory, delta: set[Literal]) -> set[Literal]:
    """Potential conclusions: delta plus heads of strict-or-defeasible rules
    whose bodies are potential and whose complement is not definite."""
    sd = [r for r in g.rules if r.is_strict_or_defeasible]
    return _closure(sd, delta, lambda rule, state: rule.head.complement() not in delta)


def _defeasible_closure(g: DefeasibleTheory, delta: set[Literal], lam: set[Literal], beats):
    """Delta plus the heads of strict-or-defeasible rules with a derived body
    and a complement that is not definite, once ``beats(rule, s, state)``
    holds for every attacker ``s`` of the head that may be applicable."""
    attackers: dict[Literal, list[Rule]] = {}
    for rule in g.rules:
        attackers.setdefault(rule.head, []).append(rule)

    def ready(rule: Rule, state: set[Literal]) -> bool:
        against = rule.head.complement()
        return against not in delta and all(
            beats(rule, s, state)
            for s in attackers.get(against, ())
            if all(b in lam for b in s.body)  # else the attacker is provably inapplicable
        )

    sd = [r for r in g.rules if r.is_strict_or_defeasible]
    return _closure(sd, delta, ready)


def dpar_closure(g: DefeasibleTheory, delta: set[Literal], lam: set[Literal]) -> set[Literal]:
    """Team defeat: every surviving attacker must be beaten by some applicable
    strict-or-defeasible rule for the conclusion, not necessarily the same one."""
    sup = set(g.superiority)
    team: dict[Literal, list[Rule]] = {}
    for t in g.rules:
        if t.is_strict_or_defeasible:
            team.setdefault(t.head, []).append(t)

    def beats(rule: Rule, s: Rule, state: set[Literal]) -> bool:
        return any(
            (t.label, s.label) in sup and all(b in state for b in t.body)
            for t in team[rule.head]
        )

    return _defeasible_closure(g, delta, lam, beats)


def dpar_star_closure(g: DefeasibleTheory, delta: set[Literal], lam: set[Literal]) -> set[Literal]:
    """Individual defeat: the supporting rule itself must beat every
    surviving attacker."""
    sup = set(g.superiority)
    return _defeasible_closure(g, delta, lam, lambda rule, s, state: (rule.label, s.label) in sup)


def conclusions(theory: DefeasibleTheory) -> ConclusionSet:
    """Ground the theory and run the four closures in dependency order."""
    g = ground_theory(theory)
    delta = delta_closure(g)
    lam = lambda_closure(g, delta)
    dpar = dpar_closure(g, delta, lam)
    dpar_star = dpar_star_closure(g, delta, lam)
    result = ConclusionSet(
        delta=frozenset(delta),
        lam=frozenset(lam),
        dpar=frozenset(dpar),
        dpar_star=frozenset(dpar_star),
    )
    if not result.delta <= result.dpar_star <= result.dpar <= result.lam:
        raise ChainViolation("conclusions violate Delta <= dpar* <= dpar <= lambda (internal error)")
    return result
