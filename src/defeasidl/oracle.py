"""Proof-theoretic oracle: forward chaining on ground theories.

Computes the four closures directly from the inference rules of the
logic: definite conclusions (strict rules and facts only), potential
defeasible conclusions, and the two defeasible consequence relations --
team defeat (an attacked conclusion survives if every applicable
attacker is beaten by some applicable supporting rule) and individual
defeat (one supporting rule must beat every attacker itself).  This is
the ground truth the compiled pipeline is differential-tested against.
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


def delta_closure(g: DefeasibleTheory) -> set[Literal]:
    """Least set containing the facts and closed under the strict rules."""
    strict = [r for r in g.rules if r.kind is RuleKind.STRICT]
    state = set(g.facts)
    changed = True
    while changed:
        changed = False
        for rule in strict:
            if rule.head not in state and all(b in state for b in rule.body):
                state.add(rule.head)
                changed = True
    return state


def lambda_closure(g: DefeasibleTheory, delta: set[Literal]) -> set[Literal]:
    """Potential conclusions: delta plus heads of strict-or-defeasible rules
    whose bodies are potential and whose complement is not definite."""
    sd = [r for r in g.rules if r.is_strict_or_defeasible]
    state = set(delta)
    changed = True
    while changed:
        changed = False
        for rule in sd:
            if rule.head in state:
                continue
            if rule.head.complement() in delta:
                continue
            if all(b in state for b in rule.body):
                state.add(rule.head)
                changed = True
    return state


def _attack_tables(g: DefeasibleTheory):
    attackers: dict[Literal, list[Rule]] = {}
    supporters: dict[Literal, list[Rule]] = {}
    for rule in g.rules:
        attackers.setdefault(rule.head, []).append(rule)
        if rule.is_strict_or_defeasible:
            supporters.setdefault(rule.head, []).append(rule)
    return attackers, supporters


def dpar_closure(g: DefeasibleTheory, delta: set[Literal], lam: set[Literal]) -> set[Literal]:
    """Team defeat: every surviving attacker must be beaten by some applicable
    strict-or-defeasible rule for the conclusion, not necessarily the same one."""
    attackers, supporters = _attack_tables(g)
    sup = set(g.superiority)
    state = set(delta)
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            q = rule.head
            if q in state or not rule.is_strict_or_defeasible:
                continue
            if q.complement() in delta:
                continue
            if not all(b in state for b in rule.body):
                continue
            team = supporters.get(q, ())
            beaten = True
            for s in attackers.get(q.complement(), ()):
                if any(b not in lam for b in s.body):
                    continue  # attacker provably inapplicable
                if not any(
                    (t.label, s.label) in sup and all(b in state for b in t.body)
                    for t in team
                ):
                    beaten = False
                    break
            if beaten:
                state.add(q)
                changed = True
    return state


def dpar_star_closure(g: DefeasibleTheory, delta: set[Literal], lam: set[Literal]) -> set[Literal]:
    """Individual defeat: the supporting rule itself must beat every
    surviving attacker."""
    attackers, _ = _attack_tables(g)
    sup = set(g.superiority)
    state = set(delta)
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            q = rule.head
            if q in state or not rule.is_strict_or_defeasible:
                continue
            if q.complement() in delta:
                continue
            if not all(b in state for b in rule.body):
                continue
            ok = True
            for s in attackers.get(q.complement(), ()):
                if any(b not in lam for b in s.body):
                    continue
                if (rule.label, s.label) not in sup:
                    ok = False
                    break
            if ok:
                state.add(q)
                changed = True
    return state


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
        raise RuntimeError("conclusions violate Delta <= dpar* <= dpar <= lambda (internal error)")
    return result
