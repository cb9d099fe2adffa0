"""The enumeration ``mangling.mangling_collisions`` replaced, kept as its
test reference: build every descriptor compilation could generate for a
theory, in either mode, and report each name met a second time."""

from __future__ import annotations

from defeasidl.mangling import BODY_FLAVORS, LITERAL_TAGS, TAG_BODY, MangledPredicate
from defeasidl.theory import DefeasibleTheory


def enumerated_collisions(
    theory: DefeasibleTheory,
) -> list[tuple[str, MangledPredicate, MangledPredicate]]:
    candidates = [
        MangledPredicate(tag, pred, negated)
        for pred in sorted(theory.predicates())
        for tag in LITERAL_TAGS
        for negated in (False, True)
    ]
    candidates += [
        MangledPredicate(TAG_BODY, rule_label=rule.label, flavor=flavor)
        for rule in theory.rules
        for flavor in BODY_FLAVORS
    ]
    seen: dict[str, MangledPredicate] = {}
    collisions = []
    for mp in candidates:
        prev = seen.setdefault(mp.name, mp)
        if prev != mp:
            collisions.append((mp.name, prev, mp))
    return collisions
