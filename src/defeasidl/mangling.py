"""Deterministic predicate-name mangling for compiled programs.

Compiled predicates fuse a tag (definitely/lambda/defeasibly/overruled/
defeated/defeats/body) with either a source predicate plus polarity or a
rule label plus body flavour.  Components are joined with the reserved
two-character separator ``__`` and negative literals insert a ``not``
component, e.g. ``defeasibly__not__fly``.  Injectivity cannot be assumed
for arbitrary source names (identifiers may contain underscores), so
validation rejects theories where two distinct sources collide; see
``mangling_collisions`` for the only way they can.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

SEP = "__"
NEG = "not"

TAG_DEFINITELY = "definitely"
TAG_LAMBDA = "lambda"
TAG_DEFEASIBLY = "defeasibly"
TAG_OVERRULED = "overruled"
TAG_DEFEATED = "defeated"
TAG_DEFEATS = "defeats"
TAG_BODY = "body"
LITERAL_TAGS = (TAG_DEFINITELY, TAG_LAMBDA, TAG_DEFEASIBLY, TAG_OVERRULED, TAG_DEFEATED, TAG_DEFEATS)

FLAVOR_DELTA = "delta"
FLAVOR_LAM = "lam"
FLAVOR_D = "d"
BODY_FLAVORS = (FLAVOR_DELTA, FLAVOR_LAM, FLAVOR_D)

FLOOR_TAGS = (TAG_DEFINITELY, TAG_LAMBDA)
CONCLUSION_TAGS = (TAG_DEFINITELY, TAG_LAMBDA, TAG_DEFEASIBLY)  # each fact's three unit clauses
FLOOR_FLAVORS = (FLAVOR_DELTA, FLAVOR_LAM)


@dataclass(frozen=True)
class MangledPredicate:
    """Descriptor of a generated predicate: a tag plus its qualifier."""

    base: str
    source_predicate: Optional[str] = None
    negated: bool = False
    rule_label: Optional[str] = None
    flavor: Optional[str] = None

    @property
    def name(self) -> str:
        return mangled_name(self.base, self.source_predicate, self.negated, self.rule_label, self.flavor)

    @property
    def is_floor(self) -> bool:
        if self.base == TAG_BODY:
            return self.flavor in FLOOR_FLAVORS
        return self.base in FLOOR_TAGS

    def __str__(self) -> str:
        if self.base == TAG_BODY:
            return f"body[{self.rule_label}, {self.flavor}]"
        sign = "neg " if self.negated else ""
        return f"{self.base}[{sign}{self.source_predicate}]"


def mangled_name(base: str, source_predicate: Optional[str] = None, negated: bool = False,
                 rule_label: Optional[str] = None, flavor: Optional[str] = None) -> str:
    """The name of the descriptor with these fields, without building it."""
    if base == TAG_BODY:
        return SEP.join((TAG_BODY, rule_label, flavor))
    return SEP.join((base, NEG, source_predicate) if negated else (base, source_predicate))


def mangling_collisions(
    predicates: Iterable[str],
) -> list[tuple[str, MangledPredicate, MangledPredicate]]:
    """Pairs of distinct descriptors that mangle to the same name, among
    every name compilation could generate, in either mode, for a theory
    with these source predicates (its rule labels cannot collide).

    A name is ``tag__rest`` and no tag contains ``_``, so equal names have
    the same tag.  A body name ends in ``__`` and its flavour, and none of
    these endings is a suffix of another, so body names never collide.  What
    is left is a negated ``p`` against a predicate ``not__p``, under each
    literal tag.  Each pair is listed once, the descriptor met later when
    enumerating by sorted predicate, tag and sign second, in that order."""
    prefix = NEG + SEP
    known = set(predicates)
    preds = sorted(known)
    collisions = []
    for pred in preds:
        earlier = [(negated, other)  # the sign of pred's descriptor, and the earlier predicate
                   for negated, other in ((False, pred.removeprefix(prefix)), (True, prefix + pred))
                   if other != pred and other in known and other < pred]
        for tag in LITERAL_TAGS if earlier else ():
            for negated, other in earlier:
                mp = MangledPredicate(tag, pred, negated)
                collisions.append((mp.name, MangledPredicate(tag, other, not negated), mp))
    return collisions
