"""Compiler from defeasible theories to Datalog-with-negation programs.

Two targets share most of their clauses.  Team defeat:

    definitely_q(a)  :- body_r_delta(a).                 (C15, strict r)
    lambda_q(a)      :- body_r_delta(a).                 (C16, strict r)
    defeasibly_q(a)  :- body_r_delta(a).                 (C17, strict r)
    body_r_delta(a)  :- definitely_q1(a1), ...           (C18, strict r)
    lambda_q(a)      :- body_r_lam(a), not definitely_~q(a).            (C19)
    defeasibly_q(a)  :- body_r_d(a), not definitely_~q(a),
                        not overruled_q(a).                             (C20)
    body_r_lam(a)    :- lambda_q1(a1), ...               (C21, every rule)
    body_r_d(a)      :- defeasibly_q1(a1), ...           (C22, strict/defeasible)
    overruled_~h(b)  :- body_s_lam(b), not defeated_h(s, b).  (C23, every rule s)
    defeated_~q(s,a) :- body_t_d(a).                     (C24, per t > s)

plus three unit clauses per fact.  Individual defeat replaces C20/C23/C24
by a rule-indexed variant: the defeasibly clause negates overruled_q(r, a)
(C25), overruled carries the defending rule's label and consults a
defeats fact (C26), and each consumed superiority pair emits the unit
clause defeats_h(r, s) (tagged C24, being that mode's defeat clause).
Superiority pairs whose rules do not have complementary heads, or whose
superior rule is a defeater, compile to nothing.  C25's block is as long
as C20's, so the individual program is spliced from a team program of the
same theory: two slices of its clauses around C25, then the C26 tail.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .datalog import DatalogProgram, DClause
from .mangling import (
    CONCLUSION_TAGS,
    FLAVOR_D,
    FLAVOR_DELTA,
    FLAVOR_LAM,
    TAG_BODY,
    TAG_DEFEASIBLY,
    TAG_DEFEATED,
    TAG_DEFEATS,
    TAG_DEFINITELY,
    TAG_LAMBDA,
    TAG_OVERRULED,
    MangledPredicate,
    mangled_name,
)
from .theory import (
    Atom,
    DefeasibleTheory,
    Literal,
    Rule,
    RuleKind,
    Term,
    ValidationFailed,
    inert_superiority,
    validate_theory,
)

TEAM = "team"
INDIVIDUAL = "individual"

SCHEMA_FACT = "fact"


class ClauseInfo(NamedTuple):
    source: str  # rule label, superiority pair, or fact text
    schema: str  # "fact" or "C15".."C26"


@dataclass
class CompilationOutput:
    program: DatalogProgram
    # One record per entry of ``program.clauses``, in the same order.
    provenance: tuple[ClauseInfo, ...]
    mode: str
    theory: DefeasibleTheory  # the theory compiled, which a shared compilation must match
    # One descriptor per predicate of the program, keyed by its name.
    predicate_info: dict[str, MangledPredicate]
    floor_names: frozenset[str]
    # The predicates of the defeasibly conclusions, all above the floor; the
    # individual compilation has the team's.
    defeasibly_names: frozenset[str]
    # The theory's constants, the pool the program is grounded over; the
    # program's own constants also include the rule labels.
    constants: frozenset[str]

    @property
    def upper_names(self) -> frozenset[str]:
        """The predicates above the floor; derived, so ``replace`` keeps it right."""
        return frozenset(self.program.predicates.keys() - self.floor_names)


class _Emitter:
    def __init__(self, predicate_info: dict[str, MangledPredicate], arities: dict[str, int]):
        self.clauses: list[DClause] = []
        self.provenance: list[ClauseInfo] = []
        self.predicate_info = predicate_info  # name -> descriptor, in the order met
        self.arities = arities  # name -> arity, fixed by the validated theory
        self.names: dict[tuple, str] = {}  # descriptor fields -> name
        self.labels: dict[str, Term] = {}  # rule label -> its term, name-checked once

    def atom(self, fields: tuple, args: tuple[Term, ...]) -> Atom:
        """An atom of the predicate described by ``fields``, the fields of its
        ``MangledPredicate`` in order; a descriptor not yet held is built once."""
        name = self.names.get(fields)
        if name is None:
            name = self.names[fields] = mangled_name(*fields)
            if name not in self.predicate_info:
                self.predicate_info[name] = MangledPredicate(*fields)
            self.arities[name] = len(args)
        # Mangled from validated names, so ``Atom``'s name check is skipped.
        return Atom.unchecked(name, args)

    def label(self, rule: Rule) -> Term:
        return self.labels.get(rule.label) or self.labels.setdefault(rule.label, Term(rule.label))

    def lit_atom(self, tag: str, lit: Literal, extra: tuple[Term, ...] = ()) -> Atom:
        return self.atom((tag, lit.predicate, lit.negated), extra + lit.args)

    def body_atom(self, rule: Rule, flavor: str) -> Atom:
        return self.atom((TAG_BODY, None, False, rule.label, flavor), rule.head.args)

    def emit(self, clause: DClause, source: str, schema: str) -> None:
        self.clauses.append(clause)
        self.provenance.append(ClauseInfo(source, schema))

    def take(self, out: CompilationOutput, start: int, stop: int) -> None:
        """Append ``out``'s clauses from ``start`` to ``stop``, with their records."""
        self.clauses += out.program.clauses[start:stop]
        self.provenance += out.provenance[start:stop]

    def program(self) -> DatalogProgram:
        return DatalogProgram(tuple(self.clauses), self.arities)


def _consumed_superiority(theory: DefeasibleTheory) -> list[tuple[Rule, Rule]]:
    """The (superior, inferior) rule pairs that ``inert_superiority`` lets compile."""
    rule_map = theory.rule_map()
    pairs = [(rule_map[t], rule_map[s]) for t, s in sorted(theory.superiority)]
    return [(sup, inf) for sup, inf in pairs if inert_superiority(sup, inf) is None]


def compile_team(theory: DefeasibleTheory) -> CompilationOutput:
    """Compile for the team-defeat consequence relation."""
    report = validate_theory(theory)
    if not report.ok:
        raise ValidationFailed(report)
    em = _Emitter({}, {})
    strict = [r for r in theory.rules if r.kind is RuleKind.STRICT]
    sd = [r for r in theory.rules if r.is_strict_or_defeasible]
    for fact in theory.sorted_facts:
        text = str(fact)  # one provenance text for the fact's three units
        for tag in CONCLUSION_TAGS:
            em.emit(DClause(em.lit_atom(tag, fact)), text, SCHEMA_FACT)
    for r in strict:
        delta_body = (em.body_atom(r, FLAVOR_DELTA),)
        em.emit(DClause(em.lit_atom(TAG_DEFINITELY, r.head), delta_body), r.label, "C15")
        em.emit(DClause(em.lit_atom(TAG_LAMBDA, r.head), delta_body), r.label, "C16")
        em.emit(DClause(em.lit_atom(TAG_DEFEASIBLY, r.head), delta_body), r.label, "C17")
        em.emit(DClause(em.body_atom(r, FLAVOR_DELTA),
                        tuple(em.lit_atom(TAG_DEFINITELY, b) for b in r.body)), r.label, "C18")
    for r in sd:
        em.emit(DClause(em.lit_atom(TAG_LAMBDA, r.head), (em.body_atom(r, FLAVOR_LAM),),
                        (em.lit_atom(TAG_DEFINITELY, r.head.complement()),)), r.label, "C19")
    for r in sd:
        em.emit(DClause(em.lit_atom(TAG_DEFEASIBLY, r.head), (em.body_atom(r, FLAVOR_D),),
                        (em.lit_atom(TAG_DEFINITELY, r.head.complement()),
                         em.lit_atom(TAG_OVERRULED, r.head))), r.label, "C20")
    for r in theory.rules:  # lam bodies exist for defeaters too: overruled needs them
        em.emit(DClause(em.body_atom(r, FLAVOR_LAM),
                        tuple(em.lit_atom(TAG_LAMBDA, b) for b in r.body)), r.label, "C21")
    for r in sd:  # d-bodies of defeaters are never referenced
        em.emit(DClause(em.body_atom(r, FLAVOR_D),
                        tuple(em.lit_atom(TAG_DEFEASIBLY, b) for b in r.body)), r.label, "C22")
    for s in theory.rules:
        em.emit(DClause(em.lit_atom(TAG_OVERRULED, s.head.complement()),
                        (em.body_atom(s, FLAVOR_LAM),),
                        (em.lit_atom(TAG_DEFEATED, s.head, extra=(em.label(s),)),)),
                s.label, "C23")
    for sup, inf in _consumed_superiority(theory):
        em.emit(DClause(em.lit_atom(TAG_DEFEATED, sup.head.complement(), extra=(em.label(inf),)),
                        (em.body_atom(sup, FLAVOR_D),)),
                f"{sup.label} > {inf.label}", "C24")
    return CompilationOutput(
        program=em.program(),
        provenance=tuple(em.provenance),
        mode=TEAM,
        theory=theory,
        predicate_info=em.predicate_info,
        floor_names=frozenset(name for name, mp in em.predicate_info.items() if mp.is_floor),
        defeasibly_names=frozenset(name for name, mp in em.predicate_info.items()
                                   if mp.base == TAG_DEFEASIBLY),
        constants=frozenset(theory.constants()),
    )


def compile_individual(theory: DefeasibleTheory, team=None) -> CompilationOutput:
    """Compile for the individual-defeat consequence relation; the result
    is stratified for every theory.  It is spliced from ``team``, an output
    compiled from this theory (another theory's raises RuntimeError), or
    else from ``compile_team(theory)``: every clause and record is taken
    but C20's block, replaced by C25's, and the defeat tail."""
    team = team or compile_team(theory)
    if team.theory is not theory and team.theory != theory:
        raise RuntimeError("the given output is not this theory's shared compilation")
    sd = [r for r in theory.rules if r.is_strict_or_defeasible]
    strict = sum(r.kind is RuleKind.STRICT for r in theory.rules)
    c20 = 3 * len(theory.facts) + 4 * strict + len(sd)  # where C20's block begins
    defenders: dict[tuple[str, bool], list[Rule]] = {}  # by head, which C25 overrules
    for r in sd:
        defenders.setdefault((r.head.predicate, r.head.negated), []).append(r)
    info = {  # the taken clauses' predicates, in the order they were met
        name: mp for name, mp in team.predicate_info.items()
        if mp.base not in (TAG_DEFEATED, TAG_DEFEATS)
        and (mp.base != TAG_OVERRULED or (mp.source_predicate, mp.negated) in defenders)}
    # C25's first atom of each overruled predicate sets its arity again.
    em = _Emitter(info, {name: team.program.predicates[name] for name in info})
    em.take(team, 0, c20)  # the facts' units and C15-C19
    for r in sd:  # individual defeat overrules a conclusion per defending rule
        em.emit(DClause(em.lit_atom(TAG_DEFEASIBLY, r.head), (em.body_atom(r, FLAVOR_D),),
                        (em.lit_atom(TAG_DEFINITELY, r.head.complement()),
                         em.lit_atom(TAG_OVERRULED, r.head, extra=(em.label(r),)))),
                r.label, "C25")
    em.take(team, c20 + len(sd), c20 + 2 * len(sd) + len(theory.rules))  # C21 and C22
    for s in theory.rules:
        defended = s.head.complement()
        for r in defenders.get((defended.predicate, defended.negated), ()):
            em.emit(DClause(em.lit_atom(TAG_OVERRULED, defended, extra=(em.label(r),)),
                            (em.body_atom(s, FLAVOR_LAM),),
                            (em.atom((TAG_DEFEATS, s.head.predicate, s.head.negated),
                                     (em.label(r), em.label(s))),)),
                    f"{r.label} | {s.label}", "C26")
    for sup, inf in _consumed_superiority(theory):
        em.emit(DClause(em.atom((TAG_DEFEATS, inf.head.predicate, inf.head.negated),
                                (em.label(sup), em.label(inf)))),
                f"{sup.label} > {inf.label}", "C24")
    return replace(team, program=em.program(), provenance=tuple(em.provenance),
                   mode=INDIVIDUAL, theory=theory, predicate_info=em.predicate_info)


def emit_datalog_text(out: CompilationOutput) -> str:
    """Textual program, one clause per line, with provenance comments."""
    lines = [
        f"{clause} % {info.schema} {info.source}"
        for clause, info in zip(out.program.clauses, out.provenance)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def compiled_size(out: CompilationOutput) -> int:
    """Symbol count under the same counting rule as :func:`theory_size`:
    every predicate and term occurrence, plus one marker per clause."""
    total = 0
    for clause in out.program.clauses:
        total += 1
        for atom in clause.atoms():
            total += 1 + len(atom.args)
    return total


def read_conclusions(out: CompilationOutput, true_atoms,
                     tags=CONCLUSION_TAGS) -> dict[str, frozenset[Literal]]:
    """Map true compiled atoms back to tagged source literals.

    ``true_atoms`` iterates (predicate, args) pairs; the result has exactly
    the keys ``tags``, in that order, and an atom of any other predicate is
    skipped.  The source predicate names come from a validated theory, so
    atoms are built unchecked; each constant becomes one name-checked term.
    """
    sets: dict[str, set[Literal]] = {tag: set() for tag in tags}
    terms: dict[str, Term] = {}  # one name-checked term per distinct constant
    for pred, args in true_atoms:
        mp = out.predicate_info.get(pred)
        if mp is None or mp.base not in sets:
            continue
        for name in args:
            if name not in terms:
                terms[name] = Term(name)
        lit = Literal(Atom.unchecked(mp.source_predicate, tuple(map(terms.__getitem__, args))),
                      mp.negated)
        sets[mp.base].add(lit)
    return {tag: frozenset(lits) for tag, lits in sets.items()}
