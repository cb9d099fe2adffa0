"""Datalog-with-negation IR and its structural analyses.

Clauses are ``head :- pos..., not neg...`` over constants and variables
only.  The analyses here are the predicate-level ones the backend
selection depends on: the signed dependency graph, stratification,
call-consistency (no odd negative self-dependence) and signings of a
predicate set, each a routine of ``defeasidl.graph``, and safety.  Per
program, one adjacency is built from the clauses, condensed once and swept
once, and every analysis reads that pass (``DependencyGraph``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Optional

from .graph import _tarjan_sccs, levels, two_colouring
from .parser import ParseError, parse_clauses
from .theory import Atom


class DatalogSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, order=True)
class DClause:
    """``head :- positive..., not negative...`` (a unit clause if both empty);
    ``ground`` and ``safe`` are read from its variables once, on construction."""

    head: Atom
    positive: tuple[Atom, ...] = ()
    negative: tuple[Atom, ...] = ()

    def __post_init__(self):  # ground: no variable; safe: the positive atoms bind all of them
        bound = {t.name for a in self.positive for t in a.args if t.is_variable}
        free = {t.name for a in (self.head, *self.negative) for t in a.args if t.is_variable}
        object.__setattr__(self, "ground", not bound and not free)
        object.__setattr__(self, "safe", free <= bound)

    def atoms(self) -> Iterable[Atom]:
        yield self.head
        yield from self.positive
        yield from self.negative

    def __str__(self) -> str:
        if not self.positive and not self.negative:
            return f"{self.head}."
        body = [str(a) for a in self.positive] + [f"not {a}" for a in self.negative]
        return f"{self.head} :- {', '.join(body)}."


@dataclass(frozen=True)
class DatalogProgram:
    clauses: tuple[DClause, ...] = ()
    arities: InitVar[Optional[dict[str, int]]] = None  # the compiler's table

    def __post_init__(self, arities):
        if arities is not None:  # fixed per mangled predicate, so not re-derived
            self.__dict__["predicates"] = arities
        self.predicates  # otherwise force the arity-consistency check

    @cached_property
    def predicates(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for clause in self.clauses:
            for atom in clause.atoms():
                arity = table.setdefault(atom.predicate, atom.arity)
                if arity != atom.arity:
                    raise ValueError(
                        f"predicate {atom.predicate!r} used with arities {arity} and {atom.arity}"
                    )
        return table

    def constants(self) -> set[str]:
        return {
            t.name
            for clause in self.clauses
            for atom in clause.atoms()
            for t in atom.args
            if not t.is_variable
        }

    @cached_property
    def _graph(self) -> "DependencyGraph":
        graph = DependencyGraph(self.predicates, ())
        for c in self.clauses:  # the edges of each clause, positive then negative
            out = graph.adjacency[c.head.predicate]
            for a in c.positive:
                out[a.predicate] = out.get(a.predicate, 0) | POSITIVE
            for a in c.negative:
                out[a.predicate] = out.get(a.predicate, 0) | NEGATIVE
        return graph

    @cached_property
    def _safe(self) -> bool:
        return all(c.safe for c in self.clauses)

    def __str__(self) -> str:
        return print_datalog(self)


# An edge's sign bits; NEGATIVE, the low bit, is the step ``levels`` reads.
NEGATIVE, POSITIVE = 1, 2


class DependencyGraph:
    """Head-to-body dependencies ``(p, q, NEGATIVE | POSITIVE)``, held as one
    adjacency, predicate -> successor -> the sign bits of its edges."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[tuple[str, str, int]]):
        self.adjacency: dict[str, dict[str, int]] = {p: {} for p in nodes}
        for p, q, bits in edges:
            out = self.adjacency[p]
            out[q] = out.get(q, 0) | bits

    @cached_property
    def components(self) -> list[list[str]]:
        """The strongly connected components, dependencies first, found once."""
        return _tarjan_sccs(self.adjacency, self.adjacency)

    @cached_property
    def _sweep(self) -> tuple[Optional[dict[str, int]], list[tuple[str, str, int]]]:
        """The least strata (None on a negative edge inside a component) and
        the edges inside one, with their sign bits, in one pass."""
        return levels(self.components, self.adjacency)

    @property
    def inside(self) -> list[tuple[str, str, int]]:
        """The edges between two predicates of one component, with their sign bits."""
        return self._sweep[1]


def dependency_graph(program: DatalogProgram) -> DependencyGraph:
    """The program's graph, built once per program and shared by every
    analysis of it (a program is immutable)."""
    return program._graph


def stratify(program: DatalogProgram) -> Optional[dict[str, int]]:
    """A stratum mapping (heads >= positive bodies, > negative bodies),
    or None iff some strongly connected component contains a negative edge.
    Cached with the program's graph, so callers must not change it."""
    return dependency_graph(program)._sweep[0]


def is_call_consistent(program: DatalogProgram) -> bool:
    """No predicate depends on itself through an odd number of negations.

    Exactly when the edges inside each strongly connected component admit
    a signing: in a component, two paths from a root to a node, each closed
    by one path back, make closed walks, and those split into cycles.
    """
    inside = dependency_graph(program).inside
    ends = dict.fromkeys(n for p, q, _ in inside for n in (p, q))
    return two_colouring(ends, inside) is not None


def compute_signing(program: DatalogProgram, scope: Iterable[str]) -> Optional[dict[str, int]]:
    """The {-1, +1} mapping of ``scope`` under which every edge inside it has
    s(p) = -s(q) if negative and s(p) = s(q) if positive, or None on a parity
    conflict.  The lexicographically least predicate of each connected
    component gets +1, so the mapping is canonical."""
    scope_set = set(scope)
    adjacency = dependency_graph(program).adjacency
    return two_colouring(sorted(scope_set), [(p, q, bits) for p in scope_set
                                              for q, bits in adjacency.get(p, {}).items()
                                              if q in scope_set])


def is_safe(program: DatalogProgram) -> bool:
    """Every clause is ``safe``: a positive body literal binds each head
    variable (range restriction) and each negated one (negation safety).
    Decided once per program."""
    return program._safe


# Parsing and printing of the ".dl" text form.

def print_datalog(program: DatalogProgram) -> str:
    return "\n".join(str(c) for c in program.clauses) + ("\n" if program.clauses else "")


def parse_datalog(text: str) -> DatalogProgram:
    """Parse ``.dl`` text through the ``.dfl`` lexer and atom grammar;
    rejects function symbols and arity conflicts by raising the first error
    as a :class:`DatalogSyntaxError`."""
    parsed = parse_clauses(text)
    if isinstance(parsed, ParseError):
        where = parsed.location
        raise DatalogSyntaxError(
            f"expected {parsed.expected}, found {parsed.found}", where.line, where.column
        )
    return DatalogProgram(tuple(DClause(*clause) for clause in parsed))
