"""Datalog-with-negation IR and its structural analyses.

Clauses are ``head :- pos..., not neg...`` over constants and variables
only.  The analyses here are the predicate-level ones the backend
selection depends on: the signed dependency graph, stratification,
call-consistency (no odd negative self-dependence) and signings of a
predicate set, each a routine of ``defeasidl.graph``, and safety.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .graph import _tarjan_sccs, levels, two_colouring
from .theory import Atom, Term


class DatalogSyntaxError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True, order=True)
class DClause:
    """``head :- positive..., not negative...`` (a unit clause if both empty)."""

    head: Atom
    positive: tuple[Atom, ...] = ()
    negative: tuple[Atom, ...] = ()

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

    def __post_init__(self):
        self.predicates  # force the arity-consistency check

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
        edges = set()
        for clause in self.clauses:
            head = clause.head.predicate
            edges.update((head, a.predicate, +1) for a in clause.positive)
            edges.update((head, a.predicate, -1) for a in clause.negative)
        return DependencyGraph(frozenset(self.predicates), frozenset(edges))

    @cached_property
    def _safe(self) -> bool:
        return all(
            _clause_vars([c.head, *c.negative]) <= _clause_vars(c.positive) for c in self.clauses
        )

    def restrict_to(self, predicates: Iterable[str]) -> "DatalogProgram":
        wanted = set(predicates)
        return DatalogProgram(tuple(c for c in self.clauses if c.head.predicate in wanted))

    def __str__(self) -> str:
        return print_datalog(self)


@dataclass(frozen=True)
class DependencyGraph:
    """Signed head-to-body dependencies: (p, q, +1) / (p, q, -1)."""

    nodes: frozenset[str]
    edges: frozenset[tuple[str, str, int]]

    @cached_property
    def successors(self) -> dict[str, list[tuple[str, int]]]:
        adj: dict[str, list[tuple[str, int]]] = {n: [] for n in self.nodes}
        for p, q, sign in sorted(self.edges):
            adj[p].append((q, sign))
        return adj


def dependency_graph(program: DatalogProgram) -> DependencyGraph:
    """The program's graph, built once per program and shared by every
    analysis of it (a program is immutable)."""
    return program._graph


def stratify(program: DatalogProgram) -> Optional[dict[str, int]]:
    """A stratum mapping (heads >= positive bodies, > negative bodies),
    or None iff some strongly connected component contains a negative edge."""
    graph = dependency_graph(program)
    steps = {p: [(q, int(sign < 0)) for q, sign in succs] for p, succs in graph.successors.items()}
    return levels(graph.nodes, steps)


def is_call_consistent(program: DatalogProgram) -> bool:
    """No predicate depends on itself through an odd number of negations.

    Exactly when the edges inside each strongly connected component admit
    a signing: in a component, two paths from a root to a node, each closed
    by one path back, make closed walks, and those split into cycles.
    """
    graph = dependency_graph(program)
    successors = {p: [q for q, _ in succs] for p, succs in graph.successors.items()}
    comp_of = {n: i for i, comp in enumerate(_tarjan_sccs(graph.nodes, successors)) for n in comp}
    inside = [(p, q, sign) for p, q, sign in graph.edges if comp_of[p] == comp_of[q]]
    return two_colouring(graph.nodes, inside) is not None


@dataclass(frozen=True)
class Signing:
    """A parity-consistent {-1, +1} labelling of a predicate set."""

    mapping: dict[str, int]
    scope: frozenset[str]

    def sign(self, predicate: str) -> int:
        return self.mapping[predicate]


def compute_signing(program: DatalogProgram, scope: Iterable[str]) -> Optional[Signing]:
    """2-colour the dependency subgraph restricted to ``scope`` so that every
    edge (p, q, i) inside the scope satisfies s(p) = s(q) * i, or None on a
    parity conflict.  Each connected component is canonicalised by giving
    its lexicographically least predicate the sign +1."""
    scope_set = frozenset(scope)
    graph = dependency_graph(program)
    inside = [(p, q, sign) for p, q, sign in graph.edges if p in scope_set and q in scope_set]
    mapping = two_colouring(sorted(scope_set), inside)
    return None if mapping is None else Signing(mapping, scope_set)


def _clause_vars(atoms: Iterable[Atom]) -> set[str]:
    return {t.name for a in atoms for t in a.args if t.is_variable}


def is_safe(program: DatalogProgram) -> bool:
    """Every clause variable is bound by a positive body literal: head
    variables (range restriction) and negated ones (negation safety).
    Decided once per program."""
    return program._safe


# Parsing and printing of the ".dl" text form.

def print_datalog(program: DatalogProgram) -> str:
    return "\n".join(str(c) for c in program.clauses) + ("\n" if program.clauses else "")


def parse_datalog(text: str) -> DatalogProgram:
    """Parse Datalog text; rejects function symbols and arity conflicts."""
    clauses: list[DClause] = []
    arities: dict[str, int] = {}
    pending = ""
    pending_start = 1
    line_no = 1
    in_comment = False
    for ch in text:
        if ch == "\n":
            line_no += 1
            in_comment = False
            ch = " "
        if in_comment:
            continue
        if ch == "%":
            in_comment = True
            continue
        if ch == ".":
            if not pending.strip():
                raise DatalogSyntaxError("clause expected before '.'", line_no, 1)
            clauses.append(_parse_clause(pending, pending_start, arities))
            pending = ""
            pending_start = line_no
            continue
        if not pending.strip() and not ch.isspace():
            pending_start = line_no
        pending += ch
    if pending.strip():
        raise DatalogSyntaxError("unterminated clause (missing '.')", pending_start, 1)
    return DatalogProgram(tuple(clauses))


def _parse_clause(text: str, line: int, arities: dict[str, int]) -> DClause:
    head_text, sep, body_text = text.partition(":-")
    head = _parse_atom(head_text.strip(), line, arities)
    positive: list[Atom] = []
    negative: list[Atom] = []
    if sep:
        for part in _split_body(body_text, line):
            part = part.strip()
            if not part:
                raise DatalogSyntaxError("empty body literal", line, 1)
            if part.startswith("not ") or part.startswith("not\t"):
                negative.append(_parse_atom(part[4:].strip(), line, arities))
            else:
                positive.append(_parse_atom(part, line, arities))
    return DClause(head, tuple(positive), tuple(negative))


def _split_body(body: str, line: int) -> list[str]:
    parts = []
    depth = 0
    current = ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise DatalogSyntaxError("unbalanced ')'", line, 1)
        if ch == "," and depth == 0:
            parts.append(current)
            current = ""
        else:
            current += ch
    if depth != 0:
        raise DatalogSyntaxError("unbalanced '('", line, 1)
    parts.append(current)
    return parts


def _is_name(token: str) -> bool:
    return bool(token) and all(c.isalnum() or c == "_" for c in token) and not token[0] == "_"


def _parse_atom(text: str, line: int, arities: dict[str, int]) -> Atom:
    text = text.strip()
    if "(" not in text:
        if not _is_name(text) or text[0].isupper() or text[0].isdigit():
            raise DatalogSyntaxError(f"malformed atom {text!r}", line, 1)
        atom = Atom(text, ())
    else:
        name, _, rest = text.partition("(")
        name = name.strip()
        if not _is_name(name) or name[0].isupper() or name[0].isdigit():
            raise DatalogSyntaxError(f"malformed predicate {name!r}", line, 1)
        if not rest.endswith(")"):
            raise DatalogSyntaxError(f"missing ')' in {text!r}", line, 1)
        inner = rest[:-1]
        if "(" in inner or ")" in inner:
            raise DatalogSyntaxError(f"function symbol in {text!r}", line, 1)
        args = []
        for tok in inner.split(","):
            tok = tok.strip()
            if not _is_name(tok):
                raise DatalogSyntaxError(f"malformed term {tok!r}", line, 1)
            args.append(Term(tok))
        atom = Atom(name, tuple(args))
    known = arities.setdefault(atom.predicate, atom.arity)
    if known != atom.arity:
        raise DatalogSyntaxError(
            f"predicate {atom.predicate!r} used with arities {known} and {atom.arity}", line, 1
        )
    return atom
