"""Reference structural analyses, kept as test cross-checks.

``defeasidl.graph`` answers every structural question through one SCC
routine.  These answer the same questions another way:
``reference_components`` condenses by mutual reachability, with a plain
depth-first search from each predicate, and ``has_negative_edge_in_scc``
reads it as the other characterisation of non-stratifiability;
``reference_strata`` relaxes every edge until the levels settle,
``reference_call_consistent`` searches the parity-annotated product graph
for an odd closed walk, ``reference_signing`` solves the signing's parity
equations by elimination over GF(2), and ``reference_levels`` is a
depth-first longest-path labelling that fails on any cycle (the hierarchy
checks).  All but the last read the program's edges from its clauses
(``signed_edges``), never from the ``DependencyGraph`` they check.
``restrict_to`` builds the subprogram a predicate set heads, such as a
compiled program's stratified floor.
"""

from __future__ import annotations

from typing import Iterable, Optional

from defeasidl.datalog import DatalogProgram


def restrict_to(program: DatalogProgram, predicates: Iterable[str]) -> DatalogProgram:
    """The clauses of ``program`` whose head predicate is in ``predicates``."""
    wanted = set(predicates)
    return DatalogProgram(tuple(c for c in program.clauses if c.head.predicate in wanted))


def signed_edges(program: DatalogProgram) -> set[tuple[str, str, int]]:
    """The ``(head, body, sign)`` predicate edges, read from the clauses."""
    return {(c.head.predicate, a.predicate, sign) for c in program.clauses
            for atoms, sign in ((c.positive, +1), (c.negative, -1)) for a in atoms}


def reference_components(program: DatalogProgram):
    """The strongly connected components, as a set of frozensets, and the
    set of edges inside one, by mutual reachability: a plain depth-first
    search from each predicate over the clauses' edges."""
    edges = signed_edges(program)
    succs: dict[str, set[str]] = {p: set() for p in program.predicates}
    for p, q, _ in edges:
        succs[p].add(q)
    reach = {}
    for start in succs:
        seen, todo = {start}, [start]
        while todo:
            for q in succs[todo.pop()] - seen:
                seen.add(q)
                todo.append(q)
        reach[start] = seen
    components = {frozenset(q for q in reach[p] if p in reach[q]) for p in succs}
    return components, {(p, q, sign) for p, q, sign in edges if p in reach[q]}


def has_negative_edge_in_scc(program: DatalogProgram) -> bool:
    """The other characterisation of non-stratifiability."""
    return any(sign < 0 for _, _, sign in reference_components(program)[1])


def reference_strata(program: DatalogProgram) -> Optional[dict[str, int]]:
    """The least stratification, by raising heads over their bodies until
    nothing moves.  Least levels stay below the number of predicates, so a
    level reaching it means a negative edge on a cycle: None."""
    edges = signed_edges(program)
    level = dict.fromkeys(program.predicates, 0)
    changed = True
    while changed:
        changed = False
        for p, q, sign in edges:
            want = level[q] + (1 if sign < 0 else 0)
            if want > level[p]:
                if want >= len(level):
                    return None
                level[p] = want
                changed = True
    return level


def reference_call_consistent(program: DatalogProgram) -> bool:
    """No predicate reaches itself with odd parity in the product of the
    dependency graph with {even, odd}."""
    succs: dict[str, list[tuple[str, int]]] = {p: [] for p in program.predicates}
    for p, q, sign in signed_edges(program):
        succs[p].append((q, sign))
    for start in succs:
        seen = {(start, +1)}
        frontier = [(start, +1)]
        while frontier:
            node, parity = frontier.pop()
            for succ, sign in succs[node]:
                state = (succ, parity * sign)
                if state not in seen:
                    if state == (start, -1):
                        return False
                    seen.add(state)
                    frontier.append(state)
    return True


def reference_signing(program: DatalogProgram, scope: Iterable[str]) -> Optional[dict[str, int]]:
    """``compute_signing``'s mapping, or None, by elimination over GF(2).

    Each clause edge ``(p, q, sign)`` inside ``scope`` is the equation
    ``x_p + x_q = [sign < 0]``, where x = 1 stands for -1.  The columns run from
    the greatest predicate to the least, so the pivots of a row-echelon basis
    are the earliest independent columns, and the free one of each connected
    component is its least predicate; setting it to 0 gives that predicate
    +1, as the canonical signing does.
    """
    names = sorted(set(scope), reverse=True)
    column = {name: 1 << i for i, name in enumerate(names)}
    basis: dict[int, tuple[int, int]] = {}  # lowest bit -> (row, right-hand side)
    for p, q, sign in signed_edges(program):
        if p not in column or q not in column:
            continue
        row, rhs = column[p] ^ column[q], int(sign < 0)
        while row:
            low = row & -row
            if low not in basis:
                basis[low] = (row, rhs)
                break
            row, rhs = row ^ basis[low][0], rhs ^ basis[low][1]
        else:
            if rhs:
                return None
    value = dict.fromkeys(column.values(), 0)
    for low in sorted(basis, reverse=True):  # a row's other bits are higher columns
        row, rhs = basis[low]
        for bit in column.values():
            if bit != low and row & bit:
                rhs ^= value[bit]
        value[low] = rhs
    return {name: -1 if value[bit] else +1 for name, bit in column.items()}


def reference_levels(nodes: Iterable[str], edges: dict[str, set[str]]) -> Optional[dict[str, int]]:
    """Longest-path levels with every edge strictly decreasing, or None on a cycle."""
    levels: dict[str, int] = {}
    DOING = -1

    def visit(start: str) -> bool:
        stack = [(start, iter(sorted(edges.get(start, ()))))]
        levels[start] = DOING
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                got = levels.get(succ)
                if got == DOING:
                    return False
                if got is None:
                    levels[succ] = DOING
                    stack.append((succ, iter(sorted(edges.get(succ, ())))))
                    advanced = True
                    break
            if not advanced:
                succs = edges.get(node, ())
                levels[node] = 1 + max((levels[s] for s in succs), default=-1)
                stack.pop()
        return True

    for node in sorted(nodes):
        if node not in levels and not visit(node):
            return None
    return levels
