"""Reference structural analyses, kept as test cross-checks.

``defeasidl.graph`` answers every structural question through one SCC
routine.  These answer the same questions another way:
``has_negative_edge_in_scc`` is the other characterisation of
non-stratifiability, ``reference_strata`` relaxes every edge until the
levels settle, ``reference_call_consistent`` searches the
parity-annotated product graph for an odd closed walk, and
``reference_levels`` is a depth-first longest-path labelling that fails on
any cycle (the hierarchy checks).  ``restrict_to`` builds the subprogram
a predicate set heads, such as a compiled program's stratified floor.
"""

from __future__ import annotations

from typing import Iterable, Optional

from defeasidl.datalog import DatalogProgram, dependency_graph
from defeasidl.graph import _tarjan_sccs


def restrict_to(program: DatalogProgram, predicates: Iterable[str]) -> DatalogProgram:
    """The clauses of ``program`` whose head predicate is in ``predicates``."""
    wanted = set(predicates)
    return DatalogProgram(tuple(c for c in program.clauses if c.head.predicate in wanted))


def has_negative_edge_in_scc(program: DatalogProgram) -> bool:
    """The other characterisation of non-stratifiability."""
    graph = dependency_graph(program)
    successors = {p: [q for q, _ in succs] for p, succs in graph.successors.items()}
    comp_of = {n: i for i, comp in enumerate(_tarjan_sccs(graph.nodes, successors)) for n in comp}
    return any(sign < 0 and comp_of[p] == comp_of[q] for p, q, sign in graph.edges)


def reference_strata(program: DatalogProgram) -> Optional[dict[str, int]]:
    """The least stratification, by raising heads over their bodies until
    nothing moves.  Least levels stay below the number of predicates, so a
    level reaching it means a negative edge on a cycle: None."""
    graph = dependency_graph(program)
    level = dict.fromkeys(graph.nodes, 0)
    changed = True
    while changed:
        changed = False
        for p, q, sign in graph.edges:
            want = level[q] + (1 if sign < 0 else 0)
            if want > level[p]:
                if want >= len(graph.nodes):
                    return None
                level[p] = want
                changed = True
    return level


def reference_call_consistent(program: DatalogProgram) -> bool:
    """No predicate reaches itself with odd parity in the product of the
    dependency graph with {even, odd}."""
    graph = dependency_graph(program)
    for start in graph.nodes:
        seen = {(start, +1)}
        frontier = [(start, +1)]
        while frontier:
            node, parity = frontier.pop()
            for succ, sign in graph.successors[node]:
                state = (succ, parity * sign)
                if state not in seen:
                    if state == (start, -1):
                        return False
                    seen.add(state)
                    frontier.append(state)
    return True


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
