"""The graph routines behind every structural analysis.

A graph is a mapping from a node to its successors.  ``_tarjan_sccs``
finds the strongly connected components; ``levels`` places them on the
least levels an edge list allows (stratification, hierarchy); and
``two_colouring`` signs nodes so that every signed edge holds (signings,
call-consistency).  Nothing here knows about theories or programs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional


def _tarjan_sccs(nodes: Iterable[Hashable], successors: Mapping) -> list[list]:
    """SCCs in reverse topological order (components before their dependents).

    Iterative Tarjan over ``nodes`` in the given order; ``successors`` maps
    a node to the nodes it depends on, and a node missing from it has none.
    """
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[list] = []

    def visit(node) -> tuple:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        return node, iter(successors.get(node, ()))

    for root in nodes:
        if root in index:
            continue
        work = [visit(root)]
        while work:
            node, succs = work[-1]
            for nxt in succs:  # resumes where the node's last visit stopped
                if nxt not in index:
                    work.append(visit(nxt))
                    break
                if nxt in on_stack and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        top = stack.pop()
                        on_stack.discard(top)
                        comp.append(top)
                        if top == node:
                            break
                    sccs.append(comp)
    return sccs


def levels(components: Iterable[list], steps: Mapping) -> Optional[dict]:
    """The least levels with ``level(p) >= level(q) + step`` for every edge,
    or None when an edge of step 1 lies inside a strongly connected component.

    ``steps`` maps a node ``p`` to its ``(q, step)`` pairs, each step 0 or 1;
    ``components`` are their strongly connected components as ``_tarjan_sccs``
    lists them, and the result covers those nodes, one level per component.
    """
    level: dict = {}
    # Components come dependencies first, so a successor without a level
    # yet lies in the component at hand.
    for comp in components:
        out = [(q, step) for p in comp for q, step in steps.get(p, ())]
        if any(step and q not in level for q, step in out):
            return None
        best = max((level[q] + step for q, step in out if q in level), default=0)
        level.update(dict.fromkeys(comp, best))
    return level


def two_colouring(nodes: Iterable[Hashable], edges: Iterable[tuple]) -> Optional[dict]:
    """A {-1, +1} labelling with ``s(p) == s(q) * sign`` for every edge
    ``(p, q, sign)`` between ``nodes``, or None on a parity conflict.

    Edges are followed in both directions.  The first node of each connected
    component, in the order of ``nodes``, gets +1, so the labelling is unique.
    """
    undirected: dict = {node: [] for node in nodes}
    for p, q, sign in edges:
        undirected[p].append((q, sign))
        undirected[q].append((p, sign))
    mapping: dict = {}
    for seed in undirected:
        if seed in mapping:
            continue
        mapping[seed] = +1
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for other, sign in undirected[node]:
                expected = mapping[node] * sign
                got = mapping.get(other)
                if got is None:
                    mapping[other] = expected
                    frontier.append(other)
                elif got != expected:
                    return None
    return mapping
