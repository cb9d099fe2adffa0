"""The graph routines behind every structural analysis.

A graph is a mapping from a node to its successors.  ``_tarjan_sccs``
finds the strongly connected components; ``levels`` places them on the
least levels their edges allow (stratification, hierarchy) and lists the
edges inside them; and ``two_colouring`` signs nodes so that every edge's
sign bits hold (signings, call-consistency).  Nothing here knows about
theories or programs.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Optional


def _tarjan_sccs(nodes: Iterable[Hashable], successors: Mapping) -> list[list]:
    """SCCs in reverse topological order (components before their dependents).

    Iterative Tarjan over ``nodes`` in the given order; ``successors`` maps
    a node to the nodes it depends on, and a node missing from it has none.
    """
    index: dict = {}
    low: dict = {}  # a node of a finished component is never lower than another
    stack: list = []
    sccs: list[list] = []
    finished = float("inf")

    for root in nodes:
        if root in index:
            continue
        low[root] = index[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors.get(root, ())), 0)]  # the stack is empty between roots
        while work:
            node, succs, at = work[-1]
            for nxt in succs:  # resumes where the node's last visit stopped
                if nxt not in index:
                    low[nxt] = index[nxt] = len(index)
                    work.append((nxt, iter(successors.get(nxt, ())), len(stack)))
                    stack.append(nxt)
                    break
                if low[nxt] < low[node]:
                    low[node] = low[nxt]
            else:
                work.pop()
                if low[node] == index[node]:  # pop the component, its last node first
                    comp = []
                    while len(stack) > at:
                        member = stack.pop()
                        low[member] = finished
                        comp.append(member)
                    sccs.append(comp)
                elif low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
    return sccs


def levels(components: Iterable[list], steps: Mapping) -> tuple[Optional[dict], list]:
    """The least levels with ``level(p) >= level(q) + step`` for every edge,
    or None when an edge of step 1 lies inside a strongly connected component,
    and the ``(p, q, value)`` edges inside a component, found in one sweep.

    ``steps`` maps a node ``p`` to a mapping from each ``q`` it depends on to
    a value whose low bit is the step; ``components`` are their strongly
    connected components as ``_tarjan_sccs`` lists them, and the levels cover
    those nodes, one level per component.
    """
    level: dict = {}
    inside: list = []
    # Components come dependencies first, so a successor without a level
    # yet lies in the component at hand.
    for comp in components:
        best = 0
        for p in comp:
            for q, value in steps.get(p, {}).items():
                if q not in level:
                    inside.append((p, q, value))
                elif level[q] + (value & 1) > best:
                    best = level[q] + (value & 1)
        level.update(dict.fromkeys(comp, best))
    return (None if any(value & 1 for _, _, value in inside) else level), inside


def two_colouring(nodes: Iterable[Hashable], edges: Iterable[tuple]) -> Optional[dict]:
    """A {-1, +1} labelling with ``s(p) == -s(q)`` for every edge ``(p, q, bits)``
    between ``nodes`` whose low bit is set and ``s(p) == s(q)`` for the others,
    or None on a parity conflict, such as an edge with both of its two bits set.

    Edges are followed in both directions.  The first node of each connected
    component, in the order of ``nodes``, gets +1, so the labelling is unique.
    """
    undirected: dict = {node: [] for node in nodes}
    for p, q, bits in edges:
        if bits == 3:
            return None
        sign = -1 if bits & 1 else +1
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
