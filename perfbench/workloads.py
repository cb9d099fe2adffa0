"""Seeded inputs and closed-form reference verdicts of the solve workloads.

Nothing here imports ``defeasidl``: the references are computed from the
graphs and chains directly, so they cannot inherit a defect of the
compiled pipeline.  ``test_reference.py`` checks them against the oracle.

A reference is a pair ``(delta, defeasible)`` of sets of literal strings
in the format ``defeasidl solve`` prints: the ``+Delta`` lines and the
``+dpar`` (or ``+dpar*``) lines.  On both workloads team and individual
defeat give the same conclusions.
"""

from __future__ import annotations

import random

REACH_RULES = (
    "r1: edge(X,Y) => path(X,Y).\n"
    "r2: path(X,Z), edge(Z,Y) => path(X,Y).\n"
    "r3: edge(X,Y) => neg path(Y,X).\n"
    "r1 > r3.\n"
    "r2 > r3.\n"
)

SUCC_RULES = (
    "r1: p(X), succ(X,Y) => p(Y).\n"
    "r2: succ(X,Y) => neg p(Y).\n"
    "r1 > r2.\n"
)


def random_digraph(rng: random.Random, n: int) -> list[tuple[str, str]]:
    """``n`` distinct edges without self-loops over the nodes ``n0 .. n{n-1}``."""
    nodes = [f"n{i}" for i in range(n)]
    edges: set[tuple[str, str]] = set()
    while len(edges) < n:
        a, b = rng.sample(nodes, 2)
        edges.add((a, b))
    return sorted(edges)


def transitive_closure(edges) -> set[tuple[str, str]]:
    successors: dict[str, set[str]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    closure = set()
    for start in successors:
        seen: set[str] = set()
        frontier = list(successors[start])
        while frontier:
            node = frontier.pop()
            if node not in seen:
                seen.add(node)
                frontier.extend(successors.get(node, ()))
        closure.update((start, node) for node in seen)
    return closure


def reach_theory(edges) -> str:
    return "".join(f"edge({a}, {b}).\n" for a, b in edges) + REACH_RULES


def reach_reference(edges) -> tuple[frozenset[str], frozenset[str]]:
    """The edge facts, ``path`` over the transitive closure, and ``neg
    path(b, a)`` for each edge ``(a, b)`` whose reverse is not in it."""
    closure = transitive_closure(edges)
    delta = frozenset(f"edge({a}, {b})" for a, b in edges)
    defeasible = (
        delta
        | {f"path({x}, {y})" for x, y in closure}
        | {f"neg path({b}, {a})" for a, b in edges if (b, a) not in closure}
    )
    return delta, frozenset(defeasible)


def chain_names(rng: random.Random, n: int) -> list[str]:
    """``n + 1`` distinct seeded constant names, in chain order."""
    return [f"k{v}" for v in rng.sample(range(10**6), n + 1)]


def succ_theory(names: list[str]) -> str:
    facts = f"p({names[0]}).\n" + "".join(
        f"succ({a}, {b}).\n" for a, b in zip(names, names[1:])
    )
    return facts + SUCC_RULES


def succ_reference(names: list[str]) -> tuple[frozenset[str], frozenset[str]]:
    """The facts, plus ``p`` of every constant on the chain."""
    delta = frozenset(
        [f"p({names[0]})"] + [f"succ({a}, {b})" for a, b in zip(names, names[1:])]
    )
    return delta, delta | {f"p({name})" for name in names}
