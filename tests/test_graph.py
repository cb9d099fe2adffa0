import random

from defeasidl.graph import _tarjan_sccs, levels, two_colouring


def test_sccs_come_dependencies_first():
    successors = {"a": ["b"], "b": ["c", "a"], "c": []}
    assert [sorted(comp) for comp in _tarjan_sccs("abc", successors)] == [["c"], ["a", "b"]]


def random_graph(rng: random.Random):
    """Nodes, and successors over them and over up to three nodes outside
    them, with self-loops; some nodes have no entry in the successors."""
    size = rng.randint(1, 12)
    nodes = rng.sample(range(size), size)
    universe = range(size + rng.randint(0, 3))
    density = rng.choice((0.05, 0.15, 0.3))
    successors = {}
    for p in universe:
        if rng.random() < 0.2:
            continue  # no entry: a node without successors
        successors[p] = [q for q in universe if rng.random() < density]
        rng.shuffle(successors[p])
    return nodes, successors


def reachable(start, successors) -> set:
    seen, todo = {start}, [start]
    while todo:
        for q in successors.get(todo.pop(), ()):
            if q not in seen:
                seen.add(q)
                todo.append(q)
    return seen


def test_sccs_are_the_mutual_reachability_classes_in_dependency_order():
    rng = random.Random(20261020)
    shapes = set()
    for _ in range(300):
        nodes, successors = random_graph(rng)
        sccs = _tarjan_sccs(nodes, successors)
        # Every node reached from ``nodes`` lies in exactly one component.
        reached = set().union(*(reachable(p, successors) for p in nodes))
        listed = [n for comp in sccs for n in comp]
        assert sorted(listed) == sorted(reached)
        reach = {p: reachable(p, successors) for p in reached}
        assert {frozenset(comp) for comp in sccs} == {
            frozenset(q for q in reach[p] if p in reach[q]) for p in reached}
        # An edge's target is listed no later than its source.
        position = {n: i for i, comp in enumerate(sccs) for n in comp}
        for p in reached:
            for q in successors.get(p, ()):
                assert position[q] <= position[p], (nodes, successors)
        shapes.update((len(comp) > 1, any(p in successors.get(p, ()) for p in comp))
                      for comp in sccs)
        shapes.add(("outside", bool(reached - set(nodes))))
        shapes.add(("no entry", any(p not in successors for p in reached)))
    # One-node components with and without a self-loop, larger ones, nodes
    # reached outside ``nodes`` and nodes without an entry all occurred.
    assert {(False, False), (False, True), (True, True), ("outside", True),
            ("no entry", True)} <= shapes


def condensed(nodes, steps):
    """The components ``levels`` takes: those of the edges in ``steps``."""
    return _tarjan_sccs(nodes, steps)


def test_levels_are_least_and_shared_by_a_component():
    # a and b form a component over c; d sits one step above both.
    steps = {"a": {"b": 0, "c": 1}, "b": {"a": 0}, "d": {"a": 1, "c": 0}}
    got, inside = levels(condensed("abcd", steps), steps)
    assert got == {"a": 1, "b": 1, "c": 0, "d": 2}
    assert sorted(inside) == [("a", "b", 0), ("b", "a", 0)]


def test_levels_cover_the_nodes_reached():
    steps = {"p": {"q": 1}, "q": {"r": 1}}
    assert levels(condensed(["p"], steps), steps) == ({"p": 2, "q": 1, "r": 0}, [])


def test_levels_refuse_a_step_inside_a_component():
    # A value's low bit is its step; the inside edges are listed either way.
    for nodes, steps, want, inside in (
        ("ab", {"a": {"b": 0}, "b": {"a": 1}}, None, [("a", "b", 0), ("b", "a", 1)]),
        ("ab", {"a": {"b": 2}, "b": {"a": 3}}, None, [("a", "b", 2), ("b", "a", 3)]),
        ("a", {"a": {"a": 1}}, None, [("a", "a", 1)]),
        ("a", {"a": {"a": 0}}, {"a": 0}, [("a", "a", 0)]),
        ("a", {"a": {"a": 2}}, {"a": 0}, [("a", "a", 2)]),
    ):
        got = levels(condensed(nodes, steps), steps)
        assert (got[0], sorted(got[1])) == (want, inside)


def test_two_colouring_follows_edges_both_ways():
    # An edge's value is its sign bits: 1 negative, 2 positive.
    mapping = two_colouring("abcd", [("a", "b", 1), ("c", "b", 2)])
    assert mapping == {"a": +1, "b": -1, "c": -1, "d": +1}


def test_two_colouring_detects_a_parity_conflict():
    assert two_colouring("ab", [("a", "b", 1), ("b", "a", 2)]) is None
    assert two_colouring("a", [("a", "a", 1)]) is None
    assert two_colouring("ab", [("a", "b", 3)]) is None
    assert two_colouring("a", [("a", "a", 2)]) == {"a": +1}
