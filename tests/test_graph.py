from defeasidl.graph import _tarjan_sccs, levels, two_colouring


def test_sccs_come_dependencies_first():
    successors = {"a": ["b"], "b": ["c", "a"], "c": []}
    assert [sorted(comp) for comp in _tarjan_sccs("abc", successors)] == [["c"], ["a", "b"]]


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
