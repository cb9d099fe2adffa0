from defeasidl.graph import _tarjan_sccs, levels, two_colouring


def test_sccs_come_dependencies_first():
    successors = {"a": ["b"], "b": ["c", "a"], "c": []}
    assert [sorted(comp) for comp in _tarjan_sccs("abc", successors)] == [["c"], ["a", "b"]]


def test_levels_are_least_and_shared_by_a_component():
    # a and b form a component over c; d sits one step above both.
    steps = {"a": [("b", 0), ("c", 1)], "b": [("a", 0)], "d": [("a", 1), ("c", 0)]}
    assert levels("abcd", steps) == {"a": 1, "b": 1, "c": 0, "d": 2}


def test_levels_cover_the_nodes_reached():
    assert levels(["p"], {"p": [("q", 1)], "q": [("r", 1)]}) == {"p": 2, "q": 1, "r": 0}


def test_levels_refuse_a_step_inside_a_component():
    assert levels("ab", {"a": [("b", 0)], "b": [("a", 1)]}) is None
    assert levels("a", {"a": [("a", 1)]}) is None
    assert levels("a", {"a": [("a", 0)]}) == {"a": 0}


def test_two_colouring_follows_edges_both_ways():
    mapping = two_colouring("abcd", [("a", "b", -1), ("c", "b", +1)])
    assert mapping == {"a": +1, "b": -1, "c": -1, "d": +1}


def test_two_colouring_detects_a_parity_conflict():
    assert two_colouring("ab", [("a", "b", -1), ("b", "a", +1)]) is None
    assert two_colouring("a", [("a", "a", -1)]) is None
