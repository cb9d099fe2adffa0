"""The benchmark's closed-form references agree with the oracle.

Run from the repository root with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import random

import pytest

import workloads
from defeasidl.oracle import conclusions
from defeasidl.parser import parse_theory


def oracle_sets(text: str):
    theory = parse_theory(text)
    assert not isinstance(theory, list), theory
    found = conclusions(theory)
    as_text = lambda lits: frozenset(str(lit) for lit in lits)
    return as_text(found.delta), as_text(found.dpar), as_text(found.dpar_star)


@pytest.mark.parametrize("seed", range(6))
def test_reach_reference_matches_oracle(seed):
    edges = workloads.random_digraph(random.Random(seed), 7)
    delta, defeasible = workloads.reach_reference(edges)
    assert oracle_sets(workloads.reach_theory(edges)) == (delta, defeasible, defeasible)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [5, 12])
def test_succ_reference_matches_oracle(seed, n):
    names = workloads.chain_names(random.Random(seed), n)
    delta, defeasible = workloads.succ_reference(names)
    assert oracle_sets(workloads.succ_theory(names)) == (delta, defeasible, defeasible)


def test_reach_reference_has_cycles_and_defeated_rule():
    # A cycle makes some neg path conclusions lose against path; keep at
    # least one seed that exercises both branches of the closed form.
    edges = [("n0", "n1"), ("n1", "n0"), ("n1", "n2")]
    _, defeasible = workloads.reach_reference(edges)
    assert "path(n0, n0)" in defeasible
    assert "neg path(n0, n1)" not in defeasible
    assert "neg path(n2, n1)" in defeasible
    assert oracle_sets(workloads.reach_theory(edges))[1] == defeasible
