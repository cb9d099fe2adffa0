"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 3, 4, 5 and 8
share one seeded corpus (1000 random ground theories, 200 random
range-restricted variable theories, plus fixed adversarial theories); the
differential work for it is timed once.
"""

import io
import random
import time
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass

import pytest

from conftest import failures_in, theory
from defeasidl import generator
from defeasidl.check import CheckResult, check_theory
from defeasidl.cli import main
from defeasidl.compiler import compile_individual, compile_team, compiled_size
from defeasidl.datalog import stratify
from defeasidl.evaluator import eval_fitting, eval_stratified, eval_wellfounded
from defeasidl.oracle import conclusions
from defeasidl.theory import DefeasibleTheory, theory_size
import corpus
from evaluation_reference import information_leq, true_of
from program_generator import random_program

SEED = 20260809
GROUND_THEORIES = 1000
VARIABLE_THEORIES = 200
RANDOM_PROGRAMS = 500


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number} [{title}]: FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {number} [{title}]: PASS")


def solve_lines(*argv) -> list[str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(["--no-timings", "solve", *argv])
    assert code == 0, buffer.getvalue()
    return [line for line in buffer.getvalue().splitlines() if not line.startswith("#")]


def tagged_sets(lines) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for line in lines:
        tag, _, rest = line.partition(" ")
        out.setdefault(tag, set()).add(rest)
    return out


@dataclass
class Corpus:
    results: list[CheckResult]
    skipped: int
    elapsed: float


FIXED_ADVERSARIAL = [
    "tweety",
    "platypus",
    "nonstrat",
    "selfloop",
    "worked_pair",
    "chain",
]

NON_RANGE_RESTRICTED = [
    "r: => p(X).",
    "f(a).\nr: q(Y) => p(X, Y).",
]


@pytest.fixture(scope="session")
def acceptance_corpus() -> Corpus:
    theories: list[tuple[str, DefeasibleTheory]] = []
    for name in FIXED_ADVERSARIAL:
        theories.append((name, corpus.load(name)))
    theories.append(("empty", DefeasibleTheory()))
    for i, text in enumerate(NON_RANGE_RESTRICTED):
        theories.append((f"non-rr-{i}", theory(text)))
    rng = random.Random(SEED)
    for i in range(GROUND_THEORIES):
        theories.append((f"ground-{i:04d}", generator.random_ground_theory(rng)))
    for i in range(VARIABLE_THEORIES):
        theories.append((f"variable-{i:04d}", generator.random_variable_theory(rng)))

    start = time.perf_counter()
    results = [check_theory(t, name) for name, t in theories]
    elapsed = time.perf_counter() - start
    skipped = sum(1 for r in results if r.skipped_eval)
    return Corpus(results=results, skipped=skipped, elapsed=elapsed)


def failures(corpus_data: Corpus, *categories: str) -> list[str]:
    found = []
    for result in corpus_data.results:
        for category in categories:
            for failure in failures_in(result, category):
                found.append(f"{result.name}: {failure}")
    return found


def test_criterion_1_tweety_reproduction():
    with criterion(1, "Tweety reproduction"):
        start = time.perf_counter()
        lines = solve_lines(str(corpus.path("tweety")), "--backend", "wf", "--show-lambda")
        elapsed = time.perf_counter() - start
        sets = tagged_sets(lines)
        delta = {"penguin(tweety)", "bird(tweety)", "bird(freddie)", "injured(freddie)"}
        assert sets["+Delta"] == delta
        assert sets["+lambda"] == delta | {"fly(tweety)", "fly(freddie)", "neg fly(tweety)"}
        assert sets["+dpar"] == delta | {"neg fly(tweety)"}
        assert "fly(freddie)" not in sets["+dpar"]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_platypus_team_vs_individual():
    with criterion(2, "Platypus team vs individual defeat"):
        start = time.perf_counter()
        team = tagged_sets(solve_lines(str(corpus.path("platypus")), "--logic", "dpar"))
        star = tagged_sets(solve_lines(str(corpus.path("platypus")), "--logic", "dpar_star"))
        elapsed = time.perf_counter() - start
        assert "mammal(platypus)" in team["+dpar"]
        assert "mammal(platypus)" not in star.get("+dpar*", set())
        assert "neg mammal(platypus)" not in star.get("+dpar*", set())
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_correctness_differential(acceptance_corpus):
    with criterion(3, "Oracle vs compiled well-founded models"):
        bad = failures(acceptance_corpus, "oracle-team", "oracle-individual", "validation")
        assert bad == [], bad[:10]
        evaluated = len(acceptance_corpus.results) - acceptance_corpus.skipped
        assert evaluated >= GROUND_THEORIES + VARIABLE_THEORIES
        assert acceptance_corpus.elapsed < 60.0, f"took {acceptance_corpus.elapsed:.1f}s"


def test_criterion_4_structural_theorems(acceptance_corpus):
    with criterion(4, "Structural theorems on the corpus"):
        bad = failures(acceptance_corpus, "structural")
        assert bad == [], bad[:10]
        # The safety<->range-restriction equivalence is exercised in both
        # directions: the corpus carries non-range-restricted theories too.
        from defeasidl.datalog import is_safe
        from defeasidl.theory import is_range_restricted

        for text in NON_RANGE_RESTRICTED:
            t = theory(text)
            assert not is_range_restricted(t)
            assert not is_safe(compile_team(t).program)
            assert not is_safe(compile_individual(t).program)


def test_criterion_5_hybrid_equivalence(acceptance_corpus, nonstrat):
    with criterion(5, "Hybrid backend equals well-founded truths"):
        bad = failures(acceptance_corpus, "hybrid", "stratified-backend")
        assert bad == [], bad[:10]
        # The constructed non-stratified instance is explicitly covered.
        out = compile_team(nonstrat)
        assert stratify(out.program) is None
        from defeasidl.evaluator import eval_hybrid

        defeasibly = lambda p: out.predicate_info[p].base == "defeasibly"
        hybrid = true_of(eval_hybrid(out), defeasibly)
        wf = true_of(eval_wellfounded(out.program), defeasibly)
        assert hybrid == wf == {("defeasibly__not__q", ())}


def test_criterion_6_semantics_lattice():
    with criterion(6, "Fitting below well-founded; stratified total and equal"):
        rng = random.Random(SEED + 6)
        stratified_seen = 0
        for _ in range(RANDOM_PROGRAMS):
            program = random_program(rng)
            fitting = eval_fitting(program)
            wf = eval_wellfounded(program)
            assert information_leq(fitting, wf)
            if stratify(program) is not None:
                stratified_seen += 1
                strat = eval_stratified(program)
                assert strat.true_set == wf.true_set
                assert strat.false_set == wf.false_set
                assert strat.is_total()
        assert stratified_seen >= 50


def test_criterion_7_linear_size():
    with criterion(7, "Compiled size linear in theory size"):
        from test_compiler import replicate

        base = corpus.load("tweety")
        for compile_fn in (compile_team, compile_individual):
            ratios = []
            for k in (1, 2, 4, 8, 16):
                family = replicate(base, k)
                ratios.append(compiled_size(compile_fn(family)) / theory_size(family))
            spread = max(ratios) / min(ratios) - 1.0
            assert spread < 0.05, ratios
        # One global constant bounds the ratio across the whole test corpus.
        rng = random.Random(SEED + 7)
        sample = [corpus.load(name) for name in FIXED_ADVERSARIAL]
        sample += [generator.random_ground_theory(rng) for _ in range(200)]
        sample += [generator.random_variable_theory(rng) for _ in range(50)]
        global_c = 20.0
        for t in sample:
            size = theory_size(t)
            if size == 0:
                continue
            assert compiled_size(compile_team(t)) <= global_c * size
            assert compiled_size(compile_individual(t)) <= global_c * size


def test_criterion_8_subset_chain(acceptance_corpus):
    with criterion(8, "Subset chain delta <= dpar* <= dpar <= lambda"):
        bad = failures(acceptance_corpus, "chain")
        assert bad == [], bad[:10]
        for name in FIXED_ADVERSARIAL:
            c = conclusions(corpus.load(name))
            assert c.delta <= c.dpar_star <= c.dpar <= c.lam
