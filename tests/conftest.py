import random

import pytest

from defeasidl.check import CheckResult
from defeasidl.parser import parse_theory
from defeasidl.theory import DefeasibleTheory, Literal
import corpus


def lit(text: str) -> Literal:
    """Parse a single literal given as .dfl text, e.g. "neg fly(X)"."""
    theory = parse_theory(f"probe: => {text}.")
    assert isinstance(theory, DefeasibleTheory), theory
    return theory.rules[0].head


def theory(text: str) -> DefeasibleTheory:
    parsed = parse_theory(text)
    assert isinstance(parsed, DefeasibleTheory), parsed
    return parsed


def failures_in(result: CheckResult, category: str) -> list[str]:
    """The failure lines of one category (the text before the first colon)."""
    return [f for f in result.failures if f.startswith(category + ":")]


@pytest.fixture(scope="session")
def tweety() -> DefeasibleTheory:
    return corpus.load("tweety")


@pytest.fixture(scope="session")
def platypus() -> DefeasibleTheory:
    return corpus.load("platypus")


@pytest.fixture(scope="session")
def nonstrat() -> DefeasibleTheory:
    return corpus.load("nonstrat")


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(0xDEFEA51)
