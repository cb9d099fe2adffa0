"""``mangling_collisions`` against the enumeration of every descriptor it
replaced (``mangling_reference``), on random names built to collide and on
hand cases, and the two properties of the tag and flavour constants its
shortcut rests on."""

import random

import pytest

from conftest import theory
from defeasidl.mangling import (
    BODY_FLAVORS,
    LITERAL_TAGS,
    NEG,
    SEP,
    TAG_BODY,
    mangling_collisions,
)
from defeasidl.theory import Atom, DefeasibleTheory, Literal, Rule
from mangling_reference import enumerated_collisions

# Pieces of names: the negation and flavour components and separators, so
# random names often mangle alike.
PIECES = ("not", "p", "q", "d", "lam", "delta", "body", "x")
JOINERS = ("", "_", "__", "__", "__not__")


def random_name(rng: random.Random) -> str:
    name = rng.choice(PIECES)
    for _ in range(rng.randrange(3)):
        name += rng.choice(JOINERS) + rng.choice(PIECES)
    if rng.random() < 0.2:
        name += rng.choice(("_", "__"))
    return name


def random_theory(rng: random.Random) -> DefeasibleTheory:
    names = [random_name(rng) for _ in range(rng.randrange(1, 6))]
    names += [NEG + SEP + name for name in names if rng.random() < 0.6]
    names += [name[len(NEG + SEP):] for name in names  # a name may start with not__ itself
              if name.startswith(NEG + SEP) and name[len(NEG + SEP):][:1].isalpha()
              and rng.random() < 0.3]
    rules = [Rule(f"{random_name(rng)}{i}" if rng.random() < 0.5 else random_name(rng) + "__d",
                  (), Literal(Atom(name), rng.random() < 0.5))
             for i, name in enumerate(dict.fromkeys(names))]
    return DefeasibleTheory.of(rules=rules)


def test_tags_hold_no_separator_character():
    # So a name's tag is everything before its first "_", and equal names share it.
    tags = (*LITERAL_TAGS, TAG_BODY)
    assert len(set(tags)) == len(tags)
    assert not any("_" in tag for tag in tags)
    assert SEP == "__"


def test_no_body_ending_is_a_suffix_of_another():
    # So equal body names end in the same flavour, and their labels are equal too.
    endings = [SEP + flavor for flavor in BODY_FLAVORS]
    assert len(set(endings)) == len(endings)
    assert not any(a != b and a.endswith(b) for a in endings for b in endings)


def test_random_names_match_the_enumeration():
    rng = random.Random(20261019)
    met = 0
    for _ in range(1500):
        t = random_theory(rng)
        want = enumerated_collisions(t)
        assert mangling_collisions(t.predicates()) == want
        met += len(want)
    assert met > 1000  # the names are built to collide


@pytest.mark.parametrize("text", [
    "r1: p => neg fly(a).\nr2: p => not__fly(a).",
    "r1: => p.\nr2: => not__p.\nr3: => neg not__not__p.\nr4: => neg not__p.",
    "r1: => neg zed.\nr2: => not__zed.\nr3: => neg a.\nr4: => not__a.",
    "r__d: => p.\nr: => q.\nr__d__lam: => neg p.\nr__lam: => r.\nr__delta__d: => s.",
    "r1: not__p => q.\nr2: => neg p.\nr3: not__not__q => neg q.",
])
def test_hand_cases_match_the_enumeration(text):
    t = theory(text)
    assert mangling_collisions(t.predicates()) == enumerated_collisions(t)


def test_a_negated_predicate_collides_with_its_not_name_under_each_tag():
    collisions = mangling_collisions(
        theory("r1: => neg p.\nr2: => not__p.\nr3: => not__not__p.").predicates())
    assert [name for name, _, _ in collisions] == [
        f"{tag}__not__{p}" for p in ("not__p", "p") for tag in LITERAL_TAGS]
    assert mangling_collisions(theory("r__d: => p.\nr: => q.\nr__lam: => neg p.").predicates()) == []
