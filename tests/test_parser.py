from conftest import theory
from defeasidl.parser import ParseError, format_theory, parse_theory
from defeasidl.theory import DefeasibleTheory, RuleKind
import corpus


def test_single_defeasible_rule():
    t = theory("r2: penguin(X) => neg fly(X).")
    (rule,) = t.rules
    assert rule.label == "r2"
    assert rule.kind is RuleKind.DEFEASIBLE
    assert rule.head.negated and rule.head.predicate == "fly"
    assert [b.predicate for b in rule.body] == ["penguin"]
    assert rule.head.args[0].is_variable


def test_empty_input_is_empty_theory():
    assert parse_theory("") == DefeasibleTheory()
    assert parse_theory("   \n % just a comment\n") == DefeasibleTheory()


def test_missing_head_is_error():
    errors = parse_theory("r1: bird(X) =>")
    assert isinstance(errors, list) and errors
    assert "end of input" in str(errors[0])


def test_all_three_arrows():
    t = theory("a: p -> q.\nb: p => q.\nc: p ~> q.")
    assert [r.kind for r in t.rules] == [RuleKind.STRICT, RuleKind.DEFEASIBLE, RuleKind.DEFEATER]


def test_empty_body_rule():
    # ".dfl" lexes ":" and "->" apart; it has no ":-" symbol.
    for text, kind in [
        ("r: => p.", RuleKind.DEFEASIBLE),
        ("r1:->p.", RuleKind.STRICT),
        ("r1:=>p.", RuleKind.DEFEASIBLE),
    ]:
        (rule,) = theory(text).rules
        assert rule.body == () and rule.kind is kind, text


def test_labelled_fact_label_discarded():
    assert theory("f: penguin(tweety).") == theory("penguin(tweety).")


def test_duplicate_facts_collapse():
    t = theory("p(a).\np(a).\nneg p(a).")
    assert len(t.facts) == 2


def test_superiority_statement():
    t = theory("r1: => p.\nr2: => neg p.\nr2 > r1.")
    assert t.superiority == frozenset({("r2", "r1")})


def test_comments_ignored():
    t = theory("% header\np(a). % trailing\n% r2 > r1.\n")
    assert len(t.facts) == 1 and not t.superiority


def test_multiple_errors_reported_with_locations():
    errors = parse_theory("p(.\nq(a).\nr: => .\n")
    assert isinstance(errors, list)
    assert len(errors) >= 2
    lines = [e.location.line for e in errors]
    assert lines == sorted(lines) and lines[0] == 1


def test_error_never_partial_theory():
    result = parse_theory("p(a). q(")
    assert isinstance(result, list)


def test_round_trip_corpus():
    for name in corpus.names():
        t = corpus.load(name)
        assert parse_theory(format_theory(t)) == t


def test_round_trip_random(rng):
    from defeasidl import generator

    for i in range(150):
        t = (
            generator.random_ground_theory(rng)
            if i % 2
            else generator.random_variable_theory(rng)
        )
        assert parse_theory(format_theory(t)) == t


def test_format_tweety_shape(tweety):
    text = format_theory(tweety)
    lines = text.strip().splitlines()
    assert len(lines) == 8  # 3 facts + 4 rules + 1 superiority
    assert "r2 > r1." in lines
    assert any("~>" in line for line in lines)
    assert "r3: penguin(X) -> bird(X)." in lines


def test_format_empty_theory():
    assert format_theory(DefeasibleTheory()) == ""


def test_fuzz_total(rng):
    alphabet = "abcXY(),.:%->=~> \n\tneg_09é→"
    for _ in range(400):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        result = parse_theory(text)
        assert isinstance(result, (DefeasibleTheory, list))
        if isinstance(result, list):
            assert all(isinstance(e, ParseError) for e in result)


def test_fuzz_mutated_corpus(rng):
    base = format_theory(corpus.load("tweety"))
    for _ in range(200):
        chars = list(base)
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(chars))
            chars[pos] = rng.choice("().:>=~%X q")
        result = parse_theory("".join(chars))
        assert isinstance(result, (DefeasibleTheory, list))


def test_corpus_validates_after_round_trip():
    from defeasidl.theory import validate_theory

    for name in corpus.names():
        t = theory(format_theory(corpus.load(name)))
        assert validate_theory(t).ok, name
