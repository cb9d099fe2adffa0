"""Parser and pretty-printer for the textual theory format (``.dfl``).

Statements end with ``.`` and come in three shapes::

    penguin(tweety).                  % fact (an optional "label:" is discarded)
    r2: penguin(X) => neg fly(X).     % rule; arrows are ->, => and ~>
    r2 > r1.                          % superiority between rule labels

``neg`` is the classical-negation keyword, ``%`` starts a comment, and
statement order is irrelevant.  Parsing never raises on malformed input:
it returns either a theory or a list of :class:`ParseError` values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .theory import Atom, DefeasibleTheory, Literal, Rule, RuleKind, Term

ARROWS = {"->": RuleKind.STRICT, "=>": RuleKind.DEFEASIBLE, "~>": RuleKind.DEFEATER}


@dataclass(frozen=True, order=True)
class SourceLocation:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParseError:
    location: SourceLocation
    expected: str
    found: str

    def __str__(self) -> str:
        return f"{self.location}: expected {self.expected}, found {self.found}"


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | variable | arrow | punct | eof | error
    text: str
    location: SourceLocation


def _tokenize(text: str) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def loc() -> SourceLocation:
        return SourceLocation(line, col)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance(1)
            continue
        two = text[i:i + 2]
        if two in ARROWS:
            tokens.append(_Token("arrow", two, loc()))
            advance(2)
            continue
        if ch in ":,.()>":
            tokens.append(_Token("punct", ch, loc()))
            advance(1)
            continue
        if ch.isalpha() or ch.isdigit() or ch == "_":
            start, start_loc = i, loc()
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance(1)
            word = text[start:i]
            if word[0] == "_":
                errors.append(ParseError(start_loc, "an identifier", repr(word)))
            elif word[0].isupper():
                tokens.append(_Token("variable", word, start_loc))
            else:
                tokens.append(_Token("ident", word, start_loc))
            continue
        errors.append(ParseError(loc(), "a token", repr(ch)))
        advance(1)
    tokens.append(_Token("eof", "", loc()))
    return tokens, errors


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> None:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        raise _SyntaxError(ParseError(tok.location, expected, found))

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            self.fail(what or (text or kind))
        return self.next()

    def literal(self) -> Literal:
        negated = False
        if self.peek().kind == "ident" and self.peek().text == "neg":
            self.next()
            negated = True
        name = self.expect("ident", what="a predicate name")
        if name.text[0].isdigit():
            raise _SyntaxError(ParseError(name.location, "a predicate name", name.text))
        args: list[Term] = []
        if self.peek().kind == "punct" and self.peek().text == "(":
            self.next()
            while True:
                tok = self.peek()
                if tok.kind not in ("ident", "variable"):
                    self.fail("a term")
                self.next()
                args.append(Term(tok.text))
                if self.peek().kind == "punct" and self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect("punct", ")")
        return Literal(Atom(name.text, tuple(args)), negated)

    def statement(self, facts: set[Literal], rules: list[Rule], sup: set[tuple[str, str]]) -> None:
        first = self.peek()
        if first.kind == "ident" and self.peek(1).kind == "punct" and self.peek(1).text == ">":
            self.next()
            self.next()
            second = self.expect("ident", what="a rule label")
            self.expect("punct", ".")
            sup.add((first.text, second.text))
            return
        label: str | None = None
        if first.kind == "ident" and self.peek(1).kind == "punct" and self.peek(1).text == ":":
            self.next()
            self.next()
            label = first.text
        if label is not None and self.peek().kind == "arrow":
            arrow = self.next()
            head = self.literal()
            self.expect("punct", ".")
            rules.append(Rule(label, (), head, ARROWS[arrow.text]))
            return
        lit = self.literal()
        body = [lit]
        while self.peek().kind == "punct" and self.peek().text == ",":
            self.next()
            body.append(self.literal())
        tok = self.peek()
        if tok.kind == "arrow":
            if label is None:
                self.fail("a rule label before the arrow")
            self.next()
            head = self.literal()
            self.expect("punct", ".")
            rules.append(Rule(label, tuple(body), head, ARROWS[tok.text]))
            return
        if tok.kind == "punct" and tok.text == ".":
            if len(body) > 1:
                self.fail("an arrow")
            self.next()
            facts.add(lit)  # a leading "label:" on a fact is discarded
            return
        self.fail("an arrow or '.'")

    def resync(self) -> None:
        while True:
            tok = self.next()
            if tok.kind == "eof" or (tok.kind == "punct" and tok.text == "."):
                return


class _SyntaxError(Exception):
    def __init__(self, error: ParseError):
        super().__init__(str(error))
        self.error = error


def parse_theory(text: str) -> DefeasibleTheory | list[ParseError]:
    """Parse ``.dfl`` text; returns the theory, or all errors found."""
    tokens, errors = _tokenize(text)
    parser = _Parser(tokens)
    facts: set[Literal] = set()
    rules: list[Rule] = []
    sup: set[tuple[str, str]] = set()
    while parser.peek().kind != "eof":
        try:
            parser.statement(facts, rules, sup)
        except _SyntaxError as exc:
            errors.append(exc.error)
            parser.resync()
    errors.sort(key=lambda e: e.location)
    if errors:
        return errors
    return DefeasibleTheory.of(facts, rules, sup)


def format_theory(theory: DefeasibleTheory) -> str:
    """One statement per line: facts, then rules in order, then superiority."""
    lines = [f"{fact}." for fact in sorted(theory.facts)]
    lines += [f"{rule}." for rule in theory.rules]
    lines += [f"{t} > {s}." for t, s in sorted(theory.superiority)]
    return "\n".join(lines) + ("\n" if lines else "")
