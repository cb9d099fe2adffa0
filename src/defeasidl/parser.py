"""Readers for the two text formats, the theory (``.dfl``) and the
compiled program (``.dl``), and the ``.dfl`` pretty-printer.

Both formats share one lexer and one atom grammar.  ``.dfl`` statements
end with ``.`` and come in three shapes::

    penguin(tweety).                  % fact (an optional "label:" is discarded)
    r2: penguin(X) => neg fly(X).     % rule; arrows are ->, => and ~>
    r2 > r1.                          % superiority between rule labels

``neg`` is the classical-negation keyword, ``%`` starts a comment, and
statement order is irrelevant.  Parsing never raises on malformed input:
it returns either a theory or a list of :class:`ParseError` values.

``.dl`` clauses read ``atom [":-" literal ("," literal)*] "."``, where a
body literal is an atom, negated by a leading ``not`` when a name other
than a variable follows that ``not``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

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


class _Token(NamedTuple):
    kind: str  # ident | variable | symbol | eof
    text: str
    line: int
    column: int

    @property
    def location(self) -> SourceLocation:
        return SourceLocation(self.line, self.column)


def _lexer(*symbols: str) -> re.Pattern[str]:
    r"""A pattern matching, at one position, either whitespace and comments
    (no group), a symbol of the format (group 1) or a name (group 2).
    ``\w`` is ``str.isalnum()`` or ``_``, ``\s`` is ``str.isspace()``.  The
    first listed symbol that matches wins, so none may be a prefix of a
    later one."""
    return re.compile(rf"(?:\s|%[^\n]*)+|({'|'.join(map(re.escape, symbols))})|(\w+)")


# ".dfl" never lexes ":-", so "r1:->p." is a rule with an empty body.
_DFL_LEXER = _lexer(*ARROWS, ":", ",", ".", "(", ")", ">")
_DL_LEXER = _lexer(":-", ",", ".", "(", ")")


def _tokenize(text: str, lexer: re.Pattern[str]) -> tuple[list[_Token], list[ParseError]]:
    tokens: list[_Token] = []
    errors: list[ParseError] = []
    line, line_start = 1, 0  # line_start: offset of the current line's first character
    pos, n = 0, len(text)
    match = lexer.match
    while pos < n:
        m = match(text, pos)
        if m is None:
            where = SourceLocation(line, pos - line_start + 1)
            errors.append(ParseError(where, "a token", repr(text[pos])))
            pos += 1
            continue
        end = m.end()
        group = m.lastindex
        if group is None:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        elif group == 1:
            tokens.append(_Token("symbol", m[1], line, pos - line_start + 1))
        else:
            word = m[2]
            first = word[0]
            column = pos - line_start + 1
            if first.isalpha() or first.isdigit():
                kind = "variable" if first.isupper() else "ident"
                tokens.append(_Token(kind, word, line, column))
            elif first == "_":
                errors.append(ParseError(SourceLocation(line, column), "an identifier", repr(word)))
            else:  # alphanumeric but neither a letter nor a digit, e.g. "½"
                errors.append(ParseError(SourceLocation(line, column), "a token", repr(first)))
                end = pos + 1
        pos = end
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens, errors


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.terms: dict[str, Term] = {}  # one name-checked Term per distinct name

    def peek(self, ahead: int = 0) -> _Token:
        i = self.pos + ahead  # the position itself never passes the eof token
        return self.tokens[i] if i < len(self.tokens) else self.tokens[-1]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> None:
        tok = self.peek()
        found = tok.text if tok.kind != "eof" else "end of input"
        raise _SyntaxError(ParseError(tok.location, expected, found))

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text`` (a symbol or keyword)."""
        if self.peek().text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self.fail(text)

    def ident(self, what: str) -> _Token:
        if self.peek().kind != "ident":
            self.fail(what)
        return self.next()

    def atom(self) -> Atom:
        """``name ["(" term ("," term)* ")"]``."""
        name = self.ident("a predicate name")
        if name.text[0].isdigit():
            raise _SyntaxError(ParseError(name.location, "a predicate name", name.text))
        args: list[Term] = []
        if self.accept("("):
            while True:
                tok = self.peek()
                if tok.kind not in ("ident", "variable"):
                    self.fail("a term")
                self.next()
                term = self.terms.get(tok.text)
                if term is None:
                    term = self.terms[tok.text] = Term(tok.text)
                args.append(term)
                if not self.accept(","):
                    break
            self.expect(")")
        # The lexer admits only well-formed names, and the name is an
        # identifier that does not start with a digit: Atom would accept it.
        return Atom.unchecked(name.text, tuple(args))

    def literal(self) -> Literal:
        negated = self.accept("neg")
        return Literal(self.atom(), negated)

    def statement(self, facts: set[Literal], rules: list[Rule], sup: set[tuple[str, str]]) -> None:
        first = self.peek()
        if first.kind == "ident" and self.peek(1).text == ">":
            self.pos += 2
            second = self.ident("a rule label")
            self.expect(".")
            sup.add((first.text, second.text))
            return
        label: str | None = None
        if first.kind == "ident" and self.peek(1).text == ":":
            self.pos += 2
            label = first.text
        if label is not None and self.peek().text in ARROWS:
            arrow = self.next()
            head = self.literal()
            self.expect(".")
            rules.append(Rule(label, (), head, ARROWS[arrow.text]))
            return
        lit = self.literal()
        body = [lit]
        while self.accept(","):
            body.append(self.literal())
        tok = self.peek()
        if tok.text in ARROWS:
            if label is None:
                self.fail("a rule label before the arrow")
            self.next()
            head = self.literal()
            self.expect(".")
            rules.append(Rule(label, tuple(body), head, ARROWS[tok.text]))
            return
        if tok.text == ".":
            if len(body) > 1:
                self.fail("an arrow")
            self.next()
            facts.add(lit)  # a leading "label:" on a fact is discarded
            return
        self.fail("an arrow or '.'")

    def resync(self) -> None:
        while True:
            tok = self.next()
            if tok.kind == "eof" or tok.text == ".":
                return

    def clause_atom(self, arities: dict[str, int]) -> Atom:
        """An atom whose predicate keeps the arity of its first use."""
        start = self.peek()
        atom = self.atom()
        known = arities.setdefault(atom.predicate, atom.arity)
        if known != atom.arity:
            expected = f"arity {known} for {atom.predicate!r}"
            raise _SyntaxError(ParseError(start.location, expected, f"arity {atom.arity}"))
        return atom

    def clause(self, arities: dict[str, int]) -> tuple[Atom, tuple[Atom, ...], tuple[Atom, ...]]:
        head = self.clause_atom(arities)
        positive: list[Atom] = []
        negative: list[Atom] = []
        if self.accept(":-"):
            while True:
                if self.peek().text == "not" and self.peek(1).kind == "ident":
                    self.next()
                    negative.append(self.clause_atom(arities))
                else:
                    positive.append(self.clause_atom(arities))
                if not self.accept(","):
                    break
            if not self.accept("."):
                self.fail("',' or '.'")
        elif not self.accept("."):
            self.fail("':-' or '.'")
        return head, tuple(positive), tuple(negative)


class _SyntaxError(Exception):
    def __init__(self, error: ParseError):
        super().__init__(str(error))
        self.error = error


def parse_theory(text: str) -> DefeasibleTheory | list[ParseError]:
    """Parse ``.dfl`` text; returns the theory, or all errors found."""
    tokens, errors = _tokenize(text, _DFL_LEXER)
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


def parse_clauses(text: str) -> list[tuple[Atom, tuple[Atom, ...], tuple[Atom, ...]]] | ParseError:
    """Parse ``.dl`` text into ``(head, positive, negative)`` triples, one
    per clause; returns the first error instead if there is one.  A
    predicate used with two arities is an error at the second use."""
    tokens, errors = _tokenize(text, _DL_LEXER)
    parser = _Parser(tokens)
    clauses = []
    arities: dict[str, int] = {}
    try:
        while parser.peek().kind != "eof":
            clauses.append(parser.clause(arities))
    except _SyntaxError as exc:
        errors.append(exc.error)
    if errors:
        return min(errors, key=lambda e: e.location)
    return clauses


def format_theory(theory: DefeasibleTheory) -> str:
    """One statement per line: facts, then rules in order, then superiority."""
    lines = [f"{fact}." for fact in theory.sorted_facts]
    lines += [f"{rule}." for rule in theory.rules]
    lines += [f"{t} > {s}." for t, s in sorted(theory.superiority)]
    return "\n".join(lines) + ("\n" if lines else "")
