"""Recursive-descent parser producing :class:`~repro.ast.program.Program`.

Grammar (one rule per sentence, terminated by ``.``)::

    rule     := headlist [ (':-' | '<-') body ] '.'
    headlist := headlit (',' headlit)*
    headlit  := 'bottom' | ['not' | '!'] atom
    body     := ['forall' var+ ':'] bodylit (',' bodylit)*
    bodylit  := ['not' | '!'] atom | term ('=' | '!=') term
    atom     := IDENT ['(' [term (',' term)*] ')']
    term     := IDENT | STRING | NUMBER

Bare identifiers in term position are variables; quoted strings and
integers are constants — so ``win(x) :- moves(x, y), not win(y).``
reads exactly like the paper's Example 3.2.  A bodyless rule such as
``delay.`` (Example 4.4's ``delay ←``) is allowed when its head is
ground.

Each production takes the token list and the index it starts at, and
returns what it parsed and the index after it; no production steps
past the closing EOF.  Punctuation, ``bottom`` and the negation
keyword are told apart by their text.  One parse builds each distinct
term once (``terms``: token text → :class:`~repro.terms.Var` or
:class:`~repro.terms.Const`).
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.ast.program import Dialect, Program
from repro.ast.analysis import validate_program
from repro.ast.rules import (
    BodyLiteral,
    BottomLit,
    ChoiceLit,
    EqLit,
    HeadLiteral,
    Lit,
    Rule,
)
from repro.logic.atom import Atom
from repro.parser.lexer import KEYWORDS, Token, TokenKind, tokenize
from repro.span import Span
from repro.terms import Const, Term, Var

_IDENT, _STRING, _NUMBER = TokenKind.IDENT, TokenKind.STRING, TokenKind.NUMBER
_EOF = TokenKind.EOF
_TERM_KINDS = frozenset({_IDENT, _STRING, _NUMBER})
_NEGATION = ("!", "not")
_IMPLIES = (":-", "<-")


def _error(message: str, tok: Token) -> ParseError:
    return ParseError(message, tok.line, tok.column)


def _expected(what: str, tok: Token) -> ParseError:
    return _error(f"expected {what!r}, found {tok.text!r}", tok)


def _span(start: Token, end: Token) -> Span:
    """Span from ``start`` through ``end``."""
    return Span(start.line, start.column, end.line, end.column + len(end.text))


def _variable(tok: Token) -> Var:
    if tok.kind is not _IDENT:
        raise _expected("ident", tok)
    if tok.text in KEYWORDS:
        raise _error(f"keyword {tok.text!r} cannot be a variable", tok)
    return Var(tok.text)


def _term(tok: Token, terms: dict[str, Term]) -> Term:
    term = terms.get(tok.text)
    if term is None:
        if tok.kind is _IDENT:
            if tok.text in KEYWORDS:
                raise _error(f"keyword {tok.text!r} cannot be a term", tok)
            term = Var(tok.text)
        elif tok.kind is _STRING or tok.kind is _NUMBER:
            term = Const(tok.value)
        else:
            raise _error(f"expected a term, found {tok.text!r}", tok)
        terms[tok.text] = term
    return term


def _atom(
    tokens: list[Token], i: int, terms: dict[str, Term]
) -> tuple[Atom, int]:
    name = tokens[i]
    if name.kind is not _IDENT:
        raise _expected("ident", name)
    if name.text in KEYWORDS:
        raise _error(f"keyword {name.text!r} cannot be a relation name", name)
    args: list[Term] = []
    if tokens[i + 1].text == "(":
        i += 2
        if tokens[i].text != ")":
            args.append(_term(tokens[i], terms))
            i += 1
            while tokens[i].text == ",":
                args.append(_term(tokens[i + 1], terms))
                i += 2
        if tokens[i].text != ")":
            raise _expected(")", tokens[i])
    return Atom(name.text, tuple(args)), i + 1


def _head_literal(
    tokens: list[Token], i: int, terms: dict[str, Term]
) -> tuple[HeadLiteral, int]:
    start = tokens[i]
    if start.text == "bottom":
        return BottomLit(span=_span(start, start)), i + 1
    positive = start.text not in _NEGATION
    atom, i = _atom(tokens, i if positive else i + 1, terms)
    return Lit(atom, positive, span=_span(start, tokens[i - 1])), i


def _body_literal(
    tokens: list[Token], i: int, terms: dict[str, Term]
) -> tuple[BodyLiteral, int]:
    start = tokens[i]
    if start.text in _NEGATION:
        atom, i = _atom(tokens, i + 1, terms)
        return Lit(atom, False, span=_span(start, tokens[i - 1])), i
    if start.text == "choice":
        return _choice(tokens, i)
    if start.kind is _IDENT and tokens[i + 1].text not in ("=", "!="):
        atom, i = _atom(tokens, i, terms)
        return Lit(atom, True, span=_span(start, tokens[i - 1])), i
    if start.kind not in _TERM_KINDS:
        raise _error(f"unexpected token {start.text!r}", start)
    # An (in)equality: a leading constant can begin nothing else.
    left = _term(start, terms)
    op = tokens[i + 1]
    if op.text != "=" and op.text != "!=":
        raise _error(f"expected '=' or '!=', found {op.text!r}", op)
    right = tokens[i + 2]
    return EqLit(
        left, _term(right, terms), op.text == "=", span=_span(start, right)
    ), i + 3


def _choice(tokens: list[Token], i: int) -> tuple[ChoiceLit, int]:
    """``choice((x, …), (y, …))`` — LDL's choice goal."""
    start = tokens[i]
    if tokens[i + 1].text != "(":
        raise _expected("(", tokens[i + 1])
    domain, i = _variables(tokens, i + 2)
    if tokens[i].text != ",":
        raise _expected(",", tokens[i])
    range_vars, i = _variables(tokens, i + 1)
    if tokens[i].text != ")":
        raise _expected(")", tokens[i])
    return ChoiceLit(domain, range_vars, span=_span(start, tokens[i])), i + 1


def _variables(tokens: list[Token], i: int) -> tuple[tuple[Var, ...], int]:
    """A parenthesized, comma-separated variable group."""
    if tokens[i].text != "(":
        raise _expected("(", tokens[i])
    variables: list[Var] = []
    i += 1
    if tokens[i].text != ")":
        variables.append(_variable(tokens[i]))
        i += 1
        while tokens[i].text == ",":
            variables.append(_variable(tokens[i + 1]))
            i += 2
    if tokens[i].text != ")":
        raise _expected(")", tokens[i])
    return tuple(variables), i + 1


def _universal(tokens: list[Token], i: int) -> tuple[tuple[Var, ...], int]:
    """The variables after ``forall`` and the index after the colon."""
    variables: list[Var] = []
    while tokens[i].kind is _IDENT:
        variables.append(_variable(tokens[i]))
        i += 1
    if not variables:
        raise _error("forall requires at least one variable", tokens[i])
    if tokens[i].text != ":":
        raise _expected(":", tokens[i])
    return tuple(variables), i + 1


def _rule(
    tokens: list[Token], i: int, terms: dict[str, Term]
) -> tuple[Rule, int]:
    """The rule that starts at ``tokens[i]`` and the index after it."""
    start = tokens[i]
    lit, i = _head_literal(tokens, i, terms)
    head = [lit]
    while tokens[i].text == ",":
        lit, i = _head_literal(tokens, i + 1, terms)
        head.append(lit)
    body: list[BodyLiteral] = []
    universal: tuple[Var, ...] = ()
    if tokens[i].text in _IMPLIES:
        i += 1
        if tokens[i].text != ".":
            if tokens[i].text == "forall":
                universal, i = _universal(tokens, i + 1)
            lit, i = _body_literal(tokens, i, terms)
            body.append(lit)
            while tokens[i].text == ",":
                lit, i = _body_literal(tokens, i + 1, terms)
                body.append(lit)
    end = tokens[i]
    if end.text != ".":
        raise _expected(".", end)
    return Rule(tuple(head), tuple(body), universal, span=_span(start, end)), i + 1


def _rules(tokens: list[Token]) -> list[Rule]:
    rules: list[Rule] = []
    terms: dict[str, Term] = {}
    i = 0
    while tokens[i].kind is not _EOF:
        rule, i = _rule(tokens, i, terms)
        rules.append(rule)
    return rules


def parse_rules(text: str) -> list[Rule]:
    """The rules of ``text`` in source order, ``[]`` when it holds none.

    For callers that read rules without building a program of them;
    :func:`parse_program` parses the same way.
    """
    return _rules(tokenize(text))


def parse_rule(text: str) -> Rule:
    """Parse a single rule (must consume the whole input)."""
    tokens = tokenize(text)
    rule, i = _rule(tokens, 0, {})
    if tokens[i].kind is not _EOF:
        raise _error(f"trailing input after rule: {tokens[i].text!r}", tokens[i])
    return rule


def parse_program(
    text: str,
    dialect: Dialect | None = None,
    name: str = "",
) -> Program:
    """Parse a program; validate against ``dialect`` when given.

    ``dialect=None`` skips validation, which callers typically defer to
    the semantics engine they hand the program to.
    """
    tokens = tokenize(text)
    rules = _rules(tokens)
    if not rules:
        raise _error("empty program", tokens[-1])
    program = Program(rules, name=name, source_text=text)
    if dialect is not None:
        validate_program(program, dialect)
    return program
