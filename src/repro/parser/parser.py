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


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token helpers ---------------------------------------------------------

    def _peek(self) -> Token:
        # The token list ends with EOF, which ``_advance`` never passes.
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind is not TokenKind.EOF:
            self._pos += 1
        return tok

    def _expect(self, kind: TokenKind) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r}, found {tok.text!r}", tok.line, tok.column
            )
        return self._advance()

    def _at_negation(self) -> bool:
        tok = self._peek()
        return tok.kind is TokenKind.BANG or tok.is_keyword("not")

    def _span_from(self, start: Token) -> Span:
        """Span from ``start`` through the most recently consumed token."""
        end = self._tokens[self._pos - 1] if self._pos else start
        return Span(start.line, start.column, end.line, end.column + len(end.text))

    # -- grammar ---------------------------------------------------------------

    def parse_program(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._peek().kind is not TokenKind.EOF:
            rules.append(self.parse_rule())
        if not rules:
            tok = self._peek()
            raise ParseError("empty program", tok.line, tok.column)
        return rules

    def parse_rule(self) -> Rule:
        start = self._peek()
        head = [self._parse_head_literal()]
        while self._peek().kind is TokenKind.COMMA:
            self._advance()
            head.append(self._parse_head_literal())
        body: list[BodyLiteral] = []
        universal: list[Var] = []
        if self._peek().kind is TokenKind.IMPLIES:
            self._advance()
            if self._peek().kind is not TokenKind.PERIOD:
                universal = self._parse_universal_prefix()
                body.append(self._parse_body_literal())
                while self._peek().kind is TokenKind.COMMA:
                    self._advance()
                    body.append(self._parse_body_literal())
        self._expect(TokenKind.PERIOD)
        return Rule(
            tuple(head), tuple(body), tuple(universal), span=self._span_from(start)
        )

    def _parse_universal_prefix(self) -> list[Var]:
        if not self._peek().is_keyword("forall"):
            return []
        self._advance()
        variables: list[Var] = []
        while self._peek().kind is TokenKind.IDENT:
            tok = self._advance()
            if tok.text in KEYWORDS:
                raise ParseError(
                    f"keyword {tok.text!r} cannot be a variable", tok.line, tok.column
                )
            variables.append(Var(tok.text))
        if not variables:
            tok = self._peek()
            raise ParseError("forall requires at least one variable", tok.line, tok.column)
        self._expect(TokenKind.COLON)
        return variables

    def _parse_head_literal(self) -> HeadLiteral:
        tok = self._peek()
        if tok.is_keyword("bottom"):
            self._advance()
            return BottomLit(span=self._span_from(tok))
        positive = True
        if self._at_negation():
            self._advance()
            positive = False
        atom = self._parse_atom()
        return Lit(atom, positive, span=self._span_from(tok))

    def _parse_body_literal(self) -> BodyLiteral:
        start = self._peek()
        if self._at_negation():
            self._advance()
            atom = self._parse_atom()
            return Lit(atom, False, span=self._span_from(start))
        tok = self._peek()
        if tok.is_keyword("choice"):
            return self._parse_choice()
        # A leading constant can only begin an (in)equality literal.
        if tok.kind in (TokenKind.STRING, TokenKind.NUMBER):
            left = self._parse_term()
            return self._parse_equality_tail(left, start)
        if tok.kind is TokenKind.IDENT:
            after = self._tokens[self._pos + 1]  # ``tok`` is not EOF
            if after.kind in (TokenKind.EQ, TokenKind.NEQ):
                left = self._parse_term()
                return self._parse_equality_tail(left, start)
            atom = self._parse_atom()
            return Lit(atom, True, span=self._span_from(start))
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.column)

    def _parse_choice(self) -> "ChoiceLit":
        """``choice((x, …), (y, …))`` — LDL's choice goal."""
        start = self._advance()  # the 'choice' keyword
        self._expect(TokenKind.LPAREN)
        domain = self._parse_var_group()
        self._expect(TokenKind.COMMA)
        range_vars = self._parse_var_group()
        self._expect(TokenKind.RPAREN)
        return ChoiceLit(domain, range_vars, span=self._span_from(start))

    def _parse_var_group(self) -> tuple[Var, ...]:
        self._expect(TokenKind.LPAREN)
        variables: list[Var] = []
        if self._peek().kind is not TokenKind.RPAREN:
            while True:
                tok = self._expect(TokenKind.IDENT)
                if tok.text in KEYWORDS:
                    raise ParseError(
                        f"keyword {tok.text!r} cannot be a variable",
                        tok.line,
                        tok.column,
                    )
                variables.append(Var(tok.text))
                if self._peek().kind is not TokenKind.COMMA:
                    break
                self._advance()
        self._expect(TokenKind.RPAREN)
        return tuple(variables)

    def _parse_equality_tail(self, left: Term, start: Token) -> EqLit:
        op = self._advance()
        if op.kind not in (TokenKind.EQ, TokenKind.NEQ):
            raise ParseError(
                f"expected '=' or '!=', found {op.text!r}", op.line, op.column
            )
        right = self._parse_term()
        return EqLit(left, right, op.kind is TokenKind.EQ, span=self._span_from(start))

    def _parse_atom(self) -> Atom:
        tok = self._expect(TokenKind.IDENT)
        if tok.text in KEYWORDS:
            raise ParseError(
                f"keyword {tok.text!r} cannot be a relation name", tok.line, tok.column
            )
        terms: list[Term] = []
        if self._peek().kind is TokenKind.LPAREN:
            self._advance()
            if self._peek().kind is not TokenKind.RPAREN:
                terms.append(self._parse_term())
                while self._peek().kind is TokenKind.COMMA:
                    self._advance()
                    terms.append(self._parse_term())
            self._expect(TokenKind.RPAREN)
        return Atom(tok.text, tuple(terms))

    def _parse_term(self) -> Term:
        tok = self._advance()
        if tok.kind is TokenKind.IDENT:
            if tok.text in KEYWORDS:
                raise ParseError(
                    f"keyword {tok.text!r} cannot be a term", tok.line, tok.column
                )
            return Var(tok.text)
        if tok.kind in (TokenKind.STRING, TokenKind.NUMBER):
            return Const(tok.value)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)


def parse_rule(text: str) -> Rule:
    """Parse a single rule (must consume the whole input)."""
    parser = _Parser(tokenize(text))
    rule = parser.parse_rule()
    trailing = parser._peek()
    if trailing.kind is not TokenKind.EOF:
        raise ParseError(
            f"trailing input after rule: {trailing.text!r}",
            trailing.line,
            trailing.column,
        )
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
    program = Program(
        _Parser(tokenize(text)).parse_program(), name=name, source_text=text
    )
    if dialect is not None:
        validate_program(program, dialect)
    return program
