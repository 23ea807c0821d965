"""Tokenizer for the Datalog surface syntax.

Identifier conventions follow the paper's examples: bare identifiers
(including dashed names such as ``old-T-except-final``) are variables in
term position and relation names in predicate position; quoted strings
and integers are constants.  ``%`` and ``#`` start line comments.

The text is scanned a line at a time with one compiled pattern, each of
whose matches is the blanks before one token and the token.
"""

from __future__ import annotations

import enum
import re
from functools import partial
from typing import NamedTuple

from repro.errors import ParseError


class TokenKind(enum.Enum):
    IDENT = "ident"
    STRING = "string"
    NUMBER = "number"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    PERIOD = "."
    IMPLIES = ":-"
    COLON = ":"
    EQ = "="
    NEQ = "!="
    BANG = "!"
    EOF = "eof"


#: Keywords recognized in identifier position.
KEYWORDS = frozenset({"not", "forall", "bottom", "choice"})


class Token(NamedTuple):
    """One token and where it starts (1-based line and column).

    ``value`` is the constant the token denotes: the integer of a
    NUMBER, the unquoted text of a STRING, and the text of any other.
    """

    kind: TokenKind
    text: str
    line: int
    column: int
    value: object

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.IDENT and self.text == word


#: Builds a token from its field tuple without a Python-level call.
_token = partial(tuple.__new__, Token)

_PUNCTUATION = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ".": TokenKind.PERIOD,
    ":-": TokenKind.IMPLIES,
    "<-": TokenKind.IMPLIES,
    ":": TokenKind.COLON,
    "=": TokenKind.EQ,
    "!=": TokenKind.NEQ,
    "!": TokenKind.BANG,
}

#: One match per token of a line: the blanks before it, then one of a
#: punctuation mark, an identifier (a letter or ``_``, then letters,
#: digits, ``_`` and inner dashes: it never ends with one), a string,
#: a number not run into an identifier, a comment (dropped), or any
#: other character, which is an error.  ``\w`` is exactly
#: ``str.isalnum()`` or ``_``; ``[^\W\d]`` admits a few non-letters
#: (``'½'``), which :func:`_check_start` rejects.
_TOKEN = re.compile(
    r"""([ \t\r]*)
    (?: (:-|<-|!=|[(),.:=!])
      | ([^\W\d](?:[\w-]*\w)?)
      | ('[^']*'|"[^"]*")
      | (\d+)(?!\w)
      | [%\#].*
      | ([^ \t\r]) )""",
    re.VERBOSE,
)


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on illegal input."""
    tokens: list[Token] = []
    append = tokens.append
    punctuation = _PUNCTUATION
    ident, string, number = TokenKind.IDENT, TokenKind.STRING, TokenKind.NUMBER
    # An ASCII identifier match starts with a letter or ``_``.
    ascii_only = text.isascii()
    line = 0
    for row in text.split("\n"):
        line += 1
        column = 1
        for blank, mark, word, quoted, digits, bad in _TOKEN.findall(row):
            column += len(blank)
            if mark:
                append(_token((punctuation[mark], mark, line, column, mark)))
                column += len(mark)
            elif word:
                if not ascii_only:
                    _check_start(word, line, column)
                append(_token((ident, word, line, column, word)))
                column += len(word)
            elif quoted:
                append(_token((string, quoted, line, column, quoted[1:-1])))
                column += len(quoted)
            elif digits:
                append(_token((number, digits, line, column, int(digits))))
                column += len(digits)
            elif bad:
                _reject(row, line, column)
    append(_token((TokenKind.EOF, "", line, len(row) + 1, "")))
    return tokens


def _check_start(word: str, line: int, column: int) -> None:
    """Reject an identifier that starts with neither a letter nor ``_``."""
    if not (word[0].isalpha() or word[0] == "_"):
        raise ParseError(f"unexpected character {word[0]!r}", line, column)


def _reject(row: str, line: int, column: int) -> None:
    """Raise the error for the character that starts no token at
    ``column`` of ``row``."""
    ch = row[column - 1]
    if ch in "'\"":
        raise ParseError("unterminated string literal", line, column)
    if ch.isdecimal():
        end = column
        while row[end].isdecimal():
            end += 1
        if row[end].isalpha() or row[end] == "_":
            raise ParseError(
                "identifier cannot start with a digit", line, column
            )
        ch, column = row[end], end + 1
    raise ParseError(f"unexpected character {ch!r}", line, column)
