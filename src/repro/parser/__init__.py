"""Surface-syntax parser for the whole Datalog language family."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".lexer": ("Token", "TokenKind", "tokenize"),
    ".parser": ("parse_program", "parse_rule"),
})
