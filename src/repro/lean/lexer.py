"""Lexer for the mini-LEAN surface language."""

from __future__ import annotations

import re
from typing import List

from ..record import Record

KEYWORDS = {
    "inductive",
    "where",
    "def",
    "partial",
    "match",
    "with",
    "let",
    "in",
    "if",
    "then",
    "else",
    "fun",
    "true",
    "false",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<COMMENT>--[^\n]*|/-.*?-/)
  | (?P<WS>\s+)
  | (?P<NUMBER>\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_!']*(\.[A-Za-z_][A-Za-z0-9_!']*)*)
  | (?P<ARROW>->|=>|:=)
  | (?P<OP>==|!=|<=|>=|&&|\|\||[+\-*/%<>])
  | (?P<PUNCT>[()\[\]{},:;|_])
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(Exception):
    """Raised on an unrecognised character."""


class Token(Record):
    def __init__(self, kind: str, text: str, line: int, column: int):
        self.kind = kind  # NUMBER, IDENT, KEYWORD, ARROW, OP, PUNCT, EOF
        self.text = text
        self.line = line
        self.column = column

    def __repr__(self):  # pragma: no cover - debugging helper
        return f"Token({self.kind}, {self.text!r}, line {self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source``, dropping comments and whitespace."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise LexError(
                f"unexpected character {source[pos]!r} at line {line}"
            )
        kind = match.lastgroup
        text = match.group()
        if kind not in ("WS", "COMMENT"):
            token_kind = kind
            if kind == "IDENT" and text in KEYWORDS:
                token_kind = "KEYWORD"
            tokens.append(
                Token(token_kind, text, line, match.start() - line_start + 1)
            )
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = match.start() + text.rfind("\n") + 1
        pos = match.end()
    tokens.append(Token("EOF", "", line, 1))
    return tokens
