"""SQL tokenizer.

Produces a flat token stream: keywords (case-insensitive), identifiers,
integer/float/string literals, operators, and punctuation.  Kept
deliberately small — the grammar in :mod:`repro.sql.parser` documents
exactly what the dialect supports.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Iterator, List

from repro.errors import QueryError
from repro.instrument import count_event


class SQLSyntaxError(QueryError):
    """Lexical or grammatical error in a SQL statement."""


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    OP = "op"
    PUNCT = "punct"
    END = "end"


#: Reserved words recognised as keywords (upper-cased canonical form).
KEYWORDS = {
    "ANALYZE", "AND", "AS", "ASC", "BETWEEN", "BY", "CREATE", "DELETE", "DESC",
    "DISTINCT", "DROP", "EXPLAIN", "FROM", "GROUP", "INDEX", "INSERT", "INTO",
    "JOIN", "KEY", "LIMIT", "NOT", "NULL", "ON", "OR", "ORDER", "PRIMARY",
    "REFERENCES", "SELECT", "SET", "TABLE", "UNIQUE", "UPDATE", "USING",
    "VALUES", "WHERE",
}

#: The literal and identifier sub-patterns.  :mod:`repro.sql.template`
#: builds its literal lifter from the same strings, so the lifter and the
#: lexer cannot disagree about where a literal starts and ends.
FLOAT_PATTERN = r"\d+\.\d+"
INT_PATTERN = r"\d+"
STRING_PATTERN = r"'(?:[^']|'')*'"
IDENT_START = "A-Za-z_"
IDENT_CONTINUE = "A-Za-z_0-9."

_TOKEN_RE = re.compile(
    rf"""
    (?P<space>\s+)
  | (?P<float>{FLOAT_PATTERN})
  | (?P<int>{INT_PATTERN})
  | (?P<string>{STRING_PATTERN})
  | (?P<ident>[{IDENT_START}][{IDENT_CONTINUE}]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*?])
    """,
    re.VERBOSE,
)


def unquote(literal: str) -> str:
    """The value of a quoted string literal: quotes stripped, embedded
    ``''`` un-doubled."""
    return literal[1:-1].replace("''", "'")


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: str
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value == word


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`SQLSyntaxError` on junk."""
    tokens: List[Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {text[position]!r} at {position}"
            )
        kind = match.lastgroup
        value = match.group()
        if kind != "space":
            if kind == "ident":
                upper = value.upper()
                if upper in KEYWORDS:
                    tokens.append(Token(TokenType.KEYWORD, upper, position))
                else:
                    tokens.append(Token(TokenType.IDENT, value, position))
            elif kind == "int":
                tokens.append(Token(TokenType.INT, value, position))
            elif kind == "float":
                tokens.append(Token(TokenType.FLOAT, value, position))
            elif kind == "string":
                tokens.append(
                    Token(TokenType.STRING, unquote(value), position)
                )
            elif kind == "op":
                canonical = "!=" if value == "<>" else value
                tokens.append(Token(TokenType.OP, canonical, position))
            else:
                tokens.append(Token(TokenType.PUNCT, value, position))
        position = match.end()
    tokens.append(Token(TokenType.END, "", len(text)))
    count_event("sql_tokens", len(tokens))
    return tokens
