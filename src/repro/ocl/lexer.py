"""Tokenizer for the OCL-like expression language."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from .errors import OclSyntaxError


class TokenKind(enum.Enum):
    INT = "int"
    REAL = "real"
    STRING = "string"
    IDENT = "ident"
    KEYWORD = "keyword"
    OP = "op"
    EOF = "eof"


KEYWORDS = {
    "and", "or", "xor", "not", "implies",
    "if", "then", "else", "endif",
    "let", "in",
    "true", "false", "null", "self",
    "Set", "Sequence", "Bag", "OrderedSet", "Tuple",
}

# Multi-character operators first so maximal munch works.
OPERATORS = [
    "->", "<=", ">=", "<>", "::", "..",
    "+", "-", "*", "/", "=", "<", ">",
    "(", ")", "{", "}", "[", "]", ",", ".", "|", ":",
]


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    value: str
    position: int

    def __repr__(self) -> str:
        return f"Token({self.kind.value}, {self.value!r}@{self.position})"


def tokenize(text: str) -> List[Token]:
    """Turn *text* into a token list ending with an EOF token."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if text.startswith("--", i):          # line comment
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            # a real needs 'digit . digit'; '..' is the range operator
            if (i + 1 < n and text[i] == "." and text[i + 1].isdigit()):
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
                tokens.append(Token(TokenKind.REAL, text[start:i], start))
            else:
                tokens.append(Token(TokenKind.INT, text[start:i], start))
            continue
        if ch == "'":
            start = i
            i += 1
            chunks: List[str] = []
            while i < n and text[i] != "'":
                if text[i] == "\\" and i + 1 < n:
                    escape = text[i + 1]
                    chunks.append({"n": "\n", "t": "\t", "'": "'",
                                   "\\": "\\"}.get(escape, escape))
                    i += 2
                else:
                    chunks.append(text[i])
                    i += 1
            if i >= n:
                raise OclSyntaxError("unterminated string literal", start, text)
            i += 1  # closing quote
            tokens.append(Token(TokenKind.STRING, "".join(chunks), start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, word, start))
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OP, op, i))
                i += len(op)
                break
        else:
            raise OclSyntaxError(f"unexpected character {ch!r}", i, text)
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens
