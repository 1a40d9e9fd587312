"""Tokenizer for the textual kernel language."""

from __future__ import annotations

import re
from collections import namedtuple

from repro.errors import ParseError

KEYWORDS = {
    "kernel",
    "func",
    "let",
    "store",
    "if",
    "else",
    "while",
    "for",
    "in",
    "break",
    "continue",
    "return",
    "predict",
    "label",
    "warpsync",
    "ctasync",
    "delay",
    "and",
    "or",
}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>//[^\n]*|\#[^\n]*)
  | (?P<number>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<at>@[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\.\.|<=|>=|==|!=|[-+*/%<>=!(){},;:])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: One token: ``kind`` is number | name | keyword | at | op | eof.
Token = namedtuple("Token", "kind text line")


def tokenize(source):
    """Tokenize kernel-language source; raises ParseError on bad input.

    One ``finditer`` pass; only whitespace spans lines, so the line
    count advances there alone.
    """
    tokens = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without its Python-level __new__
    line = 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind == "ws":
            line += match.group().count("\n")
            continue
        if kind == "comment":
            continue
        text = match.group()
        if kind == "name":
            if text in KEYWORDS:
                kind = "keyword"
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line=line)
        append(new(Token, (kind, text, line)))
    append(new(Token, ("eof", "", line)))
    return tokens
