"""Tokenizer for the update language.

One compiled pattern scans the text (:data:`TOKEN_PATTERN`).  Notable
decisions:

* ``->`` is scanned before ``-`` (arrow beats minus);
* ``<=`` is the implication arrow; the less-or-equal comparison is spelled
  ``=<`` (Prolog's solution to the same collision);
* a ``.`` directly followed by a digit continues a number (``1.5``), any
  other ``.`` is a DOT token — so ``E.sal`` and the rule-terminating ``.``
  both work, and ``4500.`` is the number 4500 followed by the terminator;
* comments run from ``%`` or ``#`` to end of line.

The *literals* — identifiers, numbers, strings and comments — are the
alternatives :data:`LITERAL_PATTERN` splits a text on, and no punctuation
token contains a character a literal can start with.  So splitting a text
on literals and tokenizing it cut it at the same places, which is what lets
:mod:`repro.lang.shapes` key parsing by the text with its literals set
aside.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.lang.errors import ParseError

__all__ = ["Token", "tokenize", "TOKEN_TYPES", "TOKEN_PATTERN", "LITERAL_PATTERN"]


class Token(NamedTuple):
    """One lexical token with its 1-based source position."""

    type: str
    value: str
    line: int
    column: int

    def describe(self) -> str:
        if self.type == "EOF":
            return "end of input"
        return f"{self.value!r}"


#: All token types the scanner can emit (documentation / tests).
TOKEN_TYPES = (
    "IDENT",      # identifiers: foo, Foo, _x  (case decides OID vs variable)
    "NUMBER",     # 42, 4.5
    "STRING",     # 'quoted oid' or "quoted oid"
    "ARROW",      # ->
    "IMPLIES",    # <= or :-
    "DOT",        # .
    "COMMA",      # ,
    "HAT",        # ^
    "SLASH",      # /
    "AT",         # @
    "STAR",       # *
    "PLUS",       # +
    "MINUS",      # -
    "LPAREN",     # (
    "RPAREN",     # )
    "LBRACKET",   # [
    "RBRACKET",   # ]
    "TILDE",      # ~
    "COLON",      # :  (rule labels)
    "QMARK",      # ?  (version variables, Section 6 extension)
    "EQ",         # =
    "NE",         # !=
    "LT",         # <
    "GT",         # >
    "LE",         # =<
    "GE",         # >=
    "EOF",
)

#: The literal alternatives, in scanning order.  Identifiers start with a
#: word character that is not a decimal digit (a letter, ``_``, or a
#: non-decimal numeral such as ``²``) and continue with word characters;
#: a string may not span lines.
_LITERALS = (
    ("COMMENT", r"[%#][^\n]*"),
    ("NUMBER", r"\d+(?:\.\d+)?"),
    ("IDENT", r"[^\W\d]\w*"),
    ("STRING", r"'[^'\n]*'|\"[^\"\n]*\""),
)

_PUNCTUATION = {
    "->": "ARROW",
    "<=": "IMPLIES",
    ":-": "IMPLIES",
    "=<": "LE",
    ">=": "GE",
    "!=": "NE",
    ":": "COLON",
    "?": "QMARK",
    ".": "DOT",
    ",": "COMMA",
    "^": "HAT",
    "/": "SLASH",
    "@": "AT",
    "*": "STAR",
    "+": "PLUS",
    "-": "MINUS",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    "~": "TILDE",
    "=": "EQ",
    "<": "LT",
    ">": "GT",
}

#: One token per match, after the whitespace before it; two-character
#: punctuation comes first, so ``->`` beats ``-``.
TOKEN_PATTERN = re.compile(
    r"[ \t\r\n]*(?:"
    + "|".join(
        [f"(?P<{name}>{pattern})" for name, pattern in _LITERALS]
        + [
            "(?P<PUNCT>"
            + "|".join(re.escape(p) for p in sorted(_PUNCTUATION, key=len, reverse=True))
            + ")"
        ]
    )
    + ")"
)

#: The literals alone, as one capturing group: ``LITERAL_PATTERN.split``
#: alternates punctuation-and-whitespace runs with literals.
LITERAL_PATTERN = re.compile(
    "(" + "|".join(pattern for _name, pattern in _LITERALS) + ")"
)


def tokenize(text: str) -> list[Token]:
    """Scan ``text`` into a token list ending with an EOF token.

    Raises :class:`~repro.lang.errors.ParseError` on an unexpected
    character or an unterminated string.
    """
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the NamedTuple signature
    punctuation = _PUNCTUATION
    multiline = "\n" in text
    line = 1
    line_start = 0  # offset of the current line's first character
    position = 0
    for match in TOKEN_PATTERN.finditer(text):
        if match.start() != position:
            break  # an unmatched character: reported below
        kind = match.lastgroup
        start = match.start(kind)
        if multiline and start != position:
            newlines = text.count("\n", position, start)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", position, start) + 1
        position = match.end()
        if kind == "PUNCT":
            value = match.group(kind)
            append(new(Token, (punctuation[value], value, line, start - line_start + 1)))
        elif kind == "STRING":
            value = match.group(kind)[1:-1]
            append(new(Token, (kind, value, line, start - line_start + 1)))
        elif kind != "COMMENT":
            value = match.group(kind)
            append(new(Token, (kind, value, line, start - line_start + 1)))
    rest = text[position:]
    # whitespace the last match did not take
    skipped = len(rest) - len(rest.lstrip(" \t\r\n"))
    newlines = rest.count("\n", 0, skipped)
    if newlines:
        line += newlines
        line_start = position + rest.rindex("\n", 0, skipped) + 1
    position += skipped
    column = position - line_start + 1
    if position < len(text):
        char = text[position]
        if char in "'\"":
            # The pattern found no closing quote before the line's end.
            if "\n" in text[position:]:
                raise ParseError(
                    "unterminated string (newline inside quotes)", line, column
                )
            raise ParseError("unterminated string", line, column)
        raise ParseError(f"unexpected character {char!r}", line, column)
    append(new(Token, ("EOF", "", line, column)))
    return tokens
