"""Tokenizer for the Java subset handled by the toolkit.

Token kinds follow a fixed classification: identifier, keyword,
operator-symbol, literal, comment, punctuation. Comments are kept as single
tokens (delimiters included) so downstream comment counts see one token per
comment regardless of span.

The whole lexical grammar is one compiled alternation, tried in order at each
offset. A word starts with a character that `\\w` matches but `\\d` does not,
or `$`, and continues with `[\\w$]`. So Unicode numerics that are neither
letters nor decimal digits (categories No and Nl, such as `²`, `½`, `Ⅻ`) are
identifier characters, while a number starts with a decimal digit.
"""

import re
from typing import NamedTuple

from .errors import LexicalError

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# true/false/null lex as literals, not keywords.
WORD_LITERALS = frozenset({"true", "false", "null"})

_WORD_KINDS = dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(WORD_LITERALS, "literal")

_UNTERMINATED = {"/*": "block comment", '"': "string literal", "'": "character literal"}

# Digits, underscores and exponent pairs such as `e5` or `E-`.
_RUN = r"(?:[\d_]|[eE][\d+-])*"

_TOKEN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in [
    ("space", r"[ \t\r\n]+"),
    ("comment", r"//[^\n]*|/\*.*?\*/"),
    ("literal", r'"(?:\\.|[^"\\\n])*"|' r"'(?:\\.|[^'\\\n])*'|"
                r"0[xX][\da-fA-F_]*[lLfFdD]?|"
                rf"(?:\.\d|\d{_RUN}\.(?=\d)|\d){_RUN}[lLfFdD]?"),
    ("word", r"(?:[^\W\d]|\$)[\w$]*"),
    # Reached only by a `/*` or quote that the groups above cannot close.
    ("unterminated", r"/\*|[\"']"),
    ("punctuation", r"[;,{}()\[\]:@]"),
    # Longest first. `::` never forms: `:` is punctuation.
    ("operator", r">>>?=?|<<=?|[-+*/%=<>!&|^]=|&&|\|\||\+\+|--|->|[-+*/%=<>!&|^~?.]"),
    ("illegal", r"."),
]), re.DOTALL)


class Token(NamedTuple):
    kind: str  # identifier | keyword | operator-symbol | literal | comment | punctuation
    text: str
    line: int
    column: int


def tokenize(source_text: str) -> list[Token]:
    """Split source text into tokens; raises LexicalError on unterminated
    block comments or string/char literals, and on illegal characters."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source_text):
        kind, text, start = m.lastgroup, m.group(), m.start()
        if kind != "space":
            column = start - line_start + 1
            if kind == "word":
                kind = _WORD_KINDS.get(text, "identifier")
            elif kind == "operator":
                kind = "operator-symbol"
            elif kind == "unterminated":
                raise LexicalError(f"unterminated {_UNTERMINATED[text]}", line, column)
            elif kind == "illegal":
                raise LexicalError(f"illegal character {text!r}", line, column)
            tokens.append(Token(kind, text, line, column))
        if "\n" in text:
            line += text.count("\n")
            line_start = start + text.rindex("\n") + 1
    return tokens
