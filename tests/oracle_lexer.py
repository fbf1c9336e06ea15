"""Reference lexer: the hand-written character scanner that
`buildmetrics.lexer` replaced with one compiled pattern.

Kept so the differential test in test_lexer.py can compare the two token
streams and error positions. It follows the same Java rules: white space is
SP, HT, FF and line ends (JLS 3.6), and CR LF, a lone CR and LF each end a
line (JLS 3.4), so it scans the text with every line end made LF. It must
never import from the production package, so it carries its own copy of
LexicalError.
"""

import re
from dataclasses import dataclass


class LexicalError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# true/false/null lex as literals, not keywords.
WORD_LITERALS = frozenset({"true", "false", "null"})

# Longest match first.
OPERATORS = [
    ">>>=", "<<=", ">>=", ">>>", "==", "!=", "<=", ">=", "&&", "||", "++",
    "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>", "->",
    "::", "+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
    "?", ".",
]

PUNCTUATION = frozenset(";,{}()[]:@")


@dataclass(frozen=True)
class Token:
    kind: str  # identifier | keyword | operator-symbol | literal | comment | punctuation
    text: str
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def tokenize(source_text: str) -> list[Token]:
    """Split source text into tokens; raises LexicalError on unterminated
    block comments or string/char literals."""
    source_text = re.sub(r"\r\n?", "\n", source_text)
    if source_text.endswith("\x1a"):  # a last SUB is ignored (JLS 3.5)
        source_text = source_text[:-1]
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(source_text)

    def advance(text: str):
        nonlocal line, col
        for ch in text:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    while i < n:
        ch = source_text[i]
        if ch in " \t\f\n":
            advance(ch)
            i += 1
            continue

        start_line, start_col = line, col

        if ch == "/" and source_text.startswith("//", i):
            end = source_text.find("\n", i)
            if end == -1:
                end = n
            text = source_text[i:end]
            tokens.append(Token("comment", text, start_line, start_col))
            advance(text)
            i = end
            continue

        if ch == "/" and source_text.startswith("/*", i):
            end = source_text.find("*/", i + 2)
            if end == -1:
                raise LexicalError("unterminated block comment", start_line, start_col)
            text = source_text[i : end + 2]
            tokens.append(Token("comment", text, start_line, start_col))
            advance(text)
            i = end + 2
            continue

        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n:
                if source_text[j] == "\\":
                    j += 2
                    continue
                if source_text[j] == quote:
                    break
                if source_text[j] == "\n":
                    j = n
                    break
                j += 1
            if j >= n:
                what = "string" if quote == '"' else "character"
                raise LexicalError(f"unterminated {what} literal", start_line, start_col)
            text = source_text[i : j + 1]
            tokens.append(Token("literal", text, start_line, start_col))
            advance(text)
            i = j + 1
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and source_text[i + 1].isdigit()):
            j = i
            if source_text.startswith(("0x", "0X"), i):
                j = i + 2
                while j < n and (source_text[j] in "abcdefABCDEF_" or source_text[j].isdigit()):
                    j += 1
            else:
                seen_dot = False
                while j < n:
                    c = source_text[j]
                    if c.isdigit() or c == "_":
                        j += 1
                    elif c == "." and not seen_dot and j + 1 < n and source_text[j + 1].isdigit():
                        seen_dot = True
                        j += 1
                    elif c in "eE" and j + 1 < n and (source_text[j + 1].isdigit() or source_text[j + 1] in "+-"):
                        j += 2
                    else:
                        break
            if j < n and source_text[j] in "lLfFdD":
                j += 1
            text = source_text[i:j]
            tokens.append(Token("literal", text, start_line, start_col))
            advance(text)
            i = j
            continue

        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(source_text[j]):
                j += 1
            text = source_text[i:j]
            if text in WORD_LITERALS:
                kind = "literal"
            elif text in KEYWORDS:
                kind = "keyword"
            else:
                kind = "identifier"
            tokens.append(Token(kind, text, start_line, start_col))
            advance(text)
            i = j
            continue

        if ch in PUNCTUATION:
            tokens.append(Token("punctuation", ch, start_line, start_col))
            advance(ch)
            i += 1
            continue

        for op in OPERATORS:
            if source_text.startswith(op, i):
                tokens.append(Token("operator-symbol", op, start_line, start_col))
                advance(op)
                i += len(op)
                break
        else:
            raise LexicalError(f"illegal character {ch!r}", start_line, start_col)

    return tokens
