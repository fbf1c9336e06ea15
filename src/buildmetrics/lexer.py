"""Tokenizer for the Java subset handled by the toolkit.

Kinds: identifier, keyword, operator-symbol, literal, comment (one token,
delimiters included) and punctuation. One C-level `findall` per file tries one
alternation in order at each offset, and `columns` lexes again for an error. A
`/*` or quote that cannot be closed takes the rest of the text as one kindless
token, so both scans stay linear in the text's length on any input. A word
starts with a `\\w` character that is not a decimal digit (`\\d`), or `$`, so
Unicode numerics such as `²`, `½` and `Ⅻ` are identifier characters.
"""

import re
from itertools import accumulate, compress, repeat

from .errors import ParseError

KEYWORDS = frozenset("""abstract assert boolean break byte case catch char class const continue default
    do double else enum extends final finally float for goto if implements import instanceof int interface
    long native new package private protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split())
WORD_LITERALS = frozenset({"true", "false", "null"})  # they lex as literals, not keywords

# Longest first. `::` never forms: `:` is punctuation.
_OPERATORS = (">>>= >>> >>= >> <<= << -> == != <= >= += -= *= /= %= &= |= ^= && || ++ --"
              " + - * / % = < > ! & | ^ ~ ? .").split()
_PUNCTUATION = ";,{}()[]:@"
_UNTERMINATED = {"/": "block comment", '"': "string literal", "'": "character literal"}  # by first character
_SPACE = " \t\f\r\n"  # JLS 3.6 white space
_RUN = r"(?:[\d_]|[eE][\d+-])*"  # digits, underscores and exponent pairs such as `e5` or `E-`

_COMMENT = r"//[^\n]*|/\*.*?\*/"
_QUOTED = r'"(?:\\.|[^"\\\n])*"|' r"'(?:\\.|[^'\\\n])*'"
_TOKEN = re.compile("|".join([
    f"[{_SPACE}]+", _COMMENT, _QUOTED, r"0[xX][\da-fA-F_]*[lLfFdD]?",
    rf"(?:\.\d|\d{_RUN}\.(?=\d)|\d){_RUN}[lLfFdD]?", r"(?:[^\W\d]|\$)[\w$]*",
    r"(?:/\*|[\"']).*",  # an opener the above cannot close is the first error: take the rest
    f"[{re.escape(_PUNCTUATION)}]", *map(re.escape, _OPERATORS), ".",  # any other character is illegal
]), re.DOTALL)
_FIRST = re.compile(rf"(?P<comment>(?:{_COMMENT})\Z)|(?P<literal>(?:{_QUOTED})\Z|\.?\d)"
                    r"|(?P<identifier>[^\W\d]|\$)", re.DOTALL)


class _Kinds(dict):
    """Kind by token text. Keywords and symbols are given, an identifier is kept once seen, and
    a comment or literal is told by its form and never kept: the memo holds a vocabulary."""

    def __missing__(self, text: str) -> str:
        if (m := _FIRST.match(text)) is None:
            raise KeyError(text)
        if m.lastgroup == "identifier":
            self[text] = "identifier"
        return m.lastgroup


_KINDS = _Kinds(dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(WORD_LITERALS, "literal")
                | dict.fromkeys(_OPERATORS, "operator-symbol") | dict.fromkeys(_PUNCTUATION, "punctuation"))


class Tokens:
    __slots__ = ("source", "kinds", "texts", "lines")

    def __init__(self, source: str, kinds: list[str], texts: list[str], lines: list[int]):
        self.source = source  # the lexed text, every line end made LF; a token has a line but no column
        self.kinds = kinds  # identifier | keyword | operator-symbol | literal | comment | punctuation
        self.texts, self.lines = texts, lines

    def __len__(self) -> int:
        return len(self.texts)


def tokenize(source_text: str) -> Tokens:
    """One file's tokens as parallel lists in source order; raises ParseError on
    unterminated block comments or string/char literals, and on illegal characters."""
    source_text = source_text.removesuffix("\x1a")  # a last SUB (control-Z) is ignored (JLS 3.5)
    source_text = source_text.replace("\r\n", "\n").replace("\r", "\n")  # CR LF, CR, LF (JLS 3.4)
    found = _TOKEN.findall(source_text)
    keep = list(map(str.strip, found, repeat(_SPACE)))  # empty for white space
    texts = list(compress(found, keep))
    lines = list(compress(accumulate(map(str.count, found, repeat("\n")), initial=1), keep))
    try:
        return Tokens(source_text, list(map(_KINDS.__getitem__, texts)), texts, lines)
    except KeyError as exc:  # an unterminated or illegal token; a kind depends on the text alone,
        i = texts.index(bad := exc.args[0])  # so its first occurrence is the first error
        what = (f"unterminated {_UNTERMINATED[bad[0]]}" if bad[0] in _UNTERMINATED
                else f"illegal character {bad!r}")
        raise ParseError(what, lines[i], columns(source_text)[i]) from None


def columns(source: str) -> list[int]:
    """The 1-based column of each token, comments included, of a `Tokens.source` lexed again."""
    found = _TOKEN.findall(source)
    return [offset - source.rfind("\n", 0, offset) for offset in compress(
        accumulate(map(len, found), initial=0), map(str.strip, found, repeat(_SPACE)))]
