"""Tokenizer for the Java subset handled by the toolkit.

A code token has a kind: identifier, keyword, operator-symbol, literal or
punctuation. A comment, delimiters included, is a token that is counted, not
kept. One C-level `split` per file matches one pattern again and again: a
code token, then the run of white space and comments after it; the first match
has no token, only the run that opens the text. Lines come from the line ends
in the runs, and from those in the tokens only when a token holds one.
`columns` runs the same scan again for an error. A `/*` or quote that cannot
be closed takes the rest of the text as one kindless token, so both scans stay
linear in the text's length on any input. A word starts with a `\\w`
character that is not a decimal digit (`\\d`), or `$`, so Unicode numerics such
as `²`, `½` and `Ⅻ` are identifier characters.
"""

import re
from itertools import accumulate, repeat
from operator import add

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

_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)
_QUOTED = r'"(?:\\.|[^"\\\n])*"|' r"'(?:\\.|[^'\\\n])*'"
_GAP = rf"(?:{_COMMENT.pattern})[{_SPACE}]*"  # a comment and the white space after it
# Groups: a code token (none at the start of the text) and the run after it. The run comes last, so
# it takes every trailing comment and the scan never starts again inside one. A run with no comment
# takes the empty branch, which costs less than a repeat that matches nothing.
_TOKEN = re.compile(r"(?:\A|(" + "|".join([
    r"(?:[^\W\d]|\$)[\w$]*", f"[{re.escape(_PUNCTUATION)}]", _QUOTED, r"0[xX][\da-fA-F_]*[lLfFdD]?",
    rf"(?:\.\d|\d{_RUN}\.(?=\d)|\d){_RUN}[lLfFdD]?",
    r"(?:/\*|[\"']).*",  # an opener that no comment or literal closes is the first error: take the rest
    *map(re.escape, _OPERATORS), ".",  # any other character is illegal
]) + rf"))([{_SPACE}]*(?:{_GAP}(?:{_GAP})*|))", re.DOTALL)
_FIRST = re.compile(rf"(?P<literal>(?:{_QUOTED})\Z|\.?\d)|(?P<identifier>[^\W\d]|\$)", re.DOTALL)


class _Kinds(dict):
    """Kind by token text. Keywords and symbols are given, an identifier is kept once seen, and
    a literal is told by its form and never kept: the memo holds a vocabulary."""

    def __missing__(self, text: str) -> str:
        if text[0] in "0123456789.":  # a number, with no regex; the bare `.` is given
            return "literal"
        if (m := _FIRST.match(text)) is None:
            raise KeyError(text)
        if m.lastgroup == "identifier":
            self[text] = "identifier"
        return m.lastgroup


class _LineEnds(dict):
    """Line ends by run. A run of white space alone is kept, so the memo holds indentations."""

    def __missing__(self, run: str) -> int:
        n = run.count("\n")
        if not run.strip(_SPACE):  # a run that holds a comment is counted each time
            self[run] = n
        return n


_LINE_ENDS = _LineEnds()
_KINDS = _Kinds(dict.fromkeys(KEYWORDS, "keyword") | dict.fromkeys(WORD_LITERALS, "literal")
                | dict.fromkeys(_OPERATORS, "operator-symbol") | dict.fromkeys(_PUNCTUATION, "punctuation"))


class Tokens:
    __slots__ = ("source", "kinds", "texts", "lines", "comment_count")

    def __init__(self, source: str, kinds: list[str], texts: list[str], lines: list[int], comment_count: int):
        self.source = source  # the lexed text, every line end made LF; a token has a line but no column
        self.kinds = kinds  # identifier | keyword | operator-symbol | literal | punctuation
        self.texts, self.lines, self.comment_count = texts, lines, comment_count

    def __len__(self) -> int:
        return len(self.texts) + self.comment_count


def tokenize(source_text: str) -> Tokens:
    """One file's code tokens as parallel lists in source order, and its comment count; raises
    ParseError on unterminated block comments or string/char literals, and on illegal characters."""
    source_text = source_text.removesuffix("\x1a")  # a last SUB (control-Z) is ignored (JLS 3.5)
    source_text = source_text.replace("\r\n", "\n").replace("\r", "\n")  # CR LF, CR, LF (JLS 3.4)
    parts = _TOKEN.split(source_text)  # "", None, the first run, then "", a token and its run per token, ""
    texts, runs = parts[4::3], parts[2::3]
    del parts  # freed before the lines and kinds are built, so it never coexists with them
    lines = list(accumulate(map(_LINE_ENDS.__getitem__, runs), initial=1))
    if lines[-1] != source_text.count("\n") + 1:  # a token holds a line end: an escaped one, or an error's
        lines = list(accumulate(map(str.count, map(add, ["", *texts], runs), repeat("\n")), initial=1))
    del lines[0], lines[-1]
    comment_count = len(_COMMENT.findall("".join(runs)))  # the runs hold white space and whole comments
    try:
        return Tokens(source_text, list(map(_KINDS.__getitem__, texts)), texts, lines, comment_count)
    except KeyError as exc:  # an unterminated or illegal token; a kind depends on the text alone,
        i = texts.index(bad := exc.args[0])  # so its first occurrence is the first error
        what = (f"unterminated {_UNTERMINATED[bad[0]]}" if bad[0] in _UNTERMINATED
                else f"illegal character {bad!r}")
        raise ParseError(what, lines[i], columns(source_text)[i]) from None


def columns(source: str) -> list[int]:
    """The 1-based column of each code token of a `Tokens.source` lexed again."""
    # The split's lengths from the first run on alternate run, "", token: each run ends where a token starts.
    starts = list(accumulate(map(len, _TOKEN.split(source)[2:-2])))[::3]
    return [offset - source.rfind("\n", 0, offset) for offset in starts]
