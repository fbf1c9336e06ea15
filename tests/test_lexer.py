import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import oracle_lexer
from buildmetrics.errors import ParseError
from buildmetrics import lexer
from buildmetrics.lexer import tokenize
from conftest import CORPUS
from synth import coupled_corpus, generate_corpus


def rows(tokens):
    """(kind, text, line, column) per token, comments included, in source order. A code token's
    column comes from `lexer.columns`; each comment is cut from the run that follows a code token
    in the lexer's own scan, and placed by its offset in `tokens.source`."""
    source, code, out, offset = tokens.source, zip(tokens.kinds, tokens.texts, tokens.lines,
                                                   lexer.columns(tokens.source), strict=True), [], 0
    for text, run in lexer._TOKEN.findall(source):
        if text:
            out.append(next(code))
        for comment in lexer._COMMENT.finditer(run):
            at = offset + len(text) + comment.start()
            out.append(("comment", comment.group(), source.count("\n", 0, at) + 1, at - source.rfind("\n", 0, at)))
        offset += len(text) + len(run)
    assert next(code, None) is None and len(out) == len(tokens)
    return out


def kinds(tokens):
    return [(kind, text) for kind, text, _, _ in rows(tokens)]


def test_empty_input():
    assert len(tokenize("")) == 0 and rows(tokenize("")) == []


def test_declaration_with_line_comment():
    toks = tokenize("int a = 1; // note")
    assert kinds(toks) == [
        ("keyword", "int"),
        ("identifier", "a"),
        ("operator-symbol", "="),
        ("literal", "1"),
        ("punctuation", ";"),
        ("comment", "// note"),
    ]


def test_unterminated_block_comment():
    with pytest.raises(ParseError) as exc:
        tokenize("/* unclosed")
    assert exc.value.line == 1


def test_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('String s = "oops;\n')


def test_block_comment_is_single_token():
    toks = tokenize("/* one\n two\n three */ int x;")
    (kind, text), *_ = kinds(toks)
    assert kind == "comment" and text.startswith("/*") and text.endswith("*/")
    assert toks.comment_count == 1 and [kind for kind, _ in kinds(toks)].count("comment") == 1


def test_positions_non_decreasing():
    src = "class A {\n  int x = 10;\n  // c\n}\n"
    positions = [(line, column) for _, _, line, column in rows(tokenize(src))]
    assert positions == sorted(positions)


def test_multichar_operators():
    ops = [text for kind, text in kinds(tokenize("a >= b && c != d")) if kind == "operator-symbol"]
    assert ops == [">=", "&&", "!="]


def test_word_literals_and_numbers():
    lits = [text for kind, text in kinds(tokenize("x = true; y = 3.5e2; z = 0x1F;")) if kind == "literal"]
    assert lits == ["true", "3.5e2", "0x1F"]


@given(
    st.lists(
        st.sampled_from(
            ["foo", "bar", "if", "42", '"s"', "+", "==", ";", "{", "}", "(", ")"]
        ),
        max_size=30,
    )
)
def test_space_joined_round_trip(parts):
    # Re-lexing the space-joined token texts reproduces the same stream.
    src = " ".join(parts)
    toks = tokenize(src)
    again = tokenize(" ".join(toks.texts))
    assert kinds(again) == kinds(toks)


def test_reprint_is_lexically_equivalent():
    src = 'class A { int x = 1; /* c */ String s = "a b"; }'
    code = [text for kind, text in kinds(tokenize(src)) if kind != "comment"]
    assert tokenize(" ".join(code)).texts == code


def _stream(lex, to_rows, error, text):
    """(kind, text, line, column) per token, or the error's message and position."""
    try:
        return to_rows(lex(text))
    except error as exc:
        return (str(exc), exc.line, exc.column)


def assert_matches_oracle(text):
    assert _stream(tokenize, rows, ParseError, text) == _stream(
        oracle_lexer.tokenize, lambda toks: [(t.kind, t.text, t.line, t.column) for t in toks],
        oracle_lexer.LexicalError, text)


# Java-like fragments that meet at the boundaries the scanners decide on.
EDGES = ["/*", "*/", "//", '"', "'", "\\", "0x", "0X", "_", "1", "7.", ".5", "e", "E",
         "1e+", "2E-", "L", "f", "ab", "if", "true", "$", " ", "\n", "\r", "\t", "\x0c",
         "é", "一", "`", "\x1a"]
SYMBOLS = oracle_lexer.OPERATORS + sorted(oracle_lexer.PUNCTUATION)


# The two scanners part only on Unicode numerics that are neither letters nor
# decimal digits (categories No and Nl), pinned in test_no_nl_numerics_are_word_characters.
@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.lists(
    st.sampled_from(EDGES) | st.sampled_from(SYMBOLS)
    | st.characters(exclude_categories=("No", "Nl")),
    min_size=4, max_size=32,
))
def test_matches_oracle_on_fragments(parts):
    assert_matches_oracle("".join(parts))


@pytest.mark.parametrize("src", [
    "0x_1F_L 0X 0xg 0x",
    "1.a 1..2 1.2.3 .5.5 ..5 5.",
    "1e+e+5.5e-5 1e 1E-- 1_000L 3.5f 2.d 1e5.3",
    "/* a */ b */ /*/ x */ /**/",
    "// c\r\n x //",
    "// c\r x /* \r\n\r */ y\r\r'\r'",
    "a::b -> c ? d : e $x _y a$1",
    ">>>= >>= >>> >> <<= << >>>> ||| &&& ++- --> !==",
    '"a\\"b" \'\\\'\' "a\\\nb" \'\\\\\'',
    '"\\',
    '"ab\ncd" \'x\ny\'',
])
def test_matches_oracle_on_edge_cases(src):
    assert_matches_oracle(src)


def test_matches_oracle_on_corpora(tmp_path):
    generate_corpus(tmp_path / "synth", n_success=10, n_failed=10, seed=7)
    coupled_corpus(tmp_path / "coupled", n_packages=14, seed=3)
    paths = sorted(CORPUS.rglob("*.java")) + sorted(tmp_path.rglob("*.java"))
    assert len(paths) > 80
    for path in paths:
        assert_matches_oracle(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("src, expected", [
    ("x²", [("identifier", "x²")]),  # the oracle agrees: it continues words on isalnum()
    ("²", [("identifier", "²")]),  # the oracle lexes a number literal (isdigit())
    ("½", [("identifier", "½")]),  # the oracle raises illegal character
    ("1²", [("literal", "1"), ("identifier", "²")]),  # the oracle lexes one literal
    ("Ⅻ = .5;", [("identifier", "Ⅻ"), ("operator-symbol", "="), ("literal", ".5"),
                 ("punctuation", ";")]),
])
def test_no_nl_numerics_are_word_characters(src, expected):
    assert kinds(tokenize(src)) == expected


# Every later `/*` or quote is unclosed too, and each once scanned to the end of the text again.
UNCLOSED_OPENERS = [pytest.param(src, message, 1, 1, id=f"{message}-x10000") for src, message in [
    ("/*a" * 10_000, "unterminated block comment"),
    ('"\\' * 10_000, "unterminated string literal"),
    ("'\\" * 10_000, "unterminated character literal"),
]]


@pytest.mark.parametrize("src, message, line, column", [
    ("int a;\n  /* open", "unterminated block comment", 2, 3),
    ('x = "ab\ncd";', "unterminated string literal", 1, 5),
    ("c = '\\';", "unterminated character literal", 1, 5),
    ("a\r\n\tb # c", "illegal character '#'", 2, 4),
    ("a\x0bb", "illegal character '\\x0b'", 1, 2),
    ("class A { }\x1a\n", "illegal character '\\x1a'", 1, 12),
    ("a\x1a\x1a", "illegal character '\\x1a'", 1, 2),
    ("/* a\n b */ int x; /* c */ #", "illegal character '#'", 2, 22),
    *UNCLOSED_OPENERS,
])
def test_error_message_and_position(src, message, line, column):
    with pytest.raises(ParseError) as exc:
        tokenize(src)
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"{message} at line {line}, column {column}", line, column)


@pytest.mark.parametrize("src, message, line, column", UNCLOSED_OPENERS)
def test_unclosed_openers_lex_in_linear_time(src, message, line, column):
    start = time.perf_counter()
    with pytest.raises(ParseError, match=message):
        tokenize(src)
    assert time.perf_counter() - start < 1.0


def test_cr_lf_and_lone_cr_end_lines_and_form_feed_is_space():
    toks = tokenize("a // b\rc\r\n\x0cd\n")
    assert rows(toks) == [("identifier", "a", 1, 1), ("comment", "// b", 1, 3),
                          ("identifier", "c", 2, 1), ("identifier", "d", 3, 2)]


@pytest.mark.parametrize("src", ["class A { }\n\x1a", "a\r\n\x1a", "a\x1a", "\x1a", "a //\x1a"])
def test_a_last_sub_is_ignored(src):
    assert rows(tokenize(src)) == rows(tokenize(src[:-1]))
    assert tokenize(src).source == tokenize(src[:-1]).source
    assert_matches_oracle(src)


def _tokenize_counting_classifications(monkeypatch, sources):
    """Tokenize every source; return the kinds that the memo had to classify."""
    classified = []
    classify = lexer._Kinds.__missing__

    def counting(memo, text):
        classified.append(kind := classify(memo, text))
        return kind

    monkeypatch.setattr(lexer._Kinds, "__missing__", counting)
    for source in sources:
        tokenize(source)
    return classified


def test_second_pass_classifies_nothing_new(monkeypatch, tmp_path):
    coupled_corpus(tmp_path, n_packages=14, seed=3)
    sources = [p.read_text() for p in sorted(CORPUS.rglob("*.java")) + sorted(tmp_path.rglob("*.java"))]
    _tokenize_counting_classifications(monkeypatch, sources)
    size = len(lexer._KINDS)
    again = _tokenize_counting_classifications(monkeypatch, sources)
    # Only literals, which the memo never keeps, reach the classifier again; comments never reach it.
    assert len(lexer._KINDS) == size and set(again) == {"literal"}


def test_comments_and_literals_add_no_memo_entries():
    source = "".join(f'"s{i}" {i}L \'{chr(0x4e00 + i)}\' /* c{i} */ // d{i}\n' for i in range(10_000))
    size = len(lexer._KINDS)
    toks = tokenize(source)
    assert toks.kinds.count("literal") == 30_000 and toks.comment_count == 20_000
    assert len(lexer._KINDS) == size


def test_tokenize_peak_memory_per_code_token():
    """A generated file of 50 fields and 20,000 one-line methods (0.93 MiB, 300,154 code tokens): the split's
    list is freed before the lines are counted, so the peak stays within a bound per code token."""
    source = "class Big {\n" + "".join(f"    int f{i};\n" for i in range(50)) + "".join(
        f"    int m{i}(int x) {{ return x * {i} + f{i % 50}; }}\n" for i in range(20_000)) + "}\n"
    tracemalloc.start()
    try:
        tokens = tokenize(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tokens.texts) == 300_154
    assert peak / len(tokens.texts) <= 120, f"{peak / len(tokens.texts):.0f} bytes per code token"


def test_line_end_memo_keeps_runs_of_white_space_only():
    source = "a /* x\n */ b // y\n  c\n\n  d"
    assert tokenize(source).lines == tokenize(source).lines == [1, 2, 3, 5]  # the second pass reads the memo
    assert lexer._LINE_ENDS.get("\n\n  ") == 2
    assert not any(run.strip(" \t\f\n") for run in lexer._LINE_ENDS)
