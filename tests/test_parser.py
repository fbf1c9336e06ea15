import ast
import re
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics.errors import ParseError
from buildmetrics.javaparse import parse_source, parse_unit
from buildmetrics.lexer import KEYWORDS, WORD_LITERALS, Tokens, tokenize

import oracle_lexer
from conftest import CORPUS, load_corpus_units
from oracle_metrics import OracleUnit


def test_simple_class_with_if():
    unit = parse_source("class A { void m() { if (x) { y(); } } }", "A.java")
    assert [t.name for t in unit.types] == ["A"]
    (method,) = unit.types[0].methods
    assert method.decision_points == 1
    assert method.block_depths == [1, 2]


def test_interface_method_without_body():
    unit = parse_source("interface I { void f(int a, int b); }", "I.java")
    decl = unit.types[0]
    assert decl.kind == "interface"
    assert decl.is_abstract
    (method,) = decl.methods
    assert method.parameter_count == 2
    assert method.body_lines == 0
    assert method.block_depths == []


def test_comments_only_file():
    unit = parse_source("// a\n/* b */\n", "C.java")
    assert unit.types == []
    assert unit.comment_count == 2
    assert unit.code_lines == 0


def test_constructor_not_counted_as_method():
    src = "class A { A() { } void m() { } }"
    decl = parse_source(src, "A.java").types[0]
    assert [c.name for c in decl.constructors] == ["A"]
    assert [m.name for m in decl.methods] == ["m"]


def test_multi_declarator_field():
    decl = parse_source("class C { int width, height; }", "C.java").types[0]
    assert decl.field_names == ["width", "height"]


@pytest.mark.parametrize("field, names", [
    ("Map<String, Integer> a = new HashMap<String, Integer>(), b;", ["a", "b"]),
    ("Map<K, List<V>> a = new HashMap<K, List<V>>(f(x, y)), b = null;", ["a", "b"]),
    ("boolean a = x < y, b;", ["a", "b"]),
    ("int a = 1, b[] = {2, 3}, c;", ["a", "b", "c"]),
])
def test_comma_in_initializer_generics_names_no_field(field, names):
    decl = parse_source(f"class C {{ {field} }}", "C.java").types[0]
    assert decl.field_names == names


def test_field_access_through_this():
    src = """
    class A {
        int x;
        void direct() { x = 1; }
        void via_this() { this.x = 2; }
        void other(B b) { b.x = 3; }
    }
    """
    decl = parse_source(src, "A.java").types[0]
    by_name = {m.name: m.accessed_field_names for m in decl.methods}
    assert by_name["direct"] == {"x"}
    assert by_name["via_this"] == {"x"}
    assert by_name["other"] == set()


def test_decision_point_inventory():
    src = """
    class A {
        void m(int a, int b) {
            if (a > 0 && b > 0) { a = 1; }
            for (int i = 0; i < a; i = i + 1) { b = b + 1; }
            while (b > 0) { b = b - 1; }
            do { a = a - 1; } while (a > 0);
            switch (a) { case 1: break; case 2: break; }
            int c = a > b ? a : b;
            try { m(a, b); } catch (Exception e) { }
            boolean d = a > 0 || b > 0;
        }
    }
    """
    (method,) = parse_source(src, "A.java").types[0].methods
    # if, &&, for, while, do + its trailing while, case, case, ?, catch, ||
    assert method.decision_points == 11


def test_nested_type_captured():
    src = "class Outer { int a; class Inner { int b; } }"
    unit = parse_source(src, "O.java")
    assert sorted(t.name for t in unit.types) == ["Inner", "Outer"]


def test_nested_types_close_inner_first_with_their_own_members():
    src = ("class A { int a; void f() { a++; b++; } "
           "class B { int b; interface C { void g(); } B() { b = 1; } } "
           "enum D { X, Y; int d; } void h() { } }")
    unit = parse_source(src, "A.java")
    assert [t.name for t in unit.types] == ["C", "B", "D", "A"]
    c, b, d, a = unit.types
    assert (a.field_names, [m.name for m in a.methods]) == (["a"], ["f", "h"])
    assert a.methods[0].accessed_field_names == {"a"}
    assert (b.field_names, len(b.constructors), b.constructors[0].accessed_field_names) == (["b"], 1, {"b"})
    assert ([m.name for m in c.methods], c.is_abstract, d.field_names) == (["g"], True, ["d"])


def test_deeply_nested_types_parse_without_recursion():
    depth = 3000
    src = "package p; " + "".join(f"class A{i} {{ int f{i}; " for i in range(depth)) + "}" * depth
    unit = parse_source(src, "A0.java")
    assert [t.name for t in unit.types] == [f"A{i}" for i in reversed(range(depth))]
    assert all(t.field_names == [f"f{i}"] for i, t in zip(reversed(range(depth)), unit.types))
    with pytest.raises(ParseError, match=r"^unbalanced braces in type A0 at line 1, column 21$"):
        parse_source(src[:-1], "A0.java")


def test_extends_and_implements():
    src = "class A extends B implements C, D { }"
    decl = parse_source(src, "A.java").types[0]
    assert decl.extends_names == ["B"]
    assert decl.referenced_type_names == {"B", "C", "D"}


def test_throws_list_adds_referenced_names():
    decl = parse_source("interface I { void f() throws A, b.C; }", "I.java").types[0]
    assert decl.referenced_type_names == {"A", "b.C"}


def test_generics_and_annotations_tolerated():
    src = """
    @Generated("p")
    package p;
    @Deprecated
    public class Box<T> {
        private java.util.List<T> items;
        @Override
        public T get(int i) { return items.get(i); }
    }
    """
    unit = parse_source(src, "Box.java")
    assert unit.package_name == "p"
    assert [t.name for t in unit.types] == ["Box"]
    assert [m.name for m in unit.types[0].methods] == ["get"]



@pytest.mark.parametrize("params, count", [
    ("Map<String, Integer> m", 1),
    ("Map<K, List<V>> m, int b", 2),
    ("Map<K, Map<K, List<V>>> m, int b", 2),
    ("int[] a, String... rest", 2),
])
def test_comma_in_generic_parameter_type_splits_nothing(params, count):
    (method,) = parse_source(f"interface I {{ void f({params}); }}", "I.java").types[0].methods
    assert method.parameter_count == count


def test_parameter_annotations_add_no_type_names():
    src = 'interface I { void f(@Config(required = true, value = "x") String s, @a.Valid final int n); }'
    decl = parse_source(src, "I.java").types[0]
    assert decl.methods[0].parameter_count == 2
    assert decl.referenced_type_names == {"String"}


@pytest.mark.parametrize("path, names", [
    ("api/Service.java", {"Config", "required", "value"}),
    ("impl/Annotated.java", {"Valid", "groups", "Strict"}),
])
def test_grammar_fixture_parameter_annotations_add_no_type_names(path, names):
    text = (Path(__file__).parent / "fixtures" / "grammar" / path).read_text()
    assert not parse_source(text, path).types[0].referenced_type_names & names

def test_enum_skimmed_without_failure():
    src = "enum Color { RED, GREEN } class A { void m() { } }"
    unit = parse_source(src, "A.java")
    assert [t.name for t in unit.types] == ["Color", "A"]


def test_enum_members_after_constants():
    src = ("enum E implements I { A(1), B { void x() { } }; private int v; "
           "E(int v) { this.v = v; } int get() { return v; } }")
    (decl,) = parse_source(src, "E.java").types
    assert decl.kind == "enum" and not decl.is_abstract
    assert decl.field_names == ["v"]
    assert len(decl.constructors) == 1
    assert [m.name for m in decl.methods] == ["get"]
    assert decl.referenced_type_names == {"I"}


def test_stray_parenthesis_in_type_body_skimmed():
    (decl,) = parse_source("class A { (x) int y; }", "A.java").types
    assert decl.field_names == ["y"]
    assert decl.methods == [] and decl.constructors == []


def test_unbalanced_braces_error():
    # The body walk looks one or two tokens ahead; at the end of the file it
    # must report the body's opening brace, not index past the last token.
    for tail in ["", "x", "f (", "new", "new A", "new A .", "new A . B", "this ."]:
        with pytest.raises(ParseError, match=r"^unbalanced method body at line 1, column 20$"):
            parse_source("class A { void m() { " + tail, "A.java")


@pytest.mark.parametrize("src", [
    pytest.param("class A { int a; void m() { a = 1; } } // x", id="line comment without a last line end"),
    pytest.param("class A {\n  void m() {\n    a = 1;\n  }\n}\n/* */", id="block comment before end of file"),
    pytest.param("/* a // b\n */ class A {\n  void m() { a = b; }\n}\n", id="line opener in a block comment"),
    pytest.param('// a /* b\nclass A {\n  String s = "/* c";\n  void m() {\n    s = "/*" + s; // d\n  }\n}\n',
                 id="block opener in a line comment and in strings"),
    pytest.param("// a\rclass A {\r  void m() {\r    x = 1; /* b\r c */\r  }\r}\r", id="CR line ends"),
])
def test_comment_edge_cases_match_the_oracle(src):
    unit, oracle = parse_source(src, "A.java"), OracleUnit("A.java", src)
    assert (unit.comment_count, unit.code_lines, unit.physical_lines) == (
        oracle.comment_count, oracle.code_lines, oracle.physical_lines)
    assert [m.body_lines for t in unit.types for m in t.constructors + t.methods] == [
        m["lines"] for t in oracle.types for m in t["ctors"] + t["methods"]]


# The first string literal holds a backslash and a line end, so the lines after it count the line ends
# inside tokens too, and the second holds two.
ESCAPED_LINE_ENDS = 'class A {\n  String s = "a\\\nb";\n  void m() {\n    s = s + "c\\\n\\\nd";\n  }\n}\n'


def test_lines_after_a_literal_that_holds_a_line_end_match_the_oracles():
    tokens, unit = tokenize(ESCAPED_LINE_ENDS), parse_source(ESCAPED_LINE_ENDS, "A.java")
    oracle = OracleUnit("A.java", ESCAPED_LINE_ENDS)
    assert tokens.lines == [t.line for t in oracle_lexer.tokenize(ESCAPED_LINE_ENDS)]
    assert tokens.lines[-3:] == [7, 8, 9]
    assert (unit.code_lines, unit.physical_lines) == (oracle.code_lines, oracle.physical_lines) == (8, 9)
    assert [m.body_lines for m in unit.types[0].methods] == [m["lines"] for m in oracle.types[0]["methods"]] == [5]
    with pytest.raises(oracle_lexer.LexicalError) as expected:
        oracle_lexer.tokenize(ESCAPED_LINE_ENDS + "  #")
    with pytest.raises(ParseError) as exc:
        tokenize(ESCAPED_LINE_ENDS + "  #")
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        str(expected.value), expected.value.line, expected.value.column) == (
        "illegal character '#' at line 10, column 3", 10, 3)


@pytest.mark.parametrize("src, message", [
    ("class A /* c */ x", "expected '{', found 'x' at line 1, column 17"),
    ("// l\n/* a\n b */ class A { /* c */ void m() { ", "unbalanced method body at line 3, column 34"),
    ("class A { void m(/* c */ int a  { }", "unbalanced parameter list at line 1, column 17"),
    ("class A { } // x\n#", "illegal character '#' at line 2, column 1"),
    ("/* a // b\n */ class A x", "expected '{', found 'x' at line 2, column 13"),
    ("// a /* b\nclass A x", "expected '{', found 'x' at line 2, column 9"),
    ('class A { String s = "/* c"; void m() { s = "/*"; } /* d */ void n( }',
     "unbalanced parameter list at line 1, column 67"),
    ("// a\rclass A {\r  /* b\r c */ void m() {\r", "unbalanced method body at line 4, column 16"),
    ("class A { void m() { x = 1; // y", "unbalanced method body at line 1, column 20"),
    ("/* a */ /* b */ '", "unterminated character literal at line 1, column 17"),
    ("class A /* c */ <T {", "unbalanced '<' at line 1, column 17"),
    ("class A extends /* c */ B<C { }", "unbalanced '<' at line 1, column 26"),
    ("class A { /* c */ <T void m() {} }", "unbalanced '<' at line 1, column 19"),
    ("class A { @X(/* c */ 1 int f; }", "unbalanced '(' at line 1, column 13"),
    ("class A { static /* c */ { int x; ", "unbalanced '{' at line 1, column 26"),
    # An error at the end of the file is placed at the '{' of the type it leaves open, or else at the last token.
    ("class A extends B /* c */", "expected '{', found 'end of file' at line 1, column 17"),
    ("class A { int f; /* c */", "unbalanced braces in type A at line 1, column 9"),
    ("class A /* c */ extends", "unexpected end of file at line 1, column 17"),
    ("/* c */ class A { void m() throws", "unexpected end of file at line 1, column 17"),
    ("class A {\n  /* c */ class B implements C", "expected '{', found 'end of file' at line 1, column 9"),
])
def test_error_position_counts_the_comments_before_it(src, message):
    with pytest.raises(ParseError) as exc:
        parse_source(src, "A.java")
    assert str(exc.value) == message


def test_identifier_multiset_preserved():
    src = """
    package p;
    class A {
        int total;
        void add(int amount) { total = total + amount; }
    }
    """
    tokens = tokenize(src)
    unit = parse_source(src, "A.java")
    before = Counter(text for kind, text in zip(tokens.kinds, tokens.texts) if kind == "identifier")
    decl = unit.types[0]
    after = Counter()
    after[unit.package_name] += 1
    after[decl.name] += 1
    for name in decl.field_names:
        after[name] += 1
    for m in decl.methods:
        after[m.name] += 1
        for counts in (m.operator_tokens, m.operand_tokens):
            after.update({text: n for text, n in counts.items()
                          if text.isidentifier() and text not in KEYWORDS | WORD_LITERALS})
        after["amount"] += 1  # the parameter name
    assert after == before


def test_block_depth_invariant_over_corpus():
    for unit in load_corpus_units():
        for decl in unit.types:
            for method in decl.constructors + decl.methods:
                depths = method.block_depths
                assert bool(depths) == (method.body_lines >= 1)
                if depths:
                    assert depths[0] == 1
                    assert all(1 < b <= a + 1 for a, b in zip(depths, depths[1:]))
                assert method.decision_points >= 0


@pytest.mark.parametrize("src", [
    "// header\rpackage p;\rclass A {}",
    "// header\r\npackage p;\r\nclass A {}\r\n",
])
def test_cr_and_cr_lf_end_a_line_comment_and_a_line(src):
    unit = parse_source(src, "A.java")
    assert (unit.package_name, [t.name for t in unit.types]) == ("p", ["A"])
    assert (unit.comment_count, unit.code_lines, unit.physical_lines) == (1, 2, 3)


def test_code_lines_at_most_physical_lines():
    for unit in load_corpus_units():
        assert unit.code_lines <= unit.physical_lines


def _only_method(body: str):
    (method,) = parse_source(f"class A {{ void m() {{ {body} }} }}", "A.java").types[0].methods
    return method


def test_halstead_hand_count():
    method = _only_method("a = b + b;")
    assert method.operator_tokens == Counter({"=": 1, "+": 1})
    assert method.operand_tokens == Counter({"a": 1, "b": 2})


def test_halstead_calls_and_ternary():
    method = _only_method("x = f(a) ? g(b) : c;")
    operators, operands = method.operator_tokens, method.operand_tokens
    assert operators["f"] == 1 and operators["g"] == 1
    assert operators["?:"] == 1
    assert ":" not in operators
    assert operands == Counter({"x": 1, "a": 1, "b": 1, "c": 1})


def _held(value) -> list:
    """value and everything reachable from it through slotted attributes and containers."""
    held, stack = [], [value]
    while stack:
        held.append(v := stack.pop())
        if isinstance(v, dict):
            stack.extend(chain.from_iterable(v.items()))
        elif isinstance(v, (list, set, tuple)):
            stack.extend(v)
        else:
            stack.extend(getattr(v, name) for cls in type(v).__mro__ for name in getattr(cls, "__slots__", ()))
    return held


def test_parsed_units_hold_no_tokens():
    paths = sorted(CORPUS.rglob("*.java"))
    assert paths
    tallies = 0
    for path in paths:
        tokens = tokenize(path.read_text())
        stream = {id(tokens), id(tokens.kinds), id(tokens.texts), id(tokens.lines)}
        unit = parse_unit(tokens, path.name)
        held = {id(v): v for v in _held(unit)}
        assert not any(isinstance(v, Tokens) or i in stream for i, v in held.items()), path
        # The walk reaches down to each method's tallies, so it looked at everything the unit holds.
        counters = [m.operator_tokens for t in unit.types for m in t.methods + t.constructors]
        assert all(id(c) in held for c in counters), path
        tallies += len(counters)
    assert tallies


@pytest.mark.parametrize("src", [
    "package p; class B extends",
    "package",
    "import",
    "import static",
    "class",
    "interface",
    "class A implements B,",
    "@",
    "class A { void m() throws",
])
def test_truncated_source_is_parse_error(src):
    with pytest.raises(ParseError, match="unexpected end of file"):
        parse_source(src, "A.java")


_FRAGMENTS = (
    "package import class interface enum extends implements throws new this "
    "public static abstract final default void int . , ; { } ( ) [ ] < > >> >>> @ ? : && * = "
    "A B x y total 0 1.5 'c' \"s\" true null /* \""
).split(" ")


# Bare fragments rarely form a type, so the other sources put them in a type
# body or a method body; the spare closing braces let a body open a block that
# it never closes, and the last template leaves the file to end inside the body.
_TEMPLATES = (
    "{}",
    "class A {{ {} }}",
    "class A {{ int x, y; void m() {{ {} }} }} }} }}",
    "class A {{ int x; void m() {{ {}",
)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.sampled_from(_TEMPLATES), st.lists(st.sampled_from(_FRAGMENTS), max_size=60))
def test_fragment_sources_parse_or_fail_cleanly(template, fragments):
    try:
        unit = parse_source(template.format(" ".join(fragments)), "A.java")
    except ParseError:
        return
    for decl in unit.types:
        field_names = set(decl.field_names)
        for method in decl.constructors + decl.methods:
            assert method.block_depths[:1] in ([], [1])
            assert method.accessed_field_names <= field_names


_OPENERS = {"unbalanced parameter list": "(", "unbalanced method body": "{",
            "unterminated block comment": "/*", "unterminated string literal": '"',
            "unterminated character literal": "'"}


def _named_token(error, text: str) -> str | tuple[str, str]:
    """The token text that a positioned ParseError names or reports the opening of. An error at the end
    of the file reports the opening of the type it leaves open, or else names the file's last token."""
    message = str(error).rsplit(" at line ", 1)[0]
    if message in _OPENERS:
        return _OPENERS[message]
    if message.startswith("unbalanced braces in type "):
        return "{"
    if message == "unexpected end of file" or message.endswith(", found 'end of file'"):
        return "{", tokenize(text).texts[-1]
    quoted = re.fullmatch(r"(?:expected .*, found |unbalanced |illegal character )(.*)", message)[1]
    return ast.literal_eval(quoted)


# Comments move every later token's column; a line end moves its line, and a `#` or lone quote ends the lexing.
_COMMENTED = _FRAGMENTS + ["/* c */", "// l\n", "/* a\n b */", "\n", "\r\n", "#", "'"]


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.sampled_from(_TEMPLATES), st.lists(st.sampled_from(_COMMENTED), max_size=40))
def test_error_position_holds_the_named_token(template, fragments):
    text = "/* x */ " + template.format(" ".join(fragments))
    try:
        parse_source(text, "A.java")
    except ParseError as exc:
        if exc.line:
            line = text.replace("\r\n", "\n").split("\n")[exc.line - 1]
            assert line[exc.column - 1:].startswith(_named_token(exc, text)), exc
