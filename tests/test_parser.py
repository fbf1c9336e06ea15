import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics.errors import LexicalError, ParseError
from buildmetrics.javaparse import parse_source
from buildmetrics.lexer import KEYWORDS, WORD_LITERALS, Token, tokenize

from conftest import load_corpus_units


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
    assert [f.name for f in decl.fields_] == ["width", "height"]


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


def test_extends_and_implements():
    src = "class A extends B implements C, D { }"
    decl = parse_source(src, "A.java").types[0]
    assert decl.extends_names == ["B"]
    assert decl.supertype_names == ["B", "C", "D"]
    assert {"B", "C", "D"} <= decl.referenced_type_names


def test_generics_and_annotations_tolerated():
    src = """
    @Deprecated
    public class Box<T> {
        private java.util.List<T> items;
        @Override
        public T get(int i) { return items.get(i); }
    }
    """
    unit = parse_source(src, "Box.java")
    assert [t.name for t in unit.types] == ["Box"]
    assert [m.name for m in unit.types[0].methods] == ["get"]


def test_enum_skimmed_without_failure():
    src = "enum Color { RED, GREEN } class A { void m() { } }"
    unit = parse_source(src, "A.java")
    assert [t.name for t in unit.types] == ["A"]


def test_unbalanced_braces_error():
    # The body walk looks one or two tokens ahead; at the end of the file it
    # must report the body's opening brace, not index past the last token.
    for tail in ["", "x", "f (", "new", "new A", "new A .", "new A . B", "this ."]:
        with pytest.raises(ParseError, match=r"^unbalanced method body at line 1, column 20$"):
            parse_source("class A { void m() { " + tail, "A.java")


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
    before = Counter(t.text for t in tokens if t.kind == "identifier")
    decl = unit.types[0]
    after = Counter()
    after[unit.package_name] += 1
    after[decl.name] += 1
    for f in decl.fields_:
        after[f.name] += 1
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


def _tokens_reachable(value) -> bool:
    if isinstance(value, Token):
        return True
    if dataclasses.is_dataclass(value):
        return any(_tokens_reachable(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return any(_tokens_reachable(k) or _tokens_reachable(v) for k, v in value.items())
    if isinstance(value, (list, set, tuple)):
        return any(_tokens_reachable(item) for item in value)
    return False


def test_parsed_units_hold_no_tokens():
    units = load_corpus_units()
    assert units and not any(_tokens_reachable(unit) for unit in units)


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
    ". , ; { } ( ) < > >> @ ? : && = A B x y total 0 1.5 'c' \"s\" true null /* \""
).split(" ")


# Bare fragments rarely form a type, so most sources put them in a method
# body; the spare closing braces let a body open a block that it never closes,
# and the last template leaves the file to end inside the body.
_TEMPLATES = ("{}", "class A {{ int x, y; void m() {{ {} }} }} }} }}", "class A {{ int x; void m() {{ {}")


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(st.sampled_from(_TEMPLATES), st.lists(st.sampled_from(_FRAGMENTS), max_size=60))
def test_fragment_sources_parse_or_fail_cleanly(template, fragments):
    try:
        unit = parse_source(template.format(" ".join(fragments)), "A.java")
    except (LexicalError, ParseError):
        return
    for decl in unit.types:
        field_names = {f.name for f in decl.fields_}
        for method in decl.constructors + decl.methods:
            assert method.block_depths[:1] in ([], [1])
            assert method.accessed_field_names <= field_names
