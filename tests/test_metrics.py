import math

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics.errors import DataError
from buildmetrics.javaparse import MethodDecl, TypeDecl, parse_source
from buildmetrics.metrics import (
    METRIC_IDS,
    compute_all_metrics,
    cyclomatic,
    format_value,
    halstead_suite,
    lcom_suite,
    maintainability_index,
    martin_suite,
    metrics_csv,
    parse_metrics_csv,
)
from buildmetrics.model import build_code_model

from conftest import CORPUS, by_id, load_corpus_units
from oracle_metrics import OracleCorpus, _lcom
from synth import coupled_corpus

INTEGRAL_IDS = {1, 8, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 26, 30, 31, 32, 33, 38, 40}


def _model(*sources):
    return build_code_model([parse_source(text, path) for path, text in sources])


# -- halstead ------------------------------------------------------------


def test_halstead_all_zero():
    values = halstead_suite(0, 0, 0, 0)
    assert all(v == 0 for v in values.values())
    assert set(values) == set(range(30, 42))


def test_halstead_unit_counts():
    v = halstead_suite(N1=1, N2=1, n1=1, n2=1)
    assert v[38] == 2 and v[40] == 2
    assert v[41] == 2.0  # V = 2*log2(2)
    assert v[35] == 0.5
    assert v[39] == 1.0  # L = min(1, 1/0.5)
    assert v[36] == 1.0
    assert v[37] == pytest.approx(1 / 18)
    assert v[34] == pytest.approx(2 / 3000)


def test_halstead_hand_counted_snippet():
    # `a = b + b;` -> operators {=,+}, operands {a, b, b}
    v = halstead_suite(N1=2, N2=3, n1=2, n2=2)
    assert v[38] == 5 and v[40] == 4
    assert v[41] == pytest.approx(10.0)
    assert v[35] == pytest.approx(1.5)
    assert v[36] == pytest.approx(15.0)


@given(
    st.integers(0, 50), st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)
)
def test_halstead_identities(n1_distinct, n2_distinct, extra1, extra2):
    v = halstead_suite(
        N1=n1_distinct + extra1 if n1_distinct else 0,
        N2=n2_distinct + extra2 if n2_distinct else 0,
        n1=n1_distinct,
        n2=n2_distinct,
    )
    assert v[38] == v[30] + v[31]
    assert v[40] == v[32] + v[33]
    if v[40] > 0:
        assert v[41] == pytest.approx(v[38] * math.log2(v[40]), abs=1e-12)
    assert v[36] == pytest.approx(v[35] * v[41], abs=1e-9)
    assert v[37] == pytest.approx(v[36] / 18, abs=1e-9)
    assert 0 <= v[39] <= 1


# -- cyclomatic ----------------------------------------------------------


def test_cyclomatic_examples():
    unit = parse_source(
        "class A { void s() { x = 1; } void b(int a, int c) { if (a > 0 && c > 0) { x = 1; } } void n(); }",
        "A.java",
    )
    by_name = {m.name: m for m in unit.types[0].methods}
    assert cyclomatic(by_name["s"]) == 1
    assert cyclomatic(by_name["b"]) == 3
    assert cyclomatic(by_name["n"]) == 1


# -- lcom ----------------------------------------------------------------


def test_lcom_perfect_cohesion():
    src = "class A { int x; int y; void m() { x = y; } void n() { y = x; } }"
    decl = parse_source(src, "A.java").types[0]
    assert lcom_suite(decl) == (0.0, 0.0, 0.0)


def test_lcom_disjoint_methods():
    src = "class A { int x; int y; void m() { x = 1; } void n() { y = 2; } }"
    decl = parse_source(src, "A.java").types[0]
    l1, l2, l3 = lcom_suite(decl)
    assert l1 == 1.0
    assert l2 == pytest.approx(0.5)
    assert l3 == pytest.approx(1.0)


def test_lcom_single_method():
    src = "class A { int x; void m() { x = 1; } }"
    decl = parse_source(src, "A.java").types[0]
    assert lcom_suite(decl)[2] == 0.0


def test_lcom_counts_constructor_access():
    src = "class A { int x; A() { x = 0; } void m() { x = 1; } }"
    decl = parse_source(src, "A.java").types[0]
    # Both members touch x: fully cohesive.
    assert lcom_suite(decl) == (0.0, 0.0, 0.0)


_NAMES = st.sampled_from("abcdef")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(_NAMES, max_size=8), st.lists(st.sets(_NAMES), max_size=12), st.integers(0, 12))
def test_lcom_matches_the_oracle_on_random_access_sets(fields, access, n_ctors):
    # Fields may repeat, and a method may access a name that is not a field.
    members = [MethodDecl(f"m{i}", accessed_field_names=names) for i, names in enumerate(access)]
    decl = TypeDecl("A", "class", field_names=fields, constructors=members[:n_ctors], methods=members[n_ctors:])
    oracle = {"fields": fields, "ctors": [{"access": names} for names in access[:n_ctors]],
              "methods": [{"access": names} for names in access[n_ctors:]]}
    assert lcom_suite(decl) == _lcom(oracle)


# -- martin --------------------------------------------------------------


def test_martin_isolated_concrete_package():
    model = _model(("p/A.java", "package p; class A { }"))
    assert martin_suite(model, "p") == (0.0, 0, 0, 0.0, 1.0)


def test_martin_stable_abstraction():
    model = _model(
        ("api/I.java", "package api; interface I { }"),
        ("impl/C.java", "package impl; class C implements api.I { }"),
    )
    a, ca, ce, i, dn = martin_suite(model, "api")
    assert (a, ca, ce, i, dn) == (1.0, 1, 0, 0.0, 0.0)


def test_martin_balanced_package():
    model = _model(
        ("mid/A.java", "package mid; interface A { }"),
        ("mid/B.java", "package mid; class B extends ext.Base { }"),
        ("ext/Base.java", "package ext; class Base { }"),
        ("top/User.java", "package top; class User implements mid.A { }"),
    )
    a, ca, ce, i, dn = martin_suite(model, "mid")
    assert a == pytest.approx(0.5)
    assert (ca, ce) == (1, 1)
    assert i == pytest.approx(0.5)
    assert dn == pytest.approx(0.0)


# -- maintainability index -----------------------------------------------


def test_mi_vanishing_logs():
    assert maintainability_index(1.0, 0.0, 1.0) == 171.0


def test_mi_hand_arithmetic():
    expected = 171 - 5.2 * math.log(100) - 0.23 * 10 - 16.2 * math.log(20)
    assert maintainability_index(100.0, 10.0, 20.0) == pytest.approx(expected)
    assert maintainability_index(100.0, 10.0, 20.0) == pytest.approx(96.22, abs=0.01)


def test_mi_hand_counted_two_methods():
    src = """package p;
class A {
    int f(int x) {
        if (x > 0) {
            return x;
        }
        return 0;
    }
    void g() { }
}
"""
    v = by_id(compute_all_metrics(_model(("p/A.java", src)))["p/A.java"])
    # f: 6 body lines, cyclomatic 2, operators {if, >, return x2} and operands
    # {x x2, 0 x2}, so V = 8*log2(5). g: 1 body line, cyclomatic 1, V = 0.
    assert (v[5], v[26], v[15]) == (3.5, 3.0, 2.0)
    expected = 171 - 5.2 * math.log(8 * math.log2(5) / 2) - 0.23 * 1.5 - 16.2 * math.log(3.5)
    assert v[25] == pytest.approx(expected, abs=1e-12)
    assert v[25] == pytest.approx(138.77, abs=0.01)


def test_mi_zero_method_file():
    model = _model(("p/A.java", "package p; class A { int x; }"))
    assert by_id(compute_all_metrics(model)["p/A.java"])[25] == 171.0


# -- depth of inheritance ------------------------------------------------


def test_dit_examples():
    model = _model(
        ("p/Root.java", "package p; class Root { }"),
        ("p/A.java", "package p; class A extends Root { }"),
        ("p/Ext.java", "package p; class Ext extends External { }"),
    )
    assert model.depth == {"p.Root": 0, "p.A": 1, "p.Ext": 1}


def test_dit_cycle_error():
    model = _model(
        ("p/A.java", "package p; class A extends B { }"),
        ("p/B.java", "package p; class B extends A { }"),
    )
    assert model.excluded == [
        ("p/A.java", "inheritance cycle: p.A -> p.B -> p.A"),
        ("p/B.java", "inheritance cycle: p.B -> p.A -> p.B"),
    ]
    assert model.units == [] and model.depth == {}


# -- one file's vector ----------------------------------------------------


def test_hand_counted_file():
    src = """package p;
import q.Other;
// one
/* two */
// three
class A {
    int f1;
    int f2;
    A() { f1 = 0; }
    void m1() { f1 = 1; }
    void m2(int a) { f2 = a; }
}
"""
    model = _model(("p/A.java", src))
    v = by_id(compute_all_metrics(model)["p/A.java"])
    assert v[1] == 2 and v[2] == 2
    assert v[3] == 1 and v[10] == 1
    assert v[11] == 1 and v[12] == 0
    assert v[14] == 3 and v[15] == 2
    assert v[16] == 1 and v[7] == pytest.approx(0.5)


def test_comment_free_file_ratio():
    body = "\n".join(f"    int f{i};" for i in range(37))
    src = f"package p;\nclass A {{\n{body}\n}}\n"
    model = _model(("p/A.java", src))
    v = by_id(compute_all_metrics(model)["p/A.java"])
    assert v[13] == 40
    assert v[9] == 40.0


def test_typeless_file_has_no_vector():
    model = _model(("p/Doc.java", "// documentation only\n"), ("p/A.java", "package p; class A { }"))
    assert [unit.file_path for unit in model.units] == ["p/A.java", "p/Doc.java"]
    vectors = compute_all_metrics(model)
    assert list(vectors) == ["p/A.java"]
    assert len(vectors["p/A.java"]) == len(METRIC_IDS)
    assert metrics_csv(vectors).splitlines()[1].startswith("p/A.java,")


class _CountingSet(set):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class _CountingList(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_compute_all_metrics_walks_edges_and_units_once(tmp_path):
    # Per-file scans of the edges or units make the metrics layer quadratic
    # in corpus size; counting iterations catches that without a clock.
    src, _ = coupled_corpus(tmp_path, n_packages=30, seed=5)
    model = build_code_model(load_corpus_units(src))
    packages = {(a.rsplit(".", 1)[0], b.rsplit(".", 1)[0]) for a, b in model.dependency_edges}
    assert sum(a != b for a, b in packages) > len(model.units)
    model.dependency_edges = _CountingSet(model.dependency_edges)
    model.units = _CountingList(model.units)
    vectors = compute_all_metrics(model)
    assert len(vectors) == len(model.units)
    assert model.dependency_edges.iterations <= 1
    assert model.units.iterations == 1


def test_depths_resolve_each_extends_list_once():
    # Depth by unmemoised recursion doubles in cost with each level of this
    # lattice; counting iterations catches that without a clock.
    sources = [(f"p/I0{s}.java", f"package p; interface I0{s} {{ }}") for s in "ab"]
    sources += [
        (f"p/I{k}{s}.java", f"package p; interface I{k}{s} extends I{k - 1}a, I{k - 1}b {{ }}")
        for k in range(1, 18) for s in "ab"
    ]
    units = [parse_source(text, path) for path, text in sources]
    decls = [decl for unit in units for decl in unit.types]
    for decl in decls:
        decl.extends_names = _CountingList(decl.extends_names)
    vectors = compute_all_metrics(build_code_model(units))
    assert by_id(vectors["p/I17b.java"])[42] == 17.0
    assert [decl.extends_names.iterations for decl in decls] == [1] * len(decls)


# -- corpus-wide properties ----------------------------------------------


def test_vectors_complete(corpus_vectors):
    assert len(corpus_vectors) == 11
    for vec in corpus_vectors.values():
        assert list(vec) == list(METRIC_IDS)


def test_range_invariants(corpus_vectors):
    for path, v in corpus_vectors.items():
        for mid in (18, 21, 22, 27, 28, 39):
            assert 0.0 <= v[mid] <= 1.0, (path, mid)
        assert 0.0 <= v[29] <= 2.0
        assert v[22] == pytest.approx(abs(v[18] + v[21] - 1.0), abs=1e-12)
        for mid in INTEGRAL_IDS:
            assert v[mid] >= 0 and v[mid] == int(v[mid]), (path, mid)


def test_halstead_identities_on_corpus(corpus_vectors):
    for v in corpus_vectors.values():
        assert v[38] == v[30] + v[31]
        assert v[40] == v[32] + v[33]
        if v[40] > 0:
            assert v[41] == pytest.approx(v[38] * math.log2(v[40]), abs=1e-9)
        assert v[36] == pytest.approx(v[35] * v[41], abs=1e-9)
        assert v[37] == pytest.approx(v[36] / 18, abs=1e-9)


def test_cyclomatic_at_least_method_count(corpus_model, corpus_vectors):
    for unit in corpus_model.units:
        n_methods = sum(len(t.methods) for t in unit.types)
        assert corpus_vectors[unit.file_path][26] >= n_methods


def test_monotone_under_extra_if():
    base = "package p; class A { int x; void m() { x = 1; } }"
    extra = "package p; class A { int x; void m() { x = 1; if (x > 0) { x = 2; } } }"
    v0 = by_id(compute_all_metrics(_model(("p/A.java", base)))["p/A.java"])
    v1 = by_id(compute_all_metrics(_model(("p/A.java", extra)))["p/A.java"])
    for mid in (13, 26, 31):
        assert v1[mid] >= v0[mid]


# -- oracle comparison (criterion 3 backbone) ------------------------------


def assert_match_oracle(root, vectors):
    oracle = OracleCorpus(root).all_metrics()
    assert set(oracle) == set(vectors)
    for path, expected in oracle.items():
        actual = vectors[path]
        for mid in METRIC_IDS:
            if mid in INTEGRAL_IDS:
                assert actual[mid] == expected[mid], (path, mid)
            else:
                assert actual[mid] == pytest.approx(expected[mid], abs=1e-9), (path, mid)


def test_all_metrics_match_oracle(corpus_vectors):
    assert_match_oracle(CORPUS, corpus_vectors)


def test_metrics_match_oracle_on_files_ending_in_sub(tmp_path):
    # JLS 3.5: a last SUB (control-Z) is ignored, so m17 counts the lines before it.
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "A.java").write_text("package p;\nclass A { int a; void m() { a = 1; } }\n\x1a")
    (tmp_path / "p" / "B.java").write_text("package p;\nclass B extends A { }\x1a")
    vectors = {path: by_id(values) for path, values in
               compute_all_metrics(build_code_model(load_corpus_units(tmp_path))).items()}
    assert_match_oracle(tmp_path, vectors)
    assert (vectors["p/A.java"][17], vectors["p/B.java"][17]) == (2.0, 2.0)


# -- CSV ------------------------------------------------------------------


def test_format_value():
    assert format_value(3.0) == "3"
    assert format_value(0.5) == "0.5"
    assert format_value(1 / 3) == "0.333333"
    assert format_value(0.0) == "0"


def test_metrics_csv_round_trip(corpus_model):
    vectors = compute_all_metrics(corpus_model)
    parsed = parse_metrics_csv(metrics_csv(vectors))
    assert list(parsed) == list(vectors)
    for path, values in parsed.items():
        assert values == pytest.approx(vectors[path], abs=5e-7)


def test_metrics_csv_rejects_bad_header():
    with pytest.raises(DataError):
        parse_metrics_csv("file,m1\nx,1\n")


def test_metrics_csv_rejects_repeated_path():
    header = "file_path," + ",".join(f"m{i}" for i in METRIC_IDS)
    row = ",".join(["0"] * len(METRIC_IDS))
    text = f"{header}\np/A.java,{row}\np/B.java,{row}\np/A.java,{row}\n"
    with pytest.raises(DataError) as exc:
        parse_metrics_csv(text)
    assert "row 4" in str(exc.value) and "p/A.java" in str(exc.value)
