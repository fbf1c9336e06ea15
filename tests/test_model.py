import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics.errors import BuildMetricsError
from buildmetrics.javaparse import parse_source
from buildmetrics.metrics import compute_all_metrics, metrics_csv
from buildmetrics.model import build_code_model, qualify, resolve_name

from conftest import load_corpus_units
from oracle_metrics import OracleInheritance


def _units(*sources):
    return [parse_source(text, path) for path, text in sources]


def _unresolved(model):
    return {ref for unit in model.units for decl in unit.types
            for ref in decl.referenced_type_names if resolve_name(model, unit, ref) is None}


def test_reference_creates_edge():
    model = build_code_model(_units(
        ("A.java", "package p; class A { B partner; }"),
        ("B.java", "package p; class B { }"),
    ))
    assert model.dependency_edges == {("p.A", "p.B")}


def test_external_supertype_unresolved():
    model = build_code_model(_units(
        ("A.java", "package p; class A extends External { }"),
    ))
    assert model.dependency_edges == set()
    assert "External" in _unresolved(model)


def test_non_referencing_corpus_has_no_edges():
    sources = [
        (f"C{i}.java", f"package p; class C{i} {{ int f; }}") for i in range(6)
    ]
    model = build_code_model(_units(*sources))
    assert model.dependency_edges == set()


def test_no_self_edges(corpus_model):
    for src, dst in corpus_model.dependency_edges:
        assert src != dst


def test_package_count_matches_distinct_names(corpus_model):
    names = {u.package_name for u in corpus_model.units}
    assert set(corpus_model.packages) == names


def test_duplicate_type_rejected():
    model = build_code_model(_units(
        ("A1.java", "package p; class A { }"),
        ("A2.java", "package p; class A { }"),
        ("B.java", "package p; class B extends A { }"),
    ))
    reason = "duplicate type p.A declared in A1.java and A2.java"
    assert model.excluded == [("A1.java", reason), ("A2.java", reason)]
    assert [u.file_path for u in model.units] == ["B.java"]
    assert model.depth == {"p.B": 1}


def test_leaving_out_a_file_re_resolves_extends_names():
    # With p/A.java in, Z extends p.B; without it, Z extends the default-package B.
    model = build_code_model(_units(
        ("p/A.java", "package p; class A extends A { } class B { }"),
        ("p/Z.java", "package p; class Z extends B { }"),
        ("B.java", "class B extends Ext { }"),
    ))
    assert model.excluded == [("p/A.java", "inheritance cycle: p.A extends itself")]
    assert model.depth == {"B": 1, "p.Z": 2}


def test_qualified_name_does_not_fall_back_to_its_simple_name():
    model = build_code_model(_units(
        ("p/C.java", "package p; class C { }"),
        ("p/E.java", "package p; class E extends q.C { }"),
    ))
    assert ("p.E", "p.C") not in model.dependency_edges
    assert "q.C" in _unresolved(model)
    assert model.depth["p.E"] == 1


def test_qualified_nested_name_resolves_through_its_owner():
    model = build_code_model(_units(
        ("p/O.java", "package p; class O { class I { } }"),
        ("p/E.java", "package p; class E extends O.I { }"),
        ("p/F.java", "package p; class F extends p.O.I { }"),
        ("r/G.java", "package r; import p.O; class G extends O.I { }"),
    ))
    assert {("p.E", "p.I"), ("p.F", "p.I"), ("r.G", "p.I")} <= model.dependency_edges


def test_duplicate_path_rejected():
    units = _units(("A.java", "class A { }"), ("A.java", "class B { }"))
    with pytest.raises(BuildMetricsError, match="^duplicate file path: A.java$"):
        build_code_model(units)


def test_import_resolution_beats_same_package():
    model = build_code_model(_units(
        ("q/Helper.java", "package q; class Helper { }"),
        ("p/User.java", "package p; import q.Helper; class User { Helper h; }"),
    ))
    assert ("p.User", "q.Helper") in model.dependency_edges


def test_default_package_resolution():
    model = build_code_model(_units(
        ("Top.java", "class Top { }"),
        ("p/A.java", "package p; class A extends Top { }"),
    ))
    unit = model.unit_of_type["p.A"]
    assert unit.file_path == "p/A.java"
    assert resolve_name(model, unit, "Top") == "Top"
    assert ("p.A", "Top") in model.dependency_edges


def test_an_import_left_out_by_a_cycle_yields_to_the_next():
    # Resolving U's supertype in the first round reads its imports while a.X
    # is indexed; once a.X is left out, X names b.X.
    model = build_code_model(_units(
        ("a/X.java", "package a; class X extends Y { }"),
        ("a/Y.java", "package a; class Y extends X { }"),
        ("b/X.java", "package b; class X { }"),
        ("c/Z.java", "package c; class Z { }"),
        ("p/U.java", "package p; import a.X; import b.X; import c.Z; class U extends Z { X f; }"),
    ))
    assert [path for path, _ in model.excluded] == ["a/X.java", "a/Y.java"]
    assert model.dependency_edges == {("p.U", "b.X"), ("p.U", "c.Z")}


def test_qualify():
    assert qualify("p.q", "A") == "p.q.A"
    assert qualify("", "A") == "A"


def test_order_independence():
    def facts(model):
        return ([u.file_path for u in model.units], model.packages, model.dependency_edges,
                model.afferent, model.efferent, model.depth, model.excluded,
                metrics_csv(compute_all_metrics(model)))

    units = load_corpus_units()
    reference = facts(build_code_model(units))
    for seed in range(5):
        shuffled = list(units)
        random.Random(seed).shuffle(shuffled)
        assert facts(build_code_model(shuffled)) == reference


def test_corpus_edges_and_unresolved(corpus_model):
    assert corpus_model.dependency_edges == {
        ("core.AbstractShape", "core.Shape"),
        ("core.Circle", "core.AbstractShape"),
        ("core.Ellipse", "core.Circle"),
        ("core.Rect", "core.AbstractShape"),
        ("app.Registry", "core.Shape"),
        ("app.Registry", "core.Circle"),
        ("app.Launcher", "core.Ellipse"),
        ("app.Launcher", "core.Rect"),
        ("app.Launcher", "app.Registry"),
    }
    assert _unresolved(corpus_model) == {"Closeable", "String"}


# -- exclusions and depths against the recursive reference -----------------


@st.composite
def _inheritance_trees(draw):
    """Source files of one or two types each. Every type extends up to three
    of the drawn types, by simple or qualified name, or an unknown name. A
    type may reuse an earlier type's name, so clashes, self-extends, cycles
    and chains into them all come up."""
    packages = draw(st.lists(st.sampled_from(("", "p", "q")), min_size=1, max_size=6))
    types = []
    for f in range(len(packages)):
        for _ in range(draw(st.integers(1, 2))):
            # A fresh name about two times in three, else an earlier type's name.
            reuse = draw(st.sampled_from((None,) * (2 * len(types) + 1) + tuple(range(len(types)))))
            types.append((f, "ABCDEFGHIJKL"[len(types)] if reuse is None else types[reuse][1]))
    qualified = [f"{packages[f]}.{name}" if packages[f] else name for f, name in types]
    pick = st.integers(0, len(types) - 1)
    files = ["" if not package else f"package {package}; " for package in packages]
    for f, package in enumerate(packages):
        if package:
            files[f] += "".join(f"import {qualified[k]}; " for k in draw(st.lists(pick, max_size=1)))
    for j, (f, name) in enumerate(types):
        others = [k for k in range(len(types)) if k != j]
        target = st.sampled_from([None, j] + others * 3)  # None: an unknown supertype
        supers = [
            "Ext" if k is None else qualified[k] if full else types[k][1]
            for k, full in draw(st.lists(st.tuples(target, st.booleans()), max_size=3))
        ]
        kind = "interface" if len(supers) > 1 else "class"
        extends = f" extends {', '.join(supers)}" if supers else ""
        files[f] += f"{kind} {name}{extends} {{ }} "
    return {f"{package}/F{f}.java".lstrip("/"): text for f, (package, text) in enumerate(zip(packages, files))}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_inheritance_trees())
def test_exclusions_and_depths_match_recursive_reference(files):
    # No golden input holds a cycle, so the exclusion reasons and depths are
    # checked against the old recursive algorithm here.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        model = build_code_model(load_corpus_units(root))
        reference = OracleInheritance(root)
    assert model.excluded == reference.excluded
    assert model.depth == reference.depth
