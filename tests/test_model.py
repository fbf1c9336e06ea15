import json
import random

import pytest

from buildmetrics.errors import ModelError
from buildmetrics.javaparse import parse_source
from buildmetrics.metrics import compute_file_metrics
from buildmetrics.model import build_code_model, dump_model_json, qualify, resolve_name

from conftest import load_corpus_units


def _units(*sources):
    return [parse_source(text, path) for path, text in sources]


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
    assert "External" in model.unresolved_names


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
    units = _units(
        ("A1.java", "package p; class A { }"),
        ("A2.java", "package p; class A { }"),
    )
    with pytest.raises(ModelError) as exc:
        build_code_model(units)
    assert "A1.java" in str(exc.value) and "A2.java" in str(exc.value)


def test_duplicate_path_rejected():
    units = _units(("A.java", "class A { }"), ("A.java", "class B { }"))
    with pytest.raises(ModelError):
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


def test_qualify():
    assert qualify("p.q", "A") == "p.q.A"
    assert qualify("", "A") == "A"


def test_order_independence():
    units = load_corpus_units()
    reference = dump_model_json(build_code_model(units))
    for seed in range(5):
        shuffled = list(units)
        random.Random(seed).shuffle(shuffled)
        assert dump_model_json(build_code_model(shuffled)) == reference


def test_dump_is_valid_json_with_sorted_keys(corpus_model):
    doc = json.loads(dump_model_json(corpus_model))
    assert set(doc) == {"packages", "dependency_edges", "unresolved_names", "units"}
    assert doc["dependency_edges"] == sorted(doc["dependency_edges"])


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
    assert corpus_model.unresolved_names == {"Closeable", "String"}


def test_unit_for_missing_path(corpus_model):
    with pytest.raises(ModelError):
        compute_file_metrics(corpus_model, "no/Such.java")
