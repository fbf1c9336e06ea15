import json

import pytest
from hypothesis import given, strategies as st

from buildmetrics.dataset import (
    FILTER_IDS,
    FILTER_TAGS,
    STRATEGIES,
    BuildManifest,
    Dataset,
    aggregate_build,
    apply_filter,
    assemble,
    dataset_id,
    parse_manifest,
    read_csv,
    write_csv,
)
from buildmetrics.errors import DataError
from buildmetrics.metrics import METRIC_IDS, MetricVector


def vec(path, value=0.0, **overrides):
    values = {mid: float(value) for mid in METRIC_IDS}
    for key, v in overrides.items():
        values[int(key[1:])] = float(v)
    return MetricVector(file_path=path, values=values)


def manifest(bid, result="success", files=("a.java",), kind="continuous"):
    return BuildManifest(bid, kind, result, list(files))


# -- dataset id convention -------------------------------------------------


def test_dataset_id_convention():
    assert dataset_id("average", "full") == "1"
    assert dataset_id("maximum", "c") == "2c"
    assert dataset_id("sum", "d") == "3d"


# -- aggregation -----------------------------------------------------------


def test_singleton_identity():
    v = vec("a.java", 2.0, m13=10)
    for strategy in STRATEGIES:
        agg = aggregate_build([v], strategy)
        assert agg.values == v.values


def test_two_file_arithmetic():
    a = vec("a.java", 1.0, m13=10)
    b = vec("b.java", 1.0, m13=30)
    assert aggregate_build([a, b], "average").values[13] == 20
    assert aggregate_build([a, b], "maximum").values[13] == 30
    assert aggregate_build([a, b], "sum").values[13] == 40


def test_all_zero_vectors():
    vecs = [vec("a.java"), vec("b.java")]
    for strategy in STRATEGIES:
        agg = aggregate_build(vecs, strategy)
        assert all(v == 0 for v in agg.values.values())


def test_empty_list_rejected():
    with pytest.raises(DataError):
        aggregate_build([], "average")


def test_incomplete_vector_rejected():
    partial = MetricVector(file_path="a.java", values={1: 1.0})
    with pytest.raises(DataError):
        aggregate_build([partial], "sum")


@given(
    st.lists(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_average_max_sum_ordering(columns):
    vecs = []
    for k, (x, y, z) in enumerate(columns):
        vecs.append(vec(f"f{k}.java", 0.0, m1=x, m13=y, m41=z))
    avg = aggregate_build(vecs, "average").values
    mx = aggregate_build(vecs, "maximum").values
    sm = aggregate_build(vecs, "sum").values
    for mid in (1, 13, 41):
        assert avg[mid] <= mx[mid] + 1e-9
        assert mx[mid] <= sm[mid] + 1e-9


# -- filters ----------------------------------------------------------------


def _full_dataset(rows=3):
    data_rows = [
        (f"b{i}", "failed" if i % 2 else "success", [float(i + mid) for mid in METRIC_IDS])
        for i in range(rows)
    ]
    return Dataset(feature_ids=list(METRIC_IDS), rows=data_rows, strategy="maximum")


def test_filter_c_is_halstead_block():
    out = apply_filter(_full_dataset(), "c")
    assert out.feature_ids == list(range(30, 43))
    assert len(out.feature_ids) == 13


def test_filter_d_drops_averages():
    out = apply_filter(_full_dataset(), "d")
    assert len(out.feature_ids) == 36
    assert not set(out.feature_ids) & {2, 3, 4, 5, 6, 7}


def test_filter_full_identity():
    data = _full_dataset()
    out = apply_filter(data, "full")
    assert out.feature_ids == data.feature_ids
    assert out.rows == data.rows


def test_filter_idempotent():
    data = _full_dataset()
    for tag in FILTER_TAGS:
        once = apply_filter(data, tag)
        twice = apply_filter(once, tag)
        assert once.feature_ids == twice.feature_ids
        assert once.rows == twice.rows


def test_filter_commutes_with_row_subsetting():
    data = _full_dataset(rows=5)
    subset_then_filter = apply_filter(
        Dataset(feature_ids=data.feature_ids, rows=data.rows[:3], strategy=data.strategy),
        "b",
    )
    filter_then_subset = apply_filter(data, "b")
    assert subset_then_filter.rows == filter_then_subset.rows[:3]


def test_unknown_filter_tag():
    with pytest.raises(DataError):
        apply_filter(_full_dataset(), "z")


def test_filter_id_blocks():
    assert FILTER_IDS["a"] == tuple(range(1, 14))
    assert FILTER_IDS["b"] == tuple(range(14, 30))
    assert FILTER_IDS["c"] == tuple(range(30, 43))


# -- manifests ---------------------------------------------------------------


def test_parse_manifest_roundtrip():
    doc = {"build_id": "b1", "kind": "nightly", "result": "failed", "files": ["x.java"]}
    m = parse_manifest(json.dumps(doc))
    assert (m.build_id, m.kind, m.result, m.files) == ("b1", "nightly", "failed", ["x.java"])


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "continuous", "result": "success", "files": ["x"]},
        {"build_id": "b", "kind": "weekly", "result": "success", "files": ["x"]},
        {"build_id": "b", "kind": "continuous", "result": "broken", "files": ["x"]},
        {"build_id": "b", "kind": "continuous", "result": "success", "files": []},
        {"build_id": 5, "kind": "continuous", "result": "success", "files": ["x"]},
        {"build_id": "", "kind": "continuous", "result": "success", "files": ["x"]},
        {"build_id": "b,1", "kind": "continuous", "result": "success", "files": ["x"]},
        {"build_id": "b", "kind": "continuous", "result": "success", "files": [{"x": 1}]},
        {"build_id": "b", "kind": "continuous", "result": "success", "files": ["x", 7]},
        {"build_id": "b", "kind": "continuous", "result": "success", "files": ["x,y.java"]},
    ],
)
def test_parse_manifest_rejects(doc):
    with pytest.raises(DataError):
        parse_manifest(json.dumps(doc))


@pytest.mark.parametrize("text", ["{bad", "", "null", "5", '["build_id", "kind", "result", "files"]'])
def test_parse_manifest_rejects_text_that_is_not_a_json_object(text):
    with pytest.raises(DataError):
        parse_manifest(text)


# -- assembly ----------------------------------------------------------------


def test_assemble_basic():
    lookup = {"a.java": vec("a.java", 1.0), "b.java": vec("b.java", 3.0)}
    manifests = [
        manifest("b2", "failed", ("b.java",)),
        manifest("b1", "success", ("a.java", "b.java")),
    ]
    data, exclusions = assemble(manifests, lookup, "average")
    assert exclusions == []
    assert [r[0] for r in data.rows] == ["b1", "b2"]  # ordered by build_id
    assert data.labels() == ["success", "failed"]
    assert data.rows[0][2][0] == 2.0  # mean of 1 and 3


def test_assemble_exclusions_accounted():
    lookup = {"a.java": vec("a.java", 1.0)}
    manifests = [
        manifest("keep", "success", ("a.java",)),
        manifest("warn", "warning", ("a.java",)),
        manifest("gone", "failed", ("missing.java",)),
    ]
    data, exclusions = assemble(manifests, lookup, "sum")
    assert len(data.rows) + len(exclusions) == 3
    assert dict(exclusions) == {"warn": "warning-result", "gone": "missing-metrics"}


def test_assemble_duplicate_build_id():
    lookup = {"a.java": vec("a.java", 1.0)}
    with pytest.raises(DataError):
        assemble([manifest("b1"), manifest("b1")], lookup, "average")


def test_assemble_nothing_retained():
    with pytest.raises(DataError):
        assemble([manifest("w", "warning")], {}, "average")


def test_assemble_provenance():
    lookup = {"a.java": vec("a.java", 1.0)}
    data, _ = assemble([manifest("b1")], lookup, "maximum", "c")
    assert data.dataset_id == "2c"
    assert data.provenance == ("maximum", "c")


# -- CSV ----------------------------------------------------------------------


def test_csv_round_trip():
    lookup = {"a.java": vec("a.java", 1.5), "b.java": vec("b.java", 2.25)}
    manifests = [
        manifest("b1", "success", ("a.java",)),
        manifest("b2", "failed", ("b.java",)),
        manifest("b3", "failed", ("a.java", "b.java")),
    ]
    data, _ = assemble(manifests, lookup, "average", "d")
    again = read_csv(write_csv(data))
    assert again.feature_ids == data.feature_ids
    assert again.rows == data.rows
    assert again.strategy == data.strategy
    assert again.filter_tag == data.filter_tag


def test_csv_header_validation():
    read_csv("build_id,label,m9,m27\nb1,success,1,2\n")
    with pytest.raises(DataError):
        read_csv("build_id,label,m43\nb1,success,1\n")
    with pytest.raises(DataError):
        read_csv("id,label,m9\nb1,success,1\n")
    with pytest.raises(DataError):
        read_csv("build_id,label,m9,m9\nb1,success,1,2\n")


def test_csv_rejects_warning_label():
    with pytest.raises(DataError):
        read_csv("build_id,label,m9\nb1,warning,1\n")


def test_csv_rejects_non_numeric_cell():
    with pytest.raises(DataError) as exc:
        read_csv("build_id,label,m9\nb1,success,abc\n")
    assert "row 2" in str(exc.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_csv_rejects_non_finite_cell(cell):
    with pytest.raises(DataError) as exc:
        read_csv(f"build_id,label,m9\nb1,success,1\nb2,failed,{cell}\n")
    assert "row 3" in str(exc.value)
