import json

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics.dataset import (
    AGGREGATE,
    FILTER_IDS,
    FILTER_TAGS,
    LABELS,
    STRATEGIES,
    BuildManifest,
    Dataset,
    apply_filter,
    assemble,
    dataset_id,
    parse_manifest,
    read_csv,
    write_csv,
)
from buildmetrics.errors import DataError
from buildmetrics.metrics import METRIC_IDS

from conftest import by_id


def vec(value=0.0, **overrides):
    """A file's metric vector: every metric at value, except m<ID>=v overrides."""
    return [float(overrides.get(f"m{mid}", value)) for mid in METRIC_IDS]


def manifest(bid, result="success", files=("a.java",), kind="continuous"):
    return BuildManifest(bid, kind, result, list(files))


def aggregate(vectors, strategy):
    """The assembled row of one build whose files have these vectors, by metric ID."""
    lookup = {f"f{k}.java": v for k, v in enumerate(vectors)}
    data, _ = assemble([manifest("b", files=lookup)], lookup, strategy)
    return by_id(data.rows[0][2])


# -- dataset id convention -------------------------------------------------


def test_dataset_id_convention():
    assert dataset_id("average", "full") == "1"
    assert dataset_id("maximum", "c") == "2c"
    assert dataset_id("sum", "d") == "3d"


# -- aggregation -----------------------------------------------------------


def test_singleton_identity():
    v = vec(2.0, m13=10)
    for strategy in STRATEGIES:
        assert aggregate([v], strategy) == by_id(v)


def test_two_file_arithmetic():
    a = vec(1.0, m13=10)
    b = vec(1.0, m13=30)
    assert aggregate([a, b], "average")[13] == 20
    assert aggregate([a, b], "maximum")[13] == 30
    assert aggregate([a, b], "sum")[13] == 40
    assert [AGGREGATE[s]((10.0, 30.0)) for s in STRATEGIES] == [20.0, 30.0, 40.0]


def test_all_zero_vectors():
    vecs = [vec(), vec()]
    for strategy in STRATEGIES:
        assert all(v == 0 for v in aggregate(vecs, strategy).values())


def test_empty_file_list_excluded():
    lookup = {"a.java": vec(1.0)}
    data, exclusions = assemble([manifest("a"), manifest("b", files=())], lookup, "average")
    assert [bid for bid, _, _ in data.rows] == ["a"]
    assert exclusions == [("b", "empty-file-list")]


def test_unknown_strategy():
    with pytest.raises(DataError):
        assemble([manifest("a")], {"a.java": vec(1.0)}, "median")


@given(
    st.lists(
        st.lists(st.floats(0, 1e6, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
def test_average_max_sum_ordering(columns):
    vecs = [vec(0.0, m1=x, m13=y, m41=z) for x, y, z in columns]
    avg = aggregate(vecs, "average")
    mx = aggregate(vecs, "maximum")
    sm = aggregate(vecs, "sum")
    for mid in (1, 13, 41):
        assert avg[mid] <= mx[mid] + 1e-9
        assert mx[mid] <= sm[mid] + 1e-9


@given(
    st.lists(st.lists(st.floats(0, 1e9), min_size=42, max_size=42), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=6), min_size=1, max_size=4),
)
def test_assembled_rows_equal_plain_loop_aggregates(vectors, builds):
    lookup = {f"f{k}.java": v for k, v in enumerate(vectors)}
    manifests = [
        manifest(f"b{n}", files=[f"f{k % len(vectors)}.java" for k in picks])
        for n, picks in enumerate(builds)
    ]
    for strategy in STRATEGIES:
        data, exclusions = assemble(manifests, lookup, strategy)
        assert exclusions == []
        rows = {bid: values for bid, _, values in data.rows}
        for m in manifests:
            expected = []
            for k in range(len(METRIC_IDS)):
                total, peak = 0.0, None
                for path in m.files:  # manifest file order
                    x = lookup[path][k]
                    total += x
                    if peak is None or x > peak:
                        peak = x
                expected.append({"average": total / len(m.files), "maximum": peak, "sum": total}[strategy])
            assert rows[m.build_id] == expected  # bit for bit


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
        {"build_id": "b", "kind": "continuous", "result": "success", "files": "x"},
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


def test_parse_manifest_rejects_repeated_file():
    doc = {"build_id": "b", "kind": "continuous", "result": "success", "files": ["x", "y", "x"]}
    with pytest.raises(DataError, match=r"^manifest 'b': file 'x' is listed twice$"):
        parse_manifest(json.dumps(doc))


@pytest.mark.parametrize("text", ["{bad", "", "null", "5", '["build_id", "kind", "result", "files"]'])
def test_parse_manifest_rejects_text_that_is_not_a_json_object(text):
    with pytest.raises(DataError):
        parse_manifest(text)


# -- assembly ----------------------------------------------------------------


def test_assemble_basic():
    lookup = {"a.java": vec(1.0), "b.java": vec(3.0)}
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
    lookup = {"a.java": vec(1.0)}
    manifests = [
        manifest("keep", "success", ("a.java",)),
        manifest("warn", "warning", ("a.java",)),
        manifest("gone", "failed", ("missing.java",)),
    ]
    data, exclusions = assemble(manifests, lookup, "sum")
    assert len(data.rows) + len(exclusions) == 3
    assert dict(exclusions) == {"warn": "warning-result", "gone": "missing-metrics"}


def test_assemble_duplicate_build_id():
    lookup = {"a.java": vec(1.0)}
    with pytest.raises(DataError):
        assemble([manifest("b1"), manifest("b1")], lookup, "average")


def test_assemble_nothing_retained():
    with pytest.raises(DataError):
        assemble([manifest("w", "warning")], {}, "average")


def test_assemble_provenance():
    lookup = {"a.java": vec(1.0)}
    data, _ = assemble([manifest("b1")], lookup, "maximum", "c")
    assert data.dataset_id == "2c"
    assert (data.strategy, data.filter_tag) == ("maximum", "c")


# -- CSV ----------------------------------------------------------------------


def test_csv_round_trip():
    lookup = {"a.java": vec(1.5), "b.java": vec(2.25)}
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


_BUILD_IDS = st.sampled_from(["\u2028", "#1", "# strategy=sum filter=c", " b 1 ", "構築"]) | st.text(
    st.characters(exclude_characters=",\r\n", exclude_categories=("Cs",)), min_size=1)
_VALUES = st.sampled_from([-0.0, 5e-324, 1e300, -1e300, 2.0**53 + 2, 3.0**40]) | st.floats(
    allow_nan=False, allow_infinity=False) | st.integers(2**53, 2**70).map(float)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_csv_round_trip_property(data):
    feature_ids = data.draw(st.lists(st.sampled_from(METRIC_IDS), max_size=6, unique=True))
    rows = data.draw(st.lists(st.tuples(_BUILD_IDS, st.sampled_from(LABELS),
                                        st.lists(_VALUES, min_size=len(feature_ids), max_size=len(feature_ids))),
                              max_size=5))
    for bid, label, _ in rows:  # every build ID is one that a manifest may hold
        parse_manifest(json.dumps({"build_id": bid, "kind": "nightly", "result": label, "files": []}))
    dataset = Dataset(feature_ids, rows, data.draw(st.sampled_from(STRATEGIES)), data.draw(st.sampled_from(FILTER_TAGS)))
    text = write_csv(dataset)
    if data.draw(st.booleans()):  # without its footer, a CSV reads as average, full
        text = text[:text.rindex("# strategy=")]
        dataset = Dataset(feature_ids, rows)
    again = read_csv(text)
    assert (again.rows, again.feature_ids, again.strategy, again.filter_tag) == (
        rows, feature_ids, dataset.strategy, dataset.filter_tag)
    assert write_csv(again) == write_csv(dataset)


def test_csv_round_trip_without_feature_columns():
    text = write_csv(Dataset([], [("b1", "failed", [])], "sum"))
    assert text == "build_id,label\nb1,failed\n# strategy=sum filter=full\n"
    again = read_csv(text)
    assert (again.feature_ids, again.rows, again.strategy) == ([], [("b1", "failed", [])], "sum")


def test_csv_without_footer_keeps_a_last_row_whose_build_id_starts_with_hash():
    data = read_csv("build_id,label,m9\nb1,success,1\nb2,failed,3\n#1,failed,2\n")
    assert [bid for bid, _, _ in data.rows] == ["b1", "b2", "#1"]
    assert (data.strategy, data.filter_tag) == ("average", "full")


def test_csv_header_validation():
    read_csv("build_id,label,m9,m27\nb1,success,1,2\n")
    with pytest.raises(DataError):
        read_csv("build_id,label,m43\nb1,success,1\n")
    with pytest.raises(DataError):
        read_csv("id,label,m9\nb1,success,1\n")
    with pytest.raises(DataError):
        read_csv("build_id,label,m9,m9\nb1,success,1,2\n")
    for col in ("x9", "m", "m\u0663", "m-1"):
        with pytest.raises(DataError, match="^malformed metric column"):
            read_csv(f"build_id,label,{col}\nb1,success,1\n")
    with pytest.raises(DataError):
        read_csv("# strategy=average filter=full\n")
    assert read_csv("build_id,label,m9\nb1,success,1\n# strategy=sum filter=c\n").dataset_id == "3c"
    for footer in ("strategy=bogus filter=full", "strategy=sum filter=e", "strategy= filter=a"):
        with pytest.raises(DataError) as exc:
            read_csv(f"build_id,label,m9\nb1,success,1\n# {footer}\n")
        assert footer in str(exc.value)


def test_csv_row_width_validation():
    for row in ("b1,success", "b1,success,1,2"):
        with pytest.raises(DataError, match=r"^dataset CSV row 2: expected 3 cells, got (2|4)$"):
            read_csv(f"build_id,label,m9\n{row}\n")


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
