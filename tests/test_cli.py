import json
from pathlib import Path

import pytest

from buildmetrics import dataset as ds
from buildmetrics import featsel, metrics, tree
from buildmetrics.cli import main

from conftest import CORPUS
from synth import generate_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    src, manifests = generate_corpus(root, n_success=12, n_failed=12, seed=7)
    return root, src, manifests


@pytest.fixture(scope="module")
def extracted(synth_root, tmp_path_factory):
    root, src, manifests = synth_root
    out = tmp_path_factory.mktemp("extracted")
    assert main(["extract", str(src), "--out", str(out)]) == 0
    return out / "metrics.csv"


# -- extract -----------------------------------------------------------------


def test_extract_fixture_corpus(tmp_path, capsys):
    code, out, err = run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "metrics.csv").read_text()
    assert len(text.strip().splitlines()) == 1 + 11
    assert (tmp_path / "extract_exclusions.log").read_text() == ""


def test_extract_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "extract", str(CORPUS), "--out", str(out1))[0] == 0
    assert run(capsys, "extract", str(CORPUS), "--out", str(out2))[0] == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_extract_logs_broken_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Good1.java").write_text("package p; class Good1 { int a; }")
    (src / "Good2.java").write_text("package p; class Good2 { int b; }")
    (src / "Broken.java").write_text('package p; class Broken { String s = "oops; }')
    out = tmp_path / "out"
    code, _, _ = run(capsys, "extract", str(src), "--out", str(out))
    assert code == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2
    log = (out / "extract_exclusions.log").read_text()
    assert "Broken.java" in log


@pytest.mark.parametrize(
    "name, content, reason",
    [
        pytest.param("p/B.java", b'package p; class B { String s = "caf\xe9"; }',
                     "not valid UTF-8", id="non-utf8"),
        pytest.param("p/A,B.java", b"package p; class C { int c; }", "comma", id="comma-in-path"),
    ],
)
def test_extract_excludes_unstorable_file(tmp_path, capsys, name, content, reason):
    src = tmp_path / "src"
    (src / "p").mkdir(parents=True)
    (src / "p" / "A.java").write_text("package p; class A { int a; }")
    (src / name).write_bytes(content)
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log.startswith(name + ": ") and reason in log and len(log.splitlines()) == 1
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


def test_extract_excludes_truncated_file(tmp_path, capsys):
    src = tmp_path / "src"
    (src / "p").mkdir(parents=True)
    (src / "p" / "A.java").write_text("package p; class A { int a; }")
    (src / "p" / "B.java").write_text("package p; class B extends")
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log == "p/B.java: unexpected end of file\n"
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


@pytest.mark.parametrize(
    "files, excluded",
    [
        pytest.param({"p/A1.java": "package p; class A {}", "p/A2.java": "package p; class A {}"},
                     {"p/A1.java": "duplicate type p.A declared in p/A1.java and p/A2.java",
                      "p/A2.java": "duplicate type p.A declared in p/A1.java and p/A2.java"},
                     id="duplicate-type"),
        pytest.param({"p/D.java": "package p; class D {} class D {}"},
                     {"p/D.java": "duplicate type p.D declared in p/D.java and p/D.java"},
                     id="duplicate-in-one-file"),
        pytest.param({"p/A.java": "package p; class A extends B {}",
                      "p/B.java": "package p; class B extends A {}",
                      "q/C.java": "package q; import p.A; class C extends A {}"},
                     {"p/A.java": "inheritance cycle: p.A -> p.B -> p.A",
                      "p/B.java": "inheritance cycle: p.B -> p.A -> p.B",
                      "q/C.java": "inheritance cycle: q.C -> p.A -> p.B -> p.A"},
                     id="cycle"),
        pytest.param({"p/S.java": "package p; class S extends S {}"},
                     {"p/S.java": "inheritance cycle: p.S extends itself"}, id="self-extends"),
        # Once p/A.java is left out, p.Z extends the default-package B, which extends p.Z.
        pytest.param({"p/A.java": "package p; class A extends A {} class B {}",
                      "p/Z.java": "package p; class Z extends B {}",
                      "B.java": "class B extends p.Z {}"},
                     {"B.java": "inheritance cycle: B -> p.Z -> B",
                      "p/A.java": "inheritance cycle: p.A extends itself",
                      "p/Z.java": "inheritance cycle: p.Z -> B -> p.Z"},
                     id="cycle-after-leaving-out"),
    ],
)
def test_extract_excludes_type_conflicts(tmp_path, capsys, files, excluded):
    src = tmp_path / "src"
    for name, text in {"p/Good.java": "package p; class Good extends Base {}",
                       "p/Base.java": "package p; class Base { int a; }", **files}.items():
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text(text)
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log == "".join(f"{path}: {reason}\n" for path, reason in sorted(excluded.items()))
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/Base.java", "p/Good.java"}
    assert lookup["p/Good.java"].values[42] == 1.0  # depth of inheritance


def test_extract_long_extends_chain(tmp_path, capsys):
    src = tmp_path / "src" / "p"
    src.mkdir(parents=True)
    (src / "C0.java").write_text("package p; class C0 { }")
    for i in range(1, 1100):
        (src / f"C{i}.java").write_text(f"package p; class C{i} extends C{i - 1} {{ }}")
    code, _, err = run(capsys, "extract", str(tmp_path / "src"), "--out", str(tmp_path / "out"))
    assert code == 0, err
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert len(lookup) == 1100
    assert lookup["p/C1099.java"].values[42] == 1099.0


def test_extract_empty_tree_usage_error(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error" in err


def test_extract_refuses_overwrite(tmp_path, capsys):
    assert run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))
    assert code == 1 and "--force" in err
    assert run(capsys, "extract", str(CORPUS), "--out", str(tmp_path), "--force")[0] == 0


# -- dataset ------------------------------------------------------------------


def test_dataset_naming_and_exclusions(synth_root, extracted, tmp_path, capsys):
    _, _, manifests = synth_root
    code, out_text, _ = run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "max", "--filter", "c", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "2c.csv").exists()
    assert (tmp_path / "2c_exclusions.log").exists()
    data = ds.read_csv((tmp_path / "2c.csv").read_text())
    assert data.dataset_id == "2c"
    assert data.feature_ids == list(range(30, 43))
    assert len(data.rows) == 24


def test_dataset_average_full_name(synth_root, extracted, tmp_path, capsys):
    _, _, manifests = synth_root
    code, _, _ = run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "1.csv").exists()


def test_dataset_empty_manifest_dir(extracted, tmp_path, capsys):
    empty = tmp_path / "manifests"
    empty.mkdir()
    code, _, _ = run(
        capsys, "dataset", str(empty), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_dataset_nothing_retained_is_data_error(extracted, tmp_path, capsys):
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    (mdir / "w.json").write_text(json.dumps({
        "build_id": "w1", "kind": "continuous", "result": "warning",
        "files": ["b000/Signal.java"],
    }))
    code, _, _ = run(
        capsys, "dataset", str(mdir), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 2


_MANIFEST = json.dumps(
    {"build_id": "b1", "kind": "nightly", "result": "failed", "files": ["A.java"]}
)
_METRICS_HEADER = "file_path," + ",".join(f"m{i}" for i in metrics.METRIC_IDS)


@pytest.mark.parametrize(
    "manifest, metrics_text",
    [
        pytest.param("{bad", _METRICS_HEADER + "\n", id="manifest-invalid-json"),
        pytest.param("null", _METRICS_HEADER + "\n", id="manifest-not-an-object"),
        pytest.param(_MANIFEST, "file,m1\nx,1\n", id="metrics-bad-header"),
        pytest.param(_MANIFEST, _METRICS_HEADER + "\nA.java,1,2\n", id="metrics-short-row"),
        pytest.param(
            _MANIFEST,
            _METRICS_HEADER + "\nA.java,abc" + ",1" * 41 + "\n",
            id="metrics-non-numeric-cell",
        ),
        pytest.param(
            _MANIFEST,
            _METRICS_HEADER + "\nA.java,nan" + ",1" * 41 + "\n",
            id="metrics-nan-cell",
        ),
    ],
)
def test_dataset_parse_failure_is_one_line_data_error(tmp_path, capsys, manifest, metrics_text):
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    (mdir / "b1.json").write_text(manifest)
    (tmp_path / "metrics.csv").write_text(metrics_text)
    code, _, err = run(
        capsys, "dataset", str(mdir), str(tmp_path / "metrics.csv"),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# -- select ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset_csv(synth_root, extracted, tmp_path_factory):
    _, _, manifests = synth_root
    out = tmp_path_factory.mktemp("datasets")
    assert main([
        "dataset", str(manifests), str(extracted),
        "--strategy", "max", "--out", str(out),
    ]) == 0
    return out / "2.csv"


def test_select_outputs(dataset_csv, tmp_path, capsys):
    code, _, _ = run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))
    assert code == 0
    selection = (tmp_path / "selection.csv").read_text().strip().splitlines()
    assert selection[0] == "dataset_id,algorithm,metric_id,rank_or_member,score"
    assert {ln.split(",")[1] for ln in selection[1:]} == {"infogain", "cfs"}
    thresholds = (tmp_path / "thresholds.csv").read_text().strip().splitlines()
    assert thresholds[0] == "threshold,selected_metric_ids"
    assert [ln.split(",")[0] for ln in thresholds[1:]] == ["4", "6", "8", "10"]


def test_select_writes_nothing_when_a_later_target_exists(dataset_csv, tmp_path, capsys):
    (tmp_path / "thresholds.csv").write_text("kept\n")
    code, _, err = run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))
    assert code == 1 and "--force" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["thresholds.csv"]
    assert (tmp_path / "thresholds.csv").read_text() == "kept\n"


def test_select_single_run_histogram(dataset_csv, tmp_path, capsys):
    code, _, _ = run(
        capsys, "select", str(dataset_csv), "--algo", "infogain", "--out", str(tmp_path)
    )
    assert code == 0
    counts = [
        int(ln.split(",")[1])
        for ln in (tmp_path / "frequency.csv").read_text().strip().splitlines()[1:]
    ]
    assert counts and set(counts) <= {0, 1}


# -- evaluate -------------------------------------------------------------------


def test_evaluate_planted_dataset(dataset_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "evaluate", str(dataset_csv), "--out", str(tmp_path), "--seed", "0"
    )
    assert code == 0
    report = json.loads((tmp_path / "2_report.json").read_text())
    accuracy = float(report["accuracy"].rstrip("%"))
    assert accuracy >= 95.0
    tree_text = (tmp_path / "2_tree.txt").read_text()
    assert tree_text.startswith("m9 <= ")


def test_evaluate_feature_subset(dataset_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "evaluate", str(dataset_csv), "--features", "9,13",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "2_report.txt").exists()


def test_evaluate_disjoint_features(dataset_csv, tmp_path, capsys):
    code, _, err = run(
        capsys, "evaluate", str(dataset_csv), "--features", "999",
        "--out", str(tmp_path),
    )
    assert code == 1


def test_evaluate_past_float_range_of_exact_bound(tmp_path, capsys):
    # 1200 balanced, noisy rows: pruning's bound at the root (about 600
    # errors in 1080-1200 rows) overflows an exact-integer binomial sum.
    import random

    rng = random.Random(1200)
    rows = []
    for i in range(1200):
        label = "failed" if i % 2 else "success"
        signal = rng.gauss(60.0 if label == "failed" else 50.0, 15.0)
        rows.append((f"b{i:04d}", label, [round(signal, 1), float(rng.randrange(20))]))
    csv = tmp_path / "big.csv"
    csv.write_text(ds.write_csv(ds.Dataset(feature_ids=[9, 13], rows=rows, strategy="maximum")))
    code, _, err = run(capsys, "evaluate", str(csv), "--out", str(tmp_path / "o"))
    assert code == 0, err
    report = json.loads((tmp_path / "o" / "2_report.json").read_text())
    assert sorted(bid for fold in report["folds"] for bid in fold) == [r[0] for r in rows]
    assert sum(c["correct"] + c["incorrect"] for c in report["per_class"].values()) == 1200


def test_evaluate_replay_prints_reference_row():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["evaluate", "--replay", "37,14,67,11"])
    assert code == 0
    assert buf.getvalue().splitlines()[0] == "80.6202%"


def test_evaluate_requires_dataset_or_replay(capsys):
    code, _, err = run(capsys, "evaluate")
    assert code == 1


def test_evaluate_fold_reduction_note(extracted, tmp_path, capsys):
    # 3 success / many failed -> k reduced to 3.
    lookup = metrics.parse_metrics_csv(Path(extracted).read_text())
    import random

    rng = random.Random(0)
    rows = []
    for i in range(20):
        label = "success" if i < 3 else "failed"
        base = 50.0 if label == "success" else 160.0
        rows.append((f"b{i:02d}", label, [base + rng.random(), rng.random()]))
    data = ds.Dataset(feature_ids=[9, 13], rows=rows, strategy="maximum")
    path = tmp_path / "2.csv"
    path.write_text(ds.write_csv(data))
    code, out, _ = run(capsys, "evaluate", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "folds reduced from 10 to 3" in out


# -- freq ----------------------------------------------------------------------


def test_freq_command(dataset_csv, tmp_path, capsys):
    assert run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))[0] == 0
    code, out, _ = run(
        capsys, "freq", str(tmp_path / "selection.csv"), "--threshold", "2"
    )
    assert code == 0
    ids = [int(x) for x in out.split()]
    assert ids == sorted(ids)
    # threshold 2 out of 2 runs = intersection of the two selections
    runs_text = (tmp_path / "selection.csv").read_text().strip().splitlines()[1:]
    by_algo = {}
    for ln in runs_text:
        cells = ln.split(",")
        by_algo.setdefault(cells[1], set()).add(int(cells[2]))
    assert set(ids) == by_algo["infogain"] & by_algo["cfs"]


@pytest.mark.parametrize(
    "row", ["1,cfs,abc", "1", "1,cfs", "1,infogain,"], ids=["non-integer", "one-cell", "two-cells", "empty-id"]
)
def test_freq_malformed_report_is_one_line_data_error(tmp_path, capsys, row):
    report = tmp_path / "selection.csv"
    report.write_text("dataset_id,algorithm,metric_id,rank_or_member,score\n1,cfs,9,1,\n" + row + "\n")
    code, _, err = run(capsys, "freq", str(report), "--threshold", "1")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# -- one-line errors for paths, --folds and --replay ------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param("select {missing} --out {tmp}/o", 1, id="select-missing"),
        pytest.param("select {dir} --out {tmp}/o", 1, id="select-dir"),
        pytest.param("select {latin1} --out {tmp}/o", 2, id="select-non-utf8"),
        pytest.param("evaluate {missing} --out {tmp}/o", 1, id="evaluate-missing"),
        pytest.param("evaluate {dir} --out {tmp}/o", 1, id="evaluate-dir"),
        pytest.param("dataset {manifests} {missing} --strategy avg --out {tmp}/o", 1, id="dataset-metrics-missing"),
        pytest.param("dataset {manifests} {dir} --strategy avg --out {tmp}/o", 1, id="dataset-metrics-dir"),
        pytest.param("dataset {dir_manifests} {metrics} --strategy avg --out {tmp}/o", 1, id="dataset-manifest-dir"),
        pytest.param("freq {missing} --threshold 1", 1, id="freq-missing"),
        pytest.param("freq {dir} --threshold 1", 1, id="freq-dir"),
        pytest.param("extract {corpus} --out {file}", 1, id="extract-out-file"),
        pytest.param("dataset {manifests} {metrics} --strategy avg --out {file}", 1, id="dataset-out-file"),
        pytest.param("select {csv} --out {file}", 1, id="select-out-file"),
        pytest.param("evaluate {csv} --out {file}", 1, id="evaluate-out-file"),
        pytest.param("evaluate --replay 0,0,0,0", 1, id="replay-all-zero"),
        pytest.param("evaluate --replay=-1,2,3,4", 1, id="replay-negative"),
        pytest.param("evaluate {csv} --folds 0 --out {tmp}/o", 1, id="folds-0"),
        pytest.param("evaluate {csv} --folds=-2 --out {tmp}/o", 1, id="folds-negative"),
        pytest.param("evaluate {csv} --folds 1 --out {tmp}/o", 1, id="folds-1"),
        pytest.param("freq {selection} --threshold 0", 1, id="threshold-0"),
        pytest.param("freq {selection} --threshold=-3", 1, id="threshold-negative"),
        pytest.param("select {bogus} --out {tmp}/o", 2, id="select-unknown-strategy"),
        pytest.param("evaluate {bogus} --out {tmp}/o", 2, id="evaluate-unknown-strategy"),
    ],
)
def test_bad_path_or_replay_is_one_line_error(tmp_path, capsys, argv, expected):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "manifests").mkdir()
    (tmp_path / "manifests" / "b1.json").write_text(_MANIFEST)
    (tmp_path / "dir_manifests" / "b1.json").mkdir(parents=True)
    (tmp_path / "metrics.csv").write_text(_METRICS_HEADER + "\nA.java" + ",1" * 42 + "\n")
    (tmp_path / "latin1.csv").write_bytes(b"build_id,label,m9\nb\xe9,failed,1\n")
    rows = [(f"b{i}", ("failed", "success")[i % 2], [float(i)]) for i in range(6)]
    (tmp_path / "2.csv").write_text(ds.write_csv(ds.Dataset([9], rows, "maximum")))
    (tmp_path / "bogus.csv").write_text(ds.write_csv(ds.Dataset([9], rows, "bogus")))
    (tmp_path / "selection.csv").write_text("dataset_id,algorithm,metric_id,rank_or_member,score\n1,cfs,9,1,\n")
    names = {name: tmp_path / name for name in ("dir", "file", "manifests", "dir_manifests")}
    names.update(missing=tmp_path / "missing.csv", latin1=tmp_path / "latin1.csv",
                 metrics=tmp_path / "metrics.csv", csv=tmp_path / "2.csv", corpus=CORPUS, tmp=tmp_path,
                 bogus=tmp_path / "bogus.csv", selection=tmp_path / "selection.csv")
    code, _, err = run(capsys, *argv.format(**names).split())
    assert code == expected
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# -- staged pipeline equals in-process composition --------------------------------


def test_staged_equals_in_process(synth_root, extracted, tmp_path, capsys):
    root, src, manifests = synth_root

    # Staged via CLI artifacts:
    dsout = tmp_path / "ds"
    assert run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "sum", "--filter", "d", "--out", str(dsout),
    )[0] == 0
    staged = ds.read_csv((dsout / "3d.csv").read_text())

    # In-process over the same CSV artifacts:
    lookup = metrics.parse_metrics_csv(Path(extracted).read_text())
    manifest_docs = [
        ds.parse_manifest(p.read_text()) for p in sorted(Path(manifests).glob("*.json"))
    ]
    direct, _ = ds.assemble(manifest_docs, lookup, "sum", "d")

    assert staged.feature_ids == direct.feature_ids
    assert staged.labels() == direct.labels()
    for (b1, l1, v1), (b2, l2, v2) in zip(staged.rows, direct.rows):
        assert b1 == b2 and l1 == l2
        assert v1 == pytest.approx(v2, abs=1e-9)

    # Selection and evaluation agree between CLI artifacts and direct calls.
    selout = tmp_path / "sel"
    assert run(capsys, "select", str(dsout / "3d.csv"), "--out", str(selout))[0] == 0
    direct_runs = [featsel.info_gain_rank(direct), featsel.cfs_select(direct)]
    staged_lines = (selout / "selection.csv").read_text().strip().splitlines()[1:]
    staged_sel = {}
    for ln in staged_lines:
        cells = ln.split(",")
        staged_sel.setdefault(cells[1], []).append(int(cells[2]))
    assert staged_sel["infogain"] == direct_runs[0].selected
    assert staged_sel["cfs"] == direct_runs[1].selected

    evalout = tmp_path / "ev"
    assert run(
        capsys, "evaluate", str(dsout / "3d.csv"), "--out", str(evalout), "--seed", "3"
    )[0] == 0
    direct_report = tree.cross_validate(direct, k=10, params=tree.TrainParams(seed=3))
    assert (evalout / "3d_report.txt").read_text() == tree.report_table(direct_report)


def test_select_and_evaluate_determinism(dataset_csv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(capsys, "select", str(dataset_csv), "--out", str(out))[0] == 0
        assert run(
            capsys, "evaluate", str(dataset_csv), "--out", str(out), "--seed", "11"
        )[0] == 0
    for name in ("selection.csv", "frequency.csv", "thresholds.csv",
                 "2_report.txt", "2_report.json", "2_tree.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
