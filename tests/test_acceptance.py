"""Acceptance gate: eight criteria covering arithmetic replication of the
published result tables, oracle equivalence for every engine, and the
planted-rule end-to-end recovery. Tolerances are pinned per criterion."""

import json
import math
import random
import time
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest

from buildmetrics import dataset as ds
from buildmetrics import featsel, metrics, tree
from buildmetrics.cli import main
from buildmetrics.dataset import Dataset
from buildmetrics.featsel import (
    SelectionRun,
    cfs_select,
    discretize,
    entropy,
    frequency_select,
    info_gain_rank,
    symmetric_uncertainty,
)
from buildmetrics.metrics import METRIC_IDS
from buildmetrics.tree import cross_validate, predict, prune, train

from conftest import CORPUS, cfs_merit, info_gain
from oracle_metrics import OracleCorpus
from synth import GAP_HIGH, GAP_LOW, generate_corpus
from data.reported_results import (
    ALL_RESULT_ROWS,
    ANOMALOUS_ROWS,
    FREQUENCY_ROW_OMISSIONS,
    FREQUENCY_SETS,
    SELECTION_RUNS,
)
from test_featsel import (
    make_dataset,
    oracle_entropy,
    oracle_ig,
    oracle_merit,
    oracle_su,
)
from test_tree import oracle_train, shape, weather_dataset, WEATHER_EXPECTED


# =========================================================================
# Criterion 1 — arithmetic replication of the three reference result tables.
# Accuracy recomputed from the printed confusion counts must match the
# printed percentage at its printed precision; the one known anomalous row
# is flagged, never forced. Runtime < 1 s.
# =========================================================================


def _row_consistent(printed: str, fc: int, fi: int, sc: int, si: int) -> bool:
    total = fc + fi + sc + si
    recomputed = 100.0 * (fc + sc) / total
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return f"{recomputed:.{decimals}f}" == printed


def test_criterion_1_accuracy_arithmetic():
    start = time.perf_counter()
    mismatches = set()
    for table, (did, printed, fc, fi, sc, si) in ALL_RESULT_ROWS:
        assert fc + fi + sc + si == 129, (table, did)
        if not _row_consistent(printed, fc, fi, sc, si):
            mismatches.add((table, did))
    assert mismatches == ANOMALOUS_ROWS
    consistent = len(ALL_RESULT_ROWS) - len(mismatches)
    assert consistent == 41
    assert time.perf_counter() - start < 1.0


def test_criterion_1_canonical_examples():
    assert f"{100 * (37 + 67) / 129:.4f}" == "80.6202"
    assert _row_consistent("79.0698", 27, 24, 75, 3)


# =========================================================================
# Criterion 2 — frequency-threshold replication from the 30 transcribed
# selection runs under the stated rule (selected by at least N runs). The
# printed threshold-4 row omits six metrics whose tally is exactly 4
# ({2, 3, 19, 20, 24, 29}): it follows a strict rule (threshold 5
# reproduces it), while the printed 6/8/10 rows follow the stated one and
# a strict rule breaks the threshold-6 row. That one known
# anomalous row is flagged, never forced; each flagged omission is checked
# against an independent tally. Runtime < 1 s.
# =========================================================================


def _transcribed_runs():
    return [SelectionRun(did, algo, ids) for did, algo, ids in SELECTION_RUNS]


@pytest.mark.parametrize("threshold", [4, 6, 8, 10])
def test_criterion_2_frequency_thresholds(threshold):
    start = time.perf_counter()
    runs = _transcribed_runs()
    assert len(runs) == 30
    printed = FREQUENCY_SETS[threshold]
    omitted = FREQUENCY_ROW_OMISSIONS.get(threshold, frozenset())
    assert frequency_select(runs, threshold) == printed | omitted

    tally = Counter()
    for _, _, ids in SELECTION_RUNS:
        for mid in set(ids):
            tally[mid] += 1
    assert not printed & omitted
    assert all(tally[mid] == threshold for mid in omitted)
    assert all(tally[mid] >= threshold for mid in printed)
    if omitted:
        assert printed == frequency_select(runs, threshold + 1)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_antitone_nesting():
    runs = _transcribed_runs()
    sets = [frequency_select(runs, t) for t in (4, 6, 8, 10)]
    for smaller, larger in zip(sets[1:], sets[:-1]):
        assert smaller <= larger
    # The printed rows nest the same way.
    assert FREQUENCY_SETS[10] <= FREQUENCY_SETS[8] <= FREQUENCY_SETS[6] <= FREQUENCY_SETS[4]


# =========================================================================
# Criterion 3 — metric oracle suite: >= 10 fixture files (< 100 lines),
# all 42 metrics equal to an independent oracle (integers exact, reals
# within 1e-9); Halstead identities hold for every fixture.
# =========================================================================

INTEGRAL_IDS = {1, 8, 10, 11, 12, 13, 14, 15, 16, 17, 19, 20, 26, 30, 31, 32, 33, 38, 40}


def test_criterion_3_metric_oracle(corpus_vectors):
    files = sorted(CORPUS.rglob("*.java"))
    assert len(files) >= 10
    for path in files:
        assert len(path.read_text().splitlines()) < 100, path

    oracle = OracleCorpus(CORPUS).all_metrics()
    assert set(oracle) == set(corpus_vectors)
    for path, expected in oracle.items():
        actual = corpus_vectors[path]
        assert list(actual) == list(METRIC_IDS)
        for mid in METRIC_IDS:
            if mid in INTEGRAL_IDS:
                assert actual[mid] == expected[mid], (path, mid)
            else:
                assert actual[mid] == pytest.approx(expected[mid], abs=1e-9), (path, mid)

    for path, v in corpus_vectors.items():
        assert v[38] == v[30] + v[31], path
        assert v[40] == v[32] + v[33], path
        if v[40] > 0:
            assert v[41] == pytest.approx(v[38] * math.log2(v[40]), abs=1e-9), path
        assert v[36] == pytest.approx(v[35] * v[41], abs=1e-9), path
        assert v[37] == pytest.approx(v[36] / 18, abs=1e-9), path


# =========================================================================
# Criterion 4 — entropy / information gain / symmetric uncertainty agree
# with exhaustive joint-table computation on small datasets (<= 12 rows)
# within 1e-12; bound properties hold over >= 1000 randomized cases.
# =========================================================================


def test_criterion_4_exhaustive_small_datasets():
    rng = random.Random(101)
    for _ in range(300):
        n = rng.randrange(1, 13)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        values = [float(rng.randrange(-3, 4)) for _ in range(n)]
        assert entropy(labels) == pytest.approx(oracle_entropy(labels), abs=1e-12)
        assert info_gain(values, labels) == pytest.approx(
            oracle_ig(values, labels), abs=1e-12
        )
        other = [rng.randrange(0, 3) for _ in range(n)]
        assert symmetric_uncertainty(values, other) == pytest.approx(
            oracle_su(values, other), abs=1e-12
        )


def test_criterion_4_randomized_bounds():
    rng = random.Random(202)
    cases = 0
    while cases < 1000:
        n = rng.randrange(2, 20)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        values = [rng.uniform(-5, 5) for _ in range(n)]
        h = entropy(labels)
        ig = info_gain(values, labels)
        assert -1e-12 <= ig <= h + 1e-12
        su = symmetric_uncertainty(
            [rng.randrange(0, 4) for _ in range(n)],
            [rng.randrange(0, 4) for _ in range(n)],
        )
        assert -1e-12 <= su <= 1 + 1e-12
        cases += 1
    assert cases >= 1000


# =========================================================================
# Criterion 5 — CFS equals the exhaustive maximum-merit subset on every
# fixture with <= 8 features.
# =========================================================================


def _cfs_fixtures():
    rng = random.Random(303)
    fixtures = []
    for n_features in (2, 3, 4, 5, 6, 7, 8):
        n = rng.randrange(8, 14)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = "failed", "success"
        columns = {}
        for mid in range(1, n_features + 1):
            kind = rng.randrange(3)
            if kind == 0:
                columns[mid] = [
                    (0.0 if lab == "failed" else 1.0) + rng.random() * 0.5
                    for lab in labels
                ]
            elif kind == 1:
                columns[mid] = [float(rng.randrange(0, 5)) for _ in labels]
            else:
                columns[mid] = [float(i % 2) for i in range(n)]
        fixtures.append((columns, labels))
    return fixtures


def test_criterion_5_cfs_exhaustive_optimality():
    for columns, labels in _cfs_fixtures():
        data = discretize(make_dataset(columns, labels))
        run = cfs_select(data)
        ids = sorted(columns)
        best_merit, best_subsets = 0.0, [()]
        for k in range(1, len(ids) + 1):
            for subset in combinations(ids, k):
                merit = oracle_merit(columns, labels, subset)
                if merit > best_merit + 1e-12:
                    best_merit, best_subsets = merit, [subset]
                elif abs(merit - best_merit) <= 1e-12:
                    best_subsets.append(subset)
        expected = min(best_subsets, key=lambda s: (len(s), s))
        assert cfs_merit(data, run.selected) == pytest.approx(best_merit, abs=1e-9)
        assert tuple(run.selected) == expected


# =========================================================================
# Criterion 6 — tree-induction oracle: the canonical 14-instance fixture
# yields the hand-verified tree; pruning never increases node count;
# predict is exact on pure training data.
# =========================================================================


def test_criterion_6_weather_fixture_tree():
    columns, labels = weather_dataset()
    grown = train(make_dataset(columns, labels))
    assert shape(grown) == oracle_train(columns, labels)
    assert shape(grown) == WEATHER_EXPECTED


def test_criterion_6_pruning_shrinks():
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randrange(8, 50)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = "failed", "success"
        columns = {mid: [rng.uniform(0, 9) for _ in range(n)] for mid in (1, 2, 3)}
        grown = train(make_dataset(columns, labels))
        before = grown.node_count()
        assert prune(grown).node_count() <= before


def test_criterion_6_predict_exact_on_pure_training_data():
    rng = random.Random(505)
    for _ in range(10):
        n = rng.randrange(8, 30)
        # Noiseless rule: label fully determined by feature 1.
        values = [rng.uniform(0, 10) for _ in range(n)]
        labels = ["failed" if v > 5 else "success" for v in values]
        if len(set(labels)) < 2:
            continue
        data = make_dataset({1: values, 2: [rng.uniform(0, 1) for _ in range(n)]}, labels)
        grown = train(data)
        for _, label, row_values in data.rows:
            features = dict(zip(data.feature_ids, row_values))
            if grown.is_leaf:
                continue  # degenerate: min-leaf floor prevented any split
            assert predict(grown, features) == label


# =========================================================================
# Criterion 7 — planted-rule end-to-end recovery through the full pipeline:
# aggregated metric 9 > 115 implies `failed`; InfoGain ranks metric 9
# first; the root split lies inside the planted gap; 10-fold CV accuracy
# >= 95% across 5 seeds; runtime < 30 s.
# =========================================================================


@pytest.fixture(scope="module")
def planted_pipeline(tmp_path_factory):
    start = time.perf_counter()
    root = tmp_path_factory.mktemp("planted")
    src, manifests = generate_corpus(root, n_success=60, n_failed=60, seed=7)
    out = root / "out"
    assert main(["extract", str(src), "--out", str(out)]) == 0
    assert main([
        "dataset", str(manifests), str(out / "metrics.csv"),
        "--strategy", "max", "--out", str(out),
    ]) == 0
    data = ds.read_csv((out / "2.csv").read_text())
    return data, start


def test_criterion_7_planted_rule_recovered(planted_pipeline):
    data, start = planted_pipeline
    assert len(data.rows) == 120
    assert Counter(data.labels()) == Counter(success=60, failed=60)

    # The planted gap separates the classes on aggregated metric 9.
    ratios = data.column(9)
    for (bid, label, _), ratio in zip(data.rows, ratios):
        if label == "failed":
            assert ratio >= GAP_HIGH, bid
        else:
            assert ratio <= GAP_LOW, bid

    run = info_gain_rank(discretize(data))
    assert run.selected[0] == 9
    assert run.scores[9] == pytest.approx(entropy(data.labels()), abs=1e-12)

    grown = prune(train(data))
    assert grown.metric_id == 9
    assert GAP_LOW < grown.threshold < GAP_HIGH

    for seed in range(5):
        report = cross_validate(data, k=10, seed=seed)
        assert report.accuracy >= 95.0, seed
    assert time.perf_counter() - start < 30.0


# =========================================================================
# Criterion 8 — determinism: identical inputs + seed give byte-identical
# artifacts; stratification invariants hold under randomized seeds.
# =========================================================================


def test_criterion_8_byte_identical_reruns(tmp_path):
    root = tmp_path / "corpus"
    src, manifests = generate_corpus(root, n_success=8, n_failed=8, seed=3)
    artifacts = []
    for attempt in ("a", "b"):
        out = tmp_path / attempt
        assert main(["extract", str(src), "--out", str(out)]) == 0
        assert main([
            "dataset", str(manifests), str(out / "metrics.csv"),
            "--strategy", "max", "--out", str(out),
        ]) == 0
        assert main(["select", str(out / "2.csv"), "--out", str(out)]) == 0
        assert main([
            "evaluate", str(out / "2.csv"), "--out", str(out), "--seed", "19",
        ]) == 0
        artifacts.append({
            p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
        })
    assert artifacts[0].keys() == artifacts[1].keys()
    for name in artifacts[0]:
        assert artifacts[0][name] == artifacts[1][name], name


def test_criterion_8_fold_invariants_random_seeds():
    rng = random.Random(606)
    for _ in range(25):
        seed = rng.randrange(0, 10**6)
        n_f = rng.randrange(10, 60)
        n_s = rng.randrange(10, 60)
        labels = ["failed"] * n_f + ["success"] * n_s
        rng.shuffle(labels)
        k = 10
        assignment = tree.stratified_folds(labels, k, seed)
        sizes = Counter(assignment)
        assert set(sizes) == set(range(k))
        assert max(sizes.values()) - min(sizes.values()) <= 1
        for label in ("failed", "success"):
            per_fold = Counter(f for f, lab in zip(assignment, labels) if lab == label)
            counts = [per_fold.get(f, 0) for f in range(k)]
            assert max(counts) - min(counts) <= 1
