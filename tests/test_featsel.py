import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from buildmetrics.dataset import Dataset
from buildmetrics.errors import SelectionError
from buildmetrics.featsel import (
    FrequencyTally,
    SelectionRun,
    cfs_merit,
    cfs_select,
    discretize_mdl,
    entropy,
    frequency_csv,
    frequency_select,
    info_gain,
    info_gain_rank,
    selection_report_csv,
    symmetric_uncertainty,
)


def make_dataset(columns: dict[int, list[float]], labels: list[str], did="1") -> Dataset:
    n = len(labels)
    for vals in columns.values():
        assert len(vals) == n
    ids = sorted(columns)
    rows = [
        (f"b{i}", labels[i], [columns[mid][i] for mid in ids]) for i in range(n)
    ]
    data = Dataset(feature_ids=ids, rows=rows)
    return data


# -- independent oracles (joint-table arithmetic only) ----------------------


def oracle_entropy(xs) -> float:
    n = len(xs)
    return -sum((c / n) * math.log2(c / n) for c in Counter(xs).values())


def oracle_su(x, y) -> float:
    hx, hy = oracle_entropy(x), oracle_entropy(y)
    if hx + hy == 0:
        return 0.0
    hxy = oracle_entropy(list(zip(x, y)))
    return 2 * (hx + hy - hxy) / (hx + hy)


def oracle_mdl_cuts(values, labels) -> list[float]:
    pairs = sorted(zip(values, labels))
    vs = [p[0] for p in pairs]
    ls = [p[1] for p in pairs]

    def split(vs, ls, out):
        n = len(vs)
        if n < 2 or len(set(ls)) < 2:
            return
        h = oracle_entropy(ls)
        k = len(set(ls))
        best = None
        for i in range(1, n):
            if vs[i] == vs[i - 1]:
                continue
            hl, hr = oracle_entropy(ls[:i]), oracle_entropy(ls[i:])
            gain = h - (i / n) * hl - ((n - i) / n) * hr
            if best is None or gain > best[0] + 1e-15:
                best = (gain, i, hl, hr)
        if best is None:
            return
        gain, i, hl, hr = best
        k1, k2 = len(set(ls[:i])), len(set(ls[i:]))
        delta = math.log2(3**k - 2) - (k * h - k1 * hl - k2 * hr)
        if gain <= (math.log2(n - 1) + delta) / n:
            return
        out.append((vs[i - 1] + vs[i]) / 2)
        split(vs[:i], ls[:i], out)
        split(vs[i:], ls[i:], out)

    cuts: list[float] = []
    split(vs, ls, cuts)
    return sorted(cuts)


def oracle_bins(values, cuts):
    return [sum(1 for c in cuts if v > c) for v in values]


def oracle_ig(values, labels) -> float:
    cuts = oracle_mdl_cuts(values, labels)
    if not cuts:
        return 0.0
    bins = oracle_bins(values, cuts)
    n = len(labels)
    groups = {}
    for b, lab in zip(bins, labels):
        groups.setdefault(b, []).append(lab)
    cond = sum((len(g) / n) * oracle_entropy(g) for g in groups.values())
    return oracle_entropy(labels) - cond


def oracle_merit(columns, labels, subset) -> float:
    bins = {
        mid: oracle_bins(vals, oracle_mdl_cuts(vals, labels))
        for mid, vals in columns.items()
    }
    k = len(subset)
    if k == 0:
        return 0.0
    rcf = sum(oracle_su(bins[f], labels) for f in subset) / k
    if k == 1:
        return rcf
    rff = sum(
        oracle_su(bins[a], bins[b]) for a, b in combinations(sorted(subset), 2)
    ) / (k * (k - 1) / 2)
    return k * rcf / math.sqrt(k + k * (k - 1) * rff)


# -- entropy -----------------------------------------------------------------


def test_entropy_uniform_binary():
    assert entropy(["failed", "failed", "success", "success"]) == pytest.approx(1.0)


def test_entropy_pure():
    assert entropy(["failed"] * 3) == 0.0


def test_entropy_study_distribution():
    labels = ["success"] * 51 + ["failed"] * 78
    expected = -(51 / 129) * math.log2(51 / 129) - (78 / 129) * math.log2(78 / 129)
    assert entropy(labels) == pytest.approx(expected, abs=1e-12)
    assert entropy(labels) == pytest.approx(0.9684, abs=5e-4)


def test_entropy_empty_rejected():
    with pytest.raises(SelectionError):
        entropy([])


@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20))
def test_entropy_matches_oracle(labels):
    assert entropy(labels) == pytest.approx(oracle_entropy(labels), abs=1e-12)


# -- MDL discretization --------------------------------------------------------


def test_mdl_constant_values():
    assert discretize_mdl([5.0] * 6, ["f", "f", "f", "s", "s", "s"]) == []


def test_mdl_clean_split():
    cuts = discretize_mdl([1.0, 2.0, 3.0, 4.0], ["f", "f", "s", "s"])
    assert cuts == [2.5]


def test_mdl_matches_oracle_randomized():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 151)
        values = [float(rng.randrange(0, rng.choice([6, 20, 60]))) for _ in range(n)]
        classes = ["f", "s", "t", "u"][: rng.randrange(2, 5)]
        # Labels follow the value with some noise, so that deep cut
        # recursions occur.
        labels = [
            classes[int(v) * len(classes) // 60 % len(classes)]
            if rng.random() < 0.7 else rng.choice(classes)
            for v in values
        ]
        assert discretize_mdl(values, labels) == pytest.approx(
            oracle_mdl_cuts(values, labels)
        )


def test_mdl_length_mismatch():
    with pytest.raises(SelectionError):
        discretize_mdl([1.0], ["a", "b"])


# -- information gain -----------------------------------------------------------


def test_ig_perfect_predictor():
    labels = ["f", "f", "s", "s", "f", "s"]
    values = [0.0 if lab == "f" else 1.0 for lab in labels]
    assert info_gain(values, labels) == pytest.approx(entropy(labels), abs=1e-12)


def test_ig_constant_feature():
    assert info_gain([7.0] * 4, ["f", "s", "f", "s"]) == 0.0


def test_ig_matches_oracle_randomized():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(2, 13)
        values = [float(rng.randrange(0, 5)) for _ in range(n)]
        labels = [rng.choice(["f", "s"]) for _ in range(n)]
        assert info_gain(values, labels) == pytest.approx(
            oracle_ig(values, labels), abs=1e-12
        )


@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.sampled_from(["f", "s"])),
        min_size=2,
        max_size=16,
    )
)
def test_ig_bounds(pairs):
    values = [float(v) for v, _ in pairs]
    labels = [lab for _, lab in pairs]
    ig = info_gain(values, labels)
    assert -1e-12 <= ig <= entropy(labels) + 1e-12


@given(
    st.lists(
        st.tuples(st.integers(-10, 10), st.sampled_from(["f", "s"])),
        min_size=2,
        max_size=12,
    )
)
def test_ig_monotone_transform_invariant(pairs):
    values = [float(v) for v, _ in pairs]
    labels = [lab for _, lab in pairs]
    transformed = [v**3 + 2 * v for v in values]  # strictly increasing
    assert info_gain(transformed, labels) == pytest.approx(
        info_gain(values, labels), abs=1e-9
    )


def test_info_gain_rank_order_and_cutoff():
    labels = ["f", "f", "f", "s", "s", "s"]
    columns = {
        1: [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],  # perfect
        2: [0.0, 0.0, 1.0, 1.0, 2.0, 2.0],  # partial
        3: [5.0] * 6,  # constant -> excluded
    }
    run = info_gain_rank(make_dataset(columns, labels))
    assert run.algorithm == "infogain"
    assert run.selected[0] == 1
    assert 3 not in run.selected
    assert run.scores[1] >= run.scores[2] >= run.scores[3] == 0.0


def test_info_gain_rank_constant_label():
    with pytest.raises(SelectionError):
        info_gain_rank(make_dataset({1: [0.0, 1.0]}, ["f", "f"]))


# -- symmetric uncertainty --------------------------------------------------------


def test_su_identical():
    assert symmetric_uncertainty([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(1.0)


def test_su_independent_uniform():
    x = [0, 0, 1, 1]
    y = [0, 1, 0, 1]
    assert symmetric_uncertainty(x, y) == pytest.approx(0.0, abs=1e-12)


def test_su_three_of_four_agreement():
    # Direct joint-table arithmetic: H(x)=1, H(y)=0.811278, H(x,y)=1.5.
    x = [0, 0, 1, 1]
    y = [0, 0, 1, 0]
    hx, hy, hxy = 1.0, oracle_entropy(y), oracle_entropy(list(zip(x, y)))
    expected = 2 * (hx + hy - hxy) / (hx + hy)
    assert symmetric_uncertainty(x, y) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.343711, abs=1e-6)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=16
    )
)
def test_su_range_and_symmetry(pairs):
    x = [a for a, _ in pairs]
    y = [b for _, b in pairs]
    su = symmetric_uncertainty(x, y)
    assert -1e-12 <= su <= 1 + 1e-12
    assert su == pytest.approx(symmetric_uncertainty(y, x), abs=1e-12)
    assert su == pytest.approx(oracle_su(x, y), abs=1e-12)


# -- CFS ---------------------------------------------------------------------------


def test_cfs_single_informative_feature():
    labels = ["f", "f", "s", "s"]
    columns = {1: [3.0] * 4, 2: [0.0, 0.0, 1.0, 1.0], 3: [9.0] * 4}
    run = cfs_select(make_dataset(columns, labels))
    assert run.selected == [2]


def test_cfs_duplicate_perfect_feature():
    labels = ["f", "f", "s", "s", "f", "s"]
    perfect = [0.0 if lab == "f" else 1.0 for lab in labels]
    run = cfs_select(make_dataset({1: perfect, 2: list(perfect)}, labels))
    assert run.selected == [1]


def _random_columns(rng, n_features, n_rows):
    labels = [rng.choice(["f", "s"]) for _ in range(n_rows)]
    if len(set(labels)) < 2:
        labels[0], labels[1] = "f", "s"
    columns = {}
    for mid in range(1, n_features + 1):
        mode = rng.randrange(3)
        if mode == 0:  # noisy copy of the label
            columns[mid] = [
                (0.0 if lab == "f" else 1.0) + rng.random() * 0.4 for lab in labels
            ]
        elif mode == 1:  # random
            columns[mid] = [float(rng.randrange(0, 4)) for _ in labels]
        else:  # redundant pair base
            columns[mid] = [float(i % 3) for i in range(n_rows)]
    return columns, labels


def test_cfs_matches_exhaustive_oracle():
    rng = random.Random(5)
    for trial in range(25):
        n_features = rng.randrange(2, 7)
        columns, labels = _random_columns(rng, n_features, rng.randrange(6, 13))
        data = make_dataset(columns, labels)
        run = cfs_select(data)

        best_merit, best_subsets = 0.0, [()]  # empty subset has merit 0
        ids = sorted(columns)
        for k in range(1, len(ids) + 1):
            for subset in combinations(ids, k):
                merit = oracle_merit(columns, labels, subset)
                if merit > best_merit + 1e-12:
                    best_merit, best_subsets = merit, [subset]
                elif abs(merit - best_merit) <= 1e-12:
                    best_subsets.append(subset)
        # Deterministic tie-break: smallest subset, then lexicographic.
        expected = min(best_subsets, key=lambda s: (len(s), s))
        got_merit = cfs_merit(data, run.selected)
        assert got_merit == pytest.approx(best_merit, abs=1e-9), trial
        assert tuple(run.selected) == expected, trial


def test_cfs_merit_formula_spot_check():
    labels = ["f", "f", "s", "s"]
    columns = {1: [0.0, 0.0, 1.0, 1.0], 2: [0.0, 1.0, 0.0, 1.0]}
    data = make_dataset(columns, labels)
    assert cfs_merit(data, [1]) == pytest.approx(1.0)
    assert cfs_merit(data, [1, 2]) == pytest.approx(
        oracle_merit(columns, labels, (1, 2)), abs=1e-12
    )


def test_cfs_constant_label():
    with pytest.raises(SelectionError):
        cfs_select(make_dataset({1: [0.0, 1.0]}, ["f", "f"]))


# -- frequency thresholds ------------------------------------------------------------


def test_frequency_threshold_one_single_run():
    run = SelectionRun("1", "infogain", [3, 14, 16])
    assert frequency_select([run], 1) == {3, 14, 16}


def test_frequency_tally_counts_runs_not_ranks():
    runs = [
        SelectionRun("1", "infogain", [3, 3, 14]),  # duplicate IDs count once
        SelectionRun("1", "cfs", [14]),
    ]
    tally = FrequencyTally.from_runs(runs)
    assert tally.counts == Counter({3: 1, 14: 2})
    assert frequency_select(runs, 2) == {14}


def test_frequency_antitone():
    rng = random.Random(3)
    runs = [
        SelectionRun(str(i), "infogain", rng.sample(range(1, 43), rng.randrange(1, 10)))
        for i in range(30)
    ]
    previous = None
    for threshold in (4, 6, 8, 10):
        current = frequency_select(runs, threshold)
        if previous is not None:
            assert current <= previous
        previous = current


def test_frequency_validation():
    with pytest.raises(SelectionError):
        frequency_select([], 1)
    with pytest.raises(SelectionError):
        frequency_select([SelectionRun("1", "cfs", [1])], 0)


# -- report formats --------------------------------------------------------------------


def test_selection_report_csv_shape():
    run = SelectionRun("2c", "infogain", [33, 32], {33: 0.5, 32: 0.25})
    text = selection_report_csv([run])
    lines = text.strip().splitlines()
    assert lines[0] == "dataset_id,algorithm,metric_id,rank_or_member,score"
    assert lines[1] == "2c,infogain,33,1,0.500000"
    assert lines[2] == "2c,infogain,32,2,0.250000"


def test_frequency_csv_shape():
    runs = [SelectionRun("1", "cfs", [3, 14]), SelectionRun("2", "cfs", [14])]
    assert frequency_csv(runs) == "metric_id,count\n3,1\n14,2\n"
