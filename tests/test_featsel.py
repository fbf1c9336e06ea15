import math
import random
import sys
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics import featsel
from buildmetrics.dataset import Dataset
from buildmetrics.errors import DataError
from buildmetrics.featsel import (
    Discretized,
    SelectionRun,
    best_cut,
    cfs_select,
    discretize,
    discretize_mdl,
    entropy,
    frequency_csv,
    frequency_select,
    info_gain_rank,
    selection_report_csv,
    symmetric_uncertainty,
)

from conftest import cfs_merit, info_gain


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
    with pytest.raises(DataError):
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
    with pytest.raises(DataError):
        discretize_mdl([1.0], ["a", "b"])


def _frame_depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_mdl_cut_depth_does_not_grow_the_stack(monkeypatch):
    # Labels change every 20 rows: each accepted cut peels one block off an
    # end, so the 99 cuts nest 99 deep. A recursive split would call
    # best_cut from about 99 different stack depths.
    depths = []

    def recording_best_cut(*args, **kwargs):
        depths.append(_frame_depth())
        return best_cut(*args, **kwargs)

    monkeypatch.setattr(featsel, "best_cut", recording_best_cut)
    n = 2000
    cuts = discretize_mdl([float(i) for i in range(n)], ["fs"[i // 20 % 2] for i in range(n)])
    assert cuts == [i - 0.5 for i in range(20, n, 20)]
    assert max(depths) - min(depths) <= 2


# -- the screened cut sweep --------------------------------------------------------


def reference_best_cut(order, values, ys, counts, min_size=1, eps=1e-12):
    """The cut sweep before screening, verbatim: two entropies per cut."""
    n = len(order)
    h_total = featsel._entropy(counts, n)
    left = [0] * len(counts)
    right = list(counts)
    best = None
    v_next = values[order[0]]
    for pos in range(1, n):
        y = ys[order[pos - 1]]
        left[y] += 1
        right[y] -= 1
        v_prev = v_next
        v_next = values[order[pos]]
        if v_prev == v_next or pos < min_size or n - pos < min_size:
            continue
        h_left = featsel._entropy(left, pos)
        h_right = featsel._entropy(right, n - pos)
        gain = h_total - (pos / n) * h_left - ((n - pos) / n) * h_right
        if gain > 1e-12 and (best is None or gain > best[0] + eps):
            best = (gain, pos, h_left, h_right, list(left), list(right))
    return best


@st.composite
def _sweep_inputs(draw):
    """Rows with class indices and values, and a subset of them to sweep:
    coarse value grids give many ties; a mirrored label sequence over
    distinct values gives cuts whose gains tie in real arithmetic."""
    k = draw(st.integers(2, 4))
    ys = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=40))
    if draw(st.booleans()):
        ys = ys + ys[::-1]
        values = [float(i) for i in range(len(ys))]
    else:
        grid = draw(st.sampled_from([2, 5, 20, 1000]))
        values = draw(st.lists(st.integers(0, grid), min_size=len(ys), max_size=len(ys)))
        values = [v / 7 for v in values]
    rows = draw(st.sets(st.integers(0, len(ys) - 1), min_size=1)) if draw(st.booleans()) else range(len(ys))
    order = sorted(rows, key=values.__getitem__)
    counts = [sum(1 for i in order if ys[i] == y) for y in range(k)]
    return order, values, ys, counts


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_sweep_inputs(), st.sampled_from([1, 2]), st.sampled_from([1e-12, 1e-15]))
def test_best_cut_equals_the_unscreened_sweep(inputs, min_size, eps):
    order, values, ys, counts = inputs
    assert best_cut(order, values, ys, counts, min_size, eps) == reference_best_cut(
        order, values, ys, counts, min_size, eps)


@pytest.mark.parametrize("seed", range(4))
def test_best_cut_breaks_long_mirror_ties_as_the_unscreened_sweep(seed):
    # Mirrored labels over distinct values: the cuts at pos and n - pos tie
    # in real arithmetic, while the running sum's rounding grows with n.
    rng = random.Random(seed)
    half = [rng.randrange(2 + seed % 2) for _ in range(1500)]
    ys = half + half[::-1]
    values = [float(i) for i in range(len(ys))]
    counts = [ys.count(y) for y in range(2 + seed % 2)]
    for min_size, eps in ((1, 1e-15), (2, 1e-12)):
        assert best_cut(range(len(ys)), values, ys, counts, min_size, eps) == reference_best_cut(
            range(len(ys)), values, ys, counts, min_size, eps)


@pytest.mark.parametrize("classes, grid", [(2, None), (3, None), (4, 50), (2, 400)])
def test_best_cut_computes_a_bounded_number_of_entropies(monkeypatch, classes, grid):
    # The unscreened sweep computes two entropies per cut, about 4000 here.
    calls = []
    entropy_of = featsel._entropy
    monkeypatch.setattr(featsel, "_entropy", lambda counts, n: calls.append(n) or entropy_of(counts, n))
    rng = random.Random(classes * 1000 + (grid or 0))
    n = 2000
    ys = [rng.randrange(classes) for _ in range(n)]
    values = [float(rng.randrange(grid)) if grid else rng.random() for _ in range(n)]
    order = sorted(range(n), key=values.__getitem__)
    counts = [ys.count(y) for y in range(classes)]
    got = best_cut(order, values, ys, counts, 2)
    assert len(calls) <= 10
    assert got == reference_best_cut(order, values, ys, counts, 2)


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
    run = info_gain_rank(discretize(make_dataset(columns, labels)))
    assert run.algorithm == "infogain"
    assert run.selected[0] == 1
    assert 3 not in run.selected
    assert run.scores[1] >= run.scores[2] >= run.scores[3] == 0.0


def test_info_gain_rank_constant_label():
    with pytest.raises(DataError, match="dataset label is constant"):
        info_gain_rank(discretize(make_dataset({1: [0.0, 1.0]}, ["f", "f"])))


def test_info_gain_rank_skips_a_feature_without_a_cut():
    # Feature 2 takes two values, but MDL makes no cut on it.
    labels = ["f", "f", "f", "s", "s", "s"]
    columns = {1: [0.0, 0.0, 0.0, 1.0, 1.0, 1.0], 2: [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]}
    table = discretize(make_dataset(columns, labels))
    assert table.bins[2] == [0] * 6
    run = info_gain_rank(table)
    assert run.scores[2] == 0.0 and run.selected == [1]


def test_info_gain_rank_breaks_equal_gains_by_metric_id_whatever_the_row_order():
    # Both features' bins hold the same class counts, first met in a different row order.
    labels = ["failed"] * 10 + ["success"] * 14
    table = Discretized("1", labels, {
        3: [0] * 2 + [1] * 4 + [2] * 4 + [0] * 4 + [1] * 4 + [2] * 6,
        37: [0] * 2 + [2] * 4 + [1] * 4 + [0] * 4 + [2] * 6 + [1] * 4,
    })
    run = info_gain_rank(table)
    assert run.scores[3] == run.scores[37] > 0
    assert run.selected == [3, 37]


def test_info_gain_rank_ties_a_feature_with_its_pure_refinement():
    # Metric 25 splits metric 3's pure bins 1 and 2 into pure bins, so the two gains are equal.
    # H(label) - sum w*H(label | bin) computes them exactly equal, so the tie goes to the smaller
    # ID; H(bins) + H(label) - H(bins, label) would round them to ...216 and ...26.
    labels = ["failed"] * 54 + ["success"] * 80 + ["failed"] * 26 + ["success"] * 40
    table = Discretized("1", labels, {
        3: [0] * 134 + [1] * 26 + [2] * 40,
        25: [0] * 134 + [1] * 3 + [2] * 23 + [3] * 1 + [4] * 39,
    })
    run = info_gain_rank(table)
    assert run.scores[3] == run.scores[25] == 0.3192617003870424
    assert run.selected == [3, 25]


def test_info_gain_rank_scores_equal_info_gain():
    rng = random.Random(31)
    columns, labels = _random_columns(rng, 6, 40)
    run = info_gain_rank(discretize(make_dataset(columns, labels)))
    assert run.scores == {mid: info_gain(vals, labels) for mid, vals in columns.items()}


def test_discretize_keys_bins_by_ascending_metric_id():
    data = Dataset(feature_ids=[9, 1], rows=[("b0", "f", [1.0, 0.0]), ("b1", "s", [0.0, 1.0])], strategy="sum")
    table = discretize(data)
    assert (table.dataset_id, table.labels, list(table.bins)) == ("3", ["f", "s"], [1, 9])


@pytest.mark.parametrize("labels", [["f", "f"], []], ids=["constant", "empty"])
def test_discretize_rejects_constant_label(labels):
    columns = {1: [float(k) for k in range(len(labels))]}
    with pytest.raises(DataError, match="dataset label is constant"):
        discretize(make_dataset(columns, labels))


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


def test_su_is_bit_identical_under_any_row_order():
    # entropy sums its count table in ascending order, so SU depends on the counts' multiset alone.
    rng = random.Random(13)
    for _ in range(1000):
        n = rng.randrange(6, 80)
        x = [rng.randrange(rng.randrange(3, 7)) for _ in range(n)]
        y = [rng.randrange(rng.randrange(2, 5)) for _ in range(n)]
        order = rng.sample(range(n), n)
        assert symmetric_uncertainty([x[i] for i in order], [y[i] for i in order]) == symmetric_uncertainty(x, y)


def test_su_length_mismatch():
    with pytest.raises(DataError, match="sequences differ in length"):
        symmetric_uncertainty([0, 1, 0], [0, 1])


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
    run = cfs_select(discretize(make_dataset(columns, labels)))
    assert run.selected == [2]


def test_cfs_duplicate_perfect_feature():
    labels = ["f", "f", "s", "s", "f", "s"]
    perfect = [0.0 if lab == "f" else 1.0 for lab in labels]
    run = cfs_select(discretize(make_dataset({1: perfect, 2: list(perfect)}, labels)))
    assert run.selected == [1]


def test_cfs_never_picks_a_copied_column_without_its_original():
    # A copy under a larger ID ties its original exactly, so the tie-break
    # keeps the original. With merits summed in subset order, seed 433
    # picked [3, 7, 11, 12], where 12 copies 5.
    for seed in range(500):
        rng = random.Random(seed)
        n, f = rng.randint(20, 120), rng.randint(6, 12)
        bins = {m: [rng.randrange(rng.choice((2, 3, 4))) for _ in range(n)] for m in range(1, f + 1)}
        signal = rng.sample(sorted(bins), rng.randint(2, 6))
        labels = ["failed" if (sum(bins[m][i] for m in signal) + (rng.random() < 0.2)) % 2 else "success"
                  for i in range(n)]
        original = rng.choice(sorted(bins))
        bins[f + 1] = list(bins[original])
        if len(set(labels)) < 2:
            continue
        selected = cfs_select(Discretized("1", labels, bins)).selected
        assert f + 1 not in selected or original in selected, (seed, original, selected)


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
        data = discretize(make_dataset(columns, labels))
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
    data = discretize(make_dataset(columns, labels))
    assert cfs_merit(data, [1]) == pytest.approx(1.0)
    assert cfs_merit(data, [1, 2]) == pytest.approx(
        oracle_merit(columns, labels, (1, 2)), abs=1e-12
    )


def test_cfs_constant_label():
    with pytest.raises(DataError, match="dataset label is constant"):
        cfs_select(discretize(make_dataset({1: [0.0, 1.0]}, ["f", "f"])))


def _random_table(rng, n_features, n_rows, classes):
    """A Discretized table of uncut columns (every row in bin 0) and cut ones
    (up to four bins, some copying the label), at least one of each."""
    names = ["f", "s", "w"][:classes]
    labels = [rng.choice(names) for _ in range(n_rows)]
    labels[:classes] = names
    bins = {}
    for k, mid in enumerate(sorted(rng.sample(range(1, 43), n_features))):
        mode = k if k < 2 else rng.randrange(3)
        if mode == 0:
            column = [0] * n_rows
        elif mode == 1:
            column = [names.index(lab) if rng.random() < 0.8 else rng.randrange(classes) for lab in labels]
        else:
            column = [rng.randrange(4) for _ in labels]
        if mode and not any(column):
            column[0] = 1
        bins[mid] = column
    return featsel.Discretized("1", labels, bins)


def _eager_su_tables(table):
    """Every feature's SU with the label and every pair's, computed up front."""
    bins = table.bins
    su_label = {mid: symmetric_uncertainty(b, table.labels) for mid, b in bins.items()}
    su_pair = {(a, b): symmetric_uncertainty(bins[a], bins[b]) for a, b in combinations(bins, 2)}
    return su_label, su_pair


@pytest.mark.parametrize("classes", [2, 3])
def test_cfs_tables_are_exact_and_search_as_the_eager_tables(monkeypatch, classes):
    rng = random.Random(classes)
    su_tables = featsel._su_tables
    for trial in range(30):
        table = _random_table(rng, rng.randrange(2, 16), rng.randrange(6, 60), classes)
        tables = []
        monkeypatch.setattr(featsel, "_su_tables", lambda t: tables.append(su_tables(t)) or tables[-1])
        run = cfs_select(table)
        su_label, su_pair = tables[0]
        eager_label, eager_pair = _eager_su_tables(table)
        assert su_label == eager_label, trial
        assert su_pair and all(su == eager_pair[pair] for pair, su in su_pair.items()), trial
        monkeypatch.setattr(featsel, "_su_tables", _eager_su_tables)
        assert cfs_select(table) == run, trial


@pytest.mark.parametrize("classes, n_features", [(2, 8), (3, 8), (2, 42), (3, 42)])
def test_cfs_computes_su_only_for_cut_features(monkeypatch, classes, n_features):
    # Computing every SU would take F + F*(F-1)/2 calls: 36 or 903 here.
    calls = []
    su = featsel.symmetric_uncertainty
    monkeypatch.setattr(featsel, "symmetric_uncertainty", lambda x, y: calls.append((x, y)) or su(x, y))
    rng = random.Random(classes * 100 + n_features)
    for _ in range(5):
        table = _random_table(rng, n_features, 150, classes)
        cut = [b for b in table.bins.values() if any(b)]
        calls.clear()
        cfs_select(table)
        c = len(cut)
        assert len(calls) <= c + c * (c - 1) // 2
        assert all(any(x is b for b in cut) and (y is table.labels or any(y is b for b in cut))
                   for x, y in calls)


# -- frequency thresholds ------------------------------------------------------------


def test_frequency_threshold_one_single_run():
    run = SelectionRun("1", "infogain", [3, 14, 16])
    assert frequency_select([run], 1) == {3, 14, 16}


def test_frequency_tally_counts_runs_not_ranks():
    runs = [
        SelectionRun("1", "infogain", [3, 3, 14]),  # duplicate IDs count once
        SelectionRun("1", "cfs", [14]),
    ]
    assert frequency_csv(runs) == "metric_id,count\n3,1\n14,2\n"
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
    assert frequency_select([], 1) == set()
    with pytest.raises(DataError):
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
