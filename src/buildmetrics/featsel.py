"""Feature selection: information gain ranking, CFS subset search, and
selection-frequency thresholds.

Numeric features are discretized per selection run with Fayyad-Irani MDL
partitioning before any entropy-based scoring. MDL and tree induction share
one cut search, `best_cut`: a single sweep over rows in value order with
running class counts. MDL sorts each feature once and recurses on index
ranges, handing each side's class counts down. The CFS search is best-first
forward search with a patience of 5 non-improving expansions; merit ties
break toward the smaller, lexicographically earlier subset so results are
deterministic.
"""

import heapq
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

from .dataset import Dataset
from .errors import SelectionError

_GAIN_EPS = 1e-12
_MERIT_EPS = 1e-12
_PATIENCE = 5


@dataclass
class SelectionRun:
    dataset_id: str
    algorithm: str  # infogain | cfs
    selected: list[int]
    scores: dict[int, float] = field(default_factory=dict)


@dataclass
class FrequencyTally:
    counts: Counter = field(default_factory=Counter)

    @classmethod
    def from_runs(cls, runs: list["SelectionRun"]) -> "FrequencyTally":
        tally = cls()
        for run in runs:
            tally.counts.update(set(run.selected))
        return tally


def _entropy(counts, n: int) -> float:
    """Shannon entropy in bits of class counts summing to n."""
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def entropy(labels) -> float:
    """Shannon entropy in bits."""
    labels = list(labels)
    if not labels:
        raise SelectionError("entropy of an empty label list")
    return _entropy(Counter(labels).values(), len(labels))


def best_cut(order, values, ys, counts, min_size=1, eps=_GAIN_EPS):
    """Best binary cut of the rows in `order` by information gain, or None.

    order lists rows sorted by value, ys holds each row's class index and
    counts the class counts over order. One sweep keeps running left/right
    counts; cuts fall only between distinct values, leave at least min_size
    rows per side and gain more than _GAIN_EPS. A later cut wins only by more
    than eps. Returns (gain, pos, h_left, h_right, left_counts): rows
    order[:pos] go left.
    """
    n = len(order)
    h_total = _entropy(counts, n)
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
        h_left = _entropy(left, pos)
        h_right = _entropy(right, n - pos)
        gain = h_total - (pos / n) * h_left - ((n - pos) / n) * h_right
        if gain > _GAIN_EPS and (best is None or gain > best[0] + eps):
            best = (gain, pos, h_left, h_right, list(left))
    return best


def discretize_mdl(values: list[float], labels: list) -> list[float]:
    """Fayyad-Irani recursive binary partitioning.

    Cut points are midpoints between consecutive distinct values; a cut is
    accepted only when its information gain beats the MDL criterion. Returns
    a (possibly empty) ascending cut list.
    """
    if len(values) != len(labels):
        raise SelectionError("values and labels differ in length")
    order = sorted(range(len(values)), key=values.__getitem__)
    class_index: dict = {}
    ys = [class_index.setdefault(labels[i], len(class_index)) for i in order]
    counts = [ys.count(y) for y in range(len(class_index))]
    cuts: list[float] = []
    _mdl_split([values[i] for i in order], ys, 0, len(ys), counts, cuts)
    return sorted(cuts)


def _mdl_split(values: list[float], ys: list[int], lo: int, hi: int, counts: list[int], cuts: list[float]):
    # values[lo:hi] is sorted and counts holds the class counts of ys[lo:hi].
    k = sum(1 for c in counts if c)
    if k < 2:
        return
    best = best_cut(range(lo, hi), values, ys, counts, eps=1e-15)
    if best is None:
        return
    gain, pos, h_left, h_right, left = best
    right = [c - c_left for c, c_left in zip(counts, left)]
    k1 = sum(1 for c in left if c)
    k2 = sum(1 for c in right if c)
    n = hi - lo
    delta = math.log2(3**k - 2) - (k * _entropy(counts, n) - k1 * h_left - k2 * h_right)
    threshold = (math.log2(n - 1) + delta) / n
    if gain <= threshold:
        return
    mid = lo + pos
    cuts.append((values[mid - 1] + values[mid]) / 2.0)
    _mdl_split(values, ys, lo, mid, left, cuts)
    _mdl_split(values, ys, mid, hi, right, cuts)


def _binned(values: list[float], cuts: list[float]) -> list[int]:
    """Bin index per value given ascending cut points."""
    return [bisect_left(cuts, v) for v in values]


def _conditional_entropy(bins: list[int], labels: list) -> float:
    n = len(labels)
    groups: dict[int, list] = {}
    for b, lab in zip(bins, labels):
        groups.setdefault(b, []).append(lab)
    return sum((len(g) / n) * entropy(g) for g in groups.values())


def info_gain(values: list[float], labels: list) -> float:
    """H(label) - H(label | MDL-discretized feature)."""
    cuts = discretize_mdl(values, labels)
    if not cuts:
        return 0.0
    return entropy(labels) - _conditional_entropy(_binned(values, cuts), labels)


def _check_trainable(dataset: Dataset):
    labels = dataset.labels()
    if len(set(labels)) < 2:
        raise SelectionError("dataset label is constant")
    if len(labels) < 2:
        raise SelectionError("dataset has fewer than 2 rows")


def info_gain_rank(dataset: Dataset) -> SelectionRun:
    """Rank features by information gain; keeps strictly positive gains,
    descending, ties broken by ascending metric ID."""
    _check_trainable(dataset)
    labels = dataset.labels()
    scores = {
        mid: info_gain(dataset.column(mid), labels) for mid in dataset.feature_ids
    }
    selected = sorted(
        (mid for mid, s in scores.items() if s > 0), key=lambda m: (-scores[m], m)
    )
    return SelectionRun(dataset.dataset_id, "infogain", selected, scores)


def symmetric_uncertainty(x: list, y: list) -> float:
    """SU = 2*(H(x)+H(y)-H(x,y))/(H(x)+H(y)); 0 when both entropies vanish."""
    if len(x) != len(y):
        raise SelectionError("sequences differ in length")
    hx = entropy(x)
    hy = entropy(y)
    if hx + hy == 0:
        return 0.0
    hxy = entropy(list(zip(x, y)))
    return 2.0 * (hx + hy - hxy) / (hx + hy)


def _merit(su_label: dict[int, float], su_pair: dict[tuple[int, int], float], subset: tuple[int, ...]) -> float:
    k = len(subset)
    if k == 0:
        return 0.0
    rcf = sum(su_label[f] for f in subset) / k
    if k == 1:
        return rcf
    rff = sum(su_pair[pair] for pair in combinations(subset, 2)) / (k * (k - 1) / 2)
    return k * rcf / math.sqrt(k + k * (k - 1) * rff)


def _better(merit_a: float, subset_a, merit_b: float, subset_b) -> bool:
    """True when (merit_a, subset_a) wins the deterministic tie-break."""
    if merit_a > merit_b + _MERIT_EPS:
        return True
    if merit_b > merit_a + _MERIT_EPS:
        return False
    if len(subset_a) != len(subset_b):
        return len(subset_a) < len(subset_b)
    return subset_a < subset_b


def _su_tables(dataset: Dataset):
    """SU of each MDL-binned feature with the label, and of each feature pair."""
    labels = dataset.labels()
    features = sorted(dataset.feature_ids)
    bins = {
        mid: _binned(dataset.column(mid), discretize_mdl(dataset.column(mid), labels))
        for mid in features
    }
    su_label = {mid: symmetric_uncertainty(bins[mid], labels) for mid in features}
    su_pair = {
        (a, b): symmetric_uncertainty(bins[a], bins[b])
        for a, b in combinations(features, 2)
    }
    return su_label, su_pair


def cfs_merit(dataset: Dataset, subset) -> float:
    """Merit of a feature subset; exposed for exhaustive oracle checks."""
    su_label, su_pair = _su_tables(dataset)
    return _merit(su_label, su_pair, tuple(sorted(subset)))


def cfs_select(dataset: Dataset) -> SelectionRun:
    """Correlation-based subset selection via best-first forward search."""
    _check_trainable(dataset)
    features = sorted(dataset.feature_ids)
    su_label, su_pair = _su_tables(dataset)

    start: tuple[int, ...] = ()
    best_subset = start
    best_merit = 0.0
    # heap entries: (-merit, subset) so higher merit pops first, ties by
    # lexicographically smaller subset.
    open_heap: list[tuple[float, tuple[int, ...]]] = [(0.0, start)]
    visited = {start}
    stale = 0
    while open_heap and stale < _PATIENCE:
        neg_merit, subset = heapq.heappop(open_heap)
        improved = False
        for f in features:
            if f in subset:
                continue
            child = tuple(sorted(subset + (f,)))
            if child in visited:
                continue
            visited.add(child)
            merit = _merit(su_label, su_pair, child)
            heapq.heappush(open_heap, (-merit, child))
            if _better(merit, child, best_merit, best_subset):
                best_merit = merit
                best_subset = child
                improved = True
        stale = 0 if improved else stale + 1
    return SelectionRun(dataset.dataset_id, "cfs", sorted(best_subset))


def frequency_select(runs: list[SelectionRun], threshold: int) -> set[int]:
    """Metric IDs selected by at least `threshold` of the given runs."""
    if not runs:
        raise SelectionError("no selection runs supplied")
    if threshold < 1:
        raise SelectionError("threshold must be at least 1")
    tally = FrequencyTally.from_runs(runs)
    return {mid for mid, count in tally.counts.items() if count >= threshold}


def selection_report_csv(runs: list[SelectionRun]) -> str:
    """dataset_id,algorithm,metric_id,rank_or_member,score rows."""
    lines = ["dataset_id,algorithm,metric_id,rank_or_member,score"]
    for run in runs:
        for rank, mid in enumerate(run.selected, start=1):
            score = run.scores.get(mid, "")
            score_cell = f"{score:.6f}" if score != "" else ""
            lines.append(f"{run.dataset_id},{run.algorithm},{mid},{rank},{score_cell}")
    return "\n".join(lines) + "\n"


def frequency_csv(runs: list[SelectionRun]) -> str:
    """metric_id,count tally across runs (histogram analogue)."""
    tally = FrequencyTally.from_runs(runs)
    lines = ["metric_id,count"]
    for mid in sorted(tally.counts):
        lines.append(f"{mid},{tally.counts[mid]}")
    return "\n".join(lines) + "\n"
