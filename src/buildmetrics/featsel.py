"""Feature selection: information gain ranking, CFS subset search, and
selection-frequency thresholds.

Numeric features are discretized once per dataset with Fayyad-Irani MDL
partitioning (`discretize`); IG ranking and CFS both score that one table of
bins. MDL and tree induction share one cut search, `best_cut`: a single sweep
over rows in value order with running class counts that screens each cut in
O(1). MDL sorts each feature once and splits index ranges popped from a
stack, handing each side's class counts down.
The CFS search is best-first forward search with a patience of 5
non-improving expansions; merit ties break toward the smaller,
lexicographically earlier subset so results are deterministic. Symmetric
uncertainty is computed only for features MDL cut, and a pair's SU when the
search first reads it. A feature without a cut scores exactly 0.0 under IG
and CFS alike.
"""

import heapq
import math
from bisect import bisect_left
from collections import Counter
from itertools import combinations
from typing import NamedTuple

from .dataset import Dataset
from .errors import DataError
from .metrics import table_text

_GAIN_EPS = 1e-12
_MERIT_EPS = 1e-12
_PATIENCE = 5
REPORT_HEADER = ["dataset_id", "algorithm", "metric_id", "rank_or_member", "score"]


class SelectionRun(NamedTuple):
    dataset_id: str
    algorithm: str  # infogain | cfs
    selected: list[int]
    scores: dict[int, float] = {}  # shared, never mutated


def _entropy(counts, n: int) -> float:
    """Shannon entropy in bits of class counts summing to n."""
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def entropy(labels) -> float:
    """Shannon entropy in bits. The counts are summed in ascending order, so the
    result depends on their multiset alone, not on the order of the labels."""
    labels = list(labels)
    if not labels:
        raise DataError("entropy of an empty label list")
    return _entropy(sorted(Counter(labels).values()), len(labels))


_CLOG = [0.0]  # _CLOG[c] = c * log2(c), grown on demand
_DCLOG = []  # _DCLOG[c] = _CLOG[c + 1] - _CLOG[c]


def _cut(pos, left, n, counts, h_total):
    """best_cut's result for the cut that puts class counts `left` before pos."""
    right = [c - c_left for c, c_left in zip(counts, left)]
    h_left, h_right = _entropy(left, pos), _entropy(right, n - pos)
    return h_total - (pos / n) * h_left - ((n - pos) / n) * h_right, pos, h_left, h_right, list(left), right


def best_cut(order, values, ys, counts, min_size=1, eps=_GAIN_EPS):
    """Best binary cut of the rows in `order` by information gain, or None.

    order lists rows sorted by value, ys holds each row's class index and
    counts the class counts over order. One sweep keeps running left
    counts; cuts fall only between distinct values, leave at least min_size
    rows per side and gain more than _GAIN_EPS. A later cut wins only by more
    than eps. Returns (gain, pos, h_left, h_right, left_counts,
    right_counts): rows order[:pos] go left.

    Each cut is screened in O(1): with s the running sum of c*log2(c) over
    both sides' counts, s - pos*log2(pos) - (n-pos)*log2(n-pos) is
    n * (gain - H). Only cuts within rounding distance of the bar to beat,
    and the winner, get exact entropies, so the result is exact.
    """
    n = len(order)
    clog, dclog = _CLOG, _DCLOG
    for c in range(len(clog), n + 1):
        clog.append(c * math.log2(c))
        dclog.append(clog[c] - clog[c - 1])
    h_total = _entropy(counts, n)
    # Each row adds a few roundings of about eps_mach * clog[n] to s; the
    # band holds them and the exact gains' own, with a margin of two.
    band = 1e-14 * (n + len(counts)) * clog[n]
    lo = n * (_GAIN_EPS - h_total) - band  # the bar in units of s, less the band
    left = [0] * len(counts)
    s = sum([clog[c] for c in counts])
    best = None  # (pos, left counts)
    vs = [values[i] for i in order]
    for pos, y, v_prev, v_next in zip(range(1, n), [ys[i] for i in order], vs, vs[1:]):
        c_left = left[y]
        s += dclog[c_left] - dclog[counts[y] - c_left - 1]
        left[y] = c_left + 1
        if v_prev == v_next or pos < min_size or n - pos < min_size:
            continue
        score = s - clog[pos] - clog[n - pos]
        if score < lo:
            continue
        if score <= lo + 2 * band:  # a near-tie: the exact gains decide
            gain = _cut(pos, left, n, counts, h_total)[0]
            if not (gain > _GAIN_EPS and (best is None or gain > _cut(*best, n, counts, h_total)[0] + eps)):
                continue
        best = (pos, list(left))
        lo = score + n * eps - band
    return best and _cut(*best, n, counts, h_total)


def cut_point(a: float, b: float) -> float:
    """Threshold between sorted values a < b: values <= it go left. The
    midpoint, unless it rounds up to b or overflows; then a."""
    mid = (a + b) / 2.0
    return mid if a <= mid < b else a


def discretize_mdl(values: list[float], labels: list) -> list[float]:
    """Fayyad-Irani recursive binary partitioning.

    Cut points fall between consecutive distinct values (cut_point); a cut is
    accepted only when its information gain beats the MDL criterion. Returns
    a (possibly empty) ascending cut list.
    """
    if len(values) != len(labels):
        raise DataError("values and labels differ in length")
    order = sorted(range(len(values)), key=values.__getitem__)
    values = [values[i] for i in order]
    class_index: dict = {}
    ys = [class_index.setdefault(labels[i], len(class_index)) for i in order]
    cuts: list[float] = []
    # Frames (lo, hi, counts) wait on a stack, not in recursion: any depth.
    stack = [(0, len(ys), [ys.count(y) for y in range(len(class_index))])]
    while stack:
        lo, hi, counts = stack.pop()
        k = sum(1 for c in counts if c)
        if k < 2:
            continue
        best = best_cut(range(lo, hi), values, ys, counts, eps=1e-15)
        if best is None:
            continue
        gain, pos, h_left, h_right, left, right = best
        k1 = sum(1 for c in left if c)
        k2 = sum(1 for c in right if c)
        n = hi - lo
        delta = math.log2(3**k - 2) - (k * _entropy(counts, n) - k1 * h_left - k2 * h_right)
        threshold = (math.log2(n - 1) + delta) / n
        if gain <= threshold:
            continue
        mid = lo + pos
        cuts.append(cut_point(values[mid - 1], values[mid]))
        stack += [(lo, mid, left), (mid, hi, right)]
    return sorted(cuts)


def _mdl_bins(values: list[float], labels: list) -> list[int]:
    """Bin index per value, between the MDL cut points."""
    cuts = discretize_mdl(values, labels)
    return [bisect_left(cuts, v) for v in values]


class Discretized(NamedTuple):
    """A dataset's labels and each feature's MDL bin list, keyed by ascending
    metric ID: the one input of info_gain_rank and cfs_select."""
    dataset_id: str
    labels: list[str]
    bins: dict[int, list[int]]


def discretize(dataset: Dataset) -> Discretized:
    """MDL-discretize every feature of a dataset whose label takes two or more values."""
    labels = dataset.labels()
    if len(set(labels)) < 2:
        raise DataError("dataset label is constant")
    bins = {mid: _mdl_bins(dataset.column(mid), labels) for mid in sorted(dataset.feature_ids)}
    return Discretized(dataset.dataset_id, labels, bins)


def _gain(bins: list[int], labels: list) -> float:
    """H(label) - H(label | bins); exactly 0.0 when every row is in bin 0,
    that is, when MDL made no cut."""
    if not any(bins):
        return 0.0
    n = len(labels)
    groups: dict[int, list] = {}
    for b, lab in zip(bins, labels):
        groups.setdefault(b, []).append(lab)
    return entropy(labels) - math.fsum((len(g) / n) * entropy(g) for g in groups.values())


def info_gain_rank(table: Discretized) -> SelectionRun:
    """Rank features by information gain; keeps strictly positive gains,
    descending, ties broken by ascending metric ID."""
    scores = {mid: _gain(bins, table.labels) for mid, bins in table.bins.items()}
    selected = sorted(
        (mid for mid, s in scores.items() if s > 0), key=lambda m: (-scores[m], m)
    )
    return SelectionRun(table.dataset_id, "infogain", selected, scores)


def symmetric_uncertainty(x: list, y: list) -> float:
    """SU = 2*(H(x)+H(y)-H(x,y))/(H(x)+H(y)); 0 when both entropies vanish."""
    if len(x) != len(y):
        raise DataError("sequences differ in length")
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
    rcf = math.fsum(su_label[f] for f in subset) / k
    if k == 1:
        return rcf
    rff = math.fsum(su_pair[pair] for pair in combinations(subset, 2)) / (k * (k - 1) / 2)
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


class _PairSU(dict):
    """SU of feature pairs (a, b), a < b, computed on first read; 0.0 when
    either feature is not in `cut`, the bin lists of the features MDL cut."""

    def __init__(self, cut: dict[int, list[int]]):
        super().__init__()
        self.cut = cut

    def __missing__(self, pair):
        a, b = pair
        cut = self.cut
        su = self[pair] = symmetric_uncertainty(cut[a], cut[b]) if a in cut and b in cut else 0.0
        return su


def _su_tables(table: Discretized):
    """SU of each binned feature with the label, and of each feature pair,
    filled on first read. A feature MDL did not cut has one bin: its SU is
    exactly 0.0 (H(x) = 0, H(x, y) = H(y)) and takes no Counter pass."""
    cut = {mid: b for mid, b in table.bins.items() if any(b)}
    su_label = {mid: symmetric_uncertainty(cut[mid], table.labels) if mid in cut else 0.0 for mid in table.bins}
    return su_label, _PairSU(cut)


def cfs_select(table: Discretized) -> SelectionRun:
    """Correlation-based subset selection via best-first forward search."""
    features = list(table.bins)
    su_label, su_pair = _su_tables(table)

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
    return SelectionRun(table.dataset_id, "cfs", sorted(best_subset))


def _run_counts(runs: list[SelectionRun]) -> Counter:
    """Number of runs that selected each metric ID."""
    return Counter(mid for run in runs for mid in set(run.selected))


def frequency_select(runs: list[SelectionRun], threshold: int) -> set[int]:
    """Metric IDs selected by at least `threshold` of the given runs."""
    if threshold < 1:
        raise DataError("threshold must be at least 1")
    return {mid for mid, count in _run_counts(runs).items() if count >= threshold}


def selection_report_csv(runs: list[SelectionRun]) -> str:
    """dataset_id,algorithm,metric_id,rank_or_member,score rows."""
    rows = ([run.dataset_id, run.algorithm, str(mid), str(rank),
             f"{run.scores[mid]:.6f}" if mid in run.scores else ""]
            for run in runs for rank, mid in enumerate(run.selected, start=1))
    return table_text(REPORT_HEADER, rows)


def frequency_csv(runs: list[SelectionRun]) -> str:
    """metric_id,count tally across runs (histogram analogue)."""
    counts = _run_counts(runs)
    return table_text(["metric_id", "count"], ([str(mid), str(counts[mid])] for mid in sorted(counts)))
