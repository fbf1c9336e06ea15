"""C4.5-style decision tree: induction, pessimistic pruning, prediction,
and stratified k-fold cross-validation with confusion accounting.

All features are numeric; every split is binary on a midpoint threshold
(left branch takes values <= threshold). Each feature column is sorted once
at the root and split into ordered halves at every node (as in SLIQ).
Pruning is one bottom-up pass of subtree replacement using the binomial
upper confidence bound on the leaf error rate; the bound is computed in log
space, so it stays finite at any node size. All randomness flows through
the caller-supplied seed.
"""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace

from .dataset import Dataset
from .errors import EvaluationError
from .featsel import best_cut
from .metrics import METRIC_NAMES, format_value

_GAIN_EPS = 1e-12


@dataclass
class TreeNode:
    # Leaf: label set, children None. Internal: metric_id/threshold set.
    label: str | None = None
    metric_id: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    training_counts: Counter = field(default_factory=Counter)

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()


@dataclass
class TrainParams:
    min_leaf_instances: int = 2
    confidence_factor: float = 0.25
    seed: int = 0


@dataclass
class EvaluationReport:
    dataset_id: str
    accuracy: float  # percentage
    per_class: dict[str, tuple[int, int]]  # label -> (correct, incorrect)
    folds: list[list[str]]  # build_ids per test fold
    k: int
    requested_k: int
    seed: int
    tree: TreeNode | None = None

    @property
    def accuracy_text(self) -> str:
        return f"{self.accuracy:.4f}%"


def accuracy_percent(correct: int, total: int) -> float:
    return 100.0 * correct / total


def _majority(counts: Counter, global_counts: Counter) -> str:
    """Majority label; ties go to the globally more frequent class, then
    to 'failed'."""
    best = max(counts.values())
    tied = [label for label, c in counts.items() if c == best]
    if len(tied) == 1:
        return tied[0]
    gbest = max(global_counts.get(label, 0) for label in tied)
    gtied = [label for label in tied if global_counts.get(label, 0) == gbest]
    if len(gtied) == 1:
        return gtied[0]
    return "failed" if "failed" in gtied else sorted(gtied)[0]


def _leaf(counts: Counter, global_counts: Counter) -> TreeNode:
    return TreeNode(label=_majority(counts, global_counts), training_counts=Counter(counts))


def _best_split_for_feature(order, values, ys, counts, min_leaf):
    """Best (gain, threshold, split_info) for one feature, or None.

    order lists the node's rows sorted by this feature's values; ys holds
    each row's class index and counts the node's class counts.
    """
    best = best_cut(order, values, ys, counts, min_size=min_leaf, eps=_GAIN_EPS)
    if best is None:
        return None
    gain, pos = best[:2]
    n = len(order)
    split_info = -(pos / n) * math.log2(pos / n) - ((n - pos) / n) * math.log2((n - pos) / n)
    return gain, (values[order[pos - 1]] + values[order[pos]]) / 2.0, split_info


def train(dataset: Dataset, params: TrainParams | None = None) -> TreeNode:
    """Grow an unpruned tree by gain ratio over binary numeric splits.

    At each node the best split per feature is found by information gain;
    among features whose gain reaches the mean positive gain, the one with
    the highest gain ratio wins (ties: ascending metric ID).
    """
    params = params or TrainParams()
    min_leaf = params.min_leaf_instances
    labels = dataset.labels()
    if not labels:
        raise EvaluationError("cannot train on an empty dataset")
    global_counts = Counter(labels)
    classes = list(global_counts)
    class_index = {label: k for k, label in enumerate(classes)}
    ys = [class_index[label] for label in labels]
    columns = {mid: dataset.column(mid) for mid in dataset.feature_ids}
    goes_left = [False] * len(labels)

    def grow(lists: list[list[int]]) -> TreeNode:
        # lists[0] holds the node's rows in index order and lists[1 + k] the
        # same rows sorted by feature k. A split node empties lists, so the
        # lists still alive along a path hold disjoint rows.
        counts = Counter(labels[i] for i in lists[0])
        if len(counts) == 1 or len(lists[0]) < 2 * min_leaf:
            return _leaf(counts, global_counts)
        class_counts = [counts[label] for label in classes]
        candidates = []
        for k, mid in enumerate(dataset.feature_ids):
            best = _best_split_for_feature(
                lists[1 + k], columns[mid], ys, class_counts, min_leaf
            )
            if best is not None:
                candidates.append((mid,) + best)
        if not candidates:
            return _leaf(counts, global_counts)
        mean_gain = sum(c[1] for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c[1] >= mean_gain - _GAIN_EPS]
        eligible.sort(key=lambda c: (-(c[1] / c[3]), c[0]))
        mid, gain, threshold, _ = eligible[0]
        column = columns[mid]
        for i in lists[0]:
            goes_left[i] = column[i] <= threshold
        # Both halves are taken before either child reuses goes_left.
        left = [[i for i in lst if goes_left[i]] for lst in lists]
        right = [[i for i in lst if not goes_left[i]] for lst in lists]
        lists.clear()
        return TreeNode(
            metric_id=mid,
            threshold=threshold,
            left=grow(left),
            right=grow(right),
            training_counts=Counter(counts),
        )

    rows = range(len(labels))
    # Each column is sorted once, here; splits keep every list in order.
    return grow(
        [list(rows)] + [sorted(rows, key=columns[mid].__getitem__) for mid in dataset.feature_ids]
    )


def _binomial_upper_bound(errors: int, n: int, cf: float) -> float:
    """Upper confidence limit on the error rate: the p with
    P(Binomial(n, p) <= errors) = cf, found by bisection.

    The CDF is summed in log space, each term scaled by the largest, so the
    bound stays finite at any n.
    """
    if n == 0:
        return 1.0
    if errors >= n:
        return 1.0
    log_n_fact = math.lgamma(n + 1)
    log_coeffs = [
        log_n_fact - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(errors + 1)
    ]
    log_cf = math.log(cf)

    def log_cdf(p: float) -> float:
        log_p, log_q = math.log(p), math.log(1.0 - p)
        terms = [c + i * log_p + (n - i) * log_q for i, c in enumerate(log_coeffs)]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    lo, hi = errors / n, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats: no later step moves the result.
            return mid
        if log_cdf(mid) > log_cf:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def prune(tree: TreeNode, confidence_factor: float = 0.25) -> TreeNode:
    """Bottom-up subtree replacement by a majority leaf whenever the leaf's
    pessimistic error estimate does not exceed the subtree's.

    One pass: each call returns its subtree's estimate to the parent, and
    the bound is computed once per (errors, n) within this call.
    """
    bounds: dict[tuple[int, int], float] = {}

    def leaf_estimate(counts: Counter) -> float:
        n = sum(counts.values())
        key = (n - max(counts.values()) if counts else 0, n)
        if key not in bounds:
            bounds[key] = _binomial_upper_bound(*key, confidence_factor)
        return n * bounds[key]

    def walk(node: TreeNode) -> tuple[TreeNode, float]:
        if node.is_leaf:
            return node, leaf_estimate(node.training_counts)
        node.left, left_estimate = walk(node.left)
        node.right, right_estimate = walk(node.right)
        subtree_estimate = left_estimate + right_estimate
        estimate = leaf_estimate(node.training_counts)
        if estimate <= subtree_estimate:
            counts = node.training_counts
            leaf = TreeNode(label=_majority(counts, counts), training_counts=Counter(counts))
            return leaf, estimate
        return node, subtree_estimate

    return walk(tree)[0]


def predict(tree: TreeNode, features: dict[int, float]) -> str:
    """Descend the tree (left on value <= threshold) to a leaf label."""
    node = tree
    while not node.is_leaf:
        if node.metric_id not in features:
            raise EvaluationError(f"instance is missing metric {node.metric_id}")
        node = node.left if features[node.metric_id] <= node.threshold else node.right
    return node.label


def stratified_folds(labels: list[str], k: int, seed: int) -> list[int]:
    """Fold assignment per row: seeded shuffle within each class, dealt
    round-robin with a rolling offset so fold sizes stay within one."""
    rng = random.Random(seed)
    assignment = [0] * len(labels)
    offset = 0
    for label in sorted(set(labels)):
        idx = [i for i, lab in enumerate(labels) if lab == label]
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            assignment[i] = (j + offset) % k
        offset = (offset + len(idx)) % k
    return assignment


def cross_validate(dataset: Dataset, k: int = 10, params: TrainParams | None = None) -> EvaluationReport:
    """Stratified k-fold cross-validation with summed confusion counts.

    If the minority class has fewer than k instances, k is reduced to that
    count (recorded via requested_k on the report).
    """
    params = params or TrainParams()
    labels = dataset.labels()
    class_counts = Counter(labels)
    if len(class_counts) < 2:
        raise EvaluationError("cross-validation needs at least two classes")
    requested_k = k
    k = min(k, min(class_counts.values()))
    if k < 2:
        raise EvaluationError("minority class too small for cross-validation")
    assignment = stratified_folds(labels, k, params.seed)

    correct: Counter = Counter()
    incorrect: Counter = Counter()
    folds: list[list[str]] = [[] for _ in range(k)]
    for fold in range(k):
        train_rows = [row for i, row in enumerate(dataset.rows) if assignment[i] != fold]
        test_rows = [row for i, row in enumerate(dataset.rows) if assignment[i] == fold]
        model = prune(train(replace(dataset, rows=train_rows), params), params.confidence_factor)
        for bid, label, values in test_rows:
            folds[fold].append(bid)
            features = dict(zip(dataset.feature_ids, values))
            if predict(model, features) == label:
                correct[label] += 1
            else:
                incorrect[label] += 1

    total = sum(correct.values()) + sum(incorrect.values())
    acc = accuracy_percent(sum(correct.values()), total)
    full_tree = prune(train(dataset, params), params.confidence_factor)
    per_class = {
        label: (correct.get(label, 0), incorrect.get(label, 0))
        for label in sorted(class_counts)
    }
    return EvaluationReport(
        dataset_id=dataset.dataset_id,
        accuracy=acc,
        per_class=per_class,
        folds=folds,
        k=k,
        requested_k=requested_k,
        seed=params.seed,
        tree=full_tree,
    )


def render_tree(tree: TreeNode) -> str:
    """Indented text rendering; branch lines carry the metric's name."""
    lines: list[str] = []

    def leaf_line(node: TreeNode) -> str:
        total = sum(node.training_counts.values())
        right = node.training_counts.get(node.label, 0)
        return f"{node.label} ({right}/{total - right})"

    def walk(node: TreeNode, indent: int):
        pad = "    " * indent
        if node.is_leaf:
            lines.append(pad + leaf_line(node))
            return
        name = METRIC_NAMES.get(node.metric_id, "")
        thr = format_value(node.threshold)
        lines.append(pad + f"m{node.metric_id} <= {thr} ({name})")
        walk(node.left, indent + 1)
        lines.append(pad + f"m{node.metric_id} > {thr} ({name})")
        walk(node.right, indent + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"


def report_table(report: EvaluationReport) -> str:
    """One-row text table mirroring the confusion summary layout."""
    header = (
        "ID, Accuracy, # Failed Builds Correct(Incorrect), "
        "# Successful Builds Correct(Incorrect)"
    )
    fc, fi = report.per_class.get("failed", (0, 0))
    sc, si = report.per_class.get("success", (0, 0))
    row = f"{report.dataset_id}, {report.accuracy_text}, {fc}({fi}), {sc}({si})"
    return header + "\n" + row + "\n"


def report_json(report: EvaluationReport) -> str:
    doc = {
        "dataset_id": report.dataset_id,
        "accuracy": report.accuracy_text,
        "per_class": {
            label: {"correct": c, "incorrect": i}
            for label, (c, i) in sorted(report.per_class.items())
        },
        "folds": report.folds,
        "k": report.k,
        "requested_k": report.requested_k,
        "seed": report.seed,
        "tree": render_tree(report.tree).splitlines() if report.tree else [],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
