"""C4.5-style decision tree: induction, pessimistic pruning, prediction,
and stratified k-fold cross-validation with confusion accounting.

All features are numeric; every split is binary on a midpoint threshold
(left branch takes values <= threshold). Each column is sorted once at the
root; the winning cut hands each child its sorted rows and class counts, as
MDL's frames get theirs, and places its threshold once (as in SLIQ).
Pruning is one bottom-up pass of subtree replacement using the binomial
upper confidence bound on the leaf error rate; summing its CDF from the
largest term down keeps it finite at any node size. The settings are C4.5's
defaults: at least 2 instances per leaf and a confidence factor of 0.25.
Trees are grown and walked with explicit stacks, so any depth works. With a
second CPU, a forked child runs folds 0, 2, 4, ... and returns only their
outcomes; the final tree and folds 1, 3, 5, ... run here (parallel.split_map).
All randomness flows through the caller-supplied seed.
"""

import functools
import json
import math
import random
from collections import Counter
from typing import NamedTuple

from .dataset import Dataset
from .errors import DataError
from .featsel import _GAIN_EPS, _entropy, best_cut, cut_point
from .metrics import METRIC_NAMES, format_value
from .parallel import split_map

_MIN_LEAF = 2  # C4.5's default minimum of instances per leaf
_CONFIDENCE = 0.25  # C4.5's default pruning confidence factor


class TreeNode:
    """Leaf: label set, children None. Internal: metric_id/threshold set."""
    __slots__ = ("label", "metric_id", "threshold", "left", "right", "training_counts")

    def __init__(self, label: str | None = None, metric_id: int | None = None, threshold: float | None = None,
                 left: "TreeNode | None" = None, right: "TreeNode | None" = None,
                 training_counts: Counter | None = None):
        self.label, self.metric_id, self.threshold, self.left, self.right = label, metric_id, threshold, left, right
        self.training_counts = Counter() if training_counts is None else training_counts

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def node_count(self) -> int:
        return sum(1 for _ in _preorder(self))


def _preorder(tree: TreeNode):
    """(node, depth, parent, op) for every node, each before its subtrees and
    left subtrees before right ones; op is '<=' for a left child, '>' for a
    right one. A loop, not recursion, so any depth is walked."""
    stack = [(tree, 0, None, "")]
    while stack:
        item = stack.pop()
        yield item
        node, depth = item[:2]
        if not node.is_leaf:
            stack.append((node.right, depth + 1, node, ">"))
            stack.append((node.left, depth + 1, node, "<="))


class EvaluationReport(NamedTuple):
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
    to 'failed', then to the alphabetically first label."""
    return min(counts, key=lambda label: (
        -counts[label], -global_counts.get(label, 0), label != "failed", label))


def train(dataset: Dataset) -> TreeNode:
    """Grow an unpruned tree by gain ratio over binary numeric splits.

    At each node the best split per feature is found by information gain;
    among features whose gain reaches the mean positive gain, the one with
    the highest gain ratio wins (ties: ascending metric ID). Nodes are grown
    from a stack, not by recursion, so any depth is reached.
    """
    labels = dataset.labels()
    if not labels:
        raise DataError("cannot train on an empty dataset")
    global_counts = Counter(labels)
    classes = list(global_counts)
    ys = [classes.index(label) for label in labels]
    columns = [dataset.column(mid) for mid in dataset.feature_ids]
    goes_left = [False] * len(labels)
    root = TreeNode()
    # A frame holds a node, its class counts by class index and its rows
    # sorted by each feature (each column is sorted once, here). The winning
    # cut hands each child its rows and counts, as in discretize_mdl; a split
    # drops its node's lists, so the lists alive at once hold disjoint rows.
    stack = [(root, list(global_counts.values()),
              [sorted(range(len(labels)), key=column.__getitem__) for column in columns])]
    while stack:
        node, counts, lists = stack.pop()
        node.training_counts = Counter({classes[k]: c for k, c in enumerate(counts) if c})
        n = sum(counts)
        candidates = []  # (feature index, best_cut result, gain ratio)
        if len(node.training_counts) > 1 and n >= 2 * _MIN_LEAF:
            for k, (order, column) in enumerate(zip(lists, columns)):
                best = best_cut(order, column, ys, counts, min_size=_MIN_LEAF)
                if best is not None:
                    candidates.append((k, best, best[0] / _entropy((best[1], n - best[1]), n)))
        if not candidates:
            node.label = _majority(node.training_counts, global_counts)
            continue
        mean_gain = sum(best[0] for _, best, _ in candidates) / len(candidates)
        eligible = [c for c in candidates if c[1][0] >= mean_gain - _GAIN_EPS]
        k, (_, pos, _, _, left, right), _ = min(eligible, key=lambda c: (-c[2], dataset.feature_ids[c[0]]))
        order, column = lists[k], columns[k]
        node.metric_id = dataset.feature_ids[k]
        node.threshold = cut_point(column[order[pos - 1]], column[order[pos]])
        # The sweep cuts only between distinct values: order[:pos] holds
        # exactly the rows with value <= threshold.
        for j, i in enumerate(order):
            goes_left[i] = j < pos
        node.left, node.right = TreeNode(), TreeNode()
        # Both halves are taken before either child reuses goes_left.
        stack.append((node.right, right, [[i for i in lst if not goes_left[i]] for lst in lists]))
        stack.append((node.left, left, [[i for i in lst if goes_left[i]] for lst in lists]))
    return root


@functools.cache
def _binomial_upper_bound(errors: int, n: int, cf: float) -> float:
    """Upper confidence limit on the error rate: the p with
    P(Binomial(n, p) <= errors) = cf, found by bisection. Each step sums the
    CDF down from its largest term, scaled to 1, so the bound stays finite at
    any n, and a key costs one lgamma triple. The bound depends on its arguments
    alone, so one memo per process serves every prune call there: the folds it
    runs and the final tree. Its keys are bounded by the training set sizes seen.
    """
    if errors >= n:  # also the empty node, n == 0
        return 1.0
    log_coeff = math.lgamma(n + 1) - math.lgamma(errors + 1) - math.lgamma(n - errors + 1)
    log_cf = math.log(cf)
    lo, hi = errors / n, 1.0
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats, which halving always reaches: no later step moves the result.
            return mid
        # mid > errors/n puts the mode at or above errors, so the ratio r = i(1-p)/((n-i+1)p) of
        # term(i-1) to term(i) is below 1 and falls with i: the unsummed tail is under term * r / (1-r).
        odds = (1.0 - mid) / mid
        term = total = 1.0
        for i in range(errors, 0, -1):
            term *= i * odds / (n - i + 1)
            total += term
            if term < 1e-17 * total:
                break
        log_cdf = log_coeff + errors * math.log(mid) + (n - errors) * math.log(1.0 - mid) + math.log(total)
        lo, hi = (mid, hi) if log_cdf > log_cf else (lo, mid)


def prune(tree: TreeNode) -> TreeNode:
    """Bottom-up subtree replacement by a majority leaf whenever the leaf's
    pessimistic error estimate does not exceed the subtree's.

    One pass in reversed pre-order, children before parents: each subtree pushes
    its (replacement, estimate), and a parent pops its left child's, then its right's.
    """
    done: list[tuple[TreeNode, float]] = []
    for node, *_ in reversed(list(_preorder(tree))):
        counts = node.training_counts
        n = sum(counts.values())
        estimate = n * _binomial_upper_bound(n - max(counts.values(), default=0), n, _CONFIDENCE)
        replacement = node
        if not node.is_leaf:
            (node.left, left_estimate), (node.right, right_estimate) = done.pop(), done.pop()
            if estimate <= left_estimate + right_estimate:
                replacement = TreeNode(label=_majority(counts, counts), training_counts=Counter(counts))
            else:
                estimate = left_estimate + right_estimate
        done.append((replacement, estimate))
    return done.pop()[0]


def predict(tree: TreeNode, features: dict[int, float]) -> str:
    """Descend the tree (left on value <= threshold) to a leaf label."""
    node = tree
    while not node.is_leaf:
        if node.metric_id not in features:
            raise DataError(f"instance is missing metric {node.metric_id}")
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


def _fold(dataset: Dataset, assignment: list[int], fold: int) -> list[tuple[str, str, bool]]:
    """(build_id, label, hit) per test row of a fold, by a tree pruned on the rest."""
    model = prune(train(dataset._replace(rows=[
        row for i, row in enumerate(dataset.rows) if assignment[i] != fold])))
    return [(bid, label, predict(model, dict(zip(dataset.feature_ids, values))) == label)
            for i, (bid, label, values) in enumerate(dataset.rows) if assignment[i] == fold]


def cross_validate(dataset: Dataset, k: int = 10, seed: int = 0) -> EvaluationReport:
    """Stratified k-fold cross-validation with summed confusion counts.

    If the minority class has fewer than k instances, k is reduced to that
    count (recorded via requested_k on the report).
    """
    labels = dataset.labels()
    class_counts = Counter(labels)
    if len(class_counts) < 2:
        raise DataError("cross-validation needs at least two classes")
    requested_k = k
    k = min(k, min(class_counts.values()))
    if k < 2:
        raise DataError("minority class too small for cross-validation")
    assignment = stratified_folds(labels, k, seed)

    # Job None is the final tree. split_map runs index 0 here, so the tree
    # never crosses a pipe; a forked child, if any, runs folds 0, 2, 4, ...
    def work(fold):
        return prune(train(dataset)) if fold is None else _fold(dataset, assignment, fold)

    full_tree, *results = split_map(work, [None, *range(k)])
    rows = [row for outcomes in results for row in outcomes]
    correct = Counter(label for _, label, hit in rows if hit)
    incorrect = Counter(label for _, label, hit in rows if not hit)
    folds = [[bid for bid, _, _ in outcomes] for outcomes in results]
    acc = accuracy_percent(sum(correct.values()), len(dataset.rows))
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
        seed=seed,
        tree=full_tree,
    )


def render_tree(tree: TreeNode) -> str:
    """Indented text rendering; branch lines carry the metric's name."""
    lines: list[str] = []
    for node, depth, parent, op in _preorder(tree):
        if parent is not None:
            name = METRIC_NAMES.get(parent.metric_id, "")
            thr = format_value(parent.threshold)
            lines.append("    " * (depth - 1) + f"m{parent.metric_id} {op} {thr} ({name})")
        if node.is_leaf:
            right = node.training_counts.get(node.label, 0)
            total = sum(node.training_counts.values())
            lines.append("    " * depth + f"{node.label} ({right}/{total - right})")
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
