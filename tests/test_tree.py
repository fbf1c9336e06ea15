import json
import math
import os
import pickle
import random
import signal
import sys
import threading
import time
from collections import Counter

import pytest

from buildmetrics.dataset import Dataset
from buildmetrics.errors import DataError
from buildmetrics import tree as tree_module
from buildmetrics.featsel import discretize, info_gain_rank
from buildmetrics.tree import (
    EvaluationReport,
    TreeNode,
    _binomial_upper_bound,
    _majority,
    accuracy_percent,
    cross_validate,
    predict,
    prune,
    render_tree,
    report_json,
    report_table,
    stratified_folds,
    train,
)

from conftest import assert_no_child_left


def make_dataset(columns, labels, did="1"):
    ids = sorted(columns)
    rows = [
        (f"b{i:03d}", labels[i], [columns[mid][i] for mid in ids])
        for i in range(len(labels))
    ]
    return Dataset(feature_ids=ids, rows=rows)


def shape(node):
    """Structure tuple for tree comparison."""
    if node.is_leaf:
        return ("leaf", node.label, tuple(sorted(node.training_counts.items())))
    return ("split", node.metric_id, node.threshold, shape(node.left), shape(node.right))


# -- independent induction oracle (same documented rules, recomputed naively) --


def oracle_entropy(labels):
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in Counter(labels).values())


def oracle_majority(counts, global_counts):
    best = max(counts.values())
    tied = sorted(lab for lab, c in counts.items() if c == best)
    if len(tied) == 1:
        return tied[0]
    gbest = max(global_counts[lab] for lab in tied)
    gtied = [lab for lab in tied if global_counts[lab] == gbest]
    if len(gtied) == 1:
        return gtied[0]
    return "failed" if "failed" in gtied else gtied[0]


def oracle_train(columns, labels, min_leaf=2):
    ids = sorted(columns)
    global_counts = Counter(labels)

    def best_split(vals, labs):
        n = len(labs)
        pairs = sorted(zip(vals, labs))
        h = oracle_entropy(labs)
        best = None
        for pos in range(1, n):
            if pairs[pos - 1][0] == pairs[pos][0]:
                continue
            if pos < min_leaf or n - pos < min_leaf:
                continue
            left = [lab for _, lab in pairs[:pos]]
            right = [lab for _, lab in pairs[pos:]]
            gain = (
                h
                - (pos / n) * oracle_entropy(left)
                - ((n - pos) / n) * oracle_entropy(right)
            )
            if gain <= 1e-12:
                continue
            split_info = -(pos / n) * math.log2(pos / n) - ((n - pos) / n) * math.log2(
                (n - pos) / n
            )
            thr = (pairs[pos - 1][0] + pairs[pos][0]) / 2
            if best is None or gain > best[0] + 1e-12:
                best = (gain, thr, split_info)
        return best

    def grow(indices):
        labs = [labels[i] for i in indices]
        counts = Counter(labs)
        if len(counts) == 1 or len(indices) < 2 * min_leaf:
            return ("leaf", oracle_majority(counts, global_counts), tuple(sorted(counts.items())))
        candidates = []
        for mid in ids:
            found = best_split([columns[mid][i] for i in indices], labs)
            if found:
                candidates.append((mid,) + found)
        if not candidates:
            return ("leaf", oracle_majority(counts, global_counts), tuple(sorted(counts.items())))
        mean_gain = sum(c[1] for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c[1] >= mean_gain - 1e-12]
        eligible.sort(key=lambda c: (-(c[1] / c[3]), c[0]))
        mid, _, thr, _ = eligible[0]
        left = [i for i in indices if columns[mid][i] <= thr]
        right = [i for i in indices if columns[mid][i] > thr]
        return ("split", mid, thr, grow(left), grow(right))

    return grow(list(range(len(labels))))


# -- the canonical 14-instance weather fixture ---------------------------------
# Features: 1 = outlook (sunny 0, overcast 1, rainy 2), 2 = temperature,
# 3 = humidity, 4 = windy (0/1); play=yes -> success, play=no -> failed.

WEATHER_ROWS = [
    (0, 85, 85, 0, "failed"),
    (0, 80, 90, 1, "failed"),
    (1, 83, 86, 0, "success"),
    (2, 70, 96, 0, "success"),
    (2, 68, 80, 0, "success"),
    (2, 65, 70, 1, "failed"),
    (1, 64, 65, 1, "success"),
    (0, 72, 95, 0, "failed"),
    (0, 69, 70, 0, "success"),
    (2, 75, 80, 0, "success"),
    (0, 75, 70, 1, "success"),
    (1, 72, 90, 1, "success"),
    (1, 81, 75, 0, "success"),
    (2, 71, 91, 1, "failed"),
]


def weather_dataset():
    columns = {mid: [float(r[mid - 1]) for r in WEATHER_ROWS] for mid in (1, 2, 3, 4)}
    labels = [r[4] for r in WEATHER_ROWS]
    return columns, labels


# Frozen structure of the unpruned gain-ratio tree on the weather fixture
# under binary numeric splits (root on humidity, then temperature/outlook).
WEATHER_EXPECTED = (
    "split", 3, 82.5,
    ("split", 2, 66.5,
        ("leaf", "success", (("failed", 1), ("success", 1))),
        ("leaf", "success", (("success", 5),))),
    ("split", 1, 0.5,
        ("leaf", "failed", (("failed", 3),)),
        ("split", 1, 1.5,
            ("leaf", "success", (("success", 2),)),
            ("leaf", "success", (("failed", 1), ("success", 1))))),
)


def test_weather_tree_matches_oracle_and_frozen_shape():
    columns, labels = weather_dataset()
    tree = train(make_dataset(columns, labels))
    assert shape(tree) == oracle_train(columns, labels)
    assert shape(tree) == WEATHER_EXPECTED
    assert tree.node_count() == 9


def test_weather_predict_exact_on_training_data():
    columns, labels = weather_dataset()
    tree = train(make_dataset(columns, labels))
    for r in WEATHER_ROWS:
        features = {mid: float(r[mid - 1]) for mid in (1, 2, 3, 4)}
        leaf = tree
        while not leaf.is_leaf:
            leaf = leaf.left if features[leaf.metric_id] <= leaf.threshold else leaf.right
        # Prediction agrees with the majority of the leaf's own training data.
        majority = max(leaf.training_counts.values())
        assert leaf.training_counts[predict(tree, features)] == majority


def test_random_trees_match_oracle():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randrange(6, 25)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0] = "failed"
            labels[1] = "success"
        columns = {
            mid: [float(rng.randrange(0, 6)) for _ in range(n)] for mid in (1, 2, 3)
        }
        tree = train(make_dataset(columns, labels))
        assert shape(tree) == oracle_train(columns, labels)


def test_presorted_columns_match_oracle_on_deep_trees():
    # Deep trees on noisy labels: rows are split through many levels, and
    # value ties (coarse grid) mix with distinct values (fine grid).
    rng = random.Random(23)
    for grid in (4, 40, None):
        n = rng.randrange(90, 150)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        columns = {
            mid: [
                float(rng.randrange(grid)) if grid else rng.uniform(0, 100)
                for _ in range(n)
            ]
            for mid in (2, 5, 7, 11)
        }
        tree = train(make_dataset(columns, labels))
        assert tree.node_count() > 15
        assert shape(tree) == oracle_train(columns, labels)


# -- train basics ----------------------------------------------------------------


def test_pure_dataset_single_leaf():
    tree = train(make_dataset({1: [1.0, 2.0, 3.0]}, ["failed"] * 3))
    assert tree.is_leaf and tree.label == "failed"


def test_perfect_gap_split():
    tree = train(
        make_dataset({1: [10.0, 10.0, 20.0, 20.0]}, ["failed", "failed", "success", "success"])
    )
    assert not tree.is_leaf
    assert tree.metric_id == 1 and tree.threshold == 15.0
    assert tree.left.is_leaf and tree.left.label == "failed"
    assert tree.right.is_leaf and tree.right.label == "success"


def test_planted_rule_threshold_in_gap():
    rng = random.Random(2)
    values, labels = [], []
    for _ in range(200):
        if rng.random() < 0.5:
            values.append(rng.uniform(20, 100))
            labels.append("success")
        else:
            values.append(rng.uniform(130, 220))
            labels.append("failed")
    tree = train(make_dataset({9: values}, labels))
    assert tree.metric_id == 9
    assert 100 < tree.threshold < 130


def test_constant_features_yield_majority_leaf():
    tree = train(make_dataset({1: [5.0] * 4}, ["failed", "failed", "failed", "success"]))
    assert tree.is_leaf and tree.label == "failed"


def test_majority_tie_breaks_to_failed():
    tree = train(make_dataset({1: [5.0, 5.0]}, ["failed", "success"]))
    assert tree.is_leaf and tree.label == "failed"


@pytest.mark.parametrize("counts, global_counts, expected", [
    pytest.param({"failed": 3, "success": 3}, {"failed": 4, "success": 9}, "success",
                 id="global-counts-break"),
    # 'failed' wins a full tie even over an alphabetically earlier label.
    pytest.param({"success": 3, "failed": 3, "aborted": 3}, {"success": 5, "failed": 5, "aborted": 5},
                 "failed", id="global-tie-to-failed"),
    pytest.param({"warning": 2, "success": 2}, {"warning": 7, "success": 7}, "success",
                 id="no-failed-to-first-label"),
    pytest.param({"failed": 1, "success": 4}, {"failed": 50, "success": 5}, "success", id="clear-majority"),
])
def test_majority_tie_breaks(counts, global_counts, expected):
    counts, global_counts = Counter(counts), Counter(global_counts)
    assert _majority(counts, global_counts) == oracle_majority(counts, global_counts) == expected


@pytest.mark.parametrize(
    "a, b",
    [(math.nextafter(1.0, 0.0), 1.0), (1.7e308, 1.75e308), (-1.75e308, -1.7e308)],
    ids=["midpoint-rounds-up", "midpoint-overflows", "midpoint-overflows-negative"],
)
def test_cut_separates_adjacent_and_huge_values(a, b):
    # (a + b) / 2 is b or infinite here; a threshold there separates nothing.
    data = make_dataset({1: [a] * 4 + [b] * 4}, ["failed"] * 4 + ["success"] * 4)
    tree = train(data)
    assert not tree.is_leaf and a <= tree.threshold < b
    assert (predict(tree, {1: a}), predict(tree, {1: b})) == ("failed", "success")
    assert cross_validate(data, k=4).accuracy == 100.0
    assert info_gain_rank(discretize(data)).selected == [1]


def test_children_hold_the_rows_routed_by_the_threshold_at_float_edges():
    # Signed zeros compare equal; between the other neighbours the midpoint
    # rounds up to b, overflows or underflows, so cut_point falls back to a.
    # Every node's counts must be those of its parent's rows routed by
    # predict's rule, value <= threshold.
    top = 1.7976931348623157e308
    edges = [-0.0, 0.0, 1.0, math.nextafter(1.0, 2.0), top, -top, math.nextafter(top, 0.0), 5e-324, -5e-324]
    rng = random.Random(29)
    splits = 0
    for _ in range(300):
        n = rng.randrange(4, 41)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        columns = {mid: [rng.choice(edges) for _ in range(n)] for mid in (1, 2, 3)}
        stack = [(train(make_dataset(columns, labels)), range(n))]
        while stack:
            node, rows = stack.pop()
            assert node.training_counts == Counter(labels[i] for i in rows)
            if not node.is_leaf:
                splits += 1
                column = columns[node.metric_id]
                stack.append((node.left, [i for i in rows if column[i] <= node.threshold]))
                stack.append((node.right, [i for i in rows if not column[i] <= node.threshold]))
    assert splits > 300


def test_train_sweeps_and_sorts_only_the_nodes_that_can_split(monkeypatch):
    # Counted, not timed. A node that can split holds 4 rows or more of two classes: train sweeps it
    # once per feature, each sweep over that node's rows in value order (ties by row), and builds
    # sorted lists for no other child.
    rng = random.Random(38)
    n = 150
    columns = {mid: [round(rng.uniform(0, 100), 3) if mid % 3 == 0 else float(rng.randrange(12 + mid))
                     for _ in range(n)] for mid in range(1, 13)}
    labels = [("success", "failed")[(columns[3][i] > 50) != (rng.random() < 0.2)] for i in range(n)]
    sweeps, partitions = [], []
    best_cut, rows_of = tree_module.best_cut, tree_module._rows_of
    monkeypatch.setattr(tree_module, "best_cut", lambda vs, ys, *rest: sweeps.append((vs, ys)) or best_cut(
        vs, ys, *rest))
    monkeypatch.setattr(tree_module, "_rows_of", lambda *args: partitions.append(rows_of(*args)) or partitions[-1])
    root = train(make_dataset(columns, labels))
    # Each node's rows, routed by predict's rule, in the order train grows the nodes: left subtrees first.
    grown, stack = [], [(root, range(n))]
    while stack:
        node, rows = stack.pop()
        grown.append(rows)
        if not node.is_leaf:
            column = columns[node.metric_id]
            stack.append((node.right, [i for i in rows if not column[i] <= node.threshold]))
            stack.append((node.left, [i for i in rows if column[i] <= node.threshold]))
    can_split = [rows for rows in grown if len(rows) >= 4 and len({labels[i] for i in rows}) == 2]
    classes = list(Counter(labels))
    in_value_order = [[sorted(rows, key=lambda i: (columns[mid][i], i)) for mid in sorted(columns)]
                      for rows in can_split]
    assert sweeps == [(tuple(columns[mid][i] for i in order), tuple(classes.index(labels[i]) for i in order))
                      for lists in in_value_order for mid, order in zip(sorted(columns), lists)]
    assert sorted(partitions) == sorted(in_value_order[1:])
    assert len(grown) > 2 * len(partitions) + 1 > 40  # many nodes were left without lists


def _nodes(tree):
    """(node, depth) pairs, walked without recursion."""
    stack, out = [(tree, 0)], []
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        if not node.is_leaf:
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
    return out


def test_train_grows_a_chain_deeper_than_the_recursion_limit():
    # Labels alternate every two rows along one feature: every split peels
    # off one pure pair, so the tree is a chain of about n/2 levels.
    n = 2100
    labels = [("failed", "success")[i // 2 % 2] for i in range(n)]
    tree = train(make_dataset({1: [float(i) for i in range(n)]}, labels))
    nodes = _nodes(tree)
    assert max(depth for _, depth in nodes) > sys.getrecursionlimit()
    leaves = [node.training_counts for node, _ in nodes if node.is_leaf]
    assert all(len(counts) == 1 for counts in leaves)
    assert sum(sum(counts.values()) for counts in leaves) == n
    assert tree.node_count() == len(nodes)
    assert len(render_tree(tree).splitlines()) == len(nodes) + len(nodes) // 2


def _chain(internal_nodes, inner_counts, leaf_counts):
    """Each split has a leaf on its left and the rest of the chain on its right."""
    node = TreeNode(label="failed", training_counts=Counter(leaf_counts))
    for k in range(internal_nodes):
        left = TreeNode(label="failed", training_counts=Counter(leaf_counts))
        node = TreeNode(metric_id=1, threshold=float(k), left=left, right=node,
                        training_counts=Counter(inner_counts))
    return node


def test_prune_node_count_and_render_on_a_3000_node_chain():
    # One error per node: every subtree costs more than a leaf, so the whole
    # chain folds, from the bottom up, into one leaf.
    tree = _chain(1500, {"failed": 2, "success": 1}, {"failed": 2, "success": 1})
    assert tree.node_count() == 3001
    lines = render_tree(tree).splitlines()
    assert len(lines) == 2 * 1500 + 1501
    assert lines[:3] == ["m1 <= 1499 (Number of attributes)", "    failed (2/1)",
                         "m1 > 1499 (Number of attributes)"]
    assert lines[-1] == "    " * 1500 + "failed (2/1)"
    pruned = prune(tree)
    assert pruned.node_count() == 1 and render_tree(pruned) == "failed (2/1)\n"


def test_prune_keeps_a_3000_node_chain_whose_leaves_are_pure():
    # Each split holds 2000 errors in 4000 rows, more than the 1501 pure
    # one-row leaves' estimates sum to (0.75 each), so nothing is pruned.
    tree = _chain(1500, {"failed": 2000, "success": 2000}, {"failed": 1})
    before = render_tree(tree)
    pruned = prune(tree)
    assert pruned.node_count() == 3001
    assert render_tree(pruned) == before


# -- pruning ------------------------------------------------------------------------


def test_prune_single_leaf_fixpoint():
    leaf = TreeNode(label="success", training_counts=Counter({"success": 4}))
    assert prune(leaf) is leaf


def test_prune_collapses_same_label_leaves():
    node = TreeNode(
        metric_id=1,
        threshold=1.5,
        left=TreeNode(label="failed", training_counts=Counter({"failed": 3})),
        right=TreeNode(label="failed", training_counts=Counter({"failed": 2, "success": 1})),
        training_counts=Counter({"failed": 5, "success": 1}),
    )
    pruned = prune(node)
    assert pruned.is_leaf and pruned.label == "failed"


def test_prune_never_increases_node_count():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randrange(8, 40)
        labels = [rng.choice(["failed", "success"]) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0] = "failed"
            labels[1] = "success"
        columns = {mid: [rng.uniform(0, 10) for _ in range(n)] for mid in (1, 2)}
        tree = train(make_dataset(columns, labels))
        before = tree.node_count()
        assert prune(tree).node_count() <= before


# -- reference pruning: the exact-integer bound and an ancestor re-walk ------------


def reference_binomial_upper_bound(errors, n, cf):
    """The bound with exact integer binomial coefficients, bisected 100 times;
    it overflows once n passes about 1030."""
    if n == 0 or errors >= n:
        return 1.0

    coeffs = [math.comb(n, i) for i in range(errors + 1)]

    def cdf(p):
        q = 1.0 - p
        return sum(c * (p**i) * (q ** (n - i)) for i, c in enumerate(coeffs))

    lo, hi = errors / n, 1.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if cdf(mid) > cf:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def full_sum_binomial_upper_bound(errors, n, cf):
    """The bound with every term of the CDF summed in log space, each scaled
    by the largest, bisected to adjacent floats; it stays finite at any n."""
    if errors >= n:
        return 1.0
    log_n_fact = math.lgamma(n + 1)
    log_coeffs = [log_n_fact - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(errors + 1)]

    def log_cdf(p):
        log_p, log_q = math.log(p), math.log(1.0 - p)
        terms = [c + i * log_p + (n - i) * log_q for i, c in enumerate(log_coeffs)]
        top = max(terms)
        return top + math.log(sum(math.exp(t - top) for t in terms))

    lo, hi = errors / n, 1.0
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            return mid
        if log_cdf(mid) > math.log(cf):
            lo = mid
        else:
            hi = mid


def naive_prune(node):
    """Subtree replacement that re-walks every leaf below each ancestor, at C4.5's confidence factor 0.25."""

    def pessimistic(counts):
        n = sum(counts.values())
        errors = n - max(counts.values()) if counts else 0
        return n * _binomial_upper_bound(errors, n, 0.25)

    def subtree_estimate(node):
        if node.is_leaf:
            return pessimistic(node.training_counts)
        return subtree_estimate(node.left) + subtree_estimate(node.right)

    if node.is_leaf:
        return node
    node.left = naive_prune(node.left)
    node.right = naive_prune(node.right)
    if pessimistic(node.training_counts) <= subtree_estimate(node):
        counts = node.training_counts
        return TreeNode(label=oracle_majority(counts, counts), training_counts=Counter(counts))
    return node


def test_binomial_bound_matches_exact_reference():
    rng = random.Random(1993)
    for _ in range(300):
        n = rng.randint(1, 300)
        errors = rng.randint(0, n)
        cf = rng.choice((0.1, 0.25, 0.5))
        assert _binomial_upper_bound(errors, n, cf) == pytest.approx(
            reference_binomial_upper_bound(errors, n, cf), abs=1e-12
        )


@pytest.mark.parametrize("errors, n", [(500, 1030), (2000, 5000)])
def test_binomial_bound_finite_past_float_range(errors, n):
    with pytest.raises(OverflowError):
        reference_binomial_upper_bound(errors, n, 0.25)
    bound = _binomial_upper_bound(errors, n, 0.25)
    assert math.isfinite(bound)
    assert errors / n <= bound <= 1.0


def test_binomial_bound_matches_the_full_sum_past_the_exact_reference():
    # Summing from the largest term down stops once terms are negligible; the
    # full sum in log space keeps every term.
    rng = random.Random(2014)
    cases = []
    for n in (1000, 1500, 2500, 4000, 6000, 9000, 13000, 20000):
        cases += [(1, n), (n // 2, n), (n - 1, n)] + [(rng.randrange(n), n) for _ in range(2)]
    for errors, n in cases:
        cf = rng.choice((0.1, 0.25, 0.5))
        assert _binomial_upper_bound(errors, n, cf) == pytest.approx(
            full_sum_binomial_upper_bound(errors, n, cf), abs=1e-12
        ), (errors, n, cf)


def test_binomial_bound_takes_one_lgamma_triple_per_key(monkeypatch):
    calls = Counter()

    class CountingMath:
        def __getattr__(self, name):
            calls[name] += 1
            return getattr(math, name)

    monkeypatch.setattr(tree_module, "math", CountingMath())
    _binomial_upper_bound.__wrapped__(500, 1000, 0.25)
    assert calls["lgamma"] == 3
    assert calls["exp"] == 0


def test_binomial_bound_computes_a_large_key_quickly():
    # Summing all 50,001 terms on each bisection step took about 0.5 s.
    start = time.perf_counter()
    bound = _binomial_upper_bound.__wrapped__(50_000, 100_000, 0.25)
    assert time.perf_counter() - start < 0.2
    assert 0.5 < bound < 0.51


def test_binomial_bound_monotone_in_errors_at_large_n():
    bounds = [_binomial_upper_bound(e, 5000, 0.25) for e in (0, 1, 10, 100, 1000, 2500, 4000, 4999)]
    assert bounds == sorted(set(bounds))


def test_prune_matches_naive_ancestor_rewalk():
    rng = random.Random(25)
    for _ in range(45):
        n = rng.randrange(20, 120)
        labels = ["failed" if rng.random() < 0.4 else "success" for _ in range(n)]
        labels[:2] = ["failed", "success"]
        columns = {mid: [rng.uniform(0, 10) for _ in range(n)] for mid in (1, 2, 3)}
        data = make_dataset(columns, labels)
        expected = render_tree(naive_prune(train(data)))
        assert render_tree(prune(train(data))) == expected


def test_binomial_bound_closed_forms():
    # errors = 0: P(X = 0) = (1-p)^n = cf  =>  p = 1 - cf^(1/n)
    for n in (1, 5, 10, 40):
        for cf in (0.25, 0.1):
            expected = 1 - cf ** (1 / n)
            assert _binomial_upper_bound(0, n, cf) == pytest.approx(expected, abs=1e-9)
    assert _binomial_upper_bound(3, 3, 0.25) == 1.0
    assert _binomial_upper_bound(0, 0, 0.25) == 1.0


def test_binomial_bound_monotone_in_errors():
    bounds = [_binomial_upper_bound(e, 10, 0.25) for e in range(0, 10)]
    assert bounds == sorted(bounds)


def test_prune_decision_matches_hand_bound():
    # Node with 9/1 training counts split into a pure 6-leaf and a noisy 3/1
    # leaf: compare the parent's pessimistic errors with the children's sum.
    node = TreeNode(
        metric_id=1,
        threshold=0.5,
        left=TreeNode(label="failed", training_counts=Counter({"failed": 6})),
        right=TreeNode(label="failed", training_counts=Counter({"failed": 3, "success": 1})),
        training_counts=Counter({"failed": 9, "success": 1}),
    )
    parent_est = 10 * _binomial_upper_bound(1, 10, 0.25)
    child_est = 6 * _binomial_upper_bound(0, 6, 0.25) + 4 * _binomial_upper_bound(1, 4, 0.25)
    pruned = prune(node)
    assert pruned.is_leaf == (parent_est <= child_est)


# -- prediction ---------------------------------------------------------------------


def test_predict_single_leaf():
    leaf = TreeNode(label="success", training_counts=Counter({"success": 1}))
    assert predict(leaf, {9: 1e9}) == "success"


def test_predict_ratio_rule_fixture():
    tree = TreeNode(
        metric_id=9,
        threshold=115.0,
        left=TreeNode(label="success", training_counts=Counter({"success": 1})),
        right=TreeNode(label="failed", training_counts=Counter({"failed": 1})),
        training_counts=Counter({"success": 1, "failed": 1}),
    )
    assert predict(tree, {9: 120.0}) == "failed"
    assert predict(tree, {9: 115.0}) == "success"  # boundary goes left


# -- stratified folds -----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_fold_invariants(seed):
    rng = random.Random(seed)
    labels = ["failed"] * rng.randrange(12, 40) + ["success"] * rng.randrange(12, 40)
    rng.shuffle(labels)
    k = 10
    assignment = stratified_folds(labels, k, seed)
    assert len(assignment) == len(labels)
    sizes = Counter(assignment)
    assert set(sizes) == set(range(k))
    assert max(sizes.values()) - min(sizes.values()) <= 1
    for label in ("failed", "success"):
        per_fold = Counter(f for f, lab in zip(assignment, labels) if lab == label)
        counts = [per_fold.get(f, 0) for f in range(k)]
        assert max(counts) - min(counts) <= 1


def test_folds_deterministic_per_seed():
    labels = ["failed"] * 30 + ["success"] * 20
    assert stratified_folds(labels, 10, 3) == stratified_folds(labels, 10, 3)
    assert stratified_folds(labels, 10, 3) != stratified_folds(labels, 10, 4)


# -- cross validation ------------------------------------------------------------------


def _cv_dataset(n_failed=30, n_success=26, seed=9):
    rng = random.Random(seed)
    labels = ["failed"] * n_failed + ["success"] * n_success
    rng.shuffle(labels)
    columns = {
        9: [
            rng.uniform(130, 200) if lab == "failed" else rng.uniform(20, 100)
            for lab in labels
        ],
        13: [rng.uniform(0, 500) for _ in labels],
    }
    return make_dataset(columns, labels)


def test_cross_validate_confusion_totals():
    data = _cv_dataset()
    report = cross_validate(data, k=10, seed=0)
    assert report.k == 10 and report.requested_k == 10
    populations = Counter(data.labels())
    for label, (c, i) in report.per_class.items():
        assert c + i == populations[label]
    total = sum(c + i for c, i in report.per_class.values())
    correct = sum(c for c, _ in report.per_class.values())
    assert report.accuracy == pytest.approx(100 * correct / total)
    assert sorted(bid for fold in report.folds for bid in fold) == [
        r[0] for r in sorted(data.rows)
    ]


def test_cross_validate_reduces_k():
    data = _cv_dataset(n_failed=40, n_success=4)
    report = cross_validate(data, k=10, seed=1)
    assert report.requested_k == 10
    assert report.k == 4


def test_cross_validate_single_class_rejected():
    data = make_dataset({1: [1.0, 2.0, 3.0]}, ["failed"] * 3)
    with pytest.raises(DataError):
        cross_validate(data)


def test_cross_validate_deterministic():
    data = _cv_dataset()
    a = cross_validate(data, k=10, seed=5)
    b = cross_validate(data, k=10, seed=5)
    assert report_json(a) == report_json(b)
    c = cross_validate(data, k=10, seed=6)
    assert c.folds != a.folds
    # Different seeds vary fold assignment only; the full-data tree is seedless.
    assert render_tree(c.tree) == render_tree(a.tree)


# -- folds split over two processes -------------------------------------------------


def _noisy_cv_dataset(n=240, seed=4):
    """Two informative features and one of noise, under 20% label noise:
    deep fold trees."""
    rng = random.Random(seed)
    columns = {mid: [rng.uniform(0, 100) for _ in range(n)] for mid in (3, 9, 12)}
    labels = [
        ("failed" if columns[9][i] + columns[3][i] / 4 > 60 else "success")
        if rng.random() > 0.2 else rng.choice(["failed", "success"])
        for i in range(n)
    ]
    return make_dataset(columns, labels)


def _serial_report(monkeypatch, data, k, seed):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return report_json(cross_validate(data, k=k, seed=seed))


@pytest.mark.parametrize("k, seed", [(10, 0), (3, 7), (2, 1)])
def test_forked_folds_match_the_serial_report(monkeypatch, forks, k, seed):
    data = _noisy_cv_dataset()
    forked = report_json(cross_validate(data, k=k, seed=seed))
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert forked == _serial_report(monkeypatch, data, k, seed)
    assert len(forks) == 1


def test_cross_validate_forks_on_a_chain_too_deep_to_pickle(forks):
    # A tree of this chain is about 1100 levels deep; pickling it raises
    # RecursionError, so only the folds' outcomes may cross the pipe.
    n = 2200
    labels = [("failed", "success")[i // 2 % 2] for i in range(n)]
    data = make_dataset({1: [float(i) for i in range(n)]}, labels)
    report = cross_validate(data, k=2, seed=0)
    assert len(forks) == 1
    assert_no_child_left()
    assert {label: c + i for label, (c, i) in report.per_class.items()} == Counter(labels)
    assert [len(fold) for fold in report.folds] == [n // 2, n // 2]
    assert report.tree.node_count() == n - 1


def test_cross_validate_does_not_fork_beside_another_thread(forks):
    # A forked child would hold only the calling thread, and any lock that
    # another thread held stays locked there; so folds run in one process.
    data = _noisy_cv_dataset()
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        beside_thread = report_json(cross_validate(data, k=10, seed=2))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert report_json(cross_validate(data, k=10, seed=2)) == beside_thread
    assert len(forks) == 1


def _in_child(parent, action):
    """Wrap tree._fold so that the forked child does `action` instead."""
    fold = tree_module._fold

    def wrapped(*args):
        if os.getpid() != parent:
            action()
        return fold(*args)

    return wrapped


def _raise():
    raise RuntimeError("child failed")


@pytest.mark.parametrize("failure", ["raises", "killed", "garbage"])
def test_a_failed_child_leaves_the_serial_report(monkeypatch, forks, failure):
    data = _noisy_cv_dataset()
    expected = _serial_report(monkeypatch, data, 10, 3)
    parent = os.getpid()
    if failure == "garbage":
        monkeypatch.setattr(pickle, "dump", lambda obj, f: f.write(b"\x80\x05not a pickle"))
    else:
        action = _raise if failure == "raises" else lambda: os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(tree_module, "_fold", _in_child(parent, action))
    assert report_json(cross_validate(data, k=10, seed=3)) == expected
    assert forks == [parent]
    assert_no_child_left()


def test_accuracy_format():
    report = EvaluationReport(
        dataset_id="2",
        accuracy=accuracy_percent(37 + 67, 129),
        per_class={"failed": (37, 14), "success": (67, 11)},
        folds=[],
        k=10,
        requested_k=10,
        seed=0,
    )
    assert report.accuracy_text == "80.6202%"


# -- rendering and reports ---------------------------------------------------------------


def test_render_single_leaf():
    leaf = TreeNode(label="failed", training_counts=Counter({"failed": 7, "success": 2}))
    assert render_tree(leaf) == "failed (7/2)\n"


def test_render_depth_one():
    tree = TreeNode(
        metric_id=9,
        threshold=115.0,
        left=TreeNode(label="success", training_counts=Counter({"success": 4})),
        right=TreeNode(label="failed", training_counts=Counter({"failed": 3})),
        training_counts=Counter({"success": 4, "failed": 3}),
    )
    lines = render_tree(tree).splitlines()
    assert len(lines) == 4  # two branch lines + two leaf lines
    assert lines[0] == "m9 <= 115 (Comment/Code Ratio)"
    assert lines[2] == "m9 > 115 (Comment/Code Ratio)"
    assert lines[1].strip() == "success (4/0)"
    assert lines[3].strip() == "failed (3/0)"


def test_report_table_shape():
    report = EvaluationReport(
        dataset_id="2",
        accuracy=accuracy_percent(104, 129),
        per_class={"failed": (37, 14), "success": (67, 11)},
        folds=[],
        k=10,
        requested_k=10,
        seed=0,
    )
    text = report_table(report)
    lines = text.splitlines()
    assert lines[0].startswith("ID, Accuracy, # Failed Builds Correct(Incorrect)")
    assert lines[1] == "2, 80.6202%, 37(14), 67(11)"


def test_report_json_round_trip():
    data = _cv_dataset()
    report = cross_validate(data, k=5, seed=2)
    doc = json.loads(report_json(report))
    assert doc["k"] == 5 and doc["seed"] == 2
    assert doc["accuracy"].endswith("%")
    assert set(doc["per_class"]) == {"failed", "success"}
