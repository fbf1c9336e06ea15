"""Differential run of the CLI: one fixed set of invocations against two
source trees, compared byte for byte.

    python tests/differential.py PARENT_SRC CHANGE_SRC [--quick]

The inputs are built once, in a temporary directory: the fixture corpus,
planted corpora from tests/synth.py (seeds 1-5), coupled corpora, noisy
datasets (seeds 1-5) and the probe dataset from perfbench/gen.py, the
usage and data error cases of test_cli.py's tables, the grammar fixture tree,
and a malformed tree with one file per row of two of test_parser.py's error
tables. The invocations are every --help, those error cases, extract of each
tree, dataset for 3 strategies x 5 filters,
select, freq --threshold 2, evaluate on every dataset (each noisy one
also with --folds 3 --seed 7, projected on NOISY_FEATURES; the probe with
--folds 2) and --replay.

Each invocation runs as a fresh `python -m buildmetrics.cli` process with
that side's PYTHONPATH, PYTHONDONTWRITEBYTECODE=1 and PYTHONHASHSEED=0; the
two sides run at the same time. Each side has its own working directory and
reaches the inputs by the same relative paths, so the paths the CLI prints
match. Exit codes, stdout, stderr and the bytes of every file under the
invocation's --out directory are compared. The first difference of each
invocation is printed, then one summary line. The exit code is 0 only when
everything is identical.

--quick runs a handful of invocations on the fixture corpus and a 24-build
planted corpus, for a gate that takes seconds.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # src/ and perfbench/ are only read
sys.path[1:1] = [str(TESTS.parent / "src"), str(TESTS.parent / "perfbench")]

import gen  # perfbench/gen.py
import test_cli
import test_parser
from buildmetrics import FILTER_TAGS
from buildmetrics import dataset as ds
from buildmetrics.cli import STRATEGY_FLAGS
from conftest import CORPUS
from synth import generate_corpus

IN = "../in"  # the inputs, as each side's working directory reaches them
SEEDS = (1, 2, 3, 4, 5)
NOISY_FEATURES = "2,3,9,14,20,27,33,41"  # the planted signal m9 among tie-heavy and continuous columns
SIDES = ("parent", "change")


def _cases(test):
    """(id, values) for each case of a test's parametrize mark; a plain row, not a pytest.param, is numbered."""
    (mark,) = (m for m in test.pytestmark if m.name == "parametrize")
    if "ids" in mark.kwargs:
        return [(ident, (case,)) for ident, case in zip(mark.kwargs["ids"], mark.args[1])]
    several = "," in mark.args[0]
    return [(case.id, case.values) if hasattr(case, "values") else (str(number), case if several else (case,))
            for number, case in enumerate(mark.args[1], 1)]


def _error_runs(inp: Path) -> list:
    """test_cli.py's usage and data error cases, with the files they read."""
    runs = [(f"usage {ident}", argv.split(), None)
            for ident, (argv,) in _cases(test_cli.test_argument_error_is_one_line_usage_error)]
    names = {name: f"{IN}/paths/{path}" for name, path in test_cli._path_inputs(inp / "paths").items()}
    for ident, (argv, _) in _cases(test_cli.test_bad_path_or_replay_is_one_line_error):
        out = f"out/paths-{ident}"
        runs.append((f"path {ident}", argv.format(corpus=f"{IN}/fixture", tmp=out, **names).split(), out))
    for ident, (manifest, metrics_text, _) in _cases(test_cli.test_dataset_parse_failure_is_one_line_data_error):
        case = inp / "dataset-errors" / ident
        test_cli._write_manifests(case / "manifests", manifest)
        (case / "metrics.csv").write_text(metrics_text)
        out = f"out/dataset-errors-{ident}"
        runs.append((f"dataset error {ident}", ["dataset", f"{IN}/dataset-errors/{ident}/manifests",
                     f"{IN}/dataset-errors/{ident}/metrics.csv", "--strategy", "avg", "--out", out], out))
    (inp / "freq-errors").mkdir()
    for ident, (report,) in _cases(test_cli.test_freq_malformed_report_is_one_line_data_error):
        (inp / "freq-errors" / f"{ident}.csv").write_text(report, encoding="utf-8")
        runs.append((f"freq error {ident}", ["freq", f"{IN}/freq-errors/{ident}.csv", "--threshold", "1"], None))
    return runs


def _malformed_run(inp: Path) -> tuple:
    """extract of a tree with one file per row of test_parser.py's error-position and truncation tables."""
    tree = inp / "malformed"
    tree.mkdir()
    for table in (test_parser.test_error_position_counts_the_comments_before_it,
                  test_parser.test_truncated_source_is_parse_error):
        for ident, (src, *_) in _cases(table):
            (tree / f"{table.__name__}-{ident}.java").write_text(src)
    return ("malformed extract", ["extract", f"{IN}/malformed", "--out", "out/malformed"], "out/malformed")


def _learn(name: str, csvs: list[str], features: str | None = None) -> list:
    """select and freq over the datasets, then evaluate on each; given features, also evaluate each
    projected on them, with another fold count and seed."""
    runs = [(f"{name} select", ["select", *csvs, "--out", f"out/{name}/select"], f"out/{name}/select"),
            (f"{name} freq", ["freq", f"out/{name}/select/selection.csv", "--threshold", "2"], None)]
    for csv in csvs:
        out = f"out/{name}/evaluate-{Path(csv).stem}"
        runs.append((f"{name} evaluate {Path(csv).stem}", ["evaluate", csv, "--out", out], out))
        if features:
            runs.append((f"{name} evaluate {Path(csv).stem} projected", ["evaluate", csv, "--folds", "3", "--seed",
                         "7", "--features", features, "--out", f"{out}-projected"], f"{out}-projected"))
    return runs


def _pipeline(name: str, src: str, manifests: str, datasets: list[tuple[str, str]]) -> list:
    """extract, one dataset per (strategy, filter), then _learn over them."""
    runs = [(f"{name} extract", ["extract", src, "--out", f"out/{name}/extract"], f"out/{name}/extract")]
    csvs = []
    for strategy, tag in datasets:
        did = ds.dataset_id(STRATEGY_FLAGS[strategy], tag)
        runs.append((f"{name} dataset {did}", ["dataset", manifests, f"out/{name}/extract/metrics.csv",
                     "--strategy", strategy, "--filter", tag, "--out", f"out/{name}/{did}"], f"out/{name}/{did}"))
        csvs.append(f"out/{name}/{did}/{did}.csv")
    return runs + _learn(name, csvs)


FIXTURE = ("fixture extract", ["extract", f"{IN}/fixture", "--out", "out/fixture"], "out/fixture")
GRAMMAR = ("grammar extract", ["extract", f"{IN}/grammar", "--out", "out/grammar"], "out/grammar")
REPLAYS = [("replay", ["evaluate", "--replay", "7,3,12,2"], None),
           ("replay one class", ["evaluate", "--replay", "0,0,5,1"], None)]


def plan(inp: Path, quick: bool) -> list:
    """Write the inputs under inp; (name, argv, out directory or None) per invocation, in run order."""
    shutil.copytree(CORPUS, inp / "fixture")
    runs = [("help", ["--help"], None)]
    if quick:
        generate_corpus(inp / "synth-1", 12, 12, seed=1)
        return runs + [("usage bad-command", ["bogus"], None), FIXTURE] + _pipeline(
            "synth-1", f"{IN}/synth-1/src", f"{IN}/synth-1/manifests", [("avg", "full")]) + REPLAYS[:1]
    runs += [(f"{command} help", [command, "--help"], None)
             for command in ("extract", "dataset", "select", "evaluate", "freq")]
    shutil.copytree(CORPUS.parent / "grammar", inp / "grammar")
    runs += _error_runs(inp) + [FIXTURE, GRAMMAR, _malformed_run(inp)]
    every_dataset = [(strategy, tag) for strategy in STRATEGY_FLAGS for tag in FILTER_TAGS]
    for seed in SEEDS:
        generate_corpus(inp / f"synth-{seed}", 120, 120, seed=seed)
        runs += _pipeline(f"synth-{seed}", f"{IN}/synth-{seed}/src", f"{IN}/synth-{seed}/manifests", every_dataset)
    for seed in SEEDS:
        gen.coupled_corpus(inp / f"coupled-{seed}", seed)
        runs += _pipeline(f"coupled-{seed}", f"{IN}/coupled-{seed}/src", f"{IN}/coupled-{seed}/manifests",
                          every_dataset)
    for seed in SEEDS:
        noisy = gen.noisy_datasets(inp / f"noisy-{seed}", seed)
        runs += _learn(f"noisy-{seed}", [f"{IN}/noisy-{seed}/{path.name}" for path in noisy], NOISY_FEATURES)
    gen.probe_dataset(inp / "probe" / "probe.csv", 1)
    return runs + [("probe evaluate", ["evaluate", f"{IN}/probe/probe.csv", "--folds", "2", "--out", "out/probe"],
                    "out/probe")] + REPLAYS


def _files(top: Path) -> set[str]:
    return {p.relative_to(top).as_posix() for p in top.rglob("*") if p.is_file()} if top.exists() else set()


def _first_line(a: bytes, b: bytes) -> str:
    for number, (x, y) in enumerate(zip_longest(a.splitlines(True), b.splitlines(True), fillvalue=b""), 1):
        if x != y:
            return f"line {number}: {x[:160]!r} != {y[:160]!r}"


def first_difference(results: list, cwds: list[Path], out: str | None) -> str | None:
    """The first way the two sides' (process, stdout, stderr) and files under out differ, or None."""
    (pa, *a), (pb, *b) = results
    if pa.returncode != pb.returncode:
        return f"exit code {pa.returncode} != {pb.returncode}"
    for stream, x, y in zip(("stdout", "stderr"), a, b):
        if x != y:
            return f"{stream} {_first_line(x, y)}"
    if out is None:
        return None
    tops = [cwd / out for cwd in cwds]
    files = [_files(top) for top in tops]
    for name in sorted(files[0] | files[1]):
        for side, other in zip(SIDES, files[::-1]):
            if name not in other:
                return f"{name} only in {side}"
        x, y = ((top / name).read_bytes() for top in tops)
        if x != y:
            return f"{name} {_first_line(x, y)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--quick", action="store_true", help="a few invocations on small inputs")
    args = parser.parse_args(argv)
    envs = [dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1",
                 PYTHONHASHSEED="0") for src in (args.parent_src, args.change_src)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = plan(root / "in", args.quick)
        cwds = [root / side for side in SIDES]
        for cwd in cwds:
            cwd.mkdir()
        differ, codes = 0, Counter()
        for name, argv, out in runs:
            procs = [subprocess.Popen([sys.executable, "-m", "buildmetrics.cli", *argv], cwd=cwd, env=env,
                                      stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                     for cwd, env in zip(cwds, envs)]
            results = [(proc, *proc.communicate()) for proc in procs]
            codes[results[0][0].returncode] += 1
            if (difference := first_difference(results, cwds, out)) is not None:
                differ += 1
                print(f"{name}: {difference}")
    shown = ", ".join(f"{count} exit {code}" for code, count in sorted(codes.items()))
    print(f"{len(runs)} invocations: {len(runs) - differ} identical, {differ} differ (parent: {shown})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
