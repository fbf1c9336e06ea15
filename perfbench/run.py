"""Benchmark for the buildmetrics pipeline (extract -> dataset -> select ->
evaluate), driven as a user drives it.

    python3 perfbench/run.py --workload pipeline-synth --seed 1 --seconds 30 --trace 0

With --trace 0 every stage is one `python -m buildmetrics.cli` process,
started one after another from this process: a closed loop with one client
and at most one child process at a time. Complete workload runs repeat until
--seconds is used up; each end-to-end metric is the median over runs. With
--trace 1 the same stages run in-process through buildmetrics.cli.main, with
spans recorded around the calls into each module's public functions, and
the per-layer metrics are printed instead. Every stage's outputs are checked
after each run, outside the timed region. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Inputs are generated from --seed under .perfbench_work/ in the checkout;
the program sees only the generated files. Stages import the checkout's
own src/ through PYTHONPATH.
"""

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from spans import Tracer, write_spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

SYNTH_BUILDS = 240  # pipeline-synth: builds, two files each
PREFIX_BUILDS = 40  # learn-noisy: the small synth corpus its extract step reads
SETUP_PER_RUN = 3  # setup_s samples taken after each run, spread over the window
STAGE_TIMEOUT_S = 20.0  # about 8x the slowest stage, so a hang ends the run within 180 s
SETUP_CODE = "import buildmetrics.cli as c; c.build_parser(); print(c.__file__)"
DATASET_IDS = {"avg": "1", "max": "2", "sum": "3"}
# Host-speed reference: calibrate() takes about this long on the reference
# machine (see MEASURED.md) when no other tenant contends for its CPU.
REFERENCE_CALIBRATION_S = 0.015

END_TO_END = {
    "setup_s": "s", "run_s": "s", "run_cpu_s": "s", "extract_s": "s",
    "extract_files_per_s": "files/s", "select_s": "s", "evaluate_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics from the traced run: span self times (unit s) and the
# counts recorded at the same call boundaries.
PER_LAYER_TIMES = {
    "lexer.tokenize_s": "lexer.tokenize",
    "javaparse.parse_unit_s": "javaparse.parse_unit",
    "model.build_code_model_s": "model.build_code_model",
    "metrics.compute_all_metrics_s": "metrics.compute_all_metrics",
    "metrics.metrics_csv_s": "metrics.metrics_csv",
    "metrics.parse_metrics_csv_s": "metrics.parse_metrics_csv",
    "dataset.parse_manifest_s": "dataset.parse_manifest",
    "dataset.assemble_s": "dataset.assemble",
    "dataset.write_csv_s": "dataset.write_csv",
    "dataset.read_csv_s": "dataset.read_csv",
    "featsel.discretize_mdl_s": "featsel.discretize_mdl",
    "featsel.info_gain_rank_s": "featsel.info_gain_rank",
    "featsel.cfs_select_s": "featsel.cfs_select",
    "tree.train_s": "tree.train",
    "tree.prune_s": "tree.prune",
    "tree.cross_validate_s": "tree.cross_validate",
    "cli.extract_self_s": "cli.main:extract",
    "cli.dataset_self_s": "cli.main:dataset",
    "cli.select_self_s": "cli.main:select",
    "cli.evaluate_self_s": "cli.main:evaluate",
}
EXCLUSION_REASONS = ("warning-result", "empty-file-list", "missing-metrics")
PER_LAYER_COUNTS = (
    "lexer.tokens", "lexer.bytes", "javaparse.units", "javaparse.methods",
    "model.types", "model.dependency_edges", "dataset.parse_manifest_calls",
    "dataset.rows", *(f"dataset.excluded.{r}" for r in EXCLUSION_REASONS),
    "featsel.discretize_mdl_calls", "featsel.cuts",
    "featsel.symmetric_uncertainty_calls", "tree.nodes_grown",
    "tree.nodes_after_prune", "tree.predict_calls", "trace.spans",
)
PER_LAYER_UNITS = {
    **{name: "s" for name in PER_LAYER_TIMES},
    **{name: "count" for name in PER_LAYER_COUNTS},
    "lexer.bytes": "bytes",
    "lexer.tokens_per_s": "1/s",
    "trace.overhead_s": "s",
}


@dataclass
class Stage:
    command: str
    argv: list[str]
    out: Path
    check: Callable[[Path], str | None] | None = None


@dataclass
class Workload:
    stages: Callable[[Path], list[Stage]]
    files: int  # source files its extract step reads


@dataclass
class StageResult:
    code: int
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


# -- output checks -----------------------------------------------------------


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def check_extract_count(expected: int):
    def check(out: Path):
        rows = len(_csv_rows(out / "metrics.csv"))
        if rows != expected or (out / "extract_exclusions.log").read_text():
            return f"extract: {rows} complete files, expected {expected} and no exclusions"
    return check


def check_extract_oracle(oracle: dict[str, dict[int, float]]):
    def check(out: Path):
        rows = _csv_rows(out / "metrics.csv")
        if {r[0] for r in rows} != set(oracle):
            return "extract: metrics.csv files differ from the oracle's"
        for row in rows:
            expected = oracle[row[0]]
            for mid in range(1, 43):
                if not math.isclose(float(row[mid]), expected[mid], rel_tol=1e-9, abs_tol=1e-6):
                    return f"extract: {row[0]} m{mid} = {row[mid]}, oracle {expected[mid]!r}"
    return check


def check_dataset_rows(dataset_id: str, expected: int):
    def check(out: Path):
        rows = len(_csv_rows(out / f"{dataset_id}.csv"))
        if rows != expected or (out / f"{dataset_id}_exclusions.log").read_text():
            return f"dataset {dataset_id}: {rows} builds, expected {expected} and no exclusions"
    return check


def check_infogain_top(metric_id: int, runs: int):
    def check(out: Path):
        firsts = [r for r in _csv_rows(out / "selection.csv") if r[1] == "infogain" and r[3] == "1"]
        if len(firsts) != runs or any(r[2] != str(metric_id) for r in firsts):
            return f"select: infogain rank 1 is {[r[2] for r in firsts]}, expected m{metric_id} in {runs} runs"
    return check


def check_accuracy(dataset_id: str, expected: str):
    def check(out: Path):
        got = json.loads((out / f"{dataset_id}_report.json").read_text())["accuracy"]
        if got != expected:
            return f"evaluate {dataset_id}: accuracy {got}, expected {expected}"
    return check


def check_report_consistent(dataset_id: str, rows: int):
    """Confusion counts cover every row once and reproduce the accuracy."""
    def check(out: Path):
        doc = json.loads((out / f"{dataset_id}_report.json").read_text())
        counts = doc["per_class"].values()
        total = sum(c["correct"] + c["incorrect"] for c in counts)
        correct = sum(c["correct"] for c in counts)
        fold_ids = [bid for fold in doc["folds"] for bid in fold]
        if total != rows or len(set(fold_ids)) != rows or len(fold_ids) != rows:
            return f"evaluate {dataset_id}: report covers {total} rows, expected {rows}"
        if doc["accuracy"] != f"{100.0 * correct / total:.4f}%" or not doc["tree"]:
            return f"evaluate {dataset_id}: accuracy {doc['accuracy']} disagrees with its counts"
    return check


# -- workloads ---------------------------------------------------------------


def _extract(d: Path, src: Path, check) -> Stage:
    return Stage("extract", ["extract", str(src), "--out", str(d / "extract")], d / "extract", check)


def _dataset(d: Path, manifests: Path, flag: str, check) -> Stage:
    out = d / f"dataset-{flag}"
    argv = ["dataset", str(manifests), str(d / "extract" / "metrics.csv"),
            "--strategy", flag, "--out", str(out)]
    return Stage("dataset", argv, out, check)


def _select(d: Path, datasets: list[Path], check) -> Stage:
    return Stage("select", ["select", *map(str, datasets), "--out", str(d / "select")], d / "select", check)


def _evaluate(d: Path, dataset: Path, tag: str, check) -> Stage:
    out = d / f"evaluate-{tag}"
    return Stage("evaluate", ["evaluate", str(dataset), "--out", str(out)], out, check)


def pipeline_synth(inputs: Path, seed: int) -> Workload:
    """The tests/synth.py planted corpus through the whole pipeline."""
    import synth

    src, manifests = synth.generate_corpus(inputs, SYNTH_BUILDS // 2, SYNTH_BUILDS // 2, seed=seed)

    def stages(d: Path) -> list[Stage]:
        out = [_extract(d, src, check_extract_count(2 * SYNTH_BUILDS))]
        datasets = []
        for flag, did in DATASET_IDS.items():
            out.append(_dataset(d, manifests, flag, check_dataset_rows(did, SYNTH_BUILDS)))
            datasets.append(d / f"dataset-{flag}" / f"{did}.csv")
        out.append(_select(d, datasets, check_infogain_top(9, runs=3)))
        out.append(_evaluate(d, datasets[1], "2", check_accuracy("2", "100.0000%")))
        return out

    return Workload(stages, 2 * SYNTH_BUILDS)


def extract_coupled(inputs: Path, seed: int) -> Workload:
    """A coupled corpus whose extract step dominates; a short tail assembles
    one build per package, labelled by package size (metric 8)."""
    from oracle_metrics import OracleCorpus

    src, manifests, files = gen.coupled_corpus(inputs, seed)
    oracle = OracleCorpus(src).all_metrics()
    builds = gen.COUPLED_PACKAGES

    def stages(d: Path) -> list[Stage]:
        dataset = d / "dataset-max" / "2.csv"
        return [
            _extract(d, src, check_extract_oracle(oracle)),
            _dataset(d, manifests, "max", check_dataset_rows("2", builds)),
            _select(d, [dataset], check_infogain_top(8, runs=1)),
            _evaluate(d, dataset, "2", check_accuracy("2", "100.0000%")),
        ]

    return Workload(stages, files)


def learn_noisy(inputs: Path, seed: int) -> Workload:
    """Selection and cross-validation on noisy 42-feature datasets, after a
    small extract/dataset prefix so every stage metric is defined."""
    import synth

    src, manifests = synth.generate_corpus(inputs / "prefix", PREFIX_BUILDS // 2,
                                           PREFIX_BUILDS // 2, seed=seed)
    noisy = gen.noisy_datasets(inputs / "noisy", seed)

    def stages(d: Path) -> list[Stage]:
        out = [
            _extract(d, src, check_extract_count(2 * PREFIX_BUILDS)),
            _dataset(d, manifests, "max", check_dataset_rows("2", PREFIX_BUILDS)),
            _select(d, noisy, check_infogain_top(gen.NOISY_SIGNAL, runs=3)),
        ]
        for path, did in zip(noisy, DATASET_IDS.values()):
            out.append(_evaluate(d, path, did, check_report_consistent(did, gen.NOISY_ROWS)))
        return out

    return Workload(stages, 2 * PREFIX_BUILDS)


WORKLOADS = {
    "pipeline-synth": pipeline_synth,
    "extract-coupled": extract_coupled,
    "learn-noisy": learn_noisy,
}


# -- running stages ----------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _wait(proc: subprocess.Popen):
    """Wait for proc, killing it after STAGE_TIMEOUT_S; returns its rusage."""
    timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_subprocess(stage: Stage, logs: Path) -> StageResult:
    logs.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "buildmetrics.cli", *stage.argv]
    with open(logs / f"{stage.out.name}.stdout", "wb") as out, \
            open(logs / f"{stage.out.name}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        usage = _wait(proc)
        wall = time.perf_counter() - start
    return StageResult(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def run_in_process(stage: Stage, logs: Path) -> StageResult:
    from buildmetrics import cli

    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            code = cli.main(stage.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed stage, not a benchmark crash
            code = -1
    return StageResult(code, time.perf_counter() - start)


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


_CALIBRATION_TEXT = " ".join(f"w{(i * 7919) % 211}" for i in range(2000))


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work (splitting, counting in a
    dict, sorting, float math, prefix scans), the kinds of work the pipeline
    does. The host's speed varies with other tenants' load, so the ratio of
    this to REFERENCE_CALIBRATION_S measures how slow the host is right now."""
    start = time.perf_counter()
    for _ in range(8):
        counts: dict[str, int] = {}
        for word in _CALIBRATION_TEXT.split(" "):
            counts[word] = counts.get(word, 0) + 1
        total = 0.0
        for key, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            total += math.log2(n + 1) * len(key)
        total += sum(1 for pos in range(len(_CALIBRATION_TEXT)) if _CALIBRATION_TEXT.startswith("w1", pos))
    return time.perf_counter() - start


@dataclass
class RunRecord:
    wall: float
    stage_results: list[StageResult]
    stages: list[Stage]
    failures: list[str | None]  # per stage: None, or what went wrong
    calibration: list[float]  # calibrate() before each stage and after the last


def run_once(workload: Workload, d: Path, runner, digests: dict[int, str]) -> RunRecord:
    """One complete workload run, then its output checks (untimed). The
    run's wall time is the sum of its stages', leaving out the calibrate()
    samples taken between them. digests holds each stage's artifact digest
    from the first run that passed it."""
    stages = workload.stages(d)
    results, calibration = [], []
    for stage in stages:
        calibration.append(calibrate())
        results.append(runner(stage, d / "logs"))
    calibration.append(calibrate())
    wall = sum(res.wall for res in results)

    failures = []
    for k, (stage, res) in enumerate(zip(stages, results)):
        problem = None
        if res.code != 0:
            problem = f"{stage.command} exited with {res.code}"
        else:
            try:
                problem = stage.check(stage.out) if stage.check else None
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"{stage.command}: unreadable output ({exc!r})"
            if problem is None:
                digest = _digest(stage.out)
                if digests.setdefault(k, digest) != digest:
                    problem = f"{stage.command}: artifacts in {stage.out.name} differ from the first run"
        failures.append(problem)
    return RunRecord(wall, results, stages, failures, calibration)


def timed_loop(workload: Workload, base: Path, seconds: float, runners, on_run=None) -> list[RunRecord]:
    """Cycle through runners, one complete run each, until every runner has
    run and the next run would end after `seconds`. on_run(k, record) is
    called after run k."""
    records = []
    digests: dict[int, str] = {}
    start = time.perf_counter()
    while True:
        k = len(records)
        d = base / f"run-{k}"
        records.append(run_once(workload, d, runners[k % len(runners)], digests))
        if on_run is not None:
            on_run(k, records[-1])
        shutil.rmtree(d, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(records) >= len(runners) and elapsed + elapsed / len(records) > seconds:
            return records


# -- metrics -----------------------------------------------------------------


def end_to_end(records: list[RunRecord], setup: list[float], files: int) -> dict[str, list[float]]:
    """One sample per run for each metric except setup_s, which has one per
    fresh interpreter. A stage's time is summed over its invocations in the
    run (learn-noisy evaluates three datasets; other stages run once)."""
    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    samples["setup_s"] = setup
    for rec in records:
        stage_s = {command: 0.0 for command in ("extract", "select", "evaluate")}
        for stage, res in zip(rec.stages, rec.stage_results):
            if stage.command in stage_s:
                stage_s[stage.command] += res.wall
        samples["run_s"].append(rec.wall)
        samples["run_cpu_s"].append(sum(r.cpu for r in rec.stage_results))
        samples["peak_rss_mb"].append(max(r.rss_mb for r in rec.stage_results))
        for command, seconds in stage_s.items():
            samples[f"{command}_s"].append(seconds)
        samples["extract_files_per_s"].append(files / stage_s["extract"])
    return samples


def measure_setup(samples: int, calibration: list[float]) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build its
    parser, checking that the CLI comes from this checkout's src/. A
    calibrate() sample taken before each is appended to calibration."""
    times = []
    for _ in range(samples):
        calibration.append(calibrate())
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=STAGE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or Path(proc.stdout.strip()).resolve() != SRC / "buildmetrics" / "cli.py":
            raise SystemExit(f"perfbench: the CLI does not import from {SRC}: {proc.stderr.strip()}")
    return times


def _layer_values(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    values = {name: self_times.get(span, 0.0) for name, span in PER_LAYER_TIMES.items()}
    lex = tracer.attributes("lexer.tokenize")
    values["lexer.tokens"] = sum(t for t, _ in lex)
    values["lexer.bytes"] = sum(b for _, b in lex)
    values["lexer.tokens_per_s"] = values["lexer.tokens"] / values["lexer.tokenize_s"] if lex else 0.0
    values["javaparse.units"] = calls["javaparse.parse_unit"]
    values["javaparse.methods"] = sum(tracer.attributes("javaparse.parse_unit"))
    models = tracer.attributes("model.build_code_model")
    values["model.types"] = sum(t for t, _ in models)
    values["model.dependency_edges"] = sum(e for _, e in models)
    values["dataset.parse_manifest_calls"] = calls["dataset.parse_manifest"]
    assembled = tracer.attributes("dataset.assemble")
    values["dataset.rows"] = sum(rows for rows, _ in assembled)
    for reason in EXCLUSION_REASONS:
        values[f"dataset.excluded.{reason}"] = sum(ex.count(reason) for _, ex in assembled)
    values["featsel.discretize_mdl_calls"] = calls["featsel.discretize_mdl"]
    values["featsel.cuts"] = sum(tracer.attributes("featsel.discretize_mdl"))
    values["featsel.symmetric_uncertainty_calls"] = calls["featsel.symmetric_uncertainty"]
    values["tree.nodes_grown"] = sum(tracer.attributes("tree.train"))
    values["tree.nodes_after_prune"] = sum(tracer.attributes("tree.prune", outermost=True))
    values["tree.predict_calls"] = calls["tree.predict"]
    values["trace.spans"] = len(tracer.spans)
    return values


def make_tracer():
    from buildmetrics import cli, dataset, featsel, javaparse, lexer, metrics, model, tree
    t = Tracer()
    t.wrap(cli, "main", lambda a, r: a[0][0])
    t.wrap(lexer, "tokenize", lambda a, r: (len(r), len(a[0].encode("utf-8"))))
    t.wrap(javaparse, "parse_unit", lambda a, r: sum(len(d.methods) for d in r.types))
    t.wrap(model, "build_code_model", lambda a, r: (len(r.type_index), len(r.dependency_edges)))
    for attr in ("compute_all_metrics", "metrics_csv", "parse_metrics_csv"):
        t.wrap(metrics, attr)
    t.wrap(dataset, "parse_manifest")
    t.wrap(dataset, "assemble", lambda a, r: (len(r[0].rows), [reason for _, reason in r[1]]))
    t.wrap(dataset, "write_csv")
    t.wrap(dataset, "read_csv")
    t.wrap(featsel, "discretize_mdl", lambda a, r: len(r))
    for attr in ("info_gain_rank", "cfs_select", "symmetric_uncertainty"):
        t.wrap(featsel, attr)
    t.wrap(tree, "train", lambda a, r: r.node_count())
    t.wrap(tree, "prune", lambda a, r: r.node_count())
    t.wrap(tree, "predict")
    t.wrap(tree, "cross_validate")
    return t


def traced_metrics(workload: Workload, base: Path, seconds: float, spans_path: Path):
    """After one unrecorded warm-up run, alternate untraced and traced
    in-process runs. Per-layer metrics are medians over the traced runs;
    trace.overhead_s is the traced runs' median run time minus the untraced
    runs'. The last traced run's spans are written to spans_path."""
    tracer = make_tracer()

    def traced(stage: Stage, logs: Path) -> StageResult:
        tracer.install()
        try:
            return run_in_process(stage, logs)
        finally:
            tracer.restore()

    layer_samples: dict[str, list[float]] = {}
    last_spans: list[list] = []

    def on_run(k: int, record: RunRecord):
        if k % 2:
            for name, value in _layer_values(tracer).items():
                layer_samples.setdefault(name, []).append(value)
            last_spans[:] = tracer.take()

    run_once(workload, base / "warm-up", run_in_process, {})
    shutil.rmtree(base / "warm-up", ignore_errors=True)
    records = timed_loop(workload, base, seconds, [run_in_process, traced], on_run)
    walls = [[rec.wall for rec in records[kind::2]] for kind in (0, 1)]
    layer_samples["trace.overhead_s"] = [statistics.median(walls[1]) - statistics.median(walls[0])]
    write_spans(last_spans, spans_path)
    return layer_samples, records


# -- the known-defect probe --------------------------------------------------


def run_probe(base: Path, seed: int) -> str:
    """evaluate on a balanced dataset of about 1200 rows: the pruning bound
    overflows once a node holds about 1030 rows. Reported, never gated."""
    probe = base / "probe"
    dataset = gen.probe_dataset(probe / "probe.csv", seed)
    stage = Stage("evaluate", ["evaluate", str(dataset), "--out", str(probe / "out")], probe / "out")
    res = run_subprocess(stage, probe / "logs")
    stderr = (probe / "logs" / "out.stderr").read_text(errors="replace")
    traceback = "Traceback (most recent call last)" in stderr
    return (f"probe evaluate-{gen.PROBE_ROWS}-rows: exit_code={res.code} "
            f"traceback={'yes' if traceback else 'no'}")


# -- reporting ---------------------------------------------------------------


def to_reference_speed(value: float, unit: str, scale: float) -> float:
    """Times are multiplied by scale and rates divided by it; counts and
    memory are left as measured."""
    if unit == "s":
        return value * scale
    if unit.endswith("/s"):
        return value / scale
    return value


def summarize(name: str, values: list[float], unit: str, scale: float) -> str:
    """Median at reference speed, the measured median, the sample count, and
    the highest percentile that still has at least ten samples beyond it
    (the (n-10)th smallest of n samples), when it lies above the median."""
    ordered = sorted(values)
    n = len(ordered)
    median = statistics.median(ordered)
    tail = "too few samples for a percentile above the median"
    if n > 20:
        tail = f"p{100.0 * (n - 10) / n:.3g}={to_reference_speed(ordered[n - 11], unit, scale):.6g}"
    return (f"{name}: median={to_reference_speed(median, unit, scale):.6g} {unit} "
            f"(as measured {median:.6g}) n={n} {tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [SRC / "buildmetrics" / "cli.py", TESTS / "synth.py", TESTS / "oracle_metrics.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a buildmetrics checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    name = f"{args.workload}-s{args.seed}-t{args.trace}"
    base = WORK / f"{name}-{os.getpid()}"
    calibration: list[float] = []
    try:
        workload = WORKLOADS[args.workload](base / "inputs", args.seed)
        probe = run_probe(base, args.seed)
        if args.trace:
            samples, records = traced_metrics(workload, base, args.seconds, WORK / f"spans-{name}.json")
            units = PER_LAYER_UNITS
        else:
            measure_setup(1, [])  # fills bytecode caches, as any earlier use would
            setup: list[float] = []

            def with_setup(k: int, record: RunRecord):
                setup.extend(measure_setup(SETUP_PER_RUN, calibration))

            records = timed_loop(workload, base, args.seconds, [run_subprocess], with_setup)
            samples = end_to_end(records, setup, workload.files)
            units = END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)

    calibration += [c for rec in records for c in rec.calibration]
    host_s = statistics.fmean(calibration)
    scale = REFERENCE_CALIBRATION_S / host_s
    print(f"host speed: calibrate() took {host_s * 1e3:.3f} ms on average over {len(calibration)} "
          f"samples, against {REFERENCE_CALIBRATION_S * 1e3:g} ms at reference speed; "
          f"times are multiplied by {scale:.4f} and rates divided by it")
    for metric, unit in units.items():
        print(summarize(metric, samples[metric], unit, scale))
    failures = [f for rec in records for f in rec.failures]
    failed = sum(f is not None for f in failures)
    for problem in sorted({f for f in failures if f}):
        print(f"check failed: {problem}")
    print(f"{args.workload} seed={args.seed}: {len(records)} runs, {len(failures)} stage "
          f"invocations, {failed} failed, ops_failed_ratio={failed / len(failures):.6g}")
    print(probe)
    metrics = {
        m: {"value": to_reference_speed(statistics.median(samples[m]), u, scale), "unit": u}
        for m, u in units.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": len(failures), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
