"""Command-line pipeline: extract -> dataset -> select -> evaluate, plus a
standalone frequency-threshold command.

Exit codes: 0 success, 1 usage error, 2 data error (e.g. exclusions leave
nothing to work with), 3 internal invariant violation.
"""

import argparse
import sys
from pathlib import Path

from . import dataset as ds
from . import featsel, metrics, tree
from .errors import BuildMetricsError, DataError, EvaluationError, SelectionError
from .lexer import tokenize
from .javaparse import parse_unit
from .model import build_code_model

STRATEGY_FLAGS = {"avg": "average", "max": "maximum", "sum": "sum"}


class UsageError(Exception):
    pass


def _write(path: Path, text: str, force: bool):
    if path.exists() and not force:
        raise UsageError(f"refusing to overwrite {path} (use --force)")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_extract(args) -> int:
    root = Path(args.source)
    if not root.is_dir():
        raise UsageError(f"not a directory: {root}")
    paths = sorted(p for p in root.rglob("*.java") if p.is_file())
    if not paths:
        raise UsageError(f"no .java files under {root}")
    units = []
    exclusions = []
    for path in paths:
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            tokens = tokenize(text)
            units.append(parse_unit(tokens, rel, physical_lines=len(text.splitlines())))
        except BuildMetricsError as exc:
            exclusions.append(f"{rel}: {exc}")
    model = build_code_model(units)
    vectors = metrics.compute_all_metrics(model)
    for vec in vectors:
        if not vec.complete:
            exclusions.append(f"{vec.file_path}: no type declarations")
    out = Path(args.out)
    _write(out / "metrics.csv", metrics.metrics_csv(vectors), args.force)
    _write(out / "extract_exclusions.log", "".join(e + "\n" for e in exclusions), args.force)
    print(f"wrote {out / 'metrics.csv'} ({sum(v.complete for v in vectors)} files, "
          f"{len(exclusions)} excluded)")
    return 0


def cmd_dataset(args) -> int:
    manifest_dir = Path(args.manifests)
    if not manifest_dir.is_dir():
        raise UsageError(f"not a directory: {manifest_dir}")
    manifest_paths = sorted(manifest_dir.glob("*.json"))
    if not manifest_paths:
        raise UsageError(f"no manifest JSON files in {manifest_dir}")
    manifests = [ds.parse_manifest(p.read_text(encoding="utf-8")) for p in manifest_paths]
    lookup = metrics.parse_metrics_csv(Path(args.metrics).read_text(encoding="utf-8"))
    strategy = STRATEGY_FLAGS[args.strategy]
    data, exclusions = ds.assemble(manifests, lookup, strategy, args.filter)
    out = Path(args.out)
    name = data.dataset_id
    _write(out / f"{name}.csv", ds.write_csv(data), args.force)
    _write(
        out / f"{name}_exclusions.log",
        "".join(f"{bid}: {reason}\n" for bid, reason in exclusions),
        args.force,
    )
    print(f"wrote {out / (name + '.csv')} ({len(data.rows)} builds, {len(exclusions)} excluded)")
    return 0


def cmd_select(args) -> int:
    if not args.datasets:
        raise UsageError("at least one dataset CSV required")
    algorithms = args.algo or ["infogain", "cfs"]
    runs = []
    failures = []
    for path in args.datasets:
        data = ds.read_csv(Path(path).read_text(encoding="utf-8"))
        for algo in algorithms:
            try:
                if algo == "infogain":
                    runs.append(featsel.info_gain_rank(data))
                else:
                    runs.append(featsel.cfs_select(data))
            except SelectionError as exc:
                failures.append(f"{data.dataset_id}/{algo}: {exc}")
    if not runs:
        raise DataError("every selection run failed: " + "; ".join(failures))
    out = Path(args.out)
    _write(out / "selection.csv", featsel.selection_report_csv(runs), args.force)
    _write(out / "frequency.csv", featsel.frequency_csv(runs), args.force)
    lines = ["threshold,selected_metric_ids"]
    for threshold in (4, 6, 8, 10):
        chosen = sorted(featsel.frequency_select(runs, threshold))
        lines.append(f"{threshold}," + " ".join(str(m) for m in chosen))
    _write(out / "thresholds.csv", "\n".join(lines) + "\n", args.force)
    for failure in failures:
        print(f"skipped {failure}", file=sys.stderr)
    print(f"wrote selection reports to {out} ({len(runs)} runs)")
    return 0


def _parse_feature_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad feature list: {text!r}")


def cmd_evaluate(args) -> int:
    if args.replay:
        parts = _parse_feature_list(args.replay)
        if len(parts) != 4:
            raise UsageError("--replay expects failed_correct,failed_incorrect,success_correct,success_incorrect")
        fc, fi, sc, si = parts
        total = fc + fi + sc + si
        acc = tree.accuracy_percent(fc + sc, total)
        print(f"{acc:.4f}%")
        print(f"failed {fc}({fi}), success {sc}({si}) over {total}")
        return 0
    data = ds.read_csv(Path(args.dataset).read_text(encoding="utf-8"))
    if args.features:
        data = data.project(_parse_feature_list(args.features))
        if not data.feature_ids:
            raise UsageError("feature set shares no columns with the dataset")
    params = tree.TrainParams(seed=args.seed)
    report = tree.cross_validate(data, k=args.folds, params=params)
    out = Path(args.out)
    _write(out / f"{data.dataset_id}_report.txt", tree.report_table(report), args.force)
    _write(out / f"{data.dataset_id}_report.json", tree.report_json(report) + "\n", args.force)
    _write(out / f"{data.dataset_id}_tree.txt", tree.render_tree(report.tree), args.force)
    print(tree.report_table(report), end="")
    if report.k != report.requested_k:
        print(f"note: folds reduced from {report.requested_k} to {report.k}")
    return 0


def cmd_freq(args) -> int:
    runs = []
    text = Path(args.selection).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dataset_id,algorithm"):
        raise DataError("malformed selection report")
    by_run: dict[tuple[str, str], list[int]] = {}
    for rownum, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        try:
            mid = int(cells[2])
        except (IndexError, ValueError):
            raise DataError(f"selection report row {rownum}: expected dataset_id,algorithm,metric_id")
        by_run.setdefault((cells[0], cells[1]), []).append(mid)
    for (did, algo), selected in sorted(by_run.items()):
        runs.append(featsel.SelectionRun(did, algo, selected))
    chosen = sorted(featsel.frequency_select(runs, args.threshold))
    print(" ".join(str(m) for m in chosen))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buildmetrics",
        description="Source-code metrics and build-outcome classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute per-file metrics for a source tree")
    p.add_argument("source")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("dataset", help="assemble a build-level dataset")
    p.add_argument("manifests")
    p.add_argument("metrics")
    p.add_argument("--strategy", choices=sorted(STRATEGY_FLAGS), required=True)
    p.add_argument("--filter", choices=ds.FILTER_TAGS, default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("select", help="run feature selection over datasets")
    p.add_argument("datasets", nargs="+")
    p.add_argument("--algo", choices=("infogain", "cfs"), action="append")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("evaluate", help="cross-validate a decision tree on a dataset")
    p.add_argument("dataset", nargs="?")
    p.add_argument("--features", help="comma-separated metric IDs")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.add_argument("--force", action="store_true")
    p.add_argument("--replay", help="fc,fi,sc,si confusion counts to re-print")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("freq", help="apply a frequency threshold to a selection report")
    p.add_argument("selection")
    p.add_argument("--threshold", type=int, required=True)
    p.set_defaults(func=cmd_freq)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not args.replay and not args.dataset:
        print("error: dataset CSV required unless --replay is given", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, SelectionError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BuildMetricsError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
