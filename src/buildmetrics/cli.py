"""Command-line pipeline: extract -> dataset -> select -> evaluate, plus a
standalone frequency-threshold command.

Exit codes: 0 success, 1 usage error (UsageError), 2 data error (DataError, e.g.
exclusions leave nothing to work with), 3 invariant violation (BuildMetricsError).
"""

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import NamedTuple

from . import FILTER_TAGS
from .errors import BuildMetricsError, DataError, ParseError
from .parallel import split_map

STRATEGY_FLAGS = {"avg": "average", "max": "maximum", "sum": "sum"}


class UsageError(Exception):
    pass


class Result(NamedTuple):
    """A stage's files to write under out, then its stderr and stdout text; only main writes and prints."""
    out: Path | None = None
    files: dict[str, str] = {}
    stdout: str = ""
    stderr: str = ""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a command line it cannot parse as a UsageError, not exit 2."""

    def error(self, message):
        raise UsageError(message)


def _read(path) -> str:
    """Text of an input file; unreadable is a usage error, non-UTF-8 a data error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{_shown(path)}: not valid UTF-8 ({exc.reason} at byte {exc.start})")
    except OSError as exc:
        raise UsageError(f"cannot read {_shown(path)}: {exc.strerror or exc}")


def _write(out: Path, files: dict[str, str], force: bool):
    """Write every named file under out, after checking that none would be overwritten."""
    try:
        for name in files:
            if (out / name).exists() and not force:
                raise UsageError(f"refusing to overwrite {_shown(out / name)} (use --force)")
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write to {_shown(out)}: {exc.strerror or exc}")


def _parsed(parse, path):
    """parse(text of path); a data error in the text is prefixed with the path."""
    text = _read(path)
    try:
        return parse(text)
    except DataError as exc:
        raise DataError(f"{_shown(path)}: {exc}") from None


def _shown(path) -> str:
    """A path as one line of UTF-8 text: an undecodable byte shows as \\xff, CR and LF as \\r and \\n."""
    shown = str(path).encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return shown.replace("\r", "\\r").replace("\n", "\\n")


def _parse_file(root: Path, path: Path) -> "tuple[CompilationUnit, list[float] | None] | str":
    """What build_code_model reads of the file's unit, with its local metrics (None if it declares no
    type), or the line that logs why it is left out. The methods and their tallies stay in this process."""
    from .javaparse import CompilationUnit, TypeDecl, parse_source
    from .metrics import UNSTORABLE, local_metrics
    rel = path.relative_to(root).as_posix()
    if UNSTORABLE.search(rel):
        return (f"{_shown(rel)}: path holds a comma, a line break or a byte that is not "
                "UTF-8, which metrics.csv cannot store")
    try:
        unit = parse_source(path.read_text(encoding="utf-8"), rel)
    except UnicodeDecodeError as exc:
        return f"{rel}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
    except OSError as exc:
        return f"{rel}: cannot read: {exc.strerror or exc}"
    except ParseError as exc:
        return f"{rel}: {exc}"
    types = [TypeDecl(t.name, t.kind, t.is_abstract, t.extends_names, referenced_type_names=t.referenced_type_names)
             for t in unit.types]
    return CompilationUnit(rel, unit.package_name, unit.imports, types), local_metrics(unit) if types else None


def _java_files(root: Path) -> list[Path]:
    """Every `*.java` file under root, sorted. Directories are walked from a stack, so any depth is
    read; a link to a directory is not followed, and one that cannot be listed is skipped."""
    paths, stack = [], [root]
    while stack:
        try:
            with os.scandir(stack.pop()) as it:
                entries = list(it)
        except OSError:
            continue
        for entry in entries:  # an entry's type is read from the listing, so a plain file takes no stat
            if entry.is_dir(follow_symlinks=False):
                stack.append(entry.path)
            # A dangling or looping link is kept, so its failed read is logged; a FIFO would block a read.
            elif entry.name.endswith(".java") and (entry.is_file(follow_symlinks=False) or entry.is_symlink() and (
                    os.path.isfile(entry.path) or not os.path.exists(entry.path))):
                paths.append(Path(entry.path))
    return sorted(paths)


def cmd_extract(args) -> Result:
    from . import javaparse, metrics  # loaded before split_map forks, so its child does not load them again
    from .model import build_code_model
    root = Path(args.source)
    if not root.is_dir():
        raise UsageError(f"not a directory: {_shown(root)}")
    paths = _java_files(root)
    if not paths:
        raise UsageError(f"no .java files under {_shown(root)}")
    # A forked child, if any, parses the odd-indexed files; results come back in path order.
    parsed = split_map(functools.partial(_parse_file, root), paths)
    exclusions = [item for item in parsed if isinstance(item, str)]
    skeletons = [item for item in parsed if not isinstance(item, str)]
    model = build_code_model([unit for unit, _ in skeletons])
    exclusions.extend(f"{path}: {reason}" for path, reason in model.excluded)
    vectors = metrics.compute_all_metrics(model, {unit.file_path: values for unit, values in skeletons})
    exclusions.extend(f"{u.file_path}: no type declarations" for u in model.units
                      if u.file_path not in vectors)
    out = Path(args.out)
    return Result(out, {
        "metrics.csv": metrics.metrics_csv(vectors),
        "extract_exclusions.log": "".join(e + "\n" for e in exclusions),
    }, f"wrote {_shown(out / 'metrics.csv')} ({len(vectors)} files, {len(exclusions)} excluded)\n")


def cmd_dataset(args) -> Result:
    from . import dataset as ds, metrics
    manifest_dir = Path(args.manifests)
    if not manifest_dir.is_dir():
        raise UsageError(f"not a directory: {_shown(manifest_dir)}")
    manifest_paths = sorted(manifest_dir.glob("*.json"))
    if not manifest_paths:
        raise UsageError(f"no manifest JSON files in {_shown(manifest_dir)}")
    manifests = [_parsed(ds.parse_manifest, p) for p in manifest_paths]
    lookup = metrics.parse_metrics_csv(_read(args.metrics))
    strategy = STRATEGY_FLAGS[args.strategy]
    data, exclusions = ds.assemble(manifests, lookup, strategy, args.filter)
    out = Path(args.out)
    name = data.dataset_id
    return Result(out, {
        f"{name}.csv": ds.write_csv(data),
        f"{name}_exclusions.log": "".join(f"{bid}: {reason}\n" for bid, reason in exclusions),
    }, f"wrote {_shown(out / (name + '.csv'))} ({len(data.rows)} builds, {len(exclusions)} excluded)\n")


def cmd_select(args) -> Result:
    from . import dataset as ds, featsel, metrics
    select = {"infogain": featsel.info_gain_rank, "cfs": featsel.cfs_select}
    algorithms = dict.fromkeys(args.algo or select)  # a repeated --algo runs once
    runs = []
    skipped = []
    seen = set()
    for path in args.datasets:
        data = _parsed(ds.read_csv, path)
        if data.dataset_id in seen:
            raise DataError(f"{_shown(path)}: dataset {data.dataset_id} is already an input, "
                            "and selection.csv could not tell their runs apart")
        seen.add(data.dataset_id)
        try:
            table = featsel.discretize(data)
        except DataError as exc:  # the dataset label is constant
            skipped.append(f"{data.dataset_id}: {exc}")
            continue
        runs.extend(select[algo](table) for algo in algorithms)
    if not runs:
        raise DataError("every selection run failed: " + "; ".join(skipped))
    out = Path(args.out)
    thresholds = ([str(threshold), " ".join(map(str, sorted(featsel.frequency_select(runs, threshold))))]
                  for threshold in (4, 6, 8, 10))
    return Result(out, {
        "selection.csv": featsel.selection_report_csv(runs),
        "frequency.csv": featsel.frequency_csv(runs),
        "thresholds.csv": metrics.table_text(["threshold", "selected_metric_ids"], thresholds),
    }, f"wrote selection reports to {_shown(out)} ({len(runs)} runs)\n", "".join(f"skipped {r}\n" for r in skipped))


def _parse_feature_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad feature list: {text!r}")


def cmd_evaluate(args) -> Result:
    from . import dataset as ds, tree
    if (args.replay is None) == (not args.dataset):
        raise UsageError("evaluate takes exactly one of a dataset CSV and --replay")
    if args.replay is not None:
        parts = _parse_feature_list(args.replay)
        if len(parts) != 4:
            raise UsageError("--replay expects failed_correct,failed_incorrect,success_correct,success_incorrect")
        if min(parts) < 0 or not any(parts):
            raise UsageError("--replay counts must be non-negative and not all zero")
        fc, fi, sc, si = parts
        total = fc + fi + sc + si
        acc = tree.accuracy_percent(fc + sc, total)
        return Result(stdout=f"{acc:.4f}%\nfailed {fc}({fi}), success {sc}({si}) over {total}\n")
    if args.folds < 2:
        raise UsageError("--folds must be at least 2")
    data = ds.read_csv(_read(args.dataset))
    if args.features is not None:
        wanted = _parse_feature_list(args.features)
        if unknown := sorted(set(wanted) - set(data.feature_ids)):
            raise UsageError("feature list names metrics the dataset lacks: " + " ".join(map(str, unknown)))
        if not wanted:
            raise UsageError("feature list is empty")
        data = data.project(wanted)
    report = tree.cross_validate(data, k=args.folds, seed=args.seed)
    name = data.dataset_id
    note = f"note: folds reduced from {report.requested_k} to {report.k}\n" if report.k != report.requested_k else ""
    return Result(Path(args.out), {
        f"{name}_report.txt": tree.report_table(report),
        f"{name}_report.json": tree.report_json(report) + "\n",
        f"{name}_tree.txt": tree.render_tree(report.tree),
    }, tree.report_table(report) + note)


def cmd_freq(args) -> Result:
    from . import featsel, metrics
    if args.threshold < 1:
        raise UsageError("--threshold must be at least 1")
    header, rows = metrics.table_rows(_read(args.selection), "selection report")
    if header != featsel.REPORT_HEADER:
        raise DataError("malformed selection report header: expected " + ",".join(featsel.REPORT_HEADER))
    by_run: dict[tuple[str, str], list[int]] = {}
    for rownum, (did, algo, mid, _, _) in rows:
        if not (mid.isascii() and mid.isdigit()):
            raise DataError(f"selection report row {rownum}: metric ID {mid!r} is not a number")
        by_run.setdefault((did, algo), []).append(int(mid))
    runs = [featsel.SelectionRun(did, algo, selected) for (did, algo), selected in sorted(by_run.items())]
    chosen = sorted(featsel.frequency_select(runs, args.threshold))
    return Result(stdout=" ".join(str(m) for m in chosen) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    p.add_argument("--filter", choices=FILTER_TAGS, default="full")
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
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        if result.files:
            _write(result.out, result.files, args.force)
        print(result.stderr, end="", file=sys.stderr)
        print(result.stdout, end="", flush=True)  # a closed stdout fails here, not at exit
        return 0
    except UsageError as exc:
        return _report("error", exc, 1)
    except DataError as exc:
        return _report("error", exc, 2)
    except BuildMetricsError as exc:
        return _report("internal error", exc, 3)
    except OSError as exc:  # a file that cannot be read or written is a UsageError, so this is stdout
        # The interpreter flushes stdout again at exit; that write now goes nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _report("error", f"cannot write to stdout: {exc.strerror or exc}", 1)


def _report(prefix: str, exc: Exception, code: int) -> int:
    # A message may quote a path or an argument; it still prints as one line.
    print(f"{prefix}: " + " ".join(str(exc).splitlines()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
