"""Build manifests, build-level aggregation, sub-dataset filters, CSV I/O.

A build manifest is one JSON document: build_id, kind (continuous, nightly,
integration), result (success, failed; warning results are ingested but
excluded at assembly), and the list of member source files. Per-file metric
vectors are aggregated to the build level by average, maximum or sum; builds
with any missing metric vector are excluded, never imputed.
"""

import json
import math
from dataclasses import dataclass, replace

from .errors import DataError
from .metrics import AVERAGE_IDS, HALSTEAD_IDS, METRIC_IDS, MetricVector, OBJECT_ORIENTED_IDS, TRADITIONAL_IDS

STRATEGIES = ("average", "maximum", "sum")
FILTER_TAGS = ("full", "a", "b", "c", "d")
BUILD_KINDS = ("continuous", "nightly", "integration")
LABELS = ("success", "failed")

_STRATEGY_NUM = {"average": "1", "maximum": "2", "sum": "3"}

FILTER_IDS = {
    "full": METRIC_IDS,
    "a": TRADITIONAL_IDS,
    "b": OBJECT_ORIENTED_IDS,
    "c": HALSTEAD_IDS,
    "d": tuple(i for i in METRIC_IDS if i not in AVERAGE_IDS),
}


def dataset_id(strategy: str, filter_tag: str) -> str:
    """Naming convention: strategy number plus filter suffix (e.g. '2c')."""
    suffix = "" if filter_tag == "full" else filter_tag
    return _STRATEGY_NUM[strategy] + suffix


@dataclass
class BuildManifest:
    build_id: str
    kind: str
    result: str
    files: list[str]


@dataclass
class Dataset:
    feature_ids: list[int]
    rows: list[tuple[str, str, list[float]]]  # (build_id, label, values)
    strategy: str = "average"
    filter_tag: str = "full"

    @property
    def provenance(self) -> tuple[str, str]:
        return self.strategy, self.filter_tag

    @property
    def dataset_id(self) -> str:
        return dataset_id(self.strategy, self.filter_tag)

    def labels(self) -> list[str]:
        return [label for _, label, _ in self.rows]

    def column(self, metric_id: int) -> list[float]:
        idx = self.feature_ids.index(metric_id)
        return [values[idx] for _, _, values in self.rows]

    def project(self, metric_ids) -> "Dataset":
        """Keep the columns whose metric ID is in metric_ids, in column order."""
        keep = set(metric_ids)
        indices = [k for k, mid in enumerate(self.feature_ids) if mid in keep]
        return replace(
            self,
            feature_ids=[self.feature_ids[k] for k in indices],
            rows=[(bid, label, [values[k] for k in indices]) for bid, label, values in self.rows],
        )


def parse_manifest(text: str) -> BuildManifest:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed manifest JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataError("manifest is not a JSON object")
    for key in ("build_id", "kind", "result", "files"):
        if key not in doc:
            raise DataError(f"manifest missing field {key!r}")
    # write_csv does not quote, so IDs and paths may not hold a comma.
    build_id = doc["build_id"]
    if not isinstance(build_id, str) or not build_id or "," in build_id:
        raise DataError(f"build_id must be a non-empty string without a comma, got {build_id!r}")
    if doc["kind"] not in BUILD_KINDS:
        raise DataError(f"unknown build kind {doc['kind']!r}")
    if doc["result"] not in LABELS + ("warning",):
        raise DataError(f"unknown build result {doc['result']!r}")
    if not isinstance(doc["files"], list) or not doc["files"]:
        raise DataError(f"manifest {build_id!r} has an empty file list")
    for path in doc["files"]:
        if not isinstance(path, str) or "," in path:
            raise DataError(f"manifest {build_id!r}: file entry {path!r} is not a string without a comma")
    return BuildManifest(build_id, doc["kind"], doc["result"], list(doc["files"]))


def aggregate_build(file_vectors: list[MetricVector], strategy: str) -> MetricVector:
    """Propagate per-file metric values to the build level."""
    if strategy not in STRATEGIES:
        raise DataError(f"unknown aggregation strategy {strategy!r}")
    if not file_vectors:
        raise DataError("cannot aggregate an empty file list")
    for vec in file_vectors:
        if not vec.complete:
            raise DataError(f"incomplete metric vector for {vec.file_path}")
    out = MetricVector(file_path="")
    for mid in METRIC_IDS:
        column = [vec.values[mid] for vec in file_vectors]
        if strategy == "average":
            out.values[mid] = sum(column) / len(column)
        elif strategy == "maximum":
            out.values[mid] = max(column)
        else:
            out.values[mid] = sum(column)
    return out


def apply_filter(dataset: Dataset, tag: str) -> Dataset:
    """Project onto a sub-dataset's metric IDs, preserving column order."""
    if tag not in FILTER_TAGS:
        raise DataError(f"unknown filter tag {tag!r}")
    projected = dataset.project(FILTER_IDS[tag])
    projected.filter_tag = tag if tag != "full" else dataset.filter_tag
    return projected


def assemble(
    manifests: list[BuildManifest],
    metric_lookup: dict[str, MetricVector],
    strategy: str,
    filter_tag: str = "full",
) -> tuple[Dataset, list[tuple[str, str]]]:
    """One dataset row per retained build; exclusions returned with reasons.

    Exclusion reasons: warning-result, empty-file-list, missing-metrics.
    """
    seen: set[str] = set()
    rows = []
    exclusions: list[tuple[str, str]] = []
    for manifest in sorted(manifests, key=lambda m: m.build_id):
        if manifest.build_id in seen:
            raise DataError(f"duplicate build_id {manifest.build_id!r}")
        seen.add(manifest.build_id)
        if manifest.result == "warning":
            exclusions.append((manifest.build_id, "warning-result"))
            continue
        if not manifest.files:
            exclusions.append((manifest.build_id, "empty-file-list"))
            continue
        vectors = []
        ok = True
        for path in manifest.files:
            vec = metric_lookup.get(path)
            if vec is None or not vec.complete:
                ok = False
                break
            vectors.append(vec)
        if not ok:
            exclusions.append((manifest.build_id, "missing-metrics"))
            continue
        aggregated = aggregate_build(vectors, strategy)
        rows.append((manifest.build_id, manifest.result, [aggregated.values[i] for i in METRIC_IDS]))
    if not rows:
        raise DataError("no builds retained after exclusions")
    full = Dataset(feature_ids=list(METRIC_IDS), rows=rows, strategy=strategy, filter_tag="full")
    return apply_filter(full, filter_tag), exclusions


def _cell(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return repr(v)  # shortest round-trippable form


def write_csv(dataset: Dataset) -> str:
    """Dataset CSV with a trailing provenance comment; lossless round trip."""
    header = "build_id,label," + ",".join(f"m{i}" for i in dataset.feature_ids)
    lines = [header]
    for bid, label, values in dataset.rows:
        lines.append(f"{bid},{label}," + ",".join(_cell(v) for v in values))
    lines.append(f"# strategy={dataset.strategy} filter={dataset.filter_tag}")
    return "\n".join(lines) + "\n"


def read_csv(text: str) -> Dataset:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty dataset CSV")
    strategy, filter_tag = "average", "full"
    if lines[-1].startswith("#"):
        footer = lines.pop()
        for part in footer.lstrip("# ").split():
            if part.startswith("strategy="):
                strategy = part.split("=", 1)[1]
            elif part.startswith("filter="):
                filter_tag = part.split("=", 1)[1]
    header = lines[0].split(",")
    if header[:2] != ["build_id", "label"]:
        raise DataError("malformed dataset header: expected build_id,label,...")
    feature_ids = []
    for col in header[2:]:
        if not col.startswith("m") or not col[1:].isdigit():
            raise DataError(f"malformed metric column {col!r}")
        mid = int(col[1:])
        if mid not in METRIC_IDS:
            raise DataError(f"metric ID out of range: {col!r}")
        if mid in feature_ids:
            raise DataError(f"repeated metric column {col!r}")
        feature_ids.append(mid)
    rows = []
    for rownum, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != len(header):
            raise DataError(f"row {rownum}: expected {len(header)} cells, got {len(cells)}")
        bid, label = cells[0], cells[1]
        if label not in LABELS:
            raise DataError(f"row {rownum}: unknown label {label!r}")
        values = []
        for colnum, cell in enumerate(cells[2:], start=3):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"row {rownum}, column {colnum}: non-numeric cell {cell!r}")
            # Metric values are finite; NaN would break the sort order that
            # discretization and tree growth rely on.
            if not math.isfinite(value):
                raise DataError(f"row {rownum}, column {colnum}: non-finite cell {cell!r}")
            values.append(value)
        rows.append((bid, label, values))
    return Dataset(feature_ids=feature_ids, rows=rows, strategy=strategy, filter_tag=filter_tag)
