"""Build manifests, build-level aggregation, sub-dataset filters, CSV I/O.

A build manifest is one JSON document: build_id, kind (continuous, nightly,
integration), result (success, failed; warning results are ingested but
excluded at assembly), and the list of member source files. Per-file metric
vectors are aggregated to the build level by average, maximum or sum, one
metric column at a time; builds with an empty file list or any missing metric
vector are excluded, never imputed.
"""

import json
import math
from typing import NamedTuple

from . import FILTER_TAGS
from .errors import DataError
from .metrics import (AVERAGE_IDS, HALSTEAD_IDS, METRIC_IDS, OBJECT_ORIENTED_IDS, TRADITIONAL_IDS,
                      UNSTORABLE, finite_floats, format_value, table_rows, table_text)

# Each strategy folds one metric's per-file values, in manifest file order.
AGGREGATE = {"average": lambda column: sum(column) / len(column), "maximum": max, "sum": sum}
STRATEGIES = tuple(AGGREGATE)
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


class BuildManifest(NamedTuple):
    build_id: str
    kind: str
    result: str
    files: list[str]


class Dataset(NamedTuple):
    feature_ids: list[int]
    rows: list[tuple[str, str, list[float]]]  # (build_id, label, values)
    strategy: str = "average"
    filter_tag: str = "full"

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
        return self._replace(
            feature_ids=[self.feature_ids[k] for k in indices],
            rows=[(bid, label, [values[k] for k in indices]) for bid, label, values in self.rows],
        )


def parse_manifest(text: str) -> BuildManifest:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deep nesting
        raise DataError(f"malformed manifest JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataError("manifest is not a JSON object")
    for key in ("build_id", "kind", "result", "files"):
        if key not in doc:
            raise DataError(f"manifest missing field {key!r}")
    # write_csv does not quote, so an ID may not hold a comma or a line break,
    # and a path no comma.
    build_id = doc["build_id"]
    if not isinstance(build_id, str) or not build_id or UNSTORABLE.search(build_id):
        raise DataError("build_id must be a non-empty string without a comma, a line break or "
                        f"a lone surrogate, got {build_id!r}")
    if doc["kind"] not in BUILD_KINDS:
        raise DataError(f"unknown build kind {doc['kind']!r}")
    if doc["result"] not in LABELS + ("warning",):
        raise DataError(f"unknown build result {doc['result']!r}")
    if not isinstance(doc["files"], list):
        raise DataError(f"manifest {build_id!r}: files is not a list")
    seen = set()
    for path in doc["files"]:
        if not isinstance(path, str) or "," in path:
            raise DataError(f"manifest {build_id!r}: file entry {path!r} is not a string without a comma")
        if path in seen:  # it would be aggregated twice
            raise DataError(f"manifest {build_id!r}: file {path!r} is listed twice")
        seen.add(path)
    return BuildManifest(build_id, doc["kind"], doc["result"], list(doc["files"]))


def apply_filter(dataset: Dataset, tag: str) -> Dataset:
    """Project onto a sub-dataset's metric IDs, preserving column order."""
    return dataset.project(FILTER_IDS[tag])._replace(filter_tag=tag if tag != "full" else dataset.filter_tag)


def assemble(
    manifests: list[BuildManifest],
    metric_lookup: dict[str, list[float]],
    strategy: str,
    filter_tag: str = "full",
) -> tuple[Dataset, list[tuple[str, str]]]:
    """One dataset row per retained build; exclusions returned with reasons.

    Exclusion reasons: warning-result, empty-file-list, missing-metrics.
    """
    aggregate = AGGREGATE[strategy]
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
        if not all(path in metric_lookup for path in manifest.files):
            exclusions.append((manifest.build_id, "missing-metrics"))
            continue
        values = [aggregate(column) for column in zip(*(metric_lookup[p] for p in manifest.files))]
        if not all(map(math.isfinite, values)):
            raise DataError(f"build {manifest.build_id!r}: the {strategy} of a metric overflows")
        rows.append((manifest.build_id, manifest.result, values))
    if not rows:
        raise DataError("no builds retained after exclusions")
    full = Dataset(feature_ids=list(METRIC_IDS), rows=rows, strategy=strategy, filter_tag="full")
    return apply_filter(full, filter_tag), exclusions


def write_csv(dataset: Dataset) -> str:
    """Dataset CSV with a trailing provenance comment; lossless round trip."""
    header = ["build_id", "label"] + [f"m{i}" for i in dataset.feature_ids]
    rows = ([bid, label] + [format_value(v, None) for v in values] for bid, label, values in dataset.rows)
    return table_text(header, rows) + f"# strategy={dataset.strategy} filter={dataset.filter_tag}\n"


def read_csv(text: str) -> Dataset:
    strategy, filter_tag = "average", "full"
    body, _, footer = text.rstrip().rpartition("\n")
    if footer.startswith("#") and "," not in footer:  # a row holds a comma, the footer none
        text = body
        for part in footer.lstrip("# ").split():
            if part.startswith("strategy="):
                strategy = part.split("=", 1)[1]
            elif part.startswith("filter="):
                filter_tag = part.split("=", 1)[1]
        if strategy not in STRATEGIES or filter_tag not in FILTER_TAGS:
            raise DataError(f"unknown provenance in dataset footer: {footer!r}")
    header, raw_rows = table_rows(text, "dataset CSV")
    if header[:2] != ["build_id", "label"]:
        raise DataError("malformed dataset header: expected build_id,label,...")
    feature_ids = []
    for col in header[2:]:
        if not col.startswith("m") or not (col[1:].isascii() and col[1:].isdigit()):
            raise DataError(f"malformed metric column {col!r}")
        mid = int(col[1:])
        if mid not in METRIC_IDS:
            raise DataError(f"metric ID out of range: {col!r}")
        if mid in feature_ids:
            raise DataError(f"repeated metric column {col!r}")
        feature_ids.append(mid)
    rows = []
    for rownum, (bid, label, *cells) in raw_rows:
        if label not in LABELS:
            raise DataError(f"dataset CSV row {rownum}: unknown label {label!r}")
        rows.append((bid, label, finite_floats(cells, "dataset CSV", rownum)))
    return Dataset(feature_ids=feature_ids, rows=rows, strategy=strategy, filter_tag=filter_tag)
