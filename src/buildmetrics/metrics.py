"""The 42-metric engine.

Metric IDs 1-13 are traditional size/count metrics, 14-29 object-oriented
metrics (including package coupling and cohesion), 30-42 Halstead metrics
plus depth of inheritance. The exact definition of every metric, including
every division-by-zero rule, lives in this module so the engine never emits
NaN.

Aggregation conventions: per-class metrics (24, 27-29, 42) are averaged over
the file's type declarations; package-scope metrics (18-22) take the value of
the file's package; Halstead counts pool the bodies of all methods and
constructors in the file. Constructors additionally feed block depth (23) and
cohesion (27-29) but are excluded from the method-count family
(5, 6, 7, 15, 16, 24, 26) and from the maintainability-index averages.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import DataError, ModelError
from .javaparse import CompilationUnit, MethodDecl, TypeDecl
from .model import CodeModel, qualify

METRIC_IDS = tuple(range(1, 43))

METRIC_NAMES = {
    1: "Number of attributes",
    2: "Average number of attributes per class",
    3: "Average number of constructors per class",
    4: "Average number of comments",
    5: "Average lines of code per method",
    6: "Average number of methods",
    7: "Average number of parameters",
    8: "Number of types per package",
    9: "Comment/Code Ratio",
    10: "Number of constructors",
    11: "Number of import statements",
    12: "Number of interfaces",
    13: "Lines of code",
    14: "Number of comments",
    15: "Number of methods",
    16: "Number of parameters",
    17: "Number of lines",
    18: "Abstractness",
    19: "Afferent coupling",
    20: "Efferent coupling",
    21: "Instability",
    22: "Normalized Distance",
    23: "Average block depth",
    24: "Weighted methods per class",
    25: "Maintainability index",
    26: "Cyclomatic complexity",
    27: "Lack of cohesion 1",
    28: "Lack of cohesion 2",
    29: "Lack of cohesion 3",
    30: "Number of operands",
    31: "Number of operators",
    32: "Number of unique operands",
    33: "Number of unique operators",
    34: "Number of delivered bugs",
    35: "Difficulty level",
    36: "Effort to implement",
    37: "Time to implement",
    38: "Program length",
    39: "Program level",
    40: "Program vocabulary size",
    41: "Program volume",
    42: "Depth of Inheritance",
}

TRADITIONAL_IDS = tuple(range(1, 14))
OBJECT_ORIENTED_IDS = tuple(range(14, 30))
HALSTEAD_IDS = tuple(range(30, 43))
AVERAGE_IDS = (2, 3, 4, 5, 6, 7)


@dataclass
class HalsteadCounts:
    N1: int = 0  # total operators
    N2: int = 0  # total operands
    n1: int = 0  # distinct operators
    n2: int = 0  # distinct operands


@dataclass
class MetricVector:
    file_path: str
    values: dict[int, float] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return set(self.values) == set(METRIC_IDS)


def halstead_suite(counts: HalsteadCounts) -> dict[int, float]:
    """Halstead metric family (IDs 30-41) from raw operator/operand counts.

    Degenerate counts take their defined limits: an all-zero program scores
    zero on every metric, and program level is clamped to at most 1.
    """
    N = counts.N1 + counts.N2
    n = counts.n1 + counts.n2
    volume = N * math.log2(n) if n > 0 else 0.0
    difficulty = (counts.n1 / 2.0) * (counts.N2 / counts.n2) if counts.n2 > 0 else 0.0
    level = min(1.0, 1.0 / difficulty) if difficulty > 0 else 0.0
    effort = difficulty * volume
    return {
        30: float(counts.N2),
        31: float(counts.N1),
        32: float(counts.n2),
        33: float(counts.n1),
        34: volume / 3000.0,
        35: difficulty,
        36: effort,
        37: effort / 18.0,
        38: float(N),
        39: level,
        40: float(n),
        41: volume,
    }


def cyclomatic(method: MethodDecl) -> int:
    """Decision points plus one; bodiless methods score 1."""
    return method.decision_points + 1


def _attribute_access(decl: TypeDecl) -> tuple[list[set[str]], list[str]]:
    """Field-access sets for cohesion; constructors count as methods here."""
    methods = decl.constructors + decl.methods
    access = [m.accessed_field_names for m in methods]
    fields = [f.name for f in decl.fields_]
    return access, fields


def lcom_suite(decl: TypeDecl) -> tuple[float, float, float]:
    """Three lack-of-cohesion variants for one class.

    lcom1 = P/(P+Q) over method pairs (P share no field, Q share one or more);
    lcom2 = 1 - sum(mu)/(m*a); lcom3 = (m - sum(mu)/a)/(m-1); each with an
    explicit zero for its degenerate denominator.
    """
    access, fields = _attribute_access(decl)
    m = len(access)
    a = len(fields)
    p = q = 0
    for i in range(m):
        for j in range(i + 1, m):
            if access[i] & access[j]:
                q += 1
            else:
                p += 1
    lcom1 = p / (p + q) if (p + q) > 0 else 0.0
    mu_sum = sum(sum(1 for acc in access if f in acc) for f in fields)
    lcom2 = 1.0 - mu_sum / (m * a) if m * a > 0 else 0.0
    lcom3 = (m - mu_sum / a) / (m - 1) if (m > 1 and a > 0) else 0.0
    return lcom1, lcom2, lcom3


def martin_suite(model: CodeModel, package_name: str) -> tuple[float, int, int, float, float]:
    """(abstractness, Ca, Ce, instability, normalized distance) of a package."""
    if package_name not in model.packages:
        raise ModelError(f"unknown package: {package_name!r}")
    members = model.packages[package_name]
    abstract = sum(1 for q in members if model.type_index[q].is_abstract)
    abstractness = abstract / len(members)
    ca = len(model.afferent.get(package_name, ()))
    ce = len(model.efferent.get(package_name, ()))
    instability = ce / (ca + ce) if (ca + ce) > 0 else 0.0
    distance = abs(abstractness + instability - 1.0)
    return abstractness, ca, ce, instability, distance


def maintainability_index(ave_volume: float, ave_cyclomatic: float, ave_loc: float) -> float:
    """Classic three-term maintainability index, floored at zero."""
    return max(
        0.0,
        171.0
        - 5.2 * math.log(max(1.0, ave_volume))
        - 0.23 * ave_cyclomatic
        - 16.2 * math.log(max(1.0, ave_loc)),
    )


def _method_volume(method: MethodDecl) -> float:
    n_total = sum(method.operator_tokens.values()) + sum(method.operand_tokens.values())
    n_distinct = len(method.operator_tokens) + len(method.operand_tokens)
    return n_total * math.log2(n_distinct) if n_distinct > 0 else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def pooled_halstead(methods: list[MethodDecl]) -> HalsteadCounts:
    operators: Counter = Counter()
    operands: Counter = Counter()
    for m in methods:
        operators.update(m.operator_tokens)
        operands.update(m.operand_tokens)
    return HalsteadCounts(
        N1=sum(operators.values()),
        N2=sum(operands.values()),
        n1=len(operators),
        n2=len(operands),
    )


def compute_file_metrics(model: CodeModel, file_path: str) -> MetricVector:
    """Full 42-value vector for one file.

    Files with no type declarations yield an incomplete (empty) vector, which
    downstream dataset assembly treats as an exclusion.
    """
    unit = next((u for u in model.units if u.file_path == file_path), None)
    if unit is None:
        raise ModelError(f"no such file in model: {file_path}")
    return _unit_metrics(model, unit)


def _unit_metrics(model: CodeModel, unit: CompilationUnit) -> MetricVector:
    vector = MetricVector(file_path=unit.file_path)
    types = unit.types
    if not types:
        return vector

    methods = [m for t in types for m in t.methods]
    ctors = [c for t in types for c in t.constructors]
    n_classes = len(types)
    n_comments = unit.comment_count
    n_fields = sum(len(t.fields_) for t in types)

    v = vector.values
    v[1] = float(n_fields)
    v[2] = n_fields / n_classes
    v[3] = len(ctors) / n_classes
    v[4] = n_comments / n_classes
    v[5] = _mean(m.body_lines for m in methods)
    v[6] = len(methods) / n_classes
    v[7] = _mean(m.parameter_count for m in methods)
    v[8] = float(len(model.packages[unit.package_name]))
    v[9] = unit.code_lines / max(1, n_comments)
    v[10] = float(len(ctors))
    v[11] = float(len(unit.imports))
    v[12] = float(sum(1 for t in types if t.kind == "interface"))
    v[13] = float(unit.code_lines)
    v[14] = float(n_comments)
    v[15] = float(len(methods))
    v[16] = float(sum(m.parameter_count for m in methods))
    v[17] = float(unit.physical_lines)

    abstractness, ca, ce, instability, distance = martin_suite(model, unit.package_name)
    v[18] = abstractness
    v[19] = float(ca)
    v[20] = float(ce)
    v[21] = instability
    v[22] = distance

    all_depths = [d for m in methods + ctors for d in m.block_depths]
    v[23] = _mean(all_depths)
    v[24] = _mean(sum(cyclomatic(m) for m in t.methods) for t in types)
    if methods:
        v[25] = maintainability_index(
            _mean(_method_volume(m) for m in methods),
            _mean(cyclomatic(m) for m in methods),
            _mean(m.body_lines for m in methods),
        )
    else:
        v[25] = 171.0
    v[26] = float(sum(cyclomatic(m) for m in methods))

    lcoms = [lcom_suite(t) for t in types]
    v[27] = _mean(l[0] for l in lcoms)
    v[28] = _mean(l[1] for l in lcoms)
    v[29] = _mean(l[2] for l in lcoms)

    v.update(halstead_suite(pooled_halstead(methods + ctors)))
    v[42] = _mean(model.depth[qualify(unit.package_name, t.name)] for t in types)
    return vector


def compute_all_metrics(model: CodeModel) -> list[MetricVector]:
    """Vectors for every file in the model, ordered by path."""
    return [_unit_metrics(model, unit) for unit in model.units]


def format_value(v: float) -> str:
    """Up to 6 decimal places; integral values print without a decimal point."""
    if v == int(v):
        return str(int(v))
    s = f"{v:.6f}".rstrip("0").rstrip(".")
    return s if s else "0"


def metrics_csv(vectors: list[MetricVector]) -> str:
    """Per-file metric dump: file_path,m1,...,m42 in ID order."""
    header = "file_path," + ",".join(f"m{i}" for i in METRIC_IDS)
    lines = [header]
    for vec in vectors:
        if not vec.complete:
            continue
        lines.append(
            vec.file_path + "," + ",".join(format_value(vec.values[i]) for i in METRIC_IDS)
        )
    return "\n".join(lines) + "\n"


def parse_metrics_csv(text: str) -> dict[str, MetricVector]:
    """Inverse of metrics_csv; returns a file_path -> vector lookup."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    expected = "file_path," + ",".join(f"m{i}" for i in METRIC_IDS)
    if not lines or lines[0] != expected:
        raise DataError("malformed metrics CSV header")
    out: dict[str, MetricVector] = {}
    for rownum, ln in enumerate(lines[1:], start=2):
        cells = ln.split(",")
        if len(cells) != 1 + len(METRIC_IDS):
            raise DataError(f"malformed metrics CSV row {rownum}: {ln!r}")
        path = cells[0]
        try:
            values = {i: float(cells[k]) for k, i in enumerate(METRIC_IDS, start=1)}
        except ValueError as exc:
            raise DataError(f"metrics CSV row {rownum}: {exc}")
        if not all(map(math.isfinite, values.values())):
            raise DataError(f"metrics CSV row {rownum}: non-finite value")
        out[path] = MetricVector(file_path=path, values=values)
    return out
