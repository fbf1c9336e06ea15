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
Metrics 8, 18-22 and 42 come from the corpus model; the other 35, LOCAL_IDS,
read one file alone, so extract computes them where it parsed the file.
"""

from __future__ import annotations  # javaparse's and model's types, named in annotations only, stay unloaded

import math
import re
from collections import Counter
from functools import reduce
from itertools import chain
from operator import or_

from .errors import DataError

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
PACKAGE_IDS = (8, 18, 19, 20, 21, 22)
LOCAL_IDS = tuple(i for i in METRIC_IDS if i not in (*PACKAGE_IDS, 42))


def halstead_suite(N1: int, N2: int, n1: int, n2: int) -> dict[int, float]:
    """Halstead metric family (IDs 30-41) from total operators N1, total
    operands N2, distinct operators n1 and distinct operands n2.

    Degenerate counts take their defined limits: an all-zero program scores
    zero on every metric, and program level is clamped to at most 1.
    """
    N = N1 + N2
    n = n1 + n2
    volume = N * math.log2(n) if n > 0 else 0.0
    difficulty = (n1 / 2.0) * (N2 / n2) if n2 > 0 else 0.0
    level = min(1.0, 1.0 / difficulty) if difficulty > 0 else 0.0
    effort = difficulty * volume
    return {
        30: float(N2),
        31: float(N1),
        32: float(n2),
        33: float(n1),
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


def lcom_suite(decl: TypeDecl) -> tuple[float, float, float]:
    """Three lack-of-cohesion variants for one class.

    lcom1 = P/(P+Q) over method pairs (P share no field, Q share one or more);
    lcom2 = 1 - sum(mu)/(m*a); lcom3 = (m - sum(mu)/a)/(m-1); each with an
    explicit zero for its degenerate denominator. Constructors count as
    methods here.
    """
    access = [m.accessed_field_names for m in decl.constructors + decl.methods]
    groups = Counter(map(frozenset, access))  # the methods by their access set
    masks: dict[str, int] = {}  # an accessed name -> one bit for each method that accesses it
    low = 0
    for names, c in groups.items():  # a group's c methods take c adjacent bits
        for name in names:
            masks[name] = masks.get(name, 0) | ((1 << c) - 1) << low
        low += c
    m, a = len(access), len(decl.field_names)
    pairs = m * (m - 1) // 2
    # A method's sharers, itself included, are the union of its group's names' masks; each pair counts twice.
    q = sum(c * (reduce(or_, map(masks.__getitem__, names)).bit_count() - 1)
            for names, c in groups.items() if names) // 2
    lcom1 = (pairs - q) / pairs if pairs else 0.0
    mu_sum = sum(masks.get(f, 0).bit_count() for f in decl.field_names)
    lcom2 = 1.0 - mu_sum / (m * a) if m * a > 0 else 0.0
    lcom3 = (m - mu_sum / a) / (m - 1) if (m > 1 and a > 0) else 0.0
    return lcom1, lcom2, lcom3


def martin_suite(model: CodeModel, package_name: str) -> tuple[float, int, int, float, float]:
    """(abstractness, Ca, Ce, instability, normalized distance) of a package."""
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


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _halstead(operators: dict[str, int], operands: dict[str, int]) -> dict[int, float]:
    """The Halstead suite of one operator tally and one operand tally."""
    return halstead_suite(sum(operators.values()), sum(operands.values()), len(operators), len(operands))


def local_metrics(unit: CompilationUnit) -> list[float]:
    """The values of LOCAL_IDS, in that order, for a file that declares a type."""
    types = unit.types
    methods = [m for t in types for m in t.methods]
    ctors = [c for t in types for c in t.constructors]
    n_classes = len(types)
    n_comments = unit.comment_count
    n_fields = sum(len(t.field_names) for t in types)

    v: dict[int, float] = {}
    v[1] = float(n_fields)
    v[2] = n_fields / n_classes
    v[3] = len(ctors) / n_classes
    v[4] = n_comments / n_classes
    v[5] = _mean(m.body_lines for m in methods)
    v[6] = len(methods) / n_classes
    v[7] = _mean(m.parameter_count for m in methods)
    v[9] = unit.code_lines / max(1, n_comments)
    v[10] = float(len(ctors))
    v[11] = float(len(unit.imports))
    v[12] = float(sum(1 for t in types if t.kind == "interface"))
    v[13] = float(unit.code_lines)
    v[14] = float(n_comments)
    v[15] = float(len(methods))
    v[16] = float(sum(m.parameter_count for m in methods))
    v[17] = float(unit.physical_lines)

    v[23] = _mean(d for m in methods + ctors for d in m.block_depths)
    v[24] = _mean(sum(cyclomatic(m) for m in t.methods) for t in types)
    v[26] = float(sum(cyclomatic(m) for m in methods))
    v[25] = maintainability_index(_mean(_halstead(m.operator_tokens, m.operand_tokens)[41] for m in methods),
                                  _mean(cyclomatic(m) for m in methods), v[5])

    v[27], v[28], v[29] = map(_mean, zip(*map(lcom_suite, types)))

    # The file pools its bodies' tallies: the totals add up, and the distinct tokens are their keys' union.
    bodies = methods + ctors
    operators, operands = [m.operator_tokens for m in bodies], [m.operand_tokens for m in bodies]
    v.update(halstead_suite(sum(map(sum, map(dict.values, operators))), sum(map(sum, map(dict.values, operands))),
                            len(set().union(*operators)), len(set().union(*operands))))
    return [v[i] for i in LOCAL_IDS]


def compute_all_metrics(model: CodeModel, local: dict[str, list[float]] | None = None) -> dict[str, list[float]]:
    """Each file's metric vector, its 42 values in METRIC_IDS order, keyed by
    path in path order. A file that declares no type has no vector. local maps
    a path to its local_metrics; without it they are computed from model.units."""
    from .model import qualify  # here, not at the top, so that only extract loads model
    suites = {package: (len(members), *martin_suite(model, package)) for package, members in model.packages.items()}
    vectors = {}
    for unit in model.units:
        if unit.types:
            v = dict(zip(LOCAL_IDS, local_metrics(unit) if local is None else local[unit.file_path]))
            v.update(zip(PACKAGE_IDS, map(float, suites[unit.package_name])))
            v[42] = _mean(model.depth[qualify(unit.package_name, t.name)] for t in unit.types)
            vectors[unit.file_path] = [v[i] for i in METRIC_IDS]
    return vectors


def format_value(v: float, digits: int | None = 6) -> str:
    """Up to `digits` decimal places, or with digits=None the shortest form
    that reads back exactly; integral values print without a decimal point."""
    if v == int(v):
        return str(int(v))
    return repr(v) if digits is None else ("%.*f" % (digits, v)).rstrip("0").rstrip(".")


_HEADER = ["file_path"] + [f"m{i}" for i in METRIC_IDS]

# The CSV artifacts hold each path or build ID as one unquoted UTF-8 cell. A
# surrogate is what a file name's undecodable byte becomes, and UTF-8 cannot
# encode it.
UNSTORABLE = re.compile("[,\r\n\ud800-\udfff]")


def table_text(header: list[str], rows) -> str:
    """The text of a CSV artifact: the header and each row of cells, one line
    each. No cell is quoted, so none may hold a comma or a line break."""
    return "\n".join(map(",".join, chain([header], rows))) + "\n"


def table_rows(text: str, what: str):
    """The header cells of a CSV artifact, and an iterator over its rows as
    (row number, cells) that checks each row is as wide as the header. Blank
    lines are skipped. Rows end at LF alone, so a cell may hold U+2028 or
    another character that str.splitlines breaks at."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise DataError(f"{what} has no header")
    header = lines[0].split(",")

    def rows():
        for rownum, ln in enumerate(lines[1:], start=2):
            cells = ln.split(",")
            if len(cells) != len(header):
                raise DataError(f"{what} row {rownum}: expected {len(header)} cells, got {len(cells)}")
            yield rownum, cells
    return header, rows()


def finite_floats(cells: list[str], what: str, rownum: int) -> list[float]:
    """A row's cells as floats; NaN would break the sort order that
    discretization and tree growth rely on, and no metric is infinite."""
    try:
        values = list(map(float, cells))
    except ValueError as exc:
        raise DataError(f"{what} row {rownum}: {exc}")
    if not all(map(math.isfinite, values)):
        raise DataError(f"{what} row {rownum}: non-finite value")
    return values


def metrics_csv(vectors: dict[str, list[float]]) -> str:
    """Per-file metric dump: file_path,m1,...,m42 in ID order."""
    return table_text(_HEADER, ([path, *map(format_value, values)] for path, values in vectors.items()))


def parse_metrics_csv(text: str) -> dict[str, list[float]]:
    """Inverse of metrics_csv; returns a file_path -> vector lookup."""
    header, rows = table_rows(text, "metrics CSV")
    if header != _HEADER:
        raise DataError("malformed metrics CSV header")
    out: dict[str, list[float]] = {}
    for rownum, (path, *cells) in rows:
        if path in out:
            raise DataError(f"metrics CSV row {rownum}: repeated file path {path!r}")
        out[path] = finite_floats(cells, "metrics CSV", rownum)
    return out
