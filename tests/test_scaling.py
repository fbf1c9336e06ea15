"""Each case runs one stage on one large input dimension under an absolute
time bound. A bound is at least ten times the stage's linear cost on a
2-vCPU host when its case was added, and the quadratic that the case guards
against takes longer than the bound. The inputs are built in memory, and no
case draws random input.
"""

import io
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from buildmetrics.cli import main
from buildmetrics.dataset import BuildManifest, assemble
from buildmetrics.javaparse import CompilationUnit, MethodDecl, TypeDecl, parse_source
from buildmetrics.lexer import tokenize
from buildmetrics.metrics import compute_all_metrics, lcom_suite
from buildmetrics.model import build_code_model


def _one_type_files(package: str, n: int) -> list[CompilationUnit]:
    return [CompilationUnit(f"{package}/T{i}.java", package, types=[TypeDecl(f"T{i}", "class")]) for i in range(n)]


def files_in_one_package():
    """The package's coupling suite, once per file or once per package."""
    model = build_code_model(_one_type_files("p", 16_000))
    return lambda: compute_all_metrics(model), lambda vectors: len(vectors) == 16_000


def methods_in_one_class():
    """Every pair of methods compared, or each method's fields ORed as bitmasks."""
    fields = [f"f{i}" for i in range(50)]
    methods = [MethodDecl(f"m{i}", accessed_field_names={fields[i % 50], fields[i * 7 % 50]}) for i in range(16_000)]
    decl = TypeDecl("C", "class", field_names=fields, methods=methods)
    return lambda: lcom_suite(decl), lambda lcoms: 0.0 < lcoms[0] < 1.0


def methods_in_shared_access_sets():
    """Each method's fields ORed as bitmasks of one bit per method, or of one block of bits per access set;
    200,000 methods share 50 sets."""
    fields = [f"f{i}" for i in range(50)]
    methods = [MethodDecl(f"m{i}", accessed_field_names={fields[i % 50], fields[i * 7 % 50]})
               for i in range(200_000)]
    decl = TypeDecl("C", "class", field_names=fields, methods=methods)
    return lambda: lcom_suite(decl), lambda lcoms: 0.0 < lcoms[0] < 1.0


def imports_in_one_file():
    """All of a file's imports scanned for each name it references, or one lookup."""
    units = _one_type_files("q", 8000)
    user = TypeDecl("User", "class", referenced_type_names={f"T{i}" for i in range(8000)})
    units.append(CompilationUnit("p/User.java", "p", imports=[f"q.T{i}" for i in range(8000)], types=[user]))
    return lambda: build_code_model(units), lambda model: len(model.dependency_edges) == 8000


def _metric_lookup(n: int) -> dict[str, list[float]]:
    return {f"F{i}.java": [float(i % 7 + m) for m in range(42)] for i in range(n)}


def manifests_in_one_dataset():
    """The metric lookup scanned once per build, or each file found by key."""
    lookup = _metric_lookup(16_000)
    manifests = [BuildManifest(f"b{i:05}", "nightly", ("success", "failed")[i % 2], [f"F{i}.java"])
                 for i in range(16_000)]
    return lambda: assemble(manifests, lookup, "sum"), lambda result: len(result[0].rows) == 16_000


def files_in_one_manifest():
    """Each of the build's files found by a scan of the metric lookup, or by key."""
    lookup = _metric_lookup(16_000)
    manifest = BuildManifest("b", "nightly", "failed", list(lookup))
    return lambda: assemble([manifest], lookup, "average"), lambda result: len(result[0].rows) == 1


def rows_in_one_selection_report():
    """freq's rows grouped into runs by a scan of the runs so far, or by key; 4000 runs of 40 metrics each."""
    directory = tempfile.TemporaryDirectory()
    report = Path(directory.name) / "selection.csv"
    report.write_text("dataset_id,algorithm,metric_id,rank_or_member,score\n" + "".join(
        f"d{r // 2},{('cfs', 'infogain')[r % 2]},{k + 1},{k + 1},\n" for r in range(4000) for k in range(40)))

    def run():
        with directory, redirect_stdout(io.StringIO()) as out:
            return main(["freq", str(report), "--threshold", "4000"]), out.getvalue()
    return run, lambda result: result == (0, " ".join(map(str, range(1, 41))) + "\n")


def _parsed_exactly(source: str, code: list[str], comments: int, fields: list[str]):
    """parse_source on source, and a check that its code tokens are code, no text from inside a
    comment among them, and that it counted comments comments."""
    def check(unit):
        (decl,) = unit.types
        return (tokenize(source).texts == code and decl.field_names == fields
                and unit.comment_count == comments)
    return lambda: parse_source(source, "A.java"), check


def comments_between_tokens():
    """Each comment between two code tokens taken once, or scanned again from inside it."""
    fields = [f"f{i}" for i in range(10_000)]
    code = ["class", "A", "{", *(t for name in fields for t in ("int", name, ";")), "}"]
    return _parsed_exactly("/* c // */".join(code) + "/**/", code, len(code), fields)


def comment_lines_after_a_class():
    """The trailing run of comments and blank lines taken by one match, or the scan started again
    inside it."""
    return _parsed_exactly("class A { int a; }\n" + "// c\n\n" * 25_000, ["class", "A", "{", "int", "a", ";", "}"],
                           25_000, ["a"])


def tokens_after_a_literal_that_holds_a_line_end():
    """The lines of the 50,000 tokens after a literal that holds a line end counted once, in one running
    sum over tokens and runs, or again for each token."""
    source = '"a\\\nb"' + "\n        x" * 50_000
    return lambda: tokenize(source), lambda tokens: (len(tokens.texts), tokens.lines[-1]) == (50_001, 50_002)


def nested_sections():
    """A static initializer's braces, an annotation's arguments and a field type's generics, each 16,000 deep,
    skipped by counting levels, not by a call per level; the run of '>' lexes as '>>>' tokens and one '>'."""
    n = 16_000
    source = ("class A { static " + "{" * n + "}" * n + " @X" + "(" * n + ")" * n
              + " " + "List<" * n + "X" + ">" * n + " f; }")
    return lambda: parse_source(source, "A.java"), lambda unit: unit.types[0].field_names == ["f"]


@pytest.mark.parametrize("case, bound", [
    (files_in_one_package, 7.0),
    (methods_in_one_class, 1.5),
    (methods_in_shared_access_sets, 1.0),
    (imports_in_one_file, 2.0),
    (manifests_in_one_dataset, 3.0),
    (files_in_one_manifest, 1.0),
    (rows_in_one_selection_report, 3.0),
    (comments_between_tokens, 1.5),
    (comment_lines_after_a_class, 1.0),
    (tokens_after_a_literal_that_holds_a_line_end, 1.0),
    (nested_sections, 1.0),
], ids=["files_in_one_package", "methods_in_one_class", "methods_in_shared_access_sets", "imports_in_one_file",
        "manifests_in_one_dataset", "files_in_one_manifest", "rows_in_one_selection_report",
        "comments_between_tokens", "comment_lines_after_a_class", "tokens_after_a_literal_that_holds_a_line_end",
        "nested_sections"])
def test_stage_is_linear_in_one_dimension(case, bound):
    run, check = case()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    assert check(result)
    assert elapsed < bound, f"{case.__name__}: {elapsed:.2f} s"
