"""Every `raise` under src/ runs from `cli.main`, or is a listed exemption.

The exit-code contract says that any CLI input ends in exit 0, 1 or 2 and
that exit 3 is kept for invariants. This gate checks it where input enters:
it runs `main` in process over the inputs of `tests/differential.py` --
test_cli.py's usage, path and data error tables, the fixture corpus, the
malformed tree built from test_parser.py's error tables and the quick
planted pipeline -- with `split_map` serial, so an extract error raised for
a file runs here and not in a forked child. Each run must end in 0, 1 or 2,
and each raise not in EXEMPT, which raises `DataError`, `ParseError` or
`UsageError`, must run at least once. A check that no input reaches repeats
one that an outer layer makes; it goes, or becomes an invariant with its
own reason in EXEMPT.

The raises are found with `ast` and named by module and the source text of
their exception, never by line number. A line tracer runs only in the code
objects that hold a raise.
"""

import ast
import os
import sys
from pathlib import Path

import buildmetrics
from buildmetrics.cli import main

SRC = Path(buildmetrics.__file__).parent

# (module, exception class, or None for a bare re-raise): why no input reaches it.
EXEMPT = {
    ("lexer.py", "KeyError"): "the lexer's internal signal for a token with no kind; tokenize reports it as a "
                              "ParseError",
    ("model.py", "BuildMetricsError"): "an invariant: extract hands build_code_model each path once",
    ("parallel.py", None): "split_map re-raises the work's own error after it kills the child",
}


def _raises():
    """(module, exception class or None, source text, path, line) of every raise under src/buildmetrics."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else exc.attr if isinstance(exc, ast.Attribute) else None
                yield path.name, name, ast.unparse(node), str(path), node.lineno


def _traced(run, lines: set):
    """run() with a line tracer on the code objects that hold one of lines, (path, line) pairs; the pairs
    that ran."""
    reached, holds = set(), {}

    def local(frame, event, arg):
        if event == "line" and (frame.f_code.co_filename, frame.f_lineno) in lines:
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code not in holds:
            holds[code] = any((code.co_filename, line) in lines for *_, line in code.co_lines())
        return local if holds[code] else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return reached


def test_every_raise_runs_from_main(tmp_path, monkeypatch, capsys, harness):
    inp = tmp_path / "in"
    runs = harness.plan(inp, quick=True) + harness._error_runs(inp) + [harness._malformed_run(inp)]
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")  # the runs reach their inputs as ../in
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # split_map runs serially
    codes = []

    def run_all():
        for name, argv, _ in runs:
            try:
                codes.append((name, main(argv)))
            except SystemExit as exc:  # --help
                codes.append((name, exc.code))
            capsys.readouterr()

    raises = list(_raises())
    reached = _traced(run_all, {(path, line) for *_, path, line in raises})
    assert [(name, code) for name, code in codes if code not in (0, 1, 2)] == []
    exempt = [(module, name) for module, name, *_ in raises if (module, name) in EXEMPT]
    assert sorted(exempt, key=str) == sorted(EXEMPT, key=str)  # each exemption names exactly one raise
    unreached = [f"{module}: {text}" for module, name, text, path, line in raises
                 if (module, name) not in EXEMPT and (path, line) not in reached]
    assert not unreached, "no input reaches:\n" + "\n".join(unreached)
