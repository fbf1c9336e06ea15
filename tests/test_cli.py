import errno
import io
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from buildmetrics import dataset as ds
from buildmetrics import cli, featsel, javaparse, metrics, model, tree
from buildmetrics.errors import BuildMetricsError, DataError, ParseError
from buildmetrics.cli import main

from conftest import CORPUS, assert_no_child_left, by_id
from synth import generate_corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    src, manifests = generate_corpus(root, n_success=12, n_failed=12, seed=7)
    return root, src, manifests


@pytest.fixture(scope="module")
def extracted(synth_root, tmp_path_factory):
    root, src, manifests = synth_root
    out = tmp_path_factory.mktemp("extracted")
    assert main(["extract", str(src), "--out", str(out)]) == 0
    return out / "metrics.csv"


# -- extract -----------------------------------------------------------------


def test_extract_fixture_corpus(tmp_path, capsys):
    code, out, err = run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "metrics.csv").read_text()
    assert len(text.strip().splitlines()) == 1 + 11
    assert (tmp_path / "extract_exclusions.log").read_text() == ""


def test_extract_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(capsys, "extract", str(CORPUS), "--out", str(out1))[0] == 0
    assert run(capsys, "extract", str(CORPUS), "--out", str(out2))[0] == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_extract_logs_broken_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "Good1.java").write_text("package p; class Good1 { int a; }")
    (src / "Good2.java").write_text("package p; class Good2 { int b; }")
    (src / "Broken.java").write_text('package p; class Broken { String s = "oops; }')
    out = tmp_path / "out"
    code, _, _ = run(capsys, "extract", str(src), "--out", str(out))
    assert code == 0
    rows = (out / "metrics.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2
    log = (out / "extract_exclusions.log").read_text()
    assert "Broken.java" in log


@pytest.mark.parametrize(
    "name, content, reason",
    [
        pytest.param("p/B.java", b'package p; class B { String s = "caf\xe9"; }',
                     "not valid UTF-8", id="non-utf8"),
        pytest.param("p/A,B.java", b"package p; class C { int c; }", "comma", id="comma-in-path"),
    ],
)
def test_extract_excludes_unstorable_file(tmp_path, capsys, name, content, reason):
    src = tmp_path / "src"
    (src / "p").mkdir(parents=True)
    (src / "p" / "A.java").write_text("package p; class A { int a; }")
    (src / name).write_bytes(content)
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log.startswith(name + ": ") and reason in log and len(log.splitlines()) == 1
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


def test_extract_excludes_undecodable_file_name(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "B.java").write_text("class B { int b; }")
    try:
        (src / "\udcff.java").write_bytes(b"class C { int c; }")  # the name's bytes: ff .java
    except (OSError, UnicodeEncodeError):
        pytest.skip("the file system refuses a name that is not UTF-8")
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text(encoding="utf-8")
    assert log.startswith("\\xff.java: ") and len(log.splitlines()) == 1
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"B.java"}


def test_extract_excludes_truncated_file(tmp_path, capsys):
    src = tmp_path / "src"
    (src / "p").mkdir(parents=True)
    (src / "p" / "A.java").write_text("package p; class A { int a; }")
    (src / "p" / "B.java").write_text("package p; class B extends")
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log == "p/B.java: unexpected end of file\n"
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


def test_extract_logs_dangling_and_looping_links(tmp_path, capsys):
    src = tmp_path / "src"
    (src / "p" / "D.java").mkdir(parents=True)  # a directory named like a source file is no file
    (src / "p" / "A.java").write_text("package p; class A { int a; }")
    try:
        (src / "p" / "B.java").symlink_to("Gone.java")
        (src / "p" / "loop.java").symlink_to("loop.java")
    except OSError:
        pytest.skip("the file system refuses symbolic links")
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log == (f"p/B.java: cannot read: {os.strerror(errno.ENOENT)}\n"
                   f"p/loop.java: cannot read: {os.strerror(errno.ELOOP)}\n")
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


def test_extract_skips_a_fifo_without_opening_it(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_text("class A { int a; }")
    (tmp_path / "B.java").write_text("class B { int b; }")
    try:
        os.mkfifo(src / "F.java")  # opening it to read would block until a writer came
        (src / "L.java").symlink_to(tmp_path / "B.java")
    except (AttributeError, OSError):
        pytest.skip("the file system refuses a FIFO or a symbolic link")
    # The walk reads each entry's type from the listing and keeps a link to a file; it must
    # not list the FIFO, or the extract below would block reading it.
    assert cli._java_files(src) == [src / "A.java", src / "L.java"]
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "extract_exclusions.log").read_text() == ""
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"A.java", "L.java"}


def test_extract_skips_a_directory_it_cannot_list(monkeypatch, tmp_path, capsys):
    src = tmp_path / "src"
    for name in ("p/A.java", "locked/B.java", "locked/q/C.java"):
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text(f"package p; class {Path(name).stem} {{ int a; }}")
    refused = []
    scandir = os.scandir

    def refusing_scandir(path):
        if Path(path) == src / "locked":
            refused.append(path)
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        return scandir(path)

    # chmod cannot lock a directory against a superuser, so the listing itself is refused.
    monkeypatch.setattr(os, "scandir", refusing_scandir)
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert (code, err, len(refused)) == (0, "", 1)
    assert (tmp_path / "out" / "extract_exclusions.log").read_text() == ""
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/A.java"}


@pytest.mark.parametrize(
    "files, excluded",
    [
        pytest.param({"p/A1.java": "package p; class A {}", "p/A2.java": "package p; class A {}"},
                     {"p/A1.java": "duplicate type p.A declared in p/A1.java and p/A2.java",
                      "p/A2.java": "duplicate type p.A declared in p/A1.java and p/A2.java"},
                     id="duplicate-type"),
        pytest.param({"p/D.java": "package p; class D {} class D {}"},
                     {"p/D.java": "duplicate type p.D declared in p/D.java and p/D.java"},
                     id="duplicate-in-one-file"),
        pytest.param({"p/A.java": "package p; class A extends B {}",
                      "p/B.java": "package p; class B extends A {}",
                      "q/C.java": "package q; import p.A; class C extends A {}"},
                     {"p/A.java": "inheritance cycle: p.A -> p.B -> p.A",
                      "p/B.java": "inheritance cycle: p.B -> p.A -> p.B",
                      "q/C.java": "inheritance cycle: q.C -> p.A -> p.B -> p.A"},
                     id="cycle"),
        pytest.param({"p/S.java": "package p; class S extends S {}"},
                     {"p/S.java": "inheritance cycle: p.S extends itself"}, id="self-extends"),
        # Once p/A.java is left out, p.Z extends the default-package B, which extends p.Z.
        pytest.param({"p/A.java": "package p; class A extends A {} class B {}",
                      "p/Z.java": "package p; class Z extends B {}",
                      "B.java": "class B extends p.Z {}"},
                     {"B.java": "inheritance cycle: B -> p.Z -> B",
                      "p/A.java": "inheritance cycle: p.A extends itself",
                      "p/Z.java": "inheritance cycle: p.Z -> B -> p.Z"},
                     id="cycle-after-leaving-out"),
    ],
)
def test_extract_excludes_type_conflicts(tmp_path, capsys, files, excluded):
    src = tmp_path / "src"
    for name, text in {"p/Good.java": "package p; class Good extends Base {}",
                       "p/Base.java": "package p; class Base { int a; }", **files}.items():
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        (src / name).write_text(text)
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    log = (tmp_path / "out" / "extract_exclusions.log").read_text()
    assert log == "".join(f"{path}: {reason}\n" for path, reason in sorted(excluded.items()))
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert set(lookup) == {"p/Base.java", "p/Good.java"}
    assert by_id(lookup["p/Good.java"])[42] == 1.0  # depth of inheritance


def test_extract_long_extends_chain(tmp_path, capsys):
    src = tmp_path / "src" / "p"
    src.mkdir(parents=True)
    (src / "C0.java").write_text("package p; class C0 { }")
    for i in range(1, 1100):
        (src / f"C{i}.java").write_text(f"package p; class C{i} extends C{i - 1} {{ }}")
    code, _, err = run(capsys, "extract", str(tmp_path / "src"), "--out", str(tmp_path / "out"))
    assert code == 0, err
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    assert len(lookup) == 1100
    assert by_id(lookup["p/C1099.java"])[42] == 1099.0


def test_extract_reads_a_tree_of_any_depth(tmp_path, capsys):
    # pathlib's rglob, os.makedirs and shutil.rmtree each recurse once per level: at this
    # depth all three raise RecursionError, so the tree is made and removed level by level.
    levels = [tmp_path / "src"]
    for _ in range(1100):
        levels.append(levels[-1] / "d")
    try:
        for level in levels:
            level.mkdir()
        (levels[-1] / "A.java").write_text("class A { int a; }")
        code, _, err = run(capsys, "extract", str(levels[0]), "--out", str(tmp_path / "out"))
        assert code == 0 and "Traceback" not in err, err
        lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
        assert list(lookup) == ["d/" * 1100 + "A.java"]
    finally:
        (levels[-1] / "A.java").unlink(missing_ok=True)
        for level in reversed(levels):
            if level.exists():
                level.rmdir()


def _extract_one(tmp_path, capsys, name, text):
    """Run extract on a tree holding one file; return the exit code, stderr,
    metrics by path and the exclusion log."""
    (tmp_path / "src" / name).parent.mkdir(parents=True)
    (tmp_path / "src" / name).write_text(text, encoding="utf-8")
    code, _, err = run(capsys, "extract", str(tmp_path / "src"), "--out", str(tmp_path / "out"))
    if code != 0:
        return code, err, {}, ""
    lookup = metrics.parse_metrics_csv((tmp_path / "out" / "metrics.csv").read_text())
    return code, err, lookup, (tmp_path / "out" / "extract_exclusions.log").read_text()


def test_extract_reads_a_form_feed_as_white_space(tmp_path, capsys):
    code, err, lookup, log = _extract_one(tmp_path, capsys, "p/B.java", "package p;\fclass B { }")
    assert (code, err, list(lookup), log) == (0, "", ["p/B.java"], "")


def test_extract_counts_lines_at_jls_line_ends_only(tmp_path, capsys):
    # U+2028 is no Java line end, though str.splitlines splits at it.
    text = "package p;\n// a\u2028b\x0bc\x1cd\x85e\nclass A { }\n"
    code, err, lookup, log = _extract_one(tmp_path, capsys, "p/A.java", text)
    assert (code, err, log) == (0, "", "")
    assert by_id(lookup["p/A.java"])[17] == 3.0


def test_extract_ignores_a_last_sub(tmp_path, capsys):
    # JLS 3.5: a SUB (control-Z) that ends the file is no character of it; m17 leaves its line out.
    code, err, lookup, log = _extract_one(tmp_path, capsys, "p/A.java", "package p;\nclass A { }\n\x1a")
    assert (code, err, log) == (0, "", "")
    assert by_id(lookup["p/A.java"])[17] == 2.0


def test_extract_accounts_for_every_file_once(tmp_path, capsys):
    src = tmp_path / "src"
    files = {
        "p/Good.java": "package p; class Good extends Base { }",
        "p/Base.java": "package p; class Base { int a; }",
        "p/U\u2028.java": "package p; class U { }",  # storable: rows end at LF alone
        "p/Broken.java": "package p; class Broken extends",
        "p/Latin.java": b'package p; class Latin { String s = "caf\xe9"; }',
        "p/NoType.java": "package p;",
        "p/A1.java": "package p; class A { }",
        "p/A2.java": "package p; class A { }",
        "p/Cycle.java": "package p; class Cycle extends Cycle { }",
        "p/x,y.java": "package p; class Comma { }",
        "p/x\ny.java": "package p; class Lf { }",
        "p/x\ry.java": "package p; class Cr { }",
        "p/\udcff.java": "package p; class Byte { }",
    }
    stored = ["p/Base.java", "p/Good.java", "p/U\u2028.java"]
    logged = ["p/A1.java", "p/A2.java", "p/Broken.java", "p/Cycle.java", "p/Latin.java",
              "p/NoType.java", "p/x,y.java", "p/x\\ny.java", "p/x\\ry.java", "p/\\xff.java"]
    (src / "p").mkdir(parents=True)
    for name, text in files.items():
        try:
            (src / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        except (OSError, UnicodeEncodeError):  # a file system may refuse a name that is not UTF-8
            assert name == "p/\udcff.java", name
            logged.remove("p/\\xff.java")
    found = [p for p in src.rglob("*.java") if p.is_file()]
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "out"))
    assert code == 0, err
    rows = (tmp_path / "out" / "metrics.csv").read_bytes().decode().split("\n")[1:-1]
    log = (tmp_path / "out" / "extract_exclusions.log").read_bytes().decode().split("\n")[:-1]
    assert len(rows) + len(log) == len(found) == len(stored) + len(logged)
    assert sorted(row.split(",")[0] for row in rows) == stored
    assert sorted(line.split(": ")[0] for line in log) == sorted(logged)


@pytest.mark.parametrize("template", [
    "package p; class A extends {} {{ }}",
    "package p; class A {{ void m() {{ new {}(); }} }}",
])
def test_extract_long_dotted_names_end_cleanly(tmp_path, capsys, template):
    code, err, lookup, _ = _extract_one(tmp_path, capsys, "p/A.java", template.format(".".join(["a"] * 5000)))
    assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err
    assert code == 2 or list(lookup) == ["p/A.java"]


def test_extract_empty_tree_usage_error(tmp_path, capsys):
    src = tmp_path / "empty"
    src.mkdir()
    code, _, err = run(capsys, "extract", str(src), "--out", str(tmp_path / "o"))
    assert code == 1
    assert "error" in err


def test_extract_refuses_overwrite(tmp_path, capsys):
    assert run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))[0] == 0
    code, _, err = run(capsys, "extract", str(CORPUS), "--out", str(tmp_path))
    assert code == 1 and "--force" in err
    assert run(capsys, "extract", str(CORPUS), "--out", str(tmp_path), "--force")[0] == 0


def test_extract_deeply_nested_types_end_cleanly(tmp_path, capsys):
    depth = 2000
    text = "package p; " + "".join(f"class A{i} {{ " for i in range(depth)) + "}" * depth
    code, err, lookup, log = _extract_one(tmp_path, capsys, "p/A0.java", text)
    assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err
    assert code == 2 or (list(lookup), log) == (["p/A0.java"], "")


def test_a_path_holding_u2028_runs_through_every_stage(tmp_path, capsys):
    # str.splitlines breaks at U+2028; the artifacts' rows end at LF alone.
    odd = "p/A\u2028x.java"
    src = tmp_path / "src"
    (src / "p").mkdir(parents=True)
    (src / odd).write_text("package p; class A { int a; void m() { if (a > 0) a--; } }")
    (src / "p/B.java").write_text("package p; class B { int b; }")
    assert run(capsys, "extract", str(src), "--out", str(tmp_path / "x"))[0] == 0
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    for i in range(8):
        files = [odd, "p/B.java"] if i % 2 else ["p/B.java"]
        (mdir / f"b{i}.json").write_text(json.dumps(
            {"build_id": f"b{i}", "kind": "nightly", "result": ("success", "failed")[i % 2], "files": files}))
    code, _, err = run(capsys, "dataset", str(mdir), str(tmp_path / "x" / "metrics.csv"),
                       "--strategy", "sum", "--out", str(tmp_path / "d"))
    assert code == 0, err
    assert run(capsys, "select", str(tmp_path / "d" / "3.csv"), "--out", str(tmp_path / "s"))[0] == 0
    code, _, err = run(capsys, "evaluate", str(tmp_path / "d" / "3.csv"), "--folds", "2",
                       "--out", str(tmp_path / "e"))
    assert code == 0, err
    assert metrics.parse_metrics_csv((tmp_path / "x" / "metrics.csv").read_text()).keys() == {odd, "p/B.java"}


# -- extract's files split over two processes ---------------------------------------


def _split_corpus(root):
    """Files whose exclusions fall at both even and odd positions in path
    order; returns the names the exclusion log should give, in its order."""
    files = {
        "a/A.java": "package a; class A { }",
        "a/Bad.java": "package a; class Bad extends",  # 1: does not parse
        "a/Dup1.java": "package a; class D { int x; }",  # 2 and 3: a duplicate type
        "a/Dup2.java": "package a; class D { }",
        "a/Empty.java": "package a;",  # 4: no type
        "a/I,J.java": "package a; class IJ { }",  # 5: a comma in the name
        "a/Z.java": "package a; class Z {",  # 6: does not parse
        **{f"b/C{i}.java": f"package b; class C{i} extends C{i - 1} {{ int f; void m() {{ f = {i}; }} }}"
           for i in range(1, 9)},
        "b/C0.java": "package b; class C0 { }",
    }
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    parsed_out = ["a/Bad.java", "a/I,J.java", "a/Z.java"]
    try:
        (root / "b" / "\udcff.java").write_bytes(b"class U { }")  # 16: a name that is not UTF-8
        parsed_out.append("b/\\xff.java")
    except (OSError, UnicodeEncodeError):
        pass
    return parsed_out + ["a/Dup1.java", "a/Dup2.java", "a/Empty.java"]


def _extract_artifacts(capsys, src, out):
    """extract's stdout, metrics.csv and exclusion log."""
    code, stdout, err = run(capsys, "extract", str(src), "--out", str(out))
    assert code == 0, err
    return stdout.replace(str(out), "OUT"), (out / "metrics.csv").read_bytes(), \
        (out / "extract_exclusions.log").read_bytes()


def _serial_artifacts(monkeypatch, capsys, src, out):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return _extract_artifacts(capsys, src, out)


def test_split_extract_merges_in_path_order(monkeypatch, capsys, tmp_path, forks):
    logged = _split_corpus(tmp_path / "src")
    forked = _extract_artifacts(capsys, tmp_path / "src", tmp_path / "forked")
    assert forks == [os.getpid()]
    assert_no_child_left()
    assert [line.split(": ")[0] for line in forked[2].decode().splitlines()] == logged
    assert forked == _serial_artifacts(monkeypatch, capsys, tmp_path / "src", tmp_path / "serial")
    assert len(forks) == 1


def test_split_extract_parses_half_the_files_here(monkeypatch, capsys, tmp_path, forks):
    # Counted, not timed: the child's calls stay in the child.
    parsed_here = []
    parse = javaparse.parse_source

    def counting_parse(text, path):
        parsed_here.append(path)
        return parse(text, path)

    monkeypatch.setattr(javaparse, "parse_source", counting_parse)
    paths = sorted(p.relative_to(CORPUS).as_posix() for p in CORPUS.rglob("*.java"))
    _extract_artifacts(capsys, CORPUS, tmp_path / "out")
    assert len(forks) == 1
    assert parsed_here == paths[::2] and len(parsed_here) == (len(paths) + 1) // 2


def test_split_extract_sends_back_no_method(monkeypatch, capsys, tmp_path, forks):
    # The methods and their tallies stay in the process that parsed them; a
    # skeleton of each unit and its local metrics come back.
    _split_corpus(tmp_path / "src")
    returned = []
    split_map = cli.split_map

    def recording_split_map(work, items):
        returned.extend(split_map(work, items))
        return returned

    monkeypatch.setattr(cli, "split_map", recording_split_map)
    _extract_artifacts(capsys, tmp_path / "src", tmp_path / "out")
    assert forks == [os.getpid()]
    sent = pickle.dumps(returned)
    assert b"MethodDecl" not in sent and b"Counter" not in sent
    assert sum(isinstance(item, tuple) and item[0].types != [] for item in returned[1::2]) >= 5


def _raise():
    raise RuntimeError("child failed")


@pytest.mark.parametrize("failure", ["raises", "killed", "garbage"])
def test_split_extract_survives_a_failed_child(monkeypatch, capsys, tmp_path, forks, failure):
    _split_corpus(tmp_path / "src")
    expected = _serial_artifacts(monkeypatch, capsys, tmp_path / "src", tmp_path / "serial")
    parent = os.getpid()
    if failure == "garbage":
        monkeypatch.setattr(pickle, "dump", lambda obj, f: f.write(b"\x80\x05not a pickle"))
    else:
        action = _raise if failure == "raises" else lambda: os.kill(os.getpid(), signal.SIGKILL)
        parse = javaparse.parse_source

        def failing_in_child(text, path):
            if os.getpid() != parent:
                action()
            return parse(text, path)

        monkeypatch.setattr(javaparse, "parse_source", failing_in_child)
    assert _extract_artifacts(capsys, tmp_path / "src", tmp_path / "forked") == expected
    assert forks == [parent]
    assert_no_child_left()


def test_extract_of_one_file_does_not_fork(capsys, tmp_path, forks):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "A.java").write_text("class A { }")
    _extract_artifacts(capsys, tmp_path / "src", tmp_path / "out")
    assert forks == []


def _recorded_pipes(monkeypatch):
    """The file descriptors of every os.pipe made from now on."""
    pipes = []
    real_pipe = os.pipe

    def recording_pipe():
        pipes.extend(real_pipe())
        return pipes[-2:]

    monkeypatch.setattr(os, "pipe", recording_pipe)
    return pipes


def _assert_closed(fds):
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_split_extract_runs_here_when_fork_fails(monkeypatch, capsys, tmp_path):
    _split_corpus(tmp_path / "src")
    expected = _serial_artifacts(monkeypatch, capsys, tmp_path / "src", tmp_path / "serial")
    pipes = _recorded_pipes(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda: _raise_os_error())
    assert _extract_artifacts(capsys, tmp_path / "src", tmp_path / "forked") == expected
    assert len(pipes) == 2
    _assert_closed(pipes)


def _raise_os_error():
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


def test_no_child_outlives_a_failure_here(monkeypatch, capsys, tmp_path, forks):
    # The child's result is larger than a pipe's buffer, so it blocks writing
    # until the pipe is read or it is killed.
    _split_corpus(tmp_path / "src")
    parent = os.getpid()
    pipes = _recorded_pipes(monkeypatch)

    def parse_file(root, path):
        if os.getpid() == parent:
            raise RuntimeError("failed here")
        return "x" * 1_000_000

    monkeypatch.setattr(cli, "_parse_file", parse_file)
    with pytest.raises(RuntimeError, match="failed here"):
        main(["extract", str(tmp_path / "src"), "--out", str(tmp_path / "out")])
    assert forks == [parent]
    assert_no_child_left()
    assert len(pipes) == 2
    _assert_closed(pipes)


# -- dataset ------------------------------------------------------------------


def test_dataset_naming_and_exclusions(synth_root, extracted, tmp_path, capsys):
    _, _, manifests = synth_root
    code, out_text, _ = run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "max", "--filter", "c", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "2c.csv").exists()
    assert (tmp_path / "2c_exclusions.log").exists()
    data = ds.read_csv((tmp_path / "2c.csv").read_text())
    assert data.dataset_id == "2c"
    assert data.feature_ids == list(range(30, 43))
    assert len(data.rows) == 24


def test_dataset_average_full_name(synth_root, extracted, tmp_path, capsys):
    _, _, manifests = synth_root
    code, _, _ = run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "1.csv").exists()


def test_dataset_empty_manifest_dir(extracted, tmp_path, capsys):
    empty = tmp_path / "manifests"
    empty.mkdir()
    code, _, _ = run(
        capsys, "dataset", str(empty), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 1


def test_dataset_nothing_retained_is_data_error(extracted, tmp_path, capsys):
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    (mdir / "w.json").write_text(json.dumps({
        "build_id": "w1", "kind": "continuous", "result": "warning",
        "files": ["b000/Signal.java"],
    }))
    code, _, _ = run(
        capsys, "dataset", str(mdir), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 2


def test_dataset_excludes_empty_file_list(extracted, tmp_path, capsys):
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    for bid, files in (("a", ["b000/Signal.java"]), ("b", [])):
        (mdir / f"{bid}.json").write_text(json.dumps({
            "build_id": bid, "kind": "continuous", "result": "success", "files": files,
        }))
    code, _, err = run(
        capsys, "dataset", str(mdir), str(extracted),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 0, err
    assert (tmp_path / "o" / "1_exclusions.log").read_text() == "b: empty-file-list\n"
    assert [bid for bid, _, _ in ds.read_csv((tmp_path / "o" / "1.csv").read_text()).rows] == ["a"]


_MANIFEST = json.dumps(
    {"build_id": "b1", "kind": "nightly", "result": "failed", "files": ["A.java"]}
)
_METRICS_HEADER = "file_path," + ",".join(f"m{i}" for i in metrics.METRIC_IDS)


@pytest.mark.parametrize(
    "manifest, metrics_text, manifest_at_fault",
    [
        pytest.param("{bad", _METRICS_HEADER + "\n", True, id="manifest-invalid-json"),
        pytest.param("null", _METRICS_HEADER + "\n", True, id="manifest-not-an-object"),
        pytest.param(_MANIFEST, "file,m1\nx,1\n", False, id="metrics-bad-header"),
        pytest.param(_MANIFEST, _METRICS_HEADER + "\nA.java,1,2\n", False, id="metrics-short-row"),
        pytest.param(
            _MANIFEST,
            _METRICS_HEADER + "\nA.java,abc" + ",1" * 41 + "\n",
            False,
            id="metrics-non-numeric-cell",
        ),
        pytest.param(
            _MANIFEST,
            _METRICS_HEADER + "\nA.java,nan" + ",1" * 41 + "\n",
            False,
            id="metrics-nan-cell",
        ),
        pytest.param("[" * 100000, _METRICS_HEADER + "\n", True, id="manifest-nested-too-deep"),
        pytest.param(_MANIFEST.replace('"nightly"', '"weekly"'), _METRICS_HEADER + "\n", True,
                     id="manifest-unknown-kind"),
        pytest.param(
            _MANIFEST,
            _METRICS_HEADER + ("\nA.java" + ",1" * 42) * 2 + "\n",
            False,
            id="metrics-repeated-path",
        ),
        pytest.param(
            _MANIFEST.replace('"A.java"', '"A.java", "B.java"'),
            _METRICS_HEADER + "\nA.java" + ",1e308" * 42 + "\nB.java" + ",1e308" * 42 + "\n",
            False,
            id="aggregate-overflows",
        ),
        pytest.param(
            _MANIFEST.replace('"A.java"', '"A.java", "A.java"'),
            _METRICS_HEADER + "\nA.java" + ",1" * 42 + "\n",
            True,
            id="manifest-repeated-file",
        ),
        *(pytest.param(_MANIFEST.replace('"b1"', json.dumps(bid)), _METRICS_HEADER + "\nA.java" + ",1" * 42 + "\n",
                       True, id=f"build-id-{name}")
          for name, bid in [("lf", "b\n1"), ("cr", "b\r1"), ("surrogate", "b\ud8001")]),
    ],
)
def test_dataset_parse_failure_is_one_line_data_error(tmp_path, capsys, manifest, metrics_text,
                                                      manifest_at_fault):
    mdir = tmp_path / "manifests"
    mdir.mkdir()
    (mdir / "b1.json").write_text(manifest)
    (tmp_path / "metrics.csv").write_text(metrics_text)
    code, _, err = run(
        capsys, "dataset", str(mdir), str(tmp_path / "metrics.csv"),
        "--strategy", "avg", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert err.startswith(f"error: {mdir / 'b1.json'}: ") == manifest_at_fault


# -- select ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def dataset_csv(synth_root, extracted, tmp_path_factory):
    _, _, manifests = synth_root
    out = tmp_path_factory.mktemp("datasets")
    assert main([
        "dataset", str(manifests), str(extracted),
        "--strategy", "max", "--out", str(out),
    ]) == 0
    return out / "2.csv"


def test_select_outputs(dataset_csv, tmp_path, capsys):
    code, _, _ = run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))
    assert code == 0
    selection = (tmp_path / "selection.csv").read_text().strip().splitlines()
    assert selection[0] == "dataset_id,algorithm,metric_id,rank_or_member,score"
    assert {ln.split(",")[1] for ln in selection[1:]} == {"infogain", "cfs"}
    thresholds = (tmp_path / "thresholds.csv").read_text().strip().splitlines()
    assert thresholds[0] == "threshold,selected_metric_ids"
    assert [ln.split(",")[0] for ln in thresholds[1:]] == ["4", "6", "8", "10"]


def test_select_writes_nothing_when_a_later_target_exists(dataset_csv, tmp_path, capsys):
    (tmp_path / "thresholds.csv").write_text("kept\n")
    code, _, err = run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))
    assert code == 1 and "--force" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["thresholds.csv"]
    assert (tmp_path / "thresholds.csv").read_text() == "kept\n"


def test_select_single_run_histogram(dataset_csv, tmp_path, capsys):
    code, _, _ = run(
        capsys, "select", str(dataset_csv), "--algo", "infogain", "--out", str(tmp_path)
    )
    assert code == 0
    counts = [
        int(ln.split(",")[1])
        for ln in (tmp_path / "frequency.csv").read_text().strip().splitlines()[1:]
    ]
    assert counts and set(counts) <= {0, 1}




def test_select_runs_a_repeated_algo_once(dataset_csv, tmp_path, capsys):
    code, out, _ = run(capsys, "select", str(dataset_csv), "--algo", "infogain",
                       "--algo", "infogain", "--out", str(tmp_path))
    assert code == 0 and "(1 runs)" in out
    counts = (tmp_path / "frequency.csv").read_text().splitlines()[1:]
    assert counts and all(ln.endswith(",1") for ln in counts)


def test_select_rejects_two_datasets_with_one_id(dataset_csv, tmp_path, capsys):
    copy = tmp_path / "copy.csv"
    copy.write_text(dataset_csv.read_text())
    code, _, err = run(capsys, "select", str(dataset_csv), str(copy), "--out", str(tmp_path / "o"))
    assert code == 2 and "dataset 2" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o").exists()

def test_select_names_the_dataset_that_fails_to_parse(dataset_csv, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("build_id,label,m1\nb1,failed,1\nb2,success,x\n")
    code, _, err = run(capsys, "select", str(dataset_csv), str(bad), "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: {bad}: dataset CSV row 3: could not convert string to float: 'x'\n"
    assert not (tmp_path / "o").exists()


def test_select_discretizes_each_feature_once(dataset_csv, tmp_path, capsys, monkeypatch):
    calls = []
    original = featsel.discretize_mdl
    monkeypatch.setattr(featsel, "discretize_mdl", lambda v, y: calls.append(1) or original(v, y))
    code, _, _ = run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))
    assert code == 0
    assert len(calls) == len(ds.read_csv(dataset_csv.read_text()).feature_ids)


def _constant_label_csv(path):
    rows = [(f"b{k}", "failed", [float(k), 1.0]) for k in range(4)]
    path.write_text(ds.write_csv(ds.Dataset([1, 9], rows, "sum")))
    return path


def test_select_skips_a_constant_label_dataset_once(dataset_csv, tmp_path, capsys):
    constant = _constant_label_csv(tmp_path / "c.csv")
    code, out, err = run(capsys, "select", str(constant), str(dataset_csv), "--out", str(tmp_path / "o"))
    assert code == 0 and "(2 runs)" in out
    assert err == "skipped 3: dataset label is constant\n"


def test_a_failed_write_prints_nothing_else(dataset_csv, tmp_path, capsys):
    constant = _constant_label_csv(tmp_path / "c.csv")
    (tmp_path / "file").write_text("")
    assert run(capsys, "select", str(constant), str(dataset_csv), "--out", str(tmp_path / "file")) == (
        1, "", f"error: cannot write to {tmp_path / 'file'}: File exists\n")


# -- evaluate -------------------------------------------------------------------


def test_evaluate_planted_dataset(dataset_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "evaluate", str(dataset_csv), "--out", str(tmp_path), "--seed", "0"
    )
    assert code == 0
    report = json.loads((tmp_path / "2_report.json").read_text())
    accuracy = float(report["accuracy"].rstrip("%"))
    assert accuracy >= 95.0
    tree_text = (tmp_path / "2_tree.txt").read_text()
    assert tree_text.startswith("m9 <= ")


def test_evaluate_feature_subset(dataset_csv, tmp_path, capsys):
    code, out, _ = run(
        capsys, "evaluate", str(dataset_csv), "--features", "9,13",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert (tmp_path / "2_report.txt").exists()


def test_evaluate_disjoint_features(dataset_csv, tmp_path, capsys):
    code, _, err = run(
        capsys, "evaluate", str(dataset_csv), "--features", "999",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert err == "error: feature list names metrics the dataset lacks: 999\n"


def test_evaluate_names_each_unknown_feature(dataset_csv, tmp_path, capsys):
    code, _, err = run(
        capsys, "evaluate", str(dataset_csv), "--features", "1000,9,999",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert err == "error: feature list names metrics the dataset lacks: 999 1000\n"
    assert not list(tmp_path.iterdir())


def test_evaluate_past_float_range_of_exact_bound(tmp_path, capsys):
    # 1200 balanced, noisy rows: pruning's bound at the root (about 600
    # errors in 1080-1200 rows) overflows an exact-integer binomial sum.
    import random

    rng = random.Random(1200)
    rows = []
    for i in range(1200):
        label = "failed" if i % 2 else "success"
        signal = rng.gauss(60.0 if label == "failed" else 50.0, 15.0)
        rows.append((f"b{i:04d}", label, [round(signal, 1), float(rng.randrange(20))]))
    csv = tmp_path / "big.csv"
    csv.write_text(ds.write_csv(ds.Dataset(feature_ids=[9, 13], rows=rows, strategy="maximum")))
    code, _, err = run(capsys, "evaluate", str(csv), "--out", str(tmp_path / "o"))
    assert code == 0, err
    report = json.loads((tmp_path / "o" / "2_report.json").read_text())
    assert sorted(bid for fold in report["folds"] for bid in fold) == [r[0] for r in rows]
    assert sum(c["correct"] + c["incorrect"] for c in report["per_class"].values()) == 1200


def test_evaluate_replay_prints_reference_row():
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["evaluate", "--replay", "37,14,67,11"])
    assert code == 0
    assert buf.getvalue().splitlines()[0] == "80.6202%"


def test_evaluate_requires_dataset_or_replay(capsys):
    code, _, err = run(capsys, "evaluate")
    assert code == 1


def test_empty_replay_names_the_expected_format(capsys):
    code, out, err = run(capsys, "evaluate", "--replay=")
    assert (code, out) == (1, "")
    assert err == "error: --replay expects failed_correct,failed_incorrect,success_correct,success_incorrect\n"


@pytest.mark.parametrize(
    "argv",
    [
        "freq s.csv --threshold x",
        "evaluate --replay -1,2,3,4",
        "dataset m metrics.csv --strategy median --out o",
        "bogus",
        "select d.csv",
        "select d.csv --out o --bogus",
        "dataset m metrics.csv --strategy avg --filter z --out o",
    ],
    ids=["bad-int", "option-like-value", "bad-choice", "bad-command", "missing-out", "unknown-option", "bad-filter"],
)
def test_argument_error_is_one_line_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--help"])
    assert exc.value.code == 0
    assert "--replay" in capsys.readouterr().out


def test_filter_tags_show_in_the_usage_error_and_the_help(capsys):
    code, _, err = run(capsys, *"dataset m metrics.csv --strategy avg --filter z --out o".split())
    assert code == 1
    assert err.split("choose from")[1].replace("'", "").strip(" ()\n").split(", ") == ["full", "a", "b", "c", "d"]
    with pytest.raises(SystemExit) as exc:
        main(["dataset", "--help"])
    assert exc.value.code == 0
    assert "--filter {full,a,b,c,d}" in capsys.readouterr().out


def test_each_error_class_is_one_line_with_its_exit_code(monkeypatch, tmp_path, capsys):
    # One class per exit code; a ParseError that escapes extract's per-file catch is an invariant violation.
    table = [(cli.UsageError, 1, "error"), (DataError, 2, "error"),
             (ParseError, 3, "internal error"), (BuildMetricsError, 3, "internal error")]
    for error, code, prefix in table:
        def violated(units):
            raise error(f"{error.__name__} raised\nafter the merge")

        monkeypatch.setattr(model, "build_code_model", violated)
        assert run(capsys, "extract", str(CORPUS), "--out", str(tmp_path / error.__name__)) == (
            code, "", f"{prefix}: {error.__name__} raised after the merge\n")


def test_evaluate_fold_reduction_note(extracted, tmp_path, capsys):
    # 3 success / many failed -> k reduced to 3.
    lookup = metrics.parse_metrics_csv(Path(extracted).read_text())
    import random

    rng = random.Random(0)
    rows = []
    for i in range(20):
        label = "success" if i < 3 else "failed"
        base = 50.0 if label == "success" else 160.0
        rows.append((f"b{i:02d}", label, [base + rng.random(), rng.random()]))
    data = ds.Dataset(feature_ids=[9, 13], rows=rows, strategy="maximum")
    path = tmp_path / "2.csv"
    path.write_text(ds.write_csv(data))
    code, out, _ = run(capsys, "evaluate", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert "folds reduced from 10 to 3" in out


# -- freq ----------------------------------------------------------------------


def test_freq_command(dataset_csv, tmp_path, capsys):
    assert run(capsys, "select", str(dataset_csv), "--out", str(tmp_path))[0] == 0
    code, out, _ = run(
        capsys, "freq", str(tmp_path / "selection.csv"), "--threshold", "2"
    )
    assert code == 0
    ids = [int(x) for x in out.split()]
    assert ids == sorted(ids)
    # threshold 2 out of 2 runs = intersection of the two selections
    runs_text = (tmp_path / "selection.csv").read_text().strip().splitlines()[1:]
    by_algo = {}
    for ln in runs_text:
        cells = ln.split(",")
        by_algo.setdefault(cells[1], set()).add(int(cells[2]))
    assert set(ids) == by_algo["infogain"] & by_algo["cfs"]


def test_freq_reads_the_empty_report_select_writes(tmp_path, capsys):
    # Labels alternate and every feature takes 0, 1 or 2 at random: on 8 rows MDL cuts none.
    rng = random.Random(0)
    ids = list(ds.FILTER_IDS["c"])
    rows = [(f"b{k}", ds.LABELS[k % 2], [float(rng.randrange(3)) for _ in ids]) for k in range(8)]
    (tmp_path / "3c.csv").write_text(ds.write_csv(ds.Dataset(ids, rows, "sum", "c")))
    assert run(capsys, "select", str(tmp_path / "3c.csv"), "--out", str(tmp_path / "s"))[0] == 0
    report = tmp_path / "s" / "selection.csv"
    assert report.read_text() == "dataset_id,algorithm,metric_id,rank_or_member,score\n"
    assert (tmp_path / "s" / "thresholds.csv").read_text() == "threshold,selected_metric_ids\n4,\n6,\n8,\n10,\n"
    assert run(capsys, "freq", str(report), "--threshold", "1") == (0, "\n", "")


_REPORT_HEADER = "dataset_id,algorithm,metric_id,rank_or_member,score\n"


@pytest.mark.parametrize("report", [
    pytest.param(_REPORT_HEADER + "1,cfs,9,1,\n" + row + "\n", id=name) for name, row in [
        ("non-integer", "1,cfs,abc,1,"), ("superscript-two", "1,cfs,\u00b2,1,"), ("negative", "1,cfs,-1,1,"),
        ("leading-space", "1,cfs, 9,1,"), ("empty-id", "1,infogain,,1,"), ("one-cell", "1"),
        ("two-cells", "1,cfs"), ("three-cells", "1,cfs,9"), ("six-cells", "1,cfs,9,1,,")]
] + [
    pytest.param("dataset_id,algorithm,metric_id\n1,cfs,9\n", id="three-column-header"),
    pytest.param("dataset_id,algorithm,metric_id,rank,score\n1,cfs,9,1,\n", id="renamed-column"),
    pytest.param("\n \n", id="no-header"),
])
def test_freq_malformed_report_is_one_line_data_error(tmp_path, capsys, report):
    (tmp_path / "selection.csv").write_text(report)
    code, _, err = run(capsys, "freq", str(tmp_path / "selection.csv"), "--threshold", "1")
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_freq_names_a_metric_id_that_is_not_a_number(tmp_path, capsys):
    (tmp_path / "selection.csv").write_text(_REPORT_HEADER + "1,cfs,9,1,\n1,infogain,\u00b2,1,0.5\n")
    assert run(capsys, "freq", str(tmp_path / "selection.csv"), "--threshold", "1") == (
        2, "", "error: selection report row 3: metric ID '\u00b2' is not a number\n")


# -- the exact output of each stage ------------------------------------------------


def _exact_output_inputs(tmp, manifests):
    """The inputs the exact-output cases read, written under tmp."""
    (tmp / "m").mkdir()
    for path in manifests.glob("*.json"):
        (tmp / "m" / path.name).write_text(path.read_text())
    (tmp / "m" / "w.json").write_text(json.dumps(
        {"build_id": "w1", "kind": "continuous", "result": "warning", "files": ["b000/Signal.java"]}))
    _constant_label_csv(tmp / "c.csv")
    # 3 success and 17 failed rows: a minority of 3 cuts 10 folds to 3.
    rng = random.Random(0)
    rows = [(f"b{i:02d}", ds.LABELS[i >= 3], [(50.0 if i < 3 else 160.0) + rng.random(), rng.random()])
            for i in range(20)]
    (tmp / "2.csv").write_text(ds.write_csv(ds.Dataset([9, 13], rows, "maximum")))
    (tmp / "s.csv").write_text(_REPORT_HEADER + "1,cfs,9,1,\n1,infogain,13,1,0.5\n1,infogain,9,2,0.25\n")
    (tmp / "h.csv").write_text(_REPORT_HEADER)


@pytest.mark.parametrize("argv, expected", [
    pytest.param("extract {corpus} --out {tmp}/e",
                 (0, "wrote {tmp}/e/metrics.csv (11 files, 0 excluded)\n", ""), id="extract"),
    pytest.param("dataset {tmp}/m {metrics} --strategy sum --filter c --out {tmp}/d",
                 (0, "wrote {tmp}/d/3c.csv (24 builds, 1 excluded)\n", ""), id="dataset"),
    pytest.param("select {tmp}/c.csv {dataset} --out {tmp}/s",
                 (0, "wrote selection reports to {tmp}/s (2 runs)\n",
                  "skipped 3: dataset label is constant\n"), id="select"),
    pytest.param("evaluate {tmp}/2.csv --out {tmp}/v",
                 (0, "ID, Accuracy, # Failed Builds Correct(Incorrect), # Successful Builds Correct(Incorrect)\n"
                     "2, 100.0000%, 17(0), 3(0)\nnote: folds reduced from 10 to 3\n", ""), id="evaluate"),
    pytest.param("evaluate --replay 37,14,67,11",
                 (0, "80.6202%\nfailed 37(14), success 67(11) over 129\n", ""), id="replay"),
    pytest.param("freq {tmp}/s.csv --threshold 2", (0, "9\n", ""), id="freq"),
    pytest.param("freq {tmp}/h.csv --threshold 1", (0, "\n", ""), id="freq-header-only"),
])
def test_each_stage_prints_exactly(synth_root, extracted, dataset_csv, tmp_path, capsys, argv, expected):
    _exact_output_inputs(tmp_path, synth_root[2])
    names = dict(corpus=CORPUS, tmp=tmp_path, metrics=extracted, dataset=dataset_csv)
    assert run(capsys, *argv.format(**names).split()) == (
        expected[0], *(text.format(tmp=tmp_path) for text in expected[1:]))


# -- real processes: a closed and a strict stdout ------------------------------------


def _cli_process(*argv, env=(), **kwargs) -> subprocess.CompletedProcess:
    """One `python -m buildmetrics.cli` process, run to its end, with stdout buffered unless env says otherwise."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | dict(env)
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "buildmetrics.cli", *argv], env=env, stderr=subprocess.PIPE,
                          timeout=60, **kwargs)


@pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_is_one_line_usage_error(tmp_path, env):
    # Buffered, the write fails at main's flush; unbuffered, at the print itself.
    (tmp_path / "selection.csv").write_text(_REPORT_HEADER + "1,cfs,9,1,\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process("freq", str(tmp_path / "selection.csv"), "--threshold", "1", env=env, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.decode() == "error: cannot write to stdout: Broken pipe\n"


def test_a_closed_stdout_after_evaluate_leaves_its_artifacts_written(tmp_path):
    rows = [(f"b{i}", ds.LABELS[i % 2], [float(i % 2), float(i)]) for i in range(12)]
    (tmp_path / "2.csv").write_text(ds.write_csv(ds.Dataset([9, 12], rows, "maximum")))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cli_process("evaluate", str(tmp_path / "2.csv"), "--out", str(tmp_path / "o"), stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (1, "error: cannot write to stdout: Broken pipe\n")
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["2_report.json", "2_report.txt", "2_tree.txt"]


def test_a_strict_stdout_prints_an_undecodable_out_path(tmp_path):
    out = os.fsencode(tmp_path) + b"/out\xff"
    proc = _cli_process("extract", CORPUS, "--out", out, env={"PYTHONIOENCODING": "utf-8"}, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == b"wrote " + os.fsencode(tmp_path) + b"/out\\xff/metrics.csv (11 files, 0 excluded)\n"
    assert (Path(os.fsdecode(out)) / "metrics.csv").is_file()


# -- real processes: the modules each stage loads ----------------------------------

_LOADED_MODULES = """
import json, sys
from buildmetrics import cli
if sys.argv[1:]:
    code = cli.main(sys.argv[1:])
else:
    cli.build_parser()
    code = 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "buildmetrics"),
                  "dataclasses" in sys.modules]))
"""
_BARE_LOADS_DATACLASSES = "import json, sys; print(json.dumps('dataclasses' in sys.modules))"


@pytest.mark.parametrize("argv, loads_no", [
    pytest.param("", None, id="parser"),
    pytest.param("extract {corpus} --out {tmp}/e", {"dataset", "featsel", "tree"}, id="extract"),
    pytest.param("dataset {tmp}/manifests {tmp}/metrics.csv --strategy avg --out {tmp}/d",
                 {"lexer", "javaparse", "model", "featsel", "tree"}, id="dataset"),
    pytest.param("select {tmp}/2.csv --out {tmp}/s", {"lexer", "javaparse", "model"}, id="select"),
    pytest.param("evaluate {tmp}/2.csv --out {tmp}/v", {"lexer", "javaparse", "model"}, id="evaluate"),
    pytest.param("freq {tmp}/selection.csv --threshold 1", {"lexer", "javaparse", "model"}, id="freq"),
])
def test_each_stage_loads_only_the_modules_it_runs(tmp_path, argv, loads_no):
    # A fresh interpreter per stage: which modules it loaded, not how long they took.
    (tmp_path / "manifests").mkdir()
    (tmp_path / "manifests" / "b1.json").write_text(_MANIFEST)
    (tmp_path / "metrics.csv").write_text(_METRICS_HEADER + "\nA.java" + ",1" * 42 + "\n")
    rows = [(f"b{i}", ds.LABELS[i % 2], [float(i % 2), float(i)]) for i in range(12)]
    (tmp_path / "2.csv").write_text(ds.write_csv(ds.Dataset([9, 12], rows, "maximum")))
    (tmp_path / "selection.csv").write_text(_REPORT_HEADER + "2,cfs,9,1,\n")
    env = os.environ | {"PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv.format(corpus=CORPUS, tmp=tmp_path).split()],
                          env=env, capture_output=True, text=True, timeout=60)
    code, loaded, loads_dataclasses = json.loads(proc.stdout.splitlines()[-1])
    assert (code, proc.stderr) == (0, "")
    # No stage imports dataclasses (which loads inspect and ast); a bare interpreter here shows
    # whether the environment itself loads it at start-up.
    bare = subprocess.run([sys.executable, "-c", _BARE_LOADS_DATACLASSES],
                          env=env, capture_output=True, text=True, timeout=60)
    assert not loads_dataclasses or json.loads(bare.stdout), "the stage loaded dataclasses"
    if loads_no is None:
        assert loaded == ["buildmetrics", "buildmetrics.cli", "buildmetrics.errors", "buildmetrics.parallel"]
    else:
        assert not {f"buildmetrics.{name}" for name in loads_no} & set(loaded), loaded


# -- one-line errors for paths, --folds and --replay ------------------------------


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param("select {missing} --out {tmp}/o", 1, id="select-missing"),
        pytest.param("select {dir} --out {tmp}/o", 1, id="select-dir"),
        pytest.param("select {latin1} --out {tmp}/o", 2, id="select-non-utf8"),
        pytest.param("evaluate {missing} --out {tmp}/o", 1, id="evaluate-missing"),
        pytest.param("evaluate {dir} --out {tmp}/o", 1, id="evaluate-dir"),
        pytest.param("dataset {manifests} {missing} --strategy avg --out {tmp}/o", 1, id="dataset-metrics-missing"),
        pytest.param("dataset {manifests} {dir} --strategy avg --out {tmp}/o", 1, id="dataset-metrics-dir"),
        pytest.param("dataset {dir_manifests} {metrics} --strategy avg --out {tmp}/o", 1, id="dataset-manifest-dir"),
        pytest.param("freq {missing} --threshold 1", 1, id="freq-missing"),
        pytest.param("freq {dir} --threshold 1", 1, id="freq-dir"),
        pytest.param("extract {file} --out {tmp}/o", 1, id="extract-source-not-dir"),
        pytest.param("dataset {file} {metrics} --strategy avg --out {tmp}/o", 1, id="dataset-manifests-not-dir"),
        pytest.param("extract {corpus} --out {file}", 1, id="extract-out-file"),
        pytest.param("dataset {manifests} {metrics} --strategy avg --out {file}", 1, id="dataset-out-file"),
        pytest.param("select {csv} --out {file}", 1, id="select-out-file"),
        pytest.param("evaluate {csv} --out {file}", 1, id="evaluate-out-file"),
        pytest.param("evaluate --replay 0,0,0,0", 1, id="replay-all-zero"),
        pytest.param("evaluate --replay=-1,2,3,4", 1, id="replay-negative"),
        pytest.param("evaluate --replay= --out {tmp}/o", 1, id="replay-empty"),
        pytest.param("evaluate {csv} --replay= --out {tmp}/o", 1, id="replay-empty-with-dataset"),
        pytest.param("evaluate {csv} --replay 1,2,3,4 --out {tmp}/o", 1, id="replay-with-dataset"),
        pytest.param("evaluate {csv} --features= --out {tmp}/o", 1, id="features-empty"),
        pytest.param("evaluate {csv} --features=, --out {tmp}/o", 1, id="features-comma"),
        pytest.param("evaluate {csv} --features 9,999 --out {tmp}/o", 1, id="features-unknown"),
        pytest.param("evaluate {csv} --folds 0 --out {tmp}/o", 1, id="folds-0"),
        pytest.param("evaluate {csv} --folds=-2 --out {tmp}/o", 1, id="folds-negative"),
        pytest.param("evaluate {csv} --folds 1 --out {tmp}/o", 1, id="folds-1"),
        pytest.param("freq {selection} --threshold 0", 1, id="threshold-0"),
        pytest.param("freq {selection} --threshold=-3", 1, id="threshold-negative"),
        pytest.param("select {bogus} --out {tmp}/o", 2, id="select-unknown-strategy"),
        pytest.param("evaluate {bogus} --out {tmp}/o", 2, id="evaluate-unknown-strategy"),
    ],
)
def test_bad_path_or_replay_is_one_line_error(tmp_path, capsys, argv, expected):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    (tmp_path / "manifests").mkdir()
    (tmp_path / "manifests" / "b1.json").write_text(_MANIFEST)
    (tmp_path / "dir_manifests" / "b1.json").mkdir(parents=True)
    (tmp_path / "metrics.csv").write_text(_METRICS_HEADER + "\nA.java" + ",1" * 42 + "\n")
    (tmp_path / "latin1.csv").write_bytes(b"build_id,label,m9\nb\xe9,failed,1\n")
    rows = [(f"b{i}", ("failed", "success")[i % 2], [float(i)]) for i in range(6)]
    (tmp_path / "2.csv").write_text(ds.write_csv(ds.Dataset([9], rows, "maximum")))
    (tmp_path / "bogus.csv").write_text(ds.write_csv(ds.Dataset([9], rows, "bogus")))
    (tmp_path / "selection.csv").write_text("dataset_id,algorithm,metric_id,rank_or_member,score\n1,cfs,9,1,\n")
    names = {name: tmp_path / name for name in ("dir", "file", "manifests", "dir_manifests")}
    names.update(missing=tmp_path / "missing.csv", latin1=tmp_path / "latin1.csv",
                 metrics=tmp_path / "metrics.csv", csv=tmp_path / "2.csv", corpus=CORPUS, tmp=tmp_path,
                 bogus=tmp_path / "bogus.csv", selection=tmp_path / "selection.csv")
    code, _, err = run(capsys, *argv.format(**names).split())
    assert code == expected
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name, shown", [("x\ny.csv", "x\\ny.csv"), (os.fsdecode(b"z\xff.csv"), "z\\xff.csv")],
                         ids=["line-break", "undecodable"])
@pytest.mark.parametrize("argv, expected", [
    pytest.param("select {tmp}/2.csv {path} --out {tmp}/o",
                 (2, "error: {shown}: dataset 2 is already an input, and selection.csv could not tell their runs "
                     "apart\n"), id="duplicate-dataset"),
    pytest.param("freq {path}.missing --threshold 1",
                 (1, "error: cannot read {shown}.missing: No such file or directory\n"), id="cannot-read"),
    pytest.param("extract {corpus} --out {path}",
                 (1, "error: refusing to overwrite {shown}/metrics.csv (use --force)\n"), id="refusing-to-overwrite"),
])
def test_an_error_shows_its_path_on_one_line(tmp_path, capsys, name, shown, argv, expected):
    rows = [(f"b{i}", ds.LABELS[i % 2], [float(i)]) for i in range(6)]
    (tmp_path / "2.csv").write_text(ds.write_csv(ds.Dataset([9], rows, "maximum")))
    path = tmp_path / name
    if argv.startswith("select"):
        path.write_text((tmp_path / "2.csv").read_text())
    else:  # an extract output that is there already; freq reads a name beside it
        path.mkdir()
        (path / "metrics.csv").write_text("kept\n")
    code, out, err = run(capsys, *[arg.format(tmp=tmp_path, path=path, corpus=CORPUS) for arg in argv.split()])
    assert (code, out, err) == (expected[0], "", expected[1].format(shown=f"{tmp_path}/{shown}"))


# -- staged pipeline equals in-process composition --------------------------------


def test_staged_equals_in_process(synth_root, extracted, tmp_path, capsys):
    root, src, manifests = synth_root

    # Staged via CLI artifacts:
    dsout = tmp_path / "ds"
    assert run(
        capsys, "dataset", str(manifests), str(extracted),
        "--strategy", "sum", "--filter", "d", "--out", str(dsout),
    )[0] == 0
    staged = ds.read_csv((dsout / "3d.csv").read_text())

    # In-process over the same CSV artifacts:
    lookup = metrics.parse_metrics_csv(Path(extracted).read_text())
    manifest_docs = [
        ds.parse_manifest(p.read_text()) for p in sorted(Path(manifests).glob("*.json"))
    ]
    direct, _ = ds.assemble(manifest_docs, lookup, "sum", "d")

    assert staged.feature_ids == direct.feature_ids
    assert staged.labels() == direct.labels()
    for (b1, l1, v1), (b2, l2, v2) in zip(staged.rows, direct.rows):
        assert b1 == b2 and l1 == l2
        assert v1 == pytest.approx(v2, abs=1e-9)

    # Selection and evaluation agree between CLI artifacts and direct calls.
    selout = tmp_path / "sel"
    assert run(capsys, "select", str(dsout / "3d.csv"), "--out", str(selout))[0] == 0
    table = featsel.discretize(direct)
    direct_runs = [featsel.info_gain_rank(table), featsel.cfs_select(table)]
    staged_lines = (selout / "selection.csv").read_text().strip().splitlines()[1:]
    staged_sel = {}
    for ln in staged_lines:
        cells = ln.split(",")
        staged_sel.setdefault(cells[1], []).append(int(cells[2]))
    assert staged_sel["infogain"] == direct_runs[0].selected
    assert staged_sel["cfs"] == direct_runs[1].selected

    evalout = tmp_path / "ev"
    assert run(
        capsys, "evaluate", str(dsout / "3d.csv"), "--out", str(evalout), "--seed", "3"
    )[0] == 0
    direct_report = tree.cross_validate(direct, k=10, seed=3)
    assert (evalout / "3d_report.txt").read_text() == tree.report_table(direct_report)


def test_select_and_evaluate_determinism(dataset_csv, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(capsys, "select", str(dataset_csv), "--out", str(out))[0] == 0
        assert run(
            capsys, "evaluate", str(dataset_csv), "--out", str(out), "--seed", "11"
        )[0] == 0
    for name in ("selection.csv", "frequency.csv", "thresholds.csv",
                 "2_report.txt", "2_report.json", "2_tree.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


# -- fuzzed inputs to main() -------------------------------------------------------

_CELLS = ["0", "1", "2.5", "7", "-3", "40", "1e308", "-1e308", "nan", "inf", "", "x", " 7 "]
_OPTION_TEXT = st.text(alphabet="0123456789,-. xe", max_size=10)


def _option(*valid):
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid), _OPTION_TEXT)


@st.composite
def _dataset_csv(draw):
    broken = draw(st.booleans())  # may hold a bad column, cell, label, width or footer
    names = ["m1", "m9", "m13", "m42"] + (["m9", "m0", "m43", "x", "m²", ""] if broken else [])
    columns = draw(st.lists(st.sampled_from(names), max_size=3, unique=not broken))
    cells = st.sampled_from(_CELLS if broken else _CELLS[:8])
    rows = []
    for k in range(draw(st.integers(0, 12))):
        label = draw(st.sampled_from(["failed", "success", "warning"] if broken else ["failed", "success"]))
        n = len(columns) + (draw(st.sampled_from([0, 0, 1, -1])) if broken and columns else 0)
        rows.append(",".join([f"b{k}", label] + draw(st.lists(cells, min_size=n, max_size=n))))
    header = ["build_id,label" + "".join("," + c for c in columns)]
    footers = ["", "# strategy=maximum filter=full", "# strategy=sum filter=c"]
    if broken:
        header = draw(st.sampled_from([header, []]))
        footers += ["# strategy=bogus filter=full", "#", "# filter=b"]
    return "\n".join(header + rows + [draw(st.sampled_from(footers))]) + "\n"


@st.composite
def _manifests(draw):
    broken = draw(st.booleans())  # may hold a bad field, a duplicate ID or bad JSON
    kinds, results, files = ["nightly", "continuous"], ["failed", "success", "warning"], ["A.java", "B.java"]
    if broken:
        kinds, results, files = kinds + ["weekly"], results + ["x"], files + ["C.java", 3]
    docs = []
    for k in range(draw(st.integers(1, 3))):
        doc = {
            "build_id": draw(st.sampled_from(["b1", "", 7, "a,b"])) if broken else f"b{k}",
            "kind": draw(st.sampled_from(kinds)),
            "result": draw(st.sampled_from(results)),
            "files": draw(st.lists(st.sampled_from(files), min_size=0 if broken else 1, max_size=2)),
        }
        docs.append(json.dumps(doc))
    if broken:
        docs.append(draw(st.sampled_from(["{", "[]", "[" * 5000, json.dumps(doc)])))
    return docs


@st.composite
def _metrics_csv(draw):
    broken = draw(st.booleans())  # may hold a bad header, a short row or a bad cell
    lines = [draw(st.sampled_from([_METRICS_HEADER, "file_path,m1"])) if broken else _METRICS_HEADER]
    cells = st.sampled_from(_CELLS if broken else _CELLS[:8])
    for path in ("A.java", "B.java"):
        n = 42 - (draw(st.sampled_from([0, 1])) if broken else 0)
        lines.append(",".join([path] + draw(st.lists(cells, min_size=n, max_size=n))))
    return "\n".join(lines) + "\n"


@st.composite
def _selection_report(draw):
    rows = draw(st.lists(st.sampled_from(["1,cfs,9,1,", "2,infogain,13,1,0.5", "1,cfs,x", "1", "1,cfs,1"]), max_size=4))
    header = "dataset_id,algorithm,metric_id,rank_or_member,score" if draw(st.booleans()) else "id"
    return "\n".join([header] + rows) + "\n"


_EXTRA_ARGS = st.sampled_from([[]] * 12 + [["--bogus"], ["--folds"], ["-h"], ["--force", "x"], ["two\nlines"]])


@st.composite
def _invocation(draw, root):
    """argv for one subcommand, and the input files it reads."""
    command = draw(st.sampled_from(["dataset", "select", "evaluate", "replay", "freq"]))
    out = ["--out", str(root / "o"), "--force"]
    files = {}
    if command == "dataset":
        for k, doc in enumerate(draw(_manifests())):
            files[f"m/{k}.json"] = doc
        files["metrics.csv"] = draw(_metrics_csv())
        strategy = draw(st.sampled_from(["avg", "max", "sum"]))
        argv = ["dataset", str(root / "m"), str(root / "metrics.csv"), "--strategy", strategy] + out
    elif command == "select":
        names = ["d0.csv", "d1.csv"][:draw(st.integers(1, 2))]
        for name in names:
            files[name] = draw(_dataset_csv())
        algos = draw(st.lists(st.sampled_from(["--algo=infogain", "--algo=cfs"]), max_size=2))
        argv = ["select"] + [str(root / name) for name in names] + algos + out
    elif command == "evaluate":
        files["d.csv"] = draw(_dataset_csv())
        argv = ["evaluate", str(root / "d.csv"), "--folds=" + draw(_option("2", "3", "10"))]
        if draw(st.booleans()):
            argv.append("--features=" + draw(_option("1,9", "13", "42,1,9")))
        argv += out
    elif command == "replay":
        argv = ["evaluate", "--replay=" + draw(_option("37,14,67,11"))] + out
    else:
        files["s.csv"] = draw(_selection_report())
        argv = ["freq", str(root / "s.csv"), "--threshold=" + draw(_option("1", "2"))]
    return argv + draw(_EXTRA_ARGS), files


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_end_in_one_line_and_exit_0_1_or_2(fuzz_root, data):
    with tempfile.TemporaryDirectory(dir=fuzz_root) as tmp:
        root = Path(tmp)
        argv, files = data.draw(_invocation(root))
        for name, text in files.items():
            (root / name).parent.mkdir(exist_ok=True)
            (root / name).write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        if code != 0:  # a failing stage prints and writes nothing
            assert out.getvalue() == "" and not (root / "o").exists(), argv
    assert code in (0, 1, 2), err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    assert "Traceback" not in err.getvalue()
