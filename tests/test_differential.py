"""The differential harness (tests/differential.py) in its quick form: a
source tree against itself shows no difference, and one planted one-line
change is found and named. The full form's error cases, read from
test_cli.py's and test_parser.py's parametrize tables, are built without
running them."""

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import HARNESS

SRC = Path(__file__).parent.parent / "src"


def _quick(parent, change):
    return subprocess.run([sys.executable, str(HARNESS), str(parent), str(change), "--quick"],
                          capture_output=True, text=True)


def test_a_tree_against_itself_is_identical():
    result = _quick(SRC, SRC)
    assert (result.returncode, result.stderr) == (0, ""), result.stdout
    assert result.stdout == "9 invocations: 9 identical, 0 differ (parent: 8 exit 0, 1 exit 1)\n"


def test_a_planted_change_is_named(tmp_path):
    change = tmp_path / "src"
    shutil.copytree(SRC, change, ignore=shutil.ignore_patterns("__pycache__"))
    metrics = change / "buildmetrics" / "metrics.py"
    text = metrics.read_text()
    planted = text.replace("digits: int | None = 6)", "digits: int | None = 5)")
    assert planted != text
    metrics.write_text(planted)
    result = _quick(SRC, change)
    assert (result.returncode, result.stderr) == (1, ""), result.stdout
    lines = result.stdout.splitlines()
    assert lines[0].startswith("fixture extract: metrics.csv line 2: ")
    assert lines[-1].startswith("9 invocations: ") and " identical, 0 differ" not in lines[-1]


def test_the_full_run_builds_test_clis_error_cases(tmp_path, harness):
    # Only the full run reads these tables; a renamed or re-shaped one fails here instead.
    runs = harness._error_runs(tmp_path)
    assert len(runs) == len({name for name, _, _ in runs}) == 83
    assert all(argv and all(isinstance(arg, str) for arg in argv) for _, argv, _ in runs)
    assert harness._malformed_run(tmp_path)[0] == "malformed extract"
    assert sum(1 for path in (tmp_path / "malformed").iterdir() if path.read_text()) == 29
