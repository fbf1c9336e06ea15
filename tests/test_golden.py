"""Golden-artifact gate: every pipeline artifact must keep its recorded bytes.

The test builds small seeded inputs in a temporary directory -- the fixture
corpus, the hand-written grammar tree (annotations, enums, initializers,
`throws` lists, deep generics, recovery inputs and one file that fails to
parse), a planted-rule corpus and a coupled cross-package corpus from
`tests/synth.py`, two noisy 150-row datasets and one of 600 rows -- and runs
all five subcommands on them through `main()`. `tests/data/golden.json`
holds, for each artifact, the SHA-256 of its bytes and a short digest of
every line; the line digests name the first differing line when a hash fails.

A change that alters artifact bytes on purpose regenerates the file with

    PYTHONPATH=src:tests python tests/test_golden.py

and says in CHANGES.md which artifacts changed and why.
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

from buildmetrics import dataset as ds
from buildmetrics.cli import STRATEGY_FLAGS, main
from buildmetrics.metrics import METRIC_IDS

from conftest import CORPUS
from synth import coupled_corpus, generate_corpus

GOLDEN = Path(__file__).parent / "data" / "golden.json"
GRAMMAR = Path(__file__).parent / "fixtures" / "grammar"


def _run(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return buf.getvalue()


def _noisy_dataset(path: Path, strategy: str, seed: int, n: int = 150) -> Path:
    """n rows; metric 9 > 50 decides the label before 20% of labels flip."""
    rng = random.Random(seed)
    flipped = set(rng.sample(range(n), n // 5))
    rows = []
    for r in range(n):
        values = [
            round(rng.uniform(0.0, 100.0), 3) if mid == 9 or mid % 3 == 0
            else float(rng.randrange(12 + mid))
            for mid in METRIC_IDS
        ]
        failed = (values[8] > 50.0) != (r in flipped)
        rows.append((f"build-{r:03d}", "failed" if failed else "success", values))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(ds.write_csv(ds.Dataset(list(METRIC_IDS), rows, strategy)))
    return path


def noisy_600(root: Path) -> Path:
    """The 600-row noisy dataset that the gate evaluates for deep trees."""
    return _noisy_dataset(root / "noisy-600" / "average.csv", "average", 41, n=600)


def _pipeline(name: str, src: Path, manifests: Path, out: Path, datasets):
    """extract, one dataset per (strategy, filter), select, evaluate, freq."""
    _run("extract", src, "--out", out / name / "extract")
    metrics_csv = out / name / "extract" / "metrics.csv"
    csvs = []
    for strategy, filter_tag in datasets:
        _run("dataset", manifests, metrics_csv, "--strategy", strategy,
             "--filter", filter_tag, "--out", out / name / "dataset")
        csvs.append(out / name / "dataset" / f"{ds.dataset_id(STRATEGY_FLAGS[strategy], filter_tag)}.csv")
    _run("select", *csvs, "--out", out / name / "select")
    _run("evaluate", csvs[0], "--seed", "0", "--out", out / name / "evaluate")
    stdout = _run("freq", out / name / "select" / "selection.csv", "--threshold", "2")
    (out / name / "freq.txt").write_text(stdout)


def build_artifacts(root: Path) -> dict[str, bytes]:
    """Run every subcommand on the seeded inputs; artifact name -> bytes."""
    out = root / "out"
    _run("extract", CORPUS, "--out", out / "fixture")
    _run("extract", GRAMMAR, "--out", out / "grammar")
    src, manifests = generate_corpus(root / "synth", n_success=10, n_failed=10, seed=7)
    _pipeline("synth", src, manifests, out, [("max", "full"), ("avg", "full"), ("sum", "d")])
    src, manifests = coupled_corpus(root / "coupled", n_packages=14, seed=3)
    _pipeline("coupled", src, manifests, out, [("max", "full"), ("avg", "b")])
    noisy = [
        _noisy_dataset(root / "noisy" / f"{strategy}.csv", strategy, seed)
        for strategy, seed in (("average", 11), ("maximum", 12))
    ]
    _run("select", *noisy, "--out", out / "noisy" / "select")
    for path in noisy:
        for seed in ("0", "3"):
            _run("evaluate", path, "--seed", seed, "--out", out / "noisy" / f"evaluate-{seed}")
    # Deep trees: each fold grows about 140 nodes, where 150 rows grow about 40.
    _run("evaluate", noisy_600(root), "--seed", "0", "--out", out / "noisy" / "evaluate-600")
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def _line_digests(data: bytes) -> str:
    return " ".join(hashlib.sha256(ln).hexdigest()[:8] for ln in data.splitlines(keepends=True))


def _first_difference(data: bytes, golden_lines: str) -> str:
    expected = golden_lines.split()
    lines = data.splitlines(keepends=True)
    for number, line in enumerate(lines, start=1):
        if number > len(expected) or hashlib.sha256(line).hexdigest()[:8] != expected[number - 1]:
            return f"line {number} differs: {line!r}"
    return f"line {len(lines) + 1} differs: end of file, expected {len(expected)} lines"


def test_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    artifacts = build_artifacts(tmp_path)
    assert sorted(artifacts) == sorted(golden["sha256"])
    failures = [
        f"{name}: {_first_difference(data, golden['lines'][name])}"
        for name, data in artifacts.items()
        if hashlib.sha256(data).hexdigest() != golden["sha256"][name]
    ]
    assert not failures, "\n".join(failures)


def test_evaluate_process_matches_the_serial_run(tmp_path, monkeypatch):
    # perfbench runs each stage as `python -m buildmetrics.cli`, where folds
    # split over two CPUs when the host has them; the bytes must not depend
    # on that split or on the hash seed.
    dataset = noisy_600(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _run("evaluate", dataset, "--seed", "0", "--out", tmp_path / "serial")
    expected = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    src = Path(__file__).parent.parent / "src"
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"process-{hash_seed}"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "buildmetrics.cli", "evaluate", str(dataset),
                        "--seed", "0", "--out", str(out)], env=env, check=True,
                       capture_output=True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        artifacts = build_artifacts(Path(tmp))
    doc = {
        "sha256": {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()},
        "lines": {name: _line_digests(data) for name, data in artifacts.items()},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(artifacts)} artifacts)")
