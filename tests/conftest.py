import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from buildmetrics import featsel
from buildmetrics.javaparse import parse_source
from buildmetrics.metrics import METRIC_IDS, compute_all_metrics
from buildmetrics.model import build_code_model

CORPUS = Path(__file__).parent / "fixtures" / "corpus"


def by_id(values: list[float]) -> dict[int, float]:
    """A metric vector keyed by metric ID; it must hold one value per ID."""
    return dict(zip(METRIC_IDS, values, strict=True))


def info_gain(values: list[float], labels: list) -> float:
    """H(label) - H(label | MDL-discretized feature), through the gain that info_gain_rank uses."""
    return featsel._gain(featsel._mdl_bins(values, labels), labels)


def cfs_merit(table: featsel.Discretized, subset) -> float:
    """CFS merit of a feature subset, through the tables that cfs_select searches."""
    su_label, su_pair = featsel._su_tables(table)
    return featsel._merit(su_label, su_pair, tuple(sorted(subset)))


def load_corpus_units(root: Path = CORPUS):
    return [
        parse_source(p.read_text(), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*.java"))
    ]


@pytest.fixture(scope="session")
def corpus_model():
    return build_code_model(load_corpus_units())


@pytest.fixture(scope="session")
def corpus_vectors(corpus_model):
    return {path: by_id(values) for path, values in compute_all_metrics(corpus_model).items()}


@pytest.fixture
def forks(monkeypatch):
    """Count os.fork calls; with two CPUs visible, so the fork path runs
    whatever CPUs the host has."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
