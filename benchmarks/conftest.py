"""Shared benchmark fixtures.

Simulated sessions are the expensive part, so each distinct session is
built once per pytest run and shared across benchmark modules.  Every
benchmark prints the paper-comparable rows (visible with ``-s``) *and*
checks them against the committed ``benchmarks/results/<name>.txt``:
the paper tables are the reproduction's top-level golden.  To
re-record a table, delete its file and rerun the benchmark.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict

import pytest

from repro.datasets.cells import (
    AMARISOFT,
    CELL_PROFILES,
    MOSOLABS,
    TMOBILE_FDD,
    TMOBILE_TDD,
)
from repro.datasets.runner import make_cellular_session, make_wired_session

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Session length for distribution-style benchmarks.  The paper ran
#: 30-minute calls; distribution shapes here are stable from ~60 s.
SESSION_US = 60_000_000

_SEEDS = (1, 2)


def save_result(name: str, text: str) -> None:
    """Print a result table and check it against
    ``benchmarks/results/<name>.txt``, failing on the first line that
    differs.  A table with no file yet is written there."""
    print(f"\n=== {name} ===")
    print(text)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    if not os.path.exists(path):
        os.makedirs(RESULTS_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text + "\n")
        return
    with open(path) as handle:
        committed = handle.read().splitlines(keepends=True)
    now = (text + "\n").splitlines(keepends=True)
    lines = itertools.zip_longest(committed, now)
    for number, (want, got) in enumerate(lines, 1):
        if want != got:
            pytest.fail(
                f"{name}: line {number} differs from {path} "
                f"(delete the file and rerun to re-record it)\n"
                f"  committed: {want!r}\n  now:       {got!r}",
                pytrace=False,
            )


@pytest.fixture(scope="session")
def cell_results() -> Dict[str, list]:
    """One 60 s call per cell profile per seed: {profile_key: [results]}."""
    out: Dict[str, list] = {}
    for key, profile in CELL_PROFILES.items():
        runs = []
        for seed in _SEEDS:
            session = make_cellular_session(profile, seed=seed)
            runs.append(session.run(SESSION_US))
        out[key] = runs
    return out


@pytest.fixture(scope="session")
def fdd_results(cell_results):
    return cell_results["tmobile_fdd"]


@pytest.fixture(scope="session")
def commercial_results(cell_results):
    return cell_results["tmobile_fdd"] + cell_results["tmobile_tdd"]


@pytest.fixture(scope="session")
def private_results(cell_results):
    return cell_results["amarisoft"] + cell_results["mosolabs"]


@pytest.fixture(scope="session")
def wired_results():
    out = []
    for seed in _SEEDS:
        session = make_wired_session(seed=seed)
        out.append(session.run(SESSION_US))
    return out


@pytest.fixture(scope="session")
def wifi_results():
    out = []
    for seed in _SEEDS:
        session = make_wired_session(seed=seed, wifi=True)
        out.append(session.run(SESSION_US))
    return out
