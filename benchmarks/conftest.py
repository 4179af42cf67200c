"""Shared benchmark fixtures.

Simulated sessions are the expensive part, so each distinct session is
built once per pytest run and shared across benchmark modules.  The
paper tables they feed are the reproduction's top-level golden
(``paper_tables.save_result``).
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.datasets.cells import CELL_PROFILES
from repro.datasets.runner import make_cellular_session, make_wired_session

#: Session length for distribution-style benchmarks.  The paper ran
#: 30-minute calls; distribution shapes here are stable from ~60 s.
SESSION_US = 60_000_000

_SEEDS = (1, 2)


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
