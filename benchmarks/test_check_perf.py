"""The perf gate itself: ``check_perf.main`` over doctored results.

Each case starts from ``benchmarks/results/BENCH_scaling.json`` as it
stands when the test runs: the committed file on a fresh checkout,
since this module sorts before the scaling benchmark that rewrites it.
Every row of ``FLOOR_GATES`` and ``CEILING_GATES`` must fail once its
value is pushed past its bound, naming itself on stderr, and every
gated block must fail when it is missing.
"""

import copy
import json

import pytest

import check_perf

ROWS = [(row, "ceiling") for row in check_perf.CEILING_GATES] + [
    (row, "floor") for row in check_perf.FLOOR_GATES
]


@pytest.fixture(scope="module")
def committed():
    with open(check_perf.RESULTS) as handle:
        return json.load(handle)


def _run(results, tmp_path):
    path = tmp_path / "results.json"
    path.write_text(json.dumps(results))
    return check_perf.main(["check_perf.py", str(path), check_perf.BASELINE])


def test_committed_results_pass(committed, tmp_path, capsys):
    assert _run(committed, tmp_path) == 0
    assert "perf-smoke OK" in capsys.readouterr().out


@pytest.mark.parametrize(
    "row, kind", ROWS, ids=[f"{row[0]}.{row[1]}" for row, _ in ROWS]
)
def test_each_row_fails_past_its_bound(committed, tmp_path, capsys, row, kind):
    block_name, key, bound, _, _ = row
    results = copy.deepcopy(committed)
    block = results[block_name]
    if callable(bound):
        bound = bound(block)
    block[key] = bound * 2 + 1 if kind == "ceiling" else bound / 2
    assert _run(results, tmp_path) == 1
    assert f"{block_name}.{key}: " in capsys.readouterr().err


@pytest.mark.parametrize("block_name", sorted(check_perf.GATED_BLOCKS))
def test_each_missing_block_fails(committed, tmp_path, capsys, block_name):
    results = copy.deepcopy(committed)
    del results[block_name]
    assert _run(results, tmp_path) == 1
    assert f"results have no {block_name} block" in capsys.readouterr().err
