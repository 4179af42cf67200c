"""The paper tables' golden check, imported by every benchmark module.

Every benchmark prints the paper-comparable rows (visible with ``-s``)
*and* checks them against the committed ``benchmarks/results/<name>.txt``.
To re-record a table, delete its file and rerun the benchmark.  The
module's name is one only ``benchmarks/`` has, so the import resolves
the same whichever directory pytest put first on ``sys.path``.
"""

import itertools
import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


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
