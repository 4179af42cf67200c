"""The benchmarks' shared helpers resolve whatever else pytest collects.

``tests/`` and ``benchmarks/`` each have a ``conftest.py``, and pytest
puts both directories on ``sys.path``, so a benchmark that imported a
helper ``from conftest`` got the one whose directory came first.  The
helpers live in ``benchmarks/paper_tables.py``, a name only one
directory has.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_collects_beside_a_tests_module():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q",
            "-p", "no:cacheprovider",
            "benchmarks/test_fig11_codegen.py", "tests/test_store.py",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
