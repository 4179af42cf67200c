"""Locate the repository and put its ``src`` directory on the import path.

The benchmark files live in their own directory beside ``src``; every
entry point imports this module first, so ``import repro`` resolves to
the checkout being measured.  Inputs and scratch state of a run go
under ``WORK_ROOT``, inside the checkout and ignored by git.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")


def require_program() -> None:
    """Exit with status 2 unless the program's sources are present."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            "perfbench: no src/repro package beside the benchmark; run it "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
