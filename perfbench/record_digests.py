#!/usr/bin/env python3
"""Record the output digests every pass of ``run.py`` is checked against.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED [--workload W]

For each seed in the inclusive range, plus the development and held-out
seeds, builds each workload's inputs in this process, digests its
outputs, and merges them into ``digests.json``.  The digests pin the
program's outputs at the commit that recorded them, so a change that
alters any output shows up as failed operations.  Re-record only for a
change that is meant to alter outputs.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import bootstrap
from catalogue import DEV_SEED, HELD_OUT_SEED, WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record output digests.")
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    bootstrap.require_program()
    import workloads

    seeds = sorted(
        set(range(args.first, args.last + 1)) | {DEV_SEED, HELD_OUT_SEED}
    )
    for name in args.workload or WORKLOADS:
        for seed in seeds:
            workdir = os.path.join(
                bootstrap.WORK_ROOT, f"record-{name}-{seed}-{os.getpid()}"
            )
            try:
                workloads.build_inputs(name, seed, workdir)
                entry = workloads.load(name, seed, workdir).committed_form()
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            workloads.save_digests(name, seed, entry)
            print(f"{name} seed {seed}: {len(entry)} digests", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
