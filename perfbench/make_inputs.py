"""Set-up step of one benchmark run: simulate and write a workload's inputs.

    python3 perfbench/make_inputs.py WORKLOAD SEED WORKDIR

``run.py`` runs this in a child process several times and reports the
median wall time as ``setup_s``; running it apart keeps set-up memory
out of the measured process's peak RSS.
"""

from __future__ import annotations

import sys

import bootstrap


def main(argv) -> None:
    bootstrap.require_program()
    import workloads

    workload, seed, workdir = argv[1], int(argv[2]), argv[3]
    workloads.build_inputs(workload, seed, workdir)


if __name__ == "__main__":
    main(sys.argv)
