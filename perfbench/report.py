#!/usr/bin/env python3
"""Print every benchmark metric, per workload.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--workload W]

For each workload this runs ``run.py`` untraced and prints every
end-to-end metric with its unit, then runs it traced and prints the
per-layer table of one pass, each row tagged with the end-to-end metric
a change to that layer should move (``catalogue.PER_LAYER``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from catalogue import DEV_SEED, PER_LAYER, WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """The result object one ``run.py`` invocation prints."""
    completed = subprocess.run(
        [
            sys.executable,
            RUN,
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(int(trace)),
        ],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _status(title: str, result: dict) -> str:
    return (
        f"{title}: correct={result['correct']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print every perfbench metric, per workload."
    )
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    moves = {name: tag for name, _, _, tag in PER_LAYER}
    for workload in args.workload or WORKLOADS:
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s)")
        result = run_workload(workload, args.seed, args.seconds, False)
        print(_status("end-to-end, tracing off", result))
        for name, metric in result["metrics"].items():
            print(f"  {name:<16} {metric['value']:>12.4f} {metric['unit']}")
        result = run_workload(workload, args.seed, args.seconds, True)
        print(_status("per layer, one traced pass", result))
        for name, metric in result["metrics"].items():
            print(
                f"  {name:<34} {metric['value']:>14.6g} "
                f"{metric['unit']:<6} {moves[name]}"
            )
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
