"""Steadiness check of the benchmark's traced run.

    python3 bench/steady.py [--seed N] [--workload NAME ...]

Runs ``run.py --trace 1`` twice per workload with the same seed, each in
its own process, and requires every count the trace reports (calls, atoms,
scenario ids, bytes and the witness hit ratio) to be exactly equal between
the two runs.  It compares the runs with each other and pins no value, so
an optimization may move the counts.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

# Units of metrics that are measured times, which are expected to differ.
TIMED_UNITS = {"s/op", "ms"}
TIMED_NAMES = {"trace.overhead_ratio"}


def traced_counts(workload: str, seed: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run was not correct:\n{proc.stdout}")
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] not in TIMED_UNITS and name not in TIMED_NAMES
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    differ = 0
    for workload in args.workload or list(WORKLOADS):
        first, second = traced_counts(workload, args.seed), traced_counts(workload, args.seed)
        for name in sorted(first.keys() | second.keys()):
            same = first.get(name) == second.get(name)
            differ += not same
            print(f"{'same  ' if same else 'DIFFER'} {workload} {name} {first.get(name)!r} {second.get(name)!r}")
    print("steady" if not differ else f"{differ} counts differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
