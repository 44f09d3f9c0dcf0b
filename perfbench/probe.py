"""Set-up probe: a fresh interpreter runs a workload up to its first timed call.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED``

It imports the workload, builds its inputs, does its warm-up and prints
the monotonic clock. The runner subtracts the time it launched the
probe, so set-up covers interpreter start, imports, input build and
warm-up: everything a user pays before the first timed call.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    from perfbench.workloads import SIM_WORKLOADS

    workload = SIM_WORKLOADS[argv[0]]
    workload.warm(workload.prepare(int(argv[1])))
    print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
