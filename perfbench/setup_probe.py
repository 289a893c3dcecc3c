"""One fresh-process set-up of a workload, timed: import igcsim, then build
the workload's scenario and gain grid.  Prints the seconds it took.

    python3 perfbench/setup_probe.py --workload weave-sweep --seed 0

run.py starts it several times per run and reports the median as setup_s.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import SWEEP_POINTS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from igcsim.cli import parse_scenario

    workload = WORKLOADS[args.workload]
    scenario = parse_scenario(workload.write_scenario(args.seed, args.work, f"probe-{workload.name}"))
    grid = [replace(scenario.gains, **point) for point in SWEEP_POINTS] \
        if workload.command == "sweep" else []
    elapsed = time.perf_counter() - START
    print(f"{elapsed!r} s, {len(grid)} grid points")


if __name__ == "__main__":
    main()
