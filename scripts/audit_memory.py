"""Measure the time and memory of the bound audit on the logs of scenario runs.

Each scenario runs at each run length in a fresh Python process, which then
audits the log (``analysis.bound_audit``) and reports one line:

- ``rows``: the logged rows;
- ``audit_ms``: the audit's wall time, best of five calls after that one;
- ``heap_peak_mb``: the audit's heap peak above its inputs (tracemalloc);
- ``rss_growth_mb``: how far the process's peak RSS rose during the first
  audit of the whole log (``ru_maxrss``, read as kilobytes, as Linux
  reports it), after an audit of its first rows.

An MB here is 2**20 bytes, as in the benchmark's ``peak_rss_mb``.

    PYTHONPATH=src python3 scripts/audit_memory.py
"""

import argparse
import resource
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

from igcsim.analysis import MIN_AUDIT_SAMPLES, bound_audit
from igcsim.cli import parse_scenario
from igcsim.sim import SimLog, run

HERE = Path(__file__).resolve().parent
SHIPPED = [str(HERE / "scenarios" / name) for name in ("nominal.cfg", "weave_disturbed.cfg")]
T_MAX = [1.0, 4.0, None]  # None: the scenario's own
COLUMNS = ("scenario", "t_max", "rows", "audit_ms", "heap_peak_mb", "rss_growth_mb")


def measure(path: str, t_max: float | None) -> str:
    """One line of the report, measured in this process."""
    scenario = parse_scenario(path)
    if t_max is not None:
        scenario = replace(scenario, t_max=t_max)
    log, _ = run(scenario)
    # A first audit of the log's first rows loads what the audit loads once
    # per process, so that the RSS growth below is the audit's own.
    bound_audit(SimLog(log.table[:MIN_AUDIT_SAMPLES]), scenario)

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bound_audit(log, scenario)
    rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before

    times = []
    for _ in range(5):
        start = time.perf_counter()
        bound_audit(log, scenario)
        times.append(time.perf_counter() - start)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bound_audit(log, scenario)
        heap_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return (f"{Path(path).name} {scenario.t_max:g} {len(log)} {1e3 * min(times):.2f} "
            f"{heap_peak / 2**20:.3f} {rss_growth_kb / 1024:.3f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", action="append",
                        help="scenario file, repeatable (default: both shipped scenarios)")
    parser.add_argument("--t-max", type=float, action="append",
                        help="run length [s], repeatable (default: 1, 4 and the scenario's own)")
    parser.add_argument("--here", action="store_true",
                        help="measure the one scenario and run length in this process")
    args = parser.parse_args()

    if args.here:
        if len(args.scenario or ()) != 1 or len(args.t_max or ()) > 1:
            parser.error("--here takes one --scenario and at most one --t-max")
        print(measure(args.scenario[0], (args.t_max or [None])[0]))
        return
    print(" ".join(COLUMNS))
    for path in args.scenario or SHIPPED:
        for t_max in args.t_max or T_MAX:
            command = [sys.executable, __file__, "--here", "--scenario", path]
            if t_max is not None:
                command += ["--t-max", repr(t_max)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
            print(done.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
