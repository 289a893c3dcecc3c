"""Measure the time and memory of the bound audit on the logs of scenario
runs, and the memory of the whole ``igcsim run --audit`` command.

Each scenario runs at each run length in a fresh Python process, which then
audits the log (``analysis.bound_audit``) and the run's blocks as
``sim.stream`` hands them on (``analysis.BlockAudit``, what ``igcsim run
--audit`` pays), and reports one line of the first table:

- ``rows``: the logged rows;
- ``audit_ms``: ``bound_audit``'s wall time, best of five calls after that
  one;
- ``heap_peak_mb``: ``bound_audit``'s heap peak above its inputs
  (tracemalloc), its output columns among it;
- ``rss_growth_mb``: how far the process's peak RSS rose during the first
  ``bound_audit`` of the whole log (``ru_maxrss``, read as kilobytes, as
  Linux reports it), after an audit of its first rows;
- ``stream_audit_ms``: the wall time of ``BlockAudit`` fed the run's
  blocks, one pass per block, then closed: best of five;
- ``stream_heap_peak_mb``: its heap peak above the blocks it is fed.

Then, in a fresh Python process per scenario and step ``dt``, ``igcsim run
<scenario> out.csv --audit`` runs through ``cli.main`` and reports one line
of the second table:

- ``steps``: the steps the run logged;
- ``run_rss_growth_mb``: how far the process's peak RSS rose during the
  command, over the process that has imported igcsim and written the
  scenario file.  Where the CSV writer is forked, its own memory is not
  in it.

An MB here is 2**20 bytes, as in the benchmark's ``peak_rss_mb``.

    PYTHONPATH=src python3 scripts/audit_memory.py
"""

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

from igcsim.analysis import MIN_AUDIT_SAMPLES, BlockAudit, bound_audit
from igcsim.cli import main as igcsim_main, parse_scenario, serialize_scenario
from igcsim.sim import SimLog, run

HERE = Path(__file__).resolve().parent
SHIPPED = [str(HERE / "scenarios" / name) for name in ("nominal.cfg", "weave_disturbed.cfg")]
T_MAX = [1.0, 4.0, None]  # None: the scenario's own
DT = [1e-3, 1e-4]
COLUMNS = ("scenario", "t_max", "rows", "audit_ms", "heap_peak_mb", "rss_growth_mb",
           "stream_audit_ms", "stream_heap_peak_mb")
COMMAND_COLUMNS = ("scenario", "dt", "steps", "run_rss_growth_mb")


def measure(path: str, t_max: float | None) -> str:
    """One line of the report, measured in this process."""
    scenario = parse_scenario(path)
    if t_max is not None:
        scenario = replace(scenario, t_max=t_max)
    blocks = []  # the run's blocks, as sim.stream hands them on
    log, _ = run(scenario, blocks.append)
    # A first audit of the log's first rows loads what the audit loads once
    # per process, so that the RSS growth below is the audit's own.
    bound_audit(SimLog(log.table[:MIN_AUDIT_SAMPLES]), scenario)

    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bound_audit(log, scenario)
    rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before

    def audit_blocks() -> None:
        audit = BlockAudit(scenario)
        for block in blocks:
            audit(block)
        audit.close()

    cells = []
    for audit in (partial(bound_audit, log, scenario), audit_blocks):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            audit()
            times.append(time.perf_counter() - start)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            audit()
            heap_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        cells.append(f"{1e3 * min(times):.2f} {heap_peak / 2**20:.3f}")
    return (f"{Path(path).name} {scenario.t_max:g} {len(log)} {cells[0]} "
            f"{rss_growth_kb / 1024:.3f} {cells[1]}")


def measure_command(path: str, dt: float) -> str:
    """One line of the command table, measured in this process."""
    scenario = replace(parse_scenario(path), dt=dt)
    with tempfile.TemporaryDirectory() as tmp:
        variant, summary = Path(tmp) / "scenario.cfg", Path(tmp) / "summary.json"
        variant.write_text(serialize_scenario(scenario), encoding="utf-8")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with contextlib.redirect_stdout(io.StringIO()):
            igcsim_main(["run", str(variant), str(Path(tmp) / "out.csv"), "--audit",
                         "--summary-json", str(summary)])
        rss_growth_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        steps = json.loads(summary.read_text())["steps"]
    return f"{Path(path).name} {dt:g} {steps} {rss_growth_kb / 1024:.3f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", action="append",
                        help="scenario file, repeatable (default: both shipped scenarios)")
    parser.add_argument("--t-max", type=float, action="append",
                        help="run length [s], repeatable (default: 1, 4 and the scenario's own)")
    parser.add_argument("--dt", type=float, action="append",
                        help="step of the whole-command rows [s], repeatable (default: 1e-3 and 1e-4)")
    parser.add_argument("--here", action="store_true",
                        help="measure the one scenario and run length in this process")
    parser.add_argument("--here-command", action="store_true",
                        help="measure the one scenario's command at the one --dt in this process")
    args = parser.parse_args()

    if args.here or args.here_command:
        if len(args.scenario or ()) != 1 or len(args.t_max or ()) > 1 or len(args.dt or ()) > 1:
            parser.error("--here and --here-command take one --scenario and at most one "
                         "--t-max or --dt")
        if args.here:
            print(measure(args.scenario[0], (args.t_max or [None])[0]))
        else:
            print(measure_command(args.scenario[0], (args.dt or DT)[0]))
        return
    for columns, flag, values, option in ((COLUMNS, "--here", args.t_max or T_MAX, "--t-max"),
                                          (COMMAND_COLUMNS, "--here-command", args.dt or DT,
                                           "--dt")):
        print(" ".join(columns))
        for path in args.scenario or SHIPPED:
            for value in values:
                command = [sys.executable, __file__, flag, "--scenario", path]
                if value is not None:
                    command += [option, repr(value)]
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
                print(done.stdout, end="", flush=True)


if __name__ == "__main__":
    main()
