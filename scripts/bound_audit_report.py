"""Run an engagement and write the per-channel ISS envelope traces.

Each output row compares the measured channel norm against its decay-plus-
gain envelope; the margin column should stay nonnegative on a disturbance-
free, model-matched run.
"""

import argparse
from pathlib import Path

from igcsim.analysis import MIN_AUDIT_SAMPLES, bound_audit
from igcsim.cli import parse_scenario
from igcsim.sim import run

HERE = Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(HERE / "scenarios" / "nominal.cfg"))
    parser.add_argument("--out", default="bound_traces.csv")
    args = parser.parse_args()

    scenario = parse_scenario(args.scenario)
    log, summary = run(scenario)
    # As in `igcsim run --audit`, a log too short to audit is reported, not an
    # error; the CSV then holds only its header.
    audited = len(log) >= MIN_AUDIT_SAMPLES
    traces, total = bound_audit(log, scenario) if audited else ((), 0)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("channel,t,measured,bound,margin\n")
        for trace in traces:
            for i in range(trace.time.shape[0]):
                handle.write(f"{trace.channel},{trace.time[i]:.6f},"
                             f"{trace.measured[i]:.9e},{trace.bound[i]:.9e},"
                             f"{trace.margin[i]:.9e}\n")
    if audited:
        print(f"outcome: {summary.outcome}; audit violations: {total} -> {args.out}")
    else:
        print(f"outcome: {summary.outcome} -> {args.out}")
        print(f"bound audit: skipped, {len(log)} sample(s) logged (needs {MIN_AUDIT_SAMPLES})")
    for trace in traces:
        print(f"  {trace.channel}: worst margin {trace.worst_margin:.6g}")


if __name__ == "__main__":
    main()
