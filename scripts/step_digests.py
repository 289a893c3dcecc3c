"""Print a digest of the step table and summary of each run variant.

The variants are each scenario in hold and substep control mode, with the
trig and linear plant, without a fin limit and with delta_max = 1e-3: 16
for the two shipped scenarios.  Each output line is the variant's name and
the sha256 of its step-table bytes followed by ``repr`` of its summary, so
two checkouts produce the same trajectories exactly when their outputs
match:

    PYTHONPATH=<checkout>/src python3 scripts/step_digests.py > digests.txt
"""

import argparse
import hashlib
import itertools
from dataclasses import replace
from pathlib import Path

from igcsim.cli import parse_scenario
from igcsim.sim import run

HERE = Path(__file__).resolve().parent
SHIPPED = [str(HERE / "scenarios" / name) for name in ("nominal.cfg", "weave_disturbed.cfg")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", action="append",
                        help="scenario file, repeatable (default: both shipped scenarios)")
    parser.add_argument("--t-max", type=float, help="run length [s] (default: each scenario's)")
    args = parser.parse_args()

    for path in args.scenario or SHIPPED:
        scenario = parse_scenario(path)
        if args.t_max is not None:
            scenario = replace(scenario, t_max=args.t_max)
        for update, plant, delta_max in itertools.product(("hold", "substep"), ("trig", "linear"),
                                                          (None, 1e-3)):
            log, summary = run(replace(scenario, control_update=update, plant_mode=plant,
                                       delta_max=delta_max))
            digest = hashlib.sha256(log.table.tobytes() + repr(summary).encode()).hexdigest()
            print(f"{Path(path).name} {update} {plant} delta_max={delta_max} {digest}")


if __name__ == "__main__":
    main()
