"""Pin the default-seed outputs of the checked-out code as the benchmark reference.

    python3 perfbench/pin_reference.py [workload ...]

Runs each named workload (default: all) once at the default seed and writes
``reference/<workload>.npz`` (state log rows) or ``reference/<workload>.json``
(sweep points).  The committed files were pinned at the seed commit;
re-pin only when a change of results is intended and reviewed.
"""

import contextlib
import io
import sys

import run  # sets the thread environment before numpy loads
from checks import pin_reference
from workloads import DEFAULT_SEED, WORKLOADS


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    from igcsim import cli

    run.WORK.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        scenario = workload.write_scenario(DEFAULT_SEED, run.WORK)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workload.argv(scenario, run.WORK))
        if rc != 0:
            print(f"{name}: exit code {rc}, nothing pinned", file=sys.stderr)
            return 1
        print(f"{name}: pinned {pin_reference(workload, scenario.read_text(), run.WORK)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
