"""igcsim benchmark: run one workload, closed loop, and print its metrics.

    python3 perfbench/run.py --workload nominal-run --seed 1 --seconds 40 --trace 0

Run from the repository root.  The benchmark drives igcsim from outside,
through ``igcsim.cli.main``, in this one single-threaded process: it
generates the workload's scenario from the seed, then runs one CLI command
after another until the next would overrun ``--seconds``, checking every
command's outputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, with
tracing off.  ``--trace 1`` alternates untraced commands with commands
traced by wrapping the public functions of every igcsim module (see
tracer.py), and reports the per-layer metrics, the exact per-step counts
and the tracing overhead.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` engagements, ``metrics``.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, span_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUP_PROBES = 7

LAYERS = ("cli", "sim", "igc", "airframe", "engagement", "frames", "analysis")
TRACE_TARGETS = (
    "igcsim.cli:main",
    "igcsim.cli:parse_scenario",
    "igcsim.cli:write_csv_log",
    "igcsim.sim:run",
    "igcsim.sim:sweep",
    "igcsim.sim:rk4_step",
    "igcsim.sim:closed_loop_derivative",
    "igcsim.sim:FullState.from_array",
    "igcsim.igc:igc_step",
    "igcsim.igc:iss_control",
    "igcsim.igc:condition_estimate",
    "igcsim.airframe:g1",
    "igcsim.airframe:g1_series",
    "igcsim.airframe:attitude_derivatives",
    "igcsim.airframe:lift_side_accels",
    "igcsim.engagement:g0",
    "igcsim.engagement:evader_accel",
    "igcsim.engagement:relative_derivatives",
    "igcsim.engagement:VectorSignal.value",
    "igcsim.engagement:AxisSignal.value",
    "igcsim.frames:accel_velocity_to_los",
    "igcsim.frames:projection_matrix",
    "igcsim.analysis:bound_audit",
)
INVERSE = "numpy.linalg:inv"
TRACE_ERRORS = ("igcsim.errors:GuardError", "igcsim.errors:SingularityError")


@dataclass
class Operation:
    """One CLI command: its wall time, the process's peak RSS when it returned,
    its checked outputs and their digest."""

    wall: float
    peak_rss_kb: int
    verdict: checks.Verdict
    digest: str | None
    traced: bool


def _call_cli(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        return exc.code
    except Exception:  # a crash fails this command's engagements, not the run
        traceback.print_exc()
        return None


def _operation(cli, workload, argv, text, seed, tracer=None) -> Operation:
    for name in workload.outputs:
        (WORK / name).unlink(missing_ok=True)
    # Every command starts from a collected heap, as in a fresh process,
    # not with the previous command's checks still waiting to be collected.
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            start = time.perf_counter()
            rc = _call_cli(cli, argv)
            wall = time.perf_counter() - start
        else:
            tracer.install()
            try:
                start = time.perf_counter()
                rc = tracer.operation(lambda: _call_cli(cli, argv))
                wall = time.perf_counter() - start
            finally:
                tracer.uninstall()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    verdict = checks.check(workload, text, rc, WORK, seed)
    try:
        digest = checks.output_digest(workload, WORK)
    except OSError:
        digest = None
    return Operation(wall, peak_rss_kb, verdict, digest, tracer is not None)


def _setup_times(workload, seed) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
             "--seed", str(seed), "--work", str(WORK)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(probe.stdout.split()[0]))
    return times


def _tail(values):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None below 20 samples."""
    n = len(values)
    if n < 20:
        return None
    percentile = math.floor(100.0 * (1.0 - 10.0 / n))
    return percentile, sorted(values)[math.ceil(percentile / 100.0 * n) - 1]


def _timing_note(values, what: str) -> str:
    tail = _tail(values)
    extra = f", p{tail[0]} {tail[1]:.6g}" if tail else ", no tail percentile below 20 samples"
    return f"median of {len(values)} {what}{extra}"


def _declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _tally(ops) -> tuple[int, int, list[str]]:
    """Engagements attempted and failed; an operation whose output bytes differ
    from the first operation's fails all of its engagements."""
    attempted = failed = 0
    notes = []
    for i, op in enumerate(ops):
        attempted += op.verdict.attempted
        if op.digest is None or op.digest != ops[0].digest:
            failed += op.verdict.attempted
            notes.append(f"operation {i + 1}: output bytes differ from operation 1")
        else:
            failed += op.verdict.failed
        notes += [f"operation {i + 1}: {note}" for note in op.verdict.notes]
    return attempted, failed, notes


def _run_until(seconds, plan_first, plan_next, run_one) -> list[Operation]:
    """Run the first plan, then repeat the next plan while it still fits."""
    begin = time.perf_counter()
    ops = [run_one(traced) for traced in plan_first]
    while True:
        cost = sum(statistics.median(op.wall for op in ops if op.traced == traced)
                   for traced in plan_next)
        if time.perf_counter() - begin + cost > seconds:
            return ops
        ops += [run_one(traced) for traced in plan_next]


def end_to_end(cli, workload, argv, text, seed, seconds):
    setup = _setup_times(workload, seed)
    ops = _run_until(seconds, [False], [False],
                     lambda _: _operation(cli, workload, argv, text, seed))
    walls = [op.wall for op in ops]
    step_us = [1e6 * op.wall / max(op.verdict.steps, 1) for op in ops]
    values = {
        "wall_s": statistics.median(walls),
        "step_us": statistics.median(step_us),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": ops[0].peak_rss_kb / 1024.0,
    }
    notes = {
        "wall_s": _timing_note(walls, "operations"),
        "step_us": _timing_note(step_us, "operations"),
        "setup_s": _timing_note(setup, "fresh processes"),
        "peak_rss_mb": "this process, through its first command and before any check",
    }
    return ops, values, notes, []


def per_layer(cli, workload, argv, text, seed, seconds):
    tracer = Tracer(TRACE_TARGETS, counted=(INVERSE,), errors=TRACE_ERRORS)
    ops = _run_until(
        seconds, [False, True, True], [False, True],
        lambda traced: _operation(cli, workload, argv, text, seed, tracer if traced else None))
    tracer.write(WORK / f"spans-{workload.name}.npz")
    summaries = tracer.summaries()
    traced = [op for op in ops if op.traced]
    first, steps = summaries[0], traced[0].verdict.steps

    def median_of(key, name):
        return statistics.median(summary[key].get(name, 0.0) for summary in summaries)

    values = {}
    for target in TRACE_TARGETS:
        name = span_name(target)
        values[f"{name}.calls"] = first["calls"][name]
        values[f"{name}.self_s"] = median_of("self_s", name)
        values[f"{name}.total_s"] = median_of("total_s", name)
    for layer in LAYERS + ("harness",):
        values[f"{layer}.self_s"] = median_of("layer_self_s", layer)
    for layer in LAYERS:
        values[f"{layer}.errors"] = first["errors"].get(layer, 0)

    def per_step(count):
        return count / steps if steps else 0.0

    values.update({
        "sim.steps": steps,
        "igc.law_evals_per_step": per_step(first["calls"]["igc.igc_step"]),
        "igc.inversions_per_step": per_step(first["counted"].get(INVERSE, 0)),
        "airframe.g1_calls_per_step": per_step(first["calls"]["airframe.g1"]),
        "sim.derivs_per_step": per_step(first["calls"]["sim.closed_loop_derivative"]),
        "sim.from_array_per_step": per_step(first["calls"]["sim.FullState.from_array"]),
        "cli.write_csv_log.bytes": (
            (WORK / workload.outputs[0]).stat().st_size
            if first["calls"]["cli.write_csv_log"] and traced[0].digest else 0),
        "sim.sweep.points_attempted": traced[0].verdict.attempted if workload.command == "sweep" else 0,
        "sim.sweep.points_ok": (traced[0].verdict.attempted - traced[0].verdict.failed
                                if workload.command == "sweep" else 0),
        "trace.spans": first["spans"],
    })
    untraced_wall = statistics.median(op.wall for op in ops if not op.traced)
    traced_wall = statistics.median(op.wall for op in traced)
    values.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })

    problems = []
    exact = [(s["calls"], s["counted"], s["errors"], s["spans"]) for s in summaries]
    if any(counts != exact[0] for counts in exact[1:]):
        problems.append("traced operations disagree on their exact counts")
    if tracer.absent:
        print("absent trace targets (reported as 0 calls): " + ", ".join(tracer.absent))
    accounted = sum(first["layer_self_s"].get(layer, 0.0) for layer in LAYERS)
    print(f"module self times account for {accounted:.6g} s of the first traced "
          f"operation's {traced[0].wall:.6g} s; the harness for "
          f"{first['layer_self_s']['harness']:.6g} s")
    print("exact counts per step (first traced operation, "
          f"{steps} logged steps):")
    for name in ("igc.law_evals_per_step", "igc.inversions_per_step",
                 "airframe.g1_calls_per_step", "sim.derivs_per_step", "sim.from_array_per_step"):
        print(f"  {name:<32} {values[name]!r}")
    return ops, values, {}, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "igcsim" / "__init__.py").is_file():
        print(f"error: no igcsim package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from igcsim import cli

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    scenario = workload.write_scenario(args.seed, WORK)
    text = scenario.read_text(encoding="utf-8")
    command = workload.argv(scenario, WORK)
    kind = "per_layer" if args.trace else "end_to_end"
    declared = _declared_metrics(kind)
    measure = per_layer if args.trace else end_to_end
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("command: igcsim " + " ".join(command))

    ops, values, notes, problems = measure(cli, workload, command, text, args.seed, args.seconds)
    attempted, failed, failures = _tally(ops)
    if not checks.comparator_self_check(workload):
        problems.append("reference comparison accepts a reference nudged past its tolerance")
    if set(values) != set(declared):
        raise RuntimeError("metrics out of step with BENCHMARK.json: missing "
                           f"{sorted(set(declared) - set(values))}, undeclared "
                           f"{sorted(set(values) - set(declared))}")

    for i, op in enumerate(ops, start=1):
        print(f"  operation {i}: {op.wall:.6g} s, {op.verdict.steps} steps, "
              f"{'traced' if op.traced else 'untraced'}, "
              f"{op.verdict.failed} of {op.verdict.attempted} engagements failed")
    print(f"{kind} metrics:")
    for name, unit in declared.items():
        print(f"  {name:<42} {values[name]:<24.10g} {unit:<10} {notes.get(name, '')}")
    print(f"  {'failed_frac':<42} {failed / attempted:<24.10g} {'frac':<10} "
          f"{failed} of {attempted} engagements")
    for line in failures + problems:
        print(f"FAILED: {line}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
