"""Command-line front end: scenario files, run/sweep/check-gains, CSV reports.

Scenario files are plain sectioned key-value text (``[section]`` headers,
``key = value`` lines, ``#`` comments).  Unknown sections or keys are
rejected; numbers are plain decimals with an optional exponent.  All
numeric output is printed at 17 significant digits so logs are bit-exact
across identical runs and survive a read-back round trip.

Exit codes: 0 intercept / certificate pass, 2 miss, timeout, guard breach,
or certificate fail, 3 inconclusive certificate, 1 error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, sim
from .airframe import AeroConfig
from .engagement import DisturbanceModel, EvaderModel
from .errors import GuardError, ScenarioError
from .igc import Gains
from .sim import Scenario, SimLog, SimSummary

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# Marks a key that a scenario file must give; every other key has a default.
REQUIRED = object()

# The [sim] keys are the Scenario fields other than its five parts.
_SCENARIO_PARTS = ("cfg", "gains", "initial", "evader", "disturbances")
_SIM_REQUIRED = ("dt", "t_max", "r_min", "r_max")


def _disturbance_items(model: DisturbanceModel):
    """(key, value) pairs of the flat [disturbance] section: ``<signal>_<field>``,
    with a three-axis amplitude as ``<signal>_amp_x/_y/_z``."""
    for signal in fields(model):
        source = getattr(model, signal.name)
        for field in fields(source):
            value = getattr(source, field.name)
            if isinstance(value, tuple):
                for axis, component in zip("xyz", value):
                    yield f"{signal.name}_amp_{axis}", component
            else:
                yield f"{signal.name}_{field.name}", value


# The scenario file layout, in file order: section -> key -> default.  A key
# whose default is a str takes a word; every other key takes a decimal.
SCHEMA = {
    "pursuer": dict.fromkeys((f.name for f in fields(AeroConfig)), REQUIRED),
    "initial": dict.fromkeys(sim.STATE_FIELDS, REQUIRED),
    "gains": dict.fromkeys((f.name for f in fields(Gains)), REQUIRED),
    "evader": {f.name: f.default for f in fields(EvaderModel)},
    "disturbance": dict(_disturbance_items(DisturbanceModel())),
    "sim": {f.name: REQUIRED if f.name in _SIM_REQUIRED else f.default
            for f in fields(Scenario) if f.name not in _SCENARIO_PARTS},
}

CSV_COLUMNS = (
    "t", "r", "vr", "theta_l", "phi_l", "x01", "x02", "theta_v", "psi_v",
    "gamma", "alpha", "beta", "wx", "wy", "wz", "pitch",
    "dx", "dy_fin", "dz_fin",
    "alpha_cmd", "beta_cmd", "wx_cmd", "wy_cmd", "wz_cmd",
    "norm_x0", "norm_eta1", "norm_eta2",
)


def _parse_sections(text: str, source: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current_name = line[1:-1].strip()
            if current_name not in SCHEMA:
                raise ScenarioError(f"{source}:{lineno}: unknown section [{current_name}]")
            if current_name in sections:
                raise ScenarioError(f"{source}:{lineno}: duplicate section [{current_name}]")
            current = sections.setdefault(current_name, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ScenarioError(f"{source}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA[current_name]:
            raise ScenarioError(
                f"{source}:{lineno}: unknown key {key!r} in section [{current_name}]")
        if key in current:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        if not isinstance(SCHEMA[current_name][key], str) and not _NUMBER.match(value):
            raise ScenarioError(
                f"{source}:{lineno}: {current_name}.{key}: not a decimal number: {value!r}")
        current[key] = value
    return sections


def _section(sections, name: str) -> dict:
    """Typed values of one section, with the defaults of the keys not given."""
    schema = SCHEMA[name]
    given = sections.get(name)
    if given is None:
        if REQUIRED in schema.values():
            raise ScenarioError(f"missing required section [{name}]")
        given = {}
    missing = [key for key, default in schema.items()
               if default is REQUIRED and key not in given]
    if missing:
        raise ScenarioError(
            f"missing required key(s) in [{name}]: " + ", ".join(missing))
    values = {}
    for key, default in schema.items():
        if key not in given:
            values[key] = default
        elif isinstance(default, str):
            values[key] = given[key]
        else:
            values[key] = float(given[key])
    return values


def _build(section: str, factory, kwargs, key_prefix: str = ""):
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise ScenarioError(
            f"{section}.{key_prefix}{exc}" if ":" in str(exc) else f"{section}: {exc}")


def parse_scenario(path) -> Scenario:
    """Read and fully validate a scenario file."""
    source = str(path)
    text = Path(path).read_text(encoding="utf-8")
    sections = _parse_sections(text, source)

    cfg = _build("pursuer", AeroConfig, _section(sections, "pursuer"))
    gains = _build("gains", Gains, _section(sections, "gains"))
    initial = tuple(_section(sections, "initial").values())  # STATE_FIELDS order
    evader = _build("evader", EvaderModel, _section(sections, "evader"))

    flat = _section(sections, "disturbance")
    signals = {}
    for signal in fields(DisturbanceModel):
        signal_type, prefix = type(signal.default), f"{signal.name}_"
        kwargs = {
            f.name: (tuple(flat[f"{prefix}amp_{axis}"] for axis in "xyz")
                     if isinstance(f.default, tuple) else flat[prefix + f.name])
            for f in fields(signal_type)
        }
        signals[signal.name] = _build("disturbance", signal_type, kwargs, key_prefix=prefix)

    sim_values = _section(sections, "sim")
    try:  # the whole scenario is checked when built, after every section
        return Scenario(cfg=cfg, gains=gains, initial=initial, evader=evader,
                        disturbances=DisturbanceModel(**signals), **sim_values)
    except ValueError as exc:
        raise ScenarioError(str(exc))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the file format (parse round-trips exactly)."""
    values = {
        "pursuer": vars(scenario.cfg),
        "initial": dict(zip(sim.STATE_FIELDS, scenario.initial)),
        "gains": vars(scenario.gains),
        "evader": vars(scenario.evader),
        "disturbance": dict(_disturbance_items(scenario.disturbances)),
        "sim": vars(scenario),
    }
    blocks = []
    for name, schema in SCHEMA.items():
        lines = [f"[{name}]"]
        for key, default in schema.items():
            value = values[name][key]
            if value is None:  # an unset optional value, such as no fin limit
                continue
            lines.append(f"{key} = {value if isinstance(default, str) else _fmt(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"


def _write_rows(handle, table) -> None:
    """The one CSV formatter: write the rows of the step table ``table`` to
    ``handle``."""
    # sim.LOG_BLOCK rows at a time: the whole table's text at once would
    # raise the peak memory of `igcsim run` on nominal.cfg by about 40 %.
    for start in range(0, len(table), sim.LOG_BLOCK):
        log = SimLog(table[start:start + sim.LOG_BLOCK])
        rows = np.column_stack([
            log.t, log.states, log.fins, log.x1_sharp_cmd, log.x2_cmd,
            log.x0_norm, log.eta1_norm, log.eta2_norm,
        ])
        handle.write((_CSV_ROW * len(log)) % tuple(rows.ravel().tolist()))


def _write_csv(handle, tables) -> None:
    """Write the CSV header to ``handle``, then the rows of each step table
    in ``tables``."""
    handle.write(_CSV_HEADER)
    for table in tables:
        _write_rows(handle, table)


def _table(block) -> np.ndarray:
    """The step-table rows of a block of :func:`sim.stream`, or of its bytes."""
    return np.frombuffer(block).reshape(-1, sim.LOG_WIDTH)


def _run_writer(handle, rows_in: int) -> None:
    """The body of the forked CSV writer: format the step-table rows
    arriving on the pipe ``rows_in`` into ``handle`` until the pipe closes."""
    block_bytes = sim.LOG_BLOCK * sim.LOG_WIDTH * 8
    with open(rows_in, "rb") as rows:
        # read(n) returns n bytes, short only at the end of the stream.
        blocks = iter(lambda: rows.read(block_bytes), b"")
        _write_csv(handle, map(_table, blocks))
    handle.close()


# Room for 20 blocks of rows in the pipe to the writer, so the steps run on
# while the writer falls behind for a while, as when another process holds
# its CPU.  The default 64 KiB holds one block.
_PIPE_BYTES = 1 << 20


def _widen_pipe(fd: int) -> None:
    """Ask for _PIPE_BYTES of buffer in the pipe ``fd`` where the platform
    allows it (Linux, up to fs.pipe-max-size); elsewhere keep its size."""
    import fcntl  # here, not at module top: only the forked writer needs it

    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # no F_SETPIPE_SZ, or over the limit
        pass


@contextmanager
def _csv_writer(path):
    """Write the CSV log at ``path`` in this process as the run steps:
    yields the ``on_block`` callback of :func:`sim.stream`, which formats
    each block of rows.  The file is opened, and its header written, here."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_CSV_HEADER)
        yield lambda block: _write_rows(handle, _table(block))


@contextmanager
def _forked_csv_writer(path):
    """Write the CSV log at ``path`` from a forked process while the run
    steps: yields the ``on_block`` callback of :func:`sim.stream`, which
    sends each block of rows to the writer through a pipe as raw bytes.

    The file is opened here, so an open error is raised before any step.
    However the ``with`` block ends, the pipe is then closed and the writer
    reaped; the writer's own exception, if it raised one, is raised here."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = sim.ChildProcess(partial(_run_writer, handle))
    # This process's copy of the handle was closed unwritten.
    rows = writer.to_child
    _widen_pipe(rows.fileno())

    def send(block) -> None:
        rows.write(block)
        rows.flush()

    try:
        yield send
    except BrokenPipeError:
        pass  # the writer ended before the stream did: its error is raised below
    finally:
        ok, error = writer.reap() or (False, OSError("CSV log writer ended before the log did"))
    if not ok:
        raise error


def read_csv_log(path) -> dict[str, np.ndarray]:
    """Read a CSV log back into named columns.  Raises ScenarioError naming
    the line of a row that is not one number per column."""
    width = len(CSV_COLUMNS)
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ScenarioError(f"{path}: unexpected CSV header")
        data = []
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                row = [float(cell) for cell in line.strip().split(",")]
            except ValueError as exc:  # "could not convert string to float: '...'"
                raise ScenarioError(f"{path}:{lineno}: {exc}") from None
            if len(row) != width:
                raise ScenarioError(f"{path}:{lineno}: expected {width} numbers, got {len(row)}")
            data.append(row)
    table = np.array(data) if data else np.empty((0, width))
    return {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}


def _summary_dict(summary: SimSummary) -> dict:
    out = asdict(summary)
    if summary.audit_violations is None:
        del out["audit_violations"]
    # Strict JSON has no NaN or infinity, e.g. the sup over a zero-step run.
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in out.items()}


def _print_summary(summary: SimSummary) -> None:
    print(f"outcome: {summary.outcome}")
    print(f"flight time: {summary.flight_time:.6g} s over {summary.steps} steps")
    print(f"final range: {summary.final_r:.6g} m "
          f"(miss distance {summary.miss_distance:.6g} m)")
    print(f"post-transient sup |x0|: {summary.post_transient_sup_x0:.6g} rad/s")
    if summary.message:
        print(f"note: {summary.message}")


def cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    # The steps and the CSV formatting are two tasks: a forked writer formats
    # the log while the steps run where sim.fork_workers allows, else this
    # process formats each block as it comes.  Either way the file is opened
    # first, and no block outlives its consumers.
    sink = _forked_csv_writer if sim.fork_workers(2) > 1 else _csv_writer
    audit = analysis.BlockAudit(scenario) if args.audit else None
    with sink(args.out_csv) as write:
        def on_block(block) -> None:
            write(block)
            if audit is not None:
                audit(block)

        summary = sim.stream(scenario, on_block)
        audited = audit is not None and summary.steps >= analysis.MIN_AUDIT_SAMPLES
        if audited:
            audit.close()
            summary = replace(summary, audit_violations=tuple(audit.violations.tolist()))
    _print_summary(summary)
    if audited:
        print(f"bound audit: {sum(summary.audit_violations)} violation(s)")
        for channel, count, margin in zip(analysis.CHANNELS, summary.audit_violations,
                                          audit.worst_margins.tolist()):
            print(f"  {channel}: {count} violation(s), worst margin {margin:.6g}")
    elif args.audit:
        print(f"bound audit: skipped, {summary.steps} sample(s) logged "
              f"(needs {analysis.MIN_AUDIT_SAMPLES})")
    if args.summary_json:
        Path(args.summary_json).write_text(
            json.dumps(_summary_dict(summary), indent=2) + "\n", encoding="utf-8")
    return 0 if summary.outcome == sim.OUTCOME_INTERCEPT else 2


def _parse_grid(specs, base: Gains) -> list[Gains]:
    assignments = {}
    for spec in specs:
        if "=" not in spec:
            raise ScenarioError(f"malformed grid spec {spec!r}, expected name=v1,v2,...")
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in SCHEMA["gains"]:
            raise ScenarioError(
                f"grid parameter must be one of {', '.join(SCHEMA['gains'])}, got {name!r}")
        if name in assignments:
            raise ScenarioError(f"grid parameter {name!r} given in more than one --grid")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError(f"malformed grid values in {spec!r}")
        if not parsed:
            raise ScenarioError(f"empty grid values in {spec!r}")
        assignments[name] = parsed
    lengths = {len(v) for v in assignments.values()}
    if len(lengths) != 1:
        raise ScenarioError("grid parameters must list the same number of values "
                            "(they vary jointly)")
    count = lengths.pop()
    grid = []
    for i in range(count):
        grid.append(replace(base, **{name: values[i] for name, values in assignments.items()}))
    return grid


def cmd_sweep(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = _parse_grid(args.grid, scenario.gains)
    header = list(SCHEMA["gains"]) + ["outcome", "final_r", "flight_time",
                                  "miss_distance", "post_transient_sup_x0", "error"]
    with open(args.out_table, "w", encoding="utf-8", newline="\n") as handle:
        points = sim.sweep(scenario, grid)  # after the open, so a bad path fails first
        handle.write(",".join(header) + "\n")
        for point in points:
            cells = [_fmt(getattr(point.gains, k)) for k in SCHEMA["gains"]]
            if point.summary is not None:
                s = point.summary
                cells += [s.outcome, _fmt(s.final_r), _fmt(s.flight_time),
                          _fmt(s.miss_distance), _fmt(s.post_transient_sup_x0), ""]
            else:
                cells += ["error", "", "", "", "", point.error.replace(",", ";")]
            handle.write(",".join(cells) + "\n")
    print(f"swept {len(points)} point(s) -> {args.out_table}")
    return 0


def cmd_check_gains(args) -> int:
    for flag, value in (("--g0-norm", args.g0_norm), ("--g1-norm", args.g1_norm),
                        ("--gamma0y", args.gamma0y), ("--gamma2y", args.gamma2y)):
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ScenarioError(f"{flag}: must be finite and >= 0, got {value!r}")
    scenario = parse_scenario(args.scenario)
    g0_norm = args.g0_norm if args.g0_norm is not None else \
        analysis.worst_case_g0_norm(scenario.cfg, scenario.r_min)
    g1_scanned = args.g1_norm is None
    g1_norm = analysis.worst_case_g1_norm() if g1_scanned else args.g1_norm
    certificate = analysis.build_certificate(
        scenario.gains, g0_norm, g1_norm,
        gamma_0y_est=args.gamma0y, gamma_2y_est=args.gamma2y, g1_scanned=g1_scanned)
    print(certificate.render())
    if certificate.passed is None:
        return 3
    return 0 if certificate.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igcsim",
        description="3D pursuit-evasion engagement simulator with an "
                    "ISS/small-gain integrated guidance and control law.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one engagement and write a CSV log")
    p_run.add_argument("scenario", help="scenario file path")
    p_run.add_argument("out_csv", help="output CSV log path")
    p_run.add_argument("--audit", action="store_true",
                       help="also audit the trajectory against the ISS envelopes")
    p_run.add_argument("--summary-json", metavar="PATH",
                       help="write the run summary as JSON")
    p_run.set_defaults(handler=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a gain sweep and write a result table")
    p_sweep.add_argument("scenario", help="scenario file path")
    p_sweep.add_argument("out_table", help="output CSV table path")
    p_sweep.add_argument("--grid", action="append", required=True,
                         metavar="PARAM=V1,V2,...",
                         help="gain values to sweep; repeat to vary several "
                              "parameters jointly (equal lengths, zipped)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_check = sub.add_parser("check-gains", help="print the small-gain certificate")
    p_check.add_argument("scenario", help="scenario file path")
    p_check.add_argument("--g0-norm", type=float, default=None,
                         help="bound on the guidance input-map norm "
                              "(default: worst case over the declared range band)")
    p_check.add_argument("--g1-norm", type=float, default=None,
                         help="bound on the rate mixing-matrix norm "
                              "(default: grid scan over the flight domain)")
    p_check.add_argument("--gamma0y", type=float, default=None,
                         help="estimated outer gain of the guidance/attitude loop")
    p_check.add_argument("--gamma2y", type=float, default=None,
                         help="estimated outer gain of the attitude/rate loop")
    p_check.set_defaults(handler=cmd_check_gains)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, GuardError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
