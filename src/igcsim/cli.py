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
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, sim
from .airframe import AeroConfig, AttitudeState
from .engagement import AxisSignal, DisturbanceModel, EngagementState, EvaderModel, VectorSignal
from .errors import GuardError, ScenarioError
from .igc import Gains
from .sim import FullState, Scenario, SimLog, SimSummary

_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

_PURSUER_KEYS = (
    "mass", "thrust", "speed", "air_density", "ref_area", "ref_length",
    "lift_slope", "side_slope", "roll_moment_fin", "yaw_moment_beta",
    "yaw_moment_fin", "pitch_moment_alpha", "pitch_moment_fin",
    "inertia_x", "inertia_y", "inertia_z",
)
_INITIAL_KEYS = sim.STATE_FIELDS
_GAINS_KEYS = ("k0", "k1", "k2", "delta0", "delta1", "delta2")
_EVADER_KEYS = ("kind", "accel_r", "accel_theta", "accel_phi",
                "frequency", "phase", "step_time")
_DISTURBANCE_KEYS = (
    "rate_kind", "rate_amp_x", "rate_amp_y", "rate_amp_z", "rate_frequency", "rate_phase",
    "accel_kind", "accel_amp_x", "accel_amp_y", "accel_amp_z", "accel_frequency", "accel_phase",
    "lift_kind", "lift_amplitude", "lift_frequency", "lift_phase",
    "side_kind", "side_amplitude", "side_frequency", "side_phase",
)
_SIM_KEYS = ("dt", "t_max", "r_intercept", "r_min", "r_max", "plant_mode",
             "delta_max", "divergence_factor", "control_update")
_SECTIONS = {
    "pursuer": _PURSUER_KEYS,
    "initial": _INITIAL_KEYS,
    "gains": _GAINS_KEYS,
    "evader": _EVADER_KEYS,
    "disturbance": _DISTURBANCE_KEYS,
    "sim": _SIM_KEYS,
}
_STRING_KEYS = {
    ("evader", "kind"), ("sim", "plant_mode"), ("sim", "control_update"),
    ("disturbance", "rate_kind"), ("disturbance", "accel_kind"),
    ("disturbance", "lift_kind"), ("disturbance", "side_kind"),
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
            if current_name not in _SECTIONS:
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
        if key not in _SECTIONS[current_name]:
            raise ScenarioError(
                f"{source}:{lineno}: unknown key {key!r} in section [{current_name}]")
        if key in current:
            raise ScenarioError(f"{source}:{lineno}: duplicate key {key!r}")
        if (current_name, key) not in _STRING_KEYS and not _NUMBER.match(value):
            raise ScenarioError(
                f"{source}:{lineno}: {current_name}.{key}: not a decimal number: {value!r}")
        current[key] = value
    return sections


def _require(sections, section: str, keys) -> dict[str, float]:
    table = sections.get(section)
    if table is None:
        raise ScenarioError(f"missing required section [{section}]")
    missing = [k for k in keys if k not in table]
    if missing:
        raise ScenarioError(
            f"missing required key(s) in [{section}]: " + ", ".join(missing))
    return {k: float(table[k]) for k in keys}


def _build(section: str, factory, *args, **kwargs):
    try:
        return factory(*args, **kwargs)
    except (ValueError, GuardError) as exc:
        raise ScenarioError(f"{section}.{exc}" if ":" in str(exc) else f"{section}: {exc}")


def parse_scenario(path) -> Scenario:
    """Read and fully validate a scenario file."""
    source = str(path)
    text = Path(path).read_text(encoding="utf-8")
    sections = _parse_sections(text, source)

    cfg = _build("pursuer", AeroConfig, **_require(sections, "pursuer", _PURSUER_KEYS))
    gains = _build("gains", Gains, **_require(sections, "gains", _GAINS_KEYS))
    init = _require(sections, "initial", _INITIAL_KEYS)
    initial = FullState(
        engagement=_build("initial", EngagementState,
                          **{k: init[k] for k in sim.STATE_FIELDS[:8]}),
        attitude=_build("initial", AttitudeState,
                        **{k: init[k] for k in sim.STATE_FIELDS[8:]}),
    )

    ev = sections.get("evader", {})
    evader = _build(
        "evader", EvaderModel,
        kind=ev.get("kind", "constant"),
        accel_r=float(ev.get("accel_r", 0.0)),
        accel_theta=float(ev.get("accel_theta", 0.0)),
        accel_phi=float(ev.get("accel_phi", 0.0)),
        frequency=float(ev.get("frequency", 0.0)),
        phase=float(ev.get("phase", 0.0)),
        step_time=float(ev.get("step_time", 0.0)),
    )

    dist = sections.get("disturbance", {})

    def vector_signal(prefix: str) -> VectorSignal:
        try:
            return VectorSignal(
                kind=dist.get(f"{prefix}_kind", "zero"),
                amplitude=(
                    float(dist.get(f"{prefix}_amp_x", 0.0)),
                    float(dist.get(f"{prefix}_amp_y", 0.0)),
                    float(dist.get(f"{prefix}_amp_z", 0.0)),
                ),
                frequency=float(dist.get(f"{prefix}_frequency", 0.0)),
                phase=float(dist.get(f"{prefix}_phase", 0.0)),
            )
        except ValueError as exc:
            raise ScenarioError(f"disturbance.{prefix}_{exc}")

    def axis_signal(prefix: str) -> AxisSignal:
        try:
            return AxisSignal(
                kind=dist.get(f"{prefix}_kind", "zero"),
                amplitude=float(dist.get(f"{prefix}_amplitude", 0.0)),
                frequency=float(dist.get(f"{prefix}_frequency", 0.0)),
                phase=float(dist.get(f"{prefix}_phase", 0.0)),
            )
        except ValueError as exc:
            raise ScenarioError(f"disturbance.{prefix}_{exc}")

    disturbances = DisturbanceModel(
        rate=vector_signal("rate"),
        accel=vector_signal("accel"),
        lift=axis_signal("lift"),
        side=axis_signal("side"),
    )

    sim_table = sections.get("sim")
    if sim_table is None:
        raise ScenarioError("missing required section [sim]")
    required_sim = _require(sections, "sim", ("dt", "t_max", "r_min", "r_max"))
    delta_max = sim_table.get("delta_max")
    scenario = Scenario(
        cfg=cfg,
        gains=gains,
        initial=initial,
        evader=evader,
        disturbances=disturbances,
        dt=required_sim["dt"],
        t_max=required_sim["t_max"],
        r_intercept=float(sim_table.get("r_intercept", 1.0)),
        r_min=required_sim["r_min"],
        r_max=required_sim["r_max"],
        plant_mode=sim_table.get("plant_mode", "trig"),
        delta_max=float(delta_max) if delta_max is not None else None,
        divergence_factor=float(sim_table.get("divergence_factor", 1.5)),
        control_update=sim_table.get("control_update", "hold"),
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc))
    return scenario


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to the file format (parse round-trips exactly)."""
    cfg, gains = scenario.cfg, scenario.gains
    e, a = scenario.initial.engagement, scenario.initial.attitude
    ev, d = scenario.evader, scenario.disturbances
    lines = ["[pursuer]"]
    lines += [f"{k} = {_fmt(getattr(cfg, k))}" for k in _PURSUER_KEYS]
    lines += ["", "[initial]"]
    lines += [f"{k} = {_fmt(getattr(e, k))}" for k in sim.STATE_FIELDS[:8]]
    lines += [f"{k} = {_fmt(getattr(a, k))}" for k in sim.STATE_FIELDS[8:]]
    lines += ["", "[gains]"]
    lines += [f"{k} = {_fmt(getattr(gains, k))}" for k in _GAINS_KEYS]
    lines += ["", "[evader]", f"kind = {ev.kind}"]
    lines += [f"{k} = {_fmt(getattr(ev, k))}" for k in _EVADER_KEYS[1:]]
    lines += ["", "[disturbance]"]
    for prefix, signal in (("rate", d.rate), ("accel", d.accel)):
        lines.append(f"{prefix}_kind = {signal.kind}")
        for axis, value in zip(("x", "y", "z"), signal.amplitude):
            lines.append(f"{prefix}_amp_{axis} = {_fmt(value)}")
        lines.append(f"{prefix}_frequency = {_fmt(signal.frequency)}")
        lines.append(f"{prefix}_phase = {_fmt(signal.phase)}")
    for prefix, signal in (("lift", d.lift), ("side", d.side)):
        lines.append(f"{prefix}_kind = {signal.kind}")
        lines.append(f"{prefix}_amplitude = {_fmt(signal.amplitude)}")
        lines.append(f"{prefix}_frequency = {_fmt(signal.frequency)}")
        lines.append(f"{prefix}_phase = {_fmt(signal.phase)}")
    lines += ["", "[sim]"]
    lines.append(f"dt = {_fmt(scenario.dt)}")
    lines.append(f"t_max = {_fmt(scenario.t_max)}")
    lines.append(f"r_intercept = {_fmt(scenario.r_intercept)}")
    lines.append(f"r_min = {_fmt(scenario.r_min)}")
    lines.append(f"r_max = {_fmt(scenario.r_max)}")
    lines.append(f"plant_mode = {scenario.plant_mode}")
    if scenario.delta_max is not None:
        lines.append(f"delta_max = {_fmt(scenario.delta_max)}")
    lines.append(f"divergence_factor = {_fmt(scenario.divergence_factor)}")
    lines.append(f"control_update = {scenario.control_update}")
    return "\n".join(lines) + "\n"


def write_csv_log(log: SimLog, path) -> None:
    """Write the per-step log as the fixed 27-column CSV."""
    rows = np.column_stack([
        log.t, log.states, log.fins, log.x1_sharp_cmd, log.x2_cmd,
        log.x0_norm, log.eta1_norm, log.eta2_norm,
    ]) if len(log) else np.empty((0, len(CSV_COLUMNS)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            handle.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv_log(path) -> dict[str, np.ndarray]:
    """Read a CSV log back into named columns."""
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ScenarioError(f"{path}: unexpected CSV header")
        data = [
            [float(cell) for cell in line.strip().split(",")]
            for line in handle
            if line.strip()
        ]
    table = np.array(data) if data else np.empty((0, len(CSV_COLUMNS)))
    return {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}


def _summary_dict(summary: SimSummary) -> dict:
    out = {
        "outcome": summary.outcome,
        "final_r": summary.final_r,
        "flight_time": summary.flight_time,
        "miss_distance": summary.miss_distance,
        "post_transient_sup_x0": summary.post_transient_sup_x0,
        "steps": summary.steps,
        "message": summary.message,
    }
    if summary.audit_violations is not None:
        out["audit_violations"] = list(summary.audit_violations)
    return out


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
    log, summary = sim.run(scenario)
    write_csv_log(log, args.out_csv)
    if args.audit:
        traces, total = analysis.bound_audit(log, scenario.gains, scenario.cfg,
                                             scenario.r_min)
        summary = replace(summary,
                          audit_violations=tuple(tr.violations for tr in traces))
        _print_summary(summary)
        print(f"bound audit: {total} violation(s)")
        for trace in traces:
            print(f"  {trace.channel}: {trace.violations} violation(s), "
                  f"worst margin {trace.worst_margin:.6g}")
    else:
        _print_summary(summary)
    if args.summary_json:
        Path(args.summary_json).write_text(
            json.dumps(_summary_dict(summary), indent=2) + "\n", encoding="utf-8")
    return 0 if summary.outcome == sim.OUTCOME_INTERCEPT else 2


def _parse_grid(specs, base: Gains) -> list[Gains]:
    assignments = []
    for spec in specs:
        if "=" not in spec:
            raise ScenarioError(f"malformed grid spec {spec!r}, expected name=v1,v2,...")
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in _GAINS_KEYS:
            raise ScenarioError(f"grid parameter must be one of {', '.join(_GAINS_KEYS)}, got {name!r}")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError(f"malformed grid values in {spec!r}")
        if not parsed:
            raise ScenarioError(f"empty grid values in {spec!r}")
        assignments.append((name, parsed))
    lengths = {len(v) for _, v in assignments}
    if len(lengths) != 1:
        raise ScenarioError("grid parameters must list the same number of values "
                            "(they vary jointly)")
    count = lengths.pop()
    grid = []
    for i in range(count):
        grid.append(replace(base, **{name: values[i] for name, values in assignments}))
    return grid


def cmd_sweep(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = _parse_grid(args.grid, scenario.gains)
    points = sim.sweep(scenario, grid)
    header = list(_GAINS_KEYS) + ["outcome", "final_r", "flight_time",
                                  "miss_distance", "post_transient_sup_x0", "error"]
    with open(args.out_table, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for point in points:
            cells = [_fmt(getattr(point.gains, k)) for k in _GAINS_KEYS]
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
    scenario = parse_scenario(args.scenario)
    g0_norm = args.g0_norm if args.g0_norm is not None else \
        analysis.worst_case_g0_norm(scenario.cfg, scenario.r_min)
    g1_norm = args.g1_norm if args.g1_norm is not None else \
        analysis.worst_case_g1_norm()
    certificate = analysis.build_certificate(
        scenario.gains, g0_norm, g1_norm,
        gamma_0y_est=args.gamma0y, gamma_2y_est=args.gamma2y)
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
