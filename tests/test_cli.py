import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim.cli import (
    main,
    parse_scenario,
    read_csv_log,
    serialize_scenario,
    write_csv_log,
    CSV_COLUMNS,
)
from igcsim.engagement import AxisSignal, DisturbanceModel, EvaderModel, VectorSignal
from igcsim.errors import ScenarioError
from igcsim.sim import run

from .conftest import SCENARIO_DIR, make_gains, make_initial, make_scenario

NOMINAL = SCENARIO_DIR / "nominal.cfg"
WEAVE = SCENARIO_DIR / "weave_disturbed.cfg"

values = st.floats(-1e6, 1e6)
signal_kinds = st.sampled_from(["zero", "constant", "sinusoid"])
vector_signals = st.builds(VectorSignal, kind=signal_kinds,
                           amplitude=st.tuples(values, values, values),
                           frequency=values, phase=values)
axis_signals = st.builds(AxisSignal, kind=signal_kinds, amplitude=values,
                         frequency=values, phase=values)
disturbance_models = st.builds(DisturbanceModel, rate=vector_signals, accel=vector_signals,
                               lift=axis_signals, side=axis_signals)
evader_models = st.builds(EvaderModel, kind=st.sampled_from(["constant", "step", "weave"]),
                          accel_r=values, accel_theta=values, accel_phi=values,
                          frequency=values, phase=values, step_time=values)


def write_variant(tmp_path, name, replacements, source=NOMINAL):
    text = source.read_text()
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


def test_csv_schema_is_fixed():
    assert len(CSV_COLUMNS) == 27


def test_parse_nominal_derives_dynamic_pressure():
    scenario = parse_scenario(NOMINAL)
    assert scenario.cfg.dynamic_pressure == 0.5 * 1.0 * 600.0**2
    assert scenario.plant_mode == "linear"
    assert scenario.delta_max is None


def test_parse_rejects_negative_gain(tmp_path):
    path = write_variant(tmp_path, "bad_gain.cfg", {"k0 = 2.0": "k0 = -1.0"})
    with pytest.raises(ScenarioError, match=r"gains\.k0"):
        parse_scenario(path)


def test_parse_rejects_unknown_key(tmp_path):
    path = write_variant(tmp_path, "unknown.cfg", {"k0 = 2.0": "k0 = 2.0\nfoo = 1.0"})
    with pytest.raises(ScenarioError, match=r"unknown key 'foo' in section \[gains\]"):
        parse_scenario(path)


def test_parse_reports_missing_key(tmp_path):
    path = write_variant(tmp_path, "missing.cfg", {"mass = 100.0\n": ""})
    with pytest.raises(ScenarioError, match=r"\[pursuer\]: mass"):
        parse_scenario(path)


def test_parse_reports_line_numbers(tmp_path):
    path = write_variant(tmp_path, "syntax.cfg", {"mass = 100.0": "mass 100.0"})
    with pytest.raises(ScenarioError, match=r"syntax\.cfg:\d+"):
        parse_scenario(path)


def test_parse_rejects_non_numeric_value(tmp_path):
    path = write_variant(tmp_path, "nan.cfg", {"mass = 100.0": "mass = nan"})
    with pytest.raises(ScenarioError, match="not a decimal number"):
        parse_scenario(path)


@pytest.mark.parametrize("source, old, new, message", [
    (NOMINAL, NOMINAL.read_text()[NOMINAL.read_text().index("[sim]"):], "",
     "missing required section [sim]"),
    (NOMINAL, "dt = 0.001\n", "", "missing required key(s) in [sim]: dt"),
    (NOMINAL, "r = 4000.0", "r = -1.0", "initial: range -1 must be positive"),
    (NOMINAL, "beta = -0.02", "beta = 1.3", "initial: sideslip 1.3 breached guard 1.2"),
    (NOMINAL, "pitch = 0.26", "pitch = 1.6", "initial: pitch 1.6 breached guard 1.2"),
    (NOMINAL, "plant_mode = linear", "plant_mode = exact",
     "sim.plant_mode: must be trig or linear, got 'exact'"),
    (WEAVE, "kind = weave", "kind = spiral",
     "evader.kind: must be constant, step, or weave, got 'spiral'"),
    (WEAVE, "rate_kind = sinusoid", "rate_kind = ramp",
     "disturbance.rate_kind: must be zero, constant, or sinusoid, got 'ramp'"),
    (WEAVE, "accel_amp_y = 2.0", "accel_amp_y = 1e999",
     "disturbance.accel_amplitude: must be three finite values"),
    (WEAVE, "frequency = 1.0", "frequency = 1e308",
     "evader.frequency: frequency * (t_max + dt) + phase must be finite, "
     "got frequency=1e+308, phase=0.0, t_max=8.0"),
], ids=["no-sim", "no-dt", "range", "beta", "pitch", "plant-mode", "evader-kind",
        "signal-kind", "amplitude", "signal-phase"])
def test_parse_error_names_section_and_key(tmp_path, capsys, source, old, new, message):
    path = write_variant(tmp_path, "variant.cfg", {old: new}, source)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(path)
    assert str(info.value) == message
    # `run` reports it as an error before simulating: an initial state outside
    # the envelope is not a guard breach over 0 steps.
    out_csv = tmp_path / "variant.csv"
    assert main(["run", str(path), str(out_csv)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_csv.exists()


def test_parse_reports_initial_state_after_sections(tmp_path):
    # Scenario.validate checks the initial state, after every section is
    # built, so a bad evader kind is reported before a bad initial range.
    path = write_variant(tmp_path, "two.cfg", {"r = 3000.0": "r = -1.0",
                                               "kind = weave": "kind = spiral"}, WEAVE)
    with pytest.raises(ScenarioError, match=r"^evader\.kind: "):
        parse_scenario(path)


def test_parse_rejects_unknown_section(tmp_path):
    path = write_variant(tmp_path, "section.cfg", {"[gains]": "[tuning]"})
    with pytest.raises(ScenarioError, match=r"unknown section \[tuning\]"):
        parse_scenario(path)


@given(st.floats(0.05, 0.95), st.floats(1.0, 25.0), st.floats(600.0, 5000.0),
       evader_models, disturbance_models, st.none() | st.floats(1e-3, 1.0),
       st.sampled_from(["trig", "linear"]), st.sampled_from(["hold", "substep"]))
def test_scenario_round_trip(delta0, k1, r, evader, disturbances, delta_max,
                             plant_mode, control_update):
    scenario = make_scenario(gains=make_gains(delta0=delta0, k1=k1),
                             initial=make_initial(r=r), r_max=2.0 * r,
                             evader=evader, disturbances=disturbances,
                             delta_max=delta_max, plant_mode=plant_mode,
                             control_update=control_update)
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as handle:
        handle.write(serialize_scenario(scenario))
        path = handle.name
    try:
        assert parse_scenario(path) == scenario
    finally:
        os.unlink(path)


@pytest.mark.parametrize("name", ["nominal.cfg", "weave_disturbed.cfg"])
def test_shipped_scenario_round_trip(tmp_path, name):
    # weave_disturbed.cfg is the shipped file with [evader] and [disturbance].
    scenario = parse_scenario(SCENARIO_DIR / name)
    path = tmp_path / name
    path.write_text(serialize_scenario(scenario))
    assert parse_scenario(path) == scenario


def test_csv_round_trip(tmp_path):
    scenario = make_scenario(t_max=0.05)
    log, _ = run(scenario)
    path = tmp_path / "log.csv"
    write_csv_log(log, path)
    back = read_csv_log(path)
    assert np.array_equal(back["t"], log.t)
    assert np.array_equal(back["r"], log.r)
    assert np.array_equal(back["alpha_cmd"], log.alpha_cmd)
    assert np.array_equal(back["norm_eta2"], log.eta2_norm)


def test_cmd_run_nominal(tmp_path, capsys):
    short = write_variant(tmp_path, "short.cfg",
                          {"r = 4000.0": "r = 900.0", "r_min = 500.0": "r_min = 100.0"})
    out = tmp_path / "out.csv"
    code = main(["run", str(short), str(out), "--audit",
                 "--summary-json", str(tmp_path / "summary.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert "outcome: intercept" in captured.out
    assert "bound audit: 0 violation(s)" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"] == "intercept"
    assert len(lines) == summary["steps"] + 1


def test_cmd_run_exit_codes(tmp_path, capsys):
    timeout = write_variant(tmp_path, "timeout.cfg", {"t_max = 15.0": "t_max = 0.0"})
    assert main(["run", str(timeout), str(tmp_path / "t.csv")]) == 2
    capsys.readouterr()
    missing = main(["run", str(tmp_path / "nope.cfg"), str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert missing == 1
    assert "nope.cfg" in captured.err


def test_cmd_run_audit_skipped_on_short_log(tmp_path, capsys):
    # Too few samples for the audit's finite differences: the run still
    # reports its outcome, summary and exit code.
    timeout = write_variant(tmp_path, "timeout.cfg", {"t_max = 15.0": "t_max = 0.0"})
    code = main(["run", str(timeout), str(tmp_path / "t.csv"), "--audit",
                 "--summary-json", str(tmp_path / "summary.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "outcome: timeout" in captured.out
    assert "bound audit: skipped, 1 sample(s) logged (needs 3)" in captured.out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["outcome"] == "timeout" and summary["steps"] == 1
    assert "audit_violations" not in summary


def test_cmd_run_summary_json_is_strict(tmp_path, capsys):
    # Velocity orthogonal to the LOS at t=0: a zero-step run whose
    # post-transient sup is undefined.
    orthogonal = write_variant(tmp_path, "orthogonal.cfg", {
        "phi_l = 0.3": "phi_l = 0.0", "theta_v = 0.24": "theta_v = 0.0",
        "psi_v = -1.2207963267948966": "psi_v = 0.0"})
    code = main(["run", str(orthogonal), str(tmp_path / "o.csv"),
                 "--summary-json", str(tmp_path / "summary.json")])
    capsys.readouterr()
    assert code == 2

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    summary = json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
    assert summary["outcome"] == "guard-breach" and summary["steps"] == 0
    assert summary["post_transient_sup_x0"] is None


@pytest.mark.parametrize("old, new, note", [
    ("x02 = -0.015", "x02 = 1e160", "t=0: vr inf must be finite"),
], ids=["x02"])
def test_cmd_run_overflow_is_guard_breach(tmp_path, capsys, old, new, note):
    # A square that overflows is inf, not an OverflowError: the run ends as a
    # guard breach, and a sweep point as that outcome, not as an error.
    huge = write_variant(tmp_path, "huge.cfg", {old: new})
    code = main(["run", str(huge), str(tmp_path / "h.csv")])
    out = capsys.readouterr().out
    assert code == 2
    assert "outcome: guard-breach" in out
    assert f"note: {note}" in out
    table = tmp_path / "table.csv"
    assert main(["sweep", str(huge), str(table), "--grid", "delta1=0.2"]) == 0
    assert table.read_text().splitlines()[1].split(",")[6] == "guard-breach"


@pytest.mark.parametrize("old, new, message", [
    ("speed = 600.0", "speed = 1e160",
     "derived constant dynamic_pressure inf is not finite (from air_density, speed)"),
    ("inertia_x = 10.0", "inertia_x = 1e-320",
     "derived constant fin_gain (-inf, -2700.0, -2700.0) is not finite (from air_density, "
     "speed, ref_area, ref_length, roll_moment_fin, yaw_moment_fin, pitch_moment_fin, "
     "inertia_x, inertia_y, inertia_z)"),
], ids=["speed", "inertia_x"])
def test_parse_rejects_overflowing_constant(tmp_path, capsys, old, new, message):
    # Finite [pursuer] keys whose derived plant constants overflow are a
    # scenario error naming the constant and its keys, for every command.
    huge = write_variant(tmp_path, "huge.cfg", {old: new})
    with pytest.raises(ScenarioError) as info:
        parse_scenario(huge)
    assert str(info.value) == f"pursuer: {message}"
    assert main(["run", str(huge), str(tmp_path / "h.csv")]) == 1
    assert main(["check-gains", str(huge)]) == 1
    assert capsys.readouterr().err == f"error: pursuer: {message}\n" * 2


@pytest.mark.parametrize("delta0", ["1e-200", "1e-160"])
def test_parse_rejects_infinite_feedback(tmp_path, capsys, delta0):
    tiny = write_variant(tmp_path, "tiny.cfg", {"delta0 = 0.5": f"delta0 = {delta0}"})
    with pytest.raises(ScenarioError, match=r"^gains\.delta0: "):
        parse_scenario(tiny)
    assert main(["run", str(tiny), str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: gains.delta0: ")


def test_cmd_run_deterministic_bytes(tmp_path):
    short = write_variant(tmp_path, "det.cfg", {"t_max = 15.0": "t_max = 0.4"})
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["run", str(short), str(out_a)]) == 2
    assert main(["run", str(short), str(out_b)]) == 2
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cmd_sweep_table(tmp_path, capsys):
    short = write_variant(tmp_path, "sweep.cfg", {"t_max = 15.0": "t_max = 0.2"})
    out = tmp_path / "table.csv"
    code = main(["sweep", str(short), str(out), "--grid", "delta1=0.5,0.25,0.1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("k0,k1,k2,delta0,delta1,delta2,outcome")


def test_cmd_sweep_joint_grids(tmp_path):
    short = write_variant(tmp_path, "sweep2.cfg", {"t_max = 15.0": "t_max = 0.2"})
    out = tmp_path / "table.csv"
    code = main(["sweep", str(short), str(out),
                 "--grid", "delta1=0.5,0.25", "--grid", "delta2=0.5,0.25"])
    assert code == 0
    assert len(out.read_text().splitlines()) == 3


def test_cmd_sweep_rejects_bad_grid(tmp_path, capsys):
    short = write_variant(tmp_path, "sweep3.cfg", {"t_max = 15.0": "t_max = 0.2"})
    out = tmp_path / "table.csv"
    assert main(["sweep", str(short), str(out), "--grid", "gamma=1,2"]) == 1
    assert main(["sweep", str(short), str(out), "--grid", "delta1=0.5",
                 "--grid", "delta2=0.5,0.25"]) == 1
    assert main(["sweep", str(short), str(out), "--grid", "delta1="]) == 1
    capsys.readouterr()
    # A parameter in two --grid flags would silently keep only the last.
    assert main(["sweep", str(short), str(out), "--grid", "k0=1,2", "--grid", "k0=3,4"]) == 1
    assert capsys.readouterr().err == \
        "error: grid parameter 'k0' given in more than one --grid\n"
    assert not out.exists()


def test_cmd_check_gains(tmp_path, capsys):
    code = main(["check-gains", str(NOMINAL),
                 "--gamma0y", "1.0", "--gamma2y", "2.0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out
    assert "margin" in captured.out


def test_cmd_check_gains_inconclusive(capsys):
    code = main(["check-gains", str(NOMINAL)])
    captured = capsys.readouterr()
    assert code == 3
    assert "INCONCLUSIVE" in captured.out


def test_cmd_check_gains_tiny_delta(tmp_path, capsys):
    tiny = write_variant(tmp_path, "tiny.cfg",
                         {"delta1 = 0.2": "delta1 = 1e-6",
                          "delta2 = 0.2": "delta2 = 1e-6"})
    code = main(["check-gains", str(tiny),
                 "--gamma0y", "1000.0", "--gamma2y", "1000.0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out


def test_cmd_check_gains_failing(tmp_path, capsys):
    code = main(["check-gains", str(NOMINAL),
                 "--gamma0y", "1e9", "--gamma2y", "1e9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "overall: FAIL" in captured.out
