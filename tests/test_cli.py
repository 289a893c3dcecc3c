import errno
import json
import os
import re
import tempfile
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim.cli import (
    main,
    parse_scenario,
    read_csv_log,
    serialize_scenario,
    CSV_COLUMNS,
)
from igcsim import cli, sim
from igcsim.analysis import bound_audit
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
    (NOMINAL, "dt = 0.001", "dt = 1e999", "sim.dt: must be finite and > 0, got inf"),
    (NOMINAL, "t_max = 15.0", "t_max = 1e999", "sim.t_max: must be finite and >= 0, got inf"),
    (WEAVE, "t_max = 8.0", "t_max = 1e999", "sim.t_max: must be finite and >= 0, got inf"),
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
    (NOMINAL, "r_intercept = 1.0", "r_intercept = 5000.0",
     "sim.r_intercept: need 0 < r_intercept < initial range, got r_intercept=5000.0, r=4000.0"),
    (WEAVE, "r_intercept = 1.0", "r_intercept = 3000.0",
     "sim.r_intercept: need 0 < r_intercept < initial range, got r_intercept=3000.0, r=3000.0"),
], ids=["no-sim", "no-dt", "infinite-dt", "infinite-t_max-nominal", "infinite-t_max-weave",
        "range", "beta", "pitch", "plant-mode", "evader-kind", "signal-kind", "amplitude",
        "signal-phase", "r_intercept-nominal", "r_intercept-weave"])
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
    # A Scenario checks the initial state when it is built, after every
    # section is, so a bad evader kind is reported before a bad initial range.
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        cli._write_csv(handle, [log.table])
    back = read_csv_log(path)
    assert np.array_equal(back["t"], log.t)
    assert np.array_equal(back["r"], log.r)
    assert np.array_equal(back["alpha_cmd"], log.alpha_cmd)
    assert np.array_equal(back["norm_eta2"], log.eta2_norm)


def test_read_csv_log_names_malformed_row(tmp_path):
    log, _ = run(make_scenario(t_max=0.05))
    path = tmp_path / "log.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        cli._write_csv(handle, [log.table])
    lines = path.read_text().splitlines(keepends=True)
    # A truncated log, such as `head -c 3000` of it, ends inside a row.
    head = path.read_bytes()[:3000]
    assert not head.endswith(b"\n")
    truncated = tmp_path / "truncated.csv"
    truncated.write_bytes(head)
    last = head.count(b"\n") + 1
    with pytest.raises(ScenarioError, match=rf"^{re.escape(str(truncated))}:{last}: expected 27 "
                                            r"numbers, got \d+$"):
        read_csv_log(truncated)
    # A cell that is not a number, in line 4.
    cells = lines[3].split(",")
    cells[5] = "abc"
    lines[3] = ",".join(cells)
    garbled = tmp_path / "garbled.csv"
    garbled.write_text("".join(lines))
    with pytest.raises(ScenarioError, match=rf"^{re.escape(str(garbled))}:4: could not convert "
                                            r"string to float: 'abc'$"):
        read_csv_log(garbled)


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


FIN_GATE_NOTE = "t=0: fin: matrix condition estimate 4.24e+07 exceeds the invertibility gate"


def test_cmd_run_fin_gate_is_step0_guard_breach(tmp_path, capsys):
    # The fin map's inverse is built once per run, but a map past the gate
    # still ends the run at step 0 as a guard breach, not as an error.
    gate = write_variant(tmp_path, "gate.cfg", {"roll_moment_fin = -5.0": "roll_moment_fin = -1e-7"})
    out_csv = tmp_path / "gate.csv"
    assert main(["run", str(gate), str(out_csv), "--audit"]) == 2
    captured = capsys.readouterr()
    assert "outcome: guard-breach\nflight time: 0 s over 0 steps\n" in captured.out
    assert f"note: {FIN_GATE_NOTE}\n" in captured.out
    assert captured.err == ""
    assert out_csv.read_text() == ",".join(CSV_COLUMNS) + "\n"


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the log writer is forked")


def _force_log_writer(monkeypatch, streamed: bool) -> None:
    """Make `run` format its log in a forked writer, or after the run."""
    monkeypatch.setattr(sim, "fork_workers", lambda tasks: tasks if streamed else 1)


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cli_run(tmp_path, capsys, scenario, out_csv, tag):
    summary = tmp_path / f"{tag}.json"
    code = main(["run", str(scenario), str(out_csv), "--audit", "--summary-json", str(summary)])
    captured = capsys.readouterr()
    return (code, captured.out, captured.err, out_csv.read_bytes() if out_csv.exists() else None,
            summary.read_bytes() if summary.exists() else None)


SHIPPED_RUNS = {
    "nominal": (NOMINAL, {}),
    "nominal-substep": (NOMINAL, {"[sim]": "[sim]\ncontrol_update = substep"}),
    "weave": (WEAVE, {}),
    "weave-substep": (WEAVE, {"[sim]": "[sim]\ncontrol_update = substep"}),
    "x02": (NOMINAL, {"x02 = -0.015": "x02 = 1e160"}),
    "fin-gate": (NOMINAL, {"roll_moment_fin = -5.0": "roll_moment_fin = -1e-7"}),
    "under-one-block": (NOMINAL, {"t_max = 15.0": "t_max = 0.1"}),
    "two-blocks": (NOMINAL, {"t_max = 15.0": "t_max = 0.511"}),
}


@needs_fork
@pytest.mark.parametrize("name", SHIPPED_RUNS)
def test_streamed_log_matches_after_run(tmp_path, capsys, monkeypatch, name):
    # The forked writer formats the log while the steps run; every output
    # matches writing it after the run, byte for byte.
    source, replacements = SHIPPED_RUNS[name]
    scenario = write_variant(tmp_path, "s.cfg", replacements, source)
    outputs = {}
    for streamed in (False, True):
        _force_log_writer(monkeypatch, streamed)
        outputs[streamed] = _cli_run(tmp_path, capsys, scenario, tmp_path / f"{streamed}.csv",
                                     f"{streamed}")
        _assert_no_child_process()
    assert outputs[True] == outputs[False]
    code, out, err, csv_bytes, summary = outputs[True]
    assert err == "" and csv_bytes.startswith(",".join(CSV_COLUMNS).encode() + b"\n")
    steps = json.loads(summary)["steps"]
    assert csv_bytes.count(b"\n") == steps + 1
    if name == "two-blocks":
        assert steps == 2 * sim.LOG_BLOCK
    if name == "under-one-block":
        assert 0 < steps < sim.LOG_BLOCK


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("streamed", [False, pytest.param(True, marks=needs_fork)],
                         ids=["after-run", "streamed"])
@pytest.mark.parametrize("t_max", ["15.0", "0.1"], ids=["nominal", "under-one-block"])
def test_cmd_run_write_error_exits_before_summary(tmp_path, capsys, monkeypatch, streamed, t_max):
    # A write error of the log ends `run` with exit 1 and the error's text
    # before any summary is printed, whether or not the writer is forked.
    _force_log_writer(monkeypatch, streamed)
    scenario = write_variant(tmp_path, "s.cfg", {"t_max = 15.0": f"t_max = {t_max}"})
    summary = tmp_path / "summary.json"
    code = main(["run", str(scenario), "/dev/full", "--audit", "--summary-json", str(summary)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert captured.out == "" and not summary.exists()
    _assert_no_child_process()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@needs_fork
def test_forked_csv_writer_raises_its_own_error():
    # The writer's OSError comes back whole, errno and all, with the
    # writer's traceback as its cause.
    with pytest.raises(OSError) as info:
        with cli._forked_csv_writer("/dev/full"):
            pass  # the header alone does not fit
    assert info.value.errno == errno.ENOSPC
    assert "_run_writer" in str(info.value.__cause__)
    _assert_no_child_process()


@pytest.mark.parametrize("streamed", [False, pytest.param(True, marks=needs_fork)],
                         ids=["after-run", "streamed"])
def test_cmd_run_reports_missing_directory(tmp_path, capsys, monkeypatch, streamed):
    # The log's file is opened before the first step, forked writer or not.
    _force_log_writer(monkeypatch, streamed)
    monkeypatch.setattr(sim, "stream", lambda *args: pytest.fail("ran before opening the log"))
    scenario = write_variant(tmp_path, "s.cfg", {"t_max = 15.0": "t_max = 0.1"})
    out_csv = tmp_path / "missing" / "out.csv"
    assert main(["run", str(scenario), str(out_csv)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out_csv)!r}\n"
    assert captured.out == ""
    _assert_no_child_process()


@needs_fork
def test_cmd_run_reaps_writer_when_run_raises(tmp_path, capsys, monkeypatch):
    # An exception escaping the run, after blocks went to the writer, still
    # closes the pipe and reaps the writer, and propagates unchanged.
    _force_log_writer(monkeypatch, True)
    real_stream = sim.stream

    def failing_stream(scenario, on_block):
        def fail_after_first(rows):
            on_block(rows)
            raise KeyError("stop")

        return real_stream(scenario, fail_after_first)

    monkeypatch.setattr(sim, "stream", failing_stream)
    out_csv = tmp_path / "out.csv"
    with pytest.raises(KeyError, match="stop"):
        main(["run", str(NOMINAL), str(out_csv)])
    _assert_no_child_process()
    assert capsys.readouterr().out == ""
    assert len(out_csv.read_text().splitlines()) == 1 + sim.LOG_BLOCK


@pytest.mark.parametrize("rows", [3, sim.LOG_BLOCK - 1, sim.LOG_BLOCK, sim.LOG_BLOCK + 1,
                                  2 * sim.LOG_BLOCK + 1, 4 * sim.LOG_BLOCK - 1, 4 * sim.LOG_BLOCK,
                                  4 * sim.LOG_BLOCK + 1, 8 * sim.LOG_BLOCK + 1])
def test_cmd_run_streamed_audit_equals_bound_audit(tmp_path, capsys, monkeypatch, rows):
    # `run --audit` audits each block as the run hands it on and keeps only
    # the counts and worst margins, which equal those of bound_audit over
    # the whole log.  A fin limit keeps the rate error outside its envelope,
    # so past the first rows neither is zero.
    _force_log_writer(monkeypatch, False)
    t_max = (rows - 1) * 0.002  # weave_disturbed.cfg's dt
    variant = write_variant(tmp_path, "s.cfg", {"t_max = 8.0": f"t_max = {t_max!r}",
                                               "[sim]": "[sim]\ndelta_max = 0.01"}, WEAVE)
    assert main(["run", str(variant), str(tmp_path / "out.csv"), "--audit"]) == 2
    printed = capsys.readouterr().out.splitlines()
    scenario = parse_scenario(variant)
    log, _ = run(scenario)
    assert len(log) == rows
    traces, total = bound_audit(log, scenario)
    assert printed[-4:] == [f"bound audit: {total} violation(s)"] + [
        f"  {trace.channel}: {trace.violations} violation(s), worst margin "
        f"{trace.worst_margin:.6g}" for trace in traces]
    if rows > 3:
        assert total > 0 and traces[2].worst_margin < 0.0


def _heap_peak(argv) -> int:
    """The tracemalloc peak of ``main(argv)`` [B]."""
    tracemalloc.start()
    try:
        main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cmd_run_audit_memory_is_flat_in_run_length(tmp_path, capsys, monkeypatch):
    # `run --audit` holds no log: each block goes to the CSV formatter and
    # the audit, and then only the summary's and the audit's running
    # reductions remain.  Twice the steps (nominal.cfg at half its dt) add
    # less than 0.25 MB to the heap peak; holding the log and the audit's
    # output columns added 1.8 MB.  In process, so the formatter's memory
    # counts too.  Traced, the step loop runs about 70 times slower, so
    # each run's blocks and summary are recorded once, untraced, and
    # sim.stream then hands on fresh copies of those blocks;
    # test_sim.py::test_stream_memory_is_flat_in_run_length traces the
    # stream itself.
    _force_log_writer(monkeypatch, False)
    fine = write_variant(tmp_path, "fine.cfg", {"dt = 0.001": "dt = 0.0005"})
    real_stream = sim.stream
    peaks = []
    for scenario, steps in ((NOMINAL, 8065), (fine, 16128)):
        blocks = []
        recorded = real_stream(parse_scenario(scenario), lambda block: blocks.append(bytes(block)))

        def replay(_scenario, on_block, blocks=blocks, recorded=recorded):
            for block in blocks:
                on_block(array("d", block))
            return recorded

        monkeypatch.setattr(sim, "stream", replay)
        summary = tmp_path / "summary.json"
        peaks.append(_heap_peak(["run", str(scenario), str(tmp_path / "out.csv"), "--audit",
                                 "--summary-json", str(summary)]))
        assert json.loads(summary.read_text())["steps"] == steps
    assert "bound audit: 0 violation(s)" in capsys.readouterr().out
    assert abs(peaks[1] - peaks[0]) < 0.25e6


def test_cmd_sweep_table(tmp_path, capsys):
    short = write_variant(tmp_path, "sweep.cfg", {"t_max = 15.0": "t_max = 0.2"})
    out = tmp_path / "table.csv"
    code = main(["sweep", str(short), str(out), "--grid", "delta1=0.5,0.25,0.1"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("k0,k1,k2,delta0,delta1,delta2,outcome")


def test_cmd_sweep_reports_missing_directory_before_any_point(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sim, "sweep", lambda *args: pytest.fail("swept before opening the table"))
    out = tmp_path / "missing" / "t.csv"
    assert main(["sweep", str(WEAVE), str(out), "--grid", "k1=5,10,20"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert captured.out == ""


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


@pytest.mark.parametrize("flags, note", [
    ([], "|g1| bound scanned over |attack|, |sideslip|, |pitch| <= 0.3 rad and a full roll turn"),
    (["--g1-norm", "2.0"], "|g1| bound supplied, not scanned"),
])
def test_cmd_check_gains_names_g1_domain(capsys, flags, note):
    # Both shipped runs fly past the scanned pitch, so the certificate names
    # the scanned box next to the bound, or says the bound was supplied.
    main(["check-gains", str(NOMINAL), *flags])
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("  |g0| bound: ")
    assert lines[2] == "  " + note


def test_cmd_check_gains_tiny_delta(tmp_path, capsys):
    tiny = write_variant(tmp_path, "tiny.cfg",
                         {"delta1 = 0.2": "delta1 = 1e-6",
                          "delta2 = 0.2": "delta2 = 1e-6"})
    code = main(["check-gains", str(tiny),
                 "--gamma0y", "1000.0", "--gamma2y", "1000.0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "overall: PASS" in captured.out


@pytest.mark.parametrize("value", ["-1", "nan"])
@pytest.mark.parametrize("flag", ["--g0-norm", "--g1-norm", "--gamma0y", "--gamma2y"])
def test_cmd_check_gains_rejects_bad_flag(capsys, flag, value):
    # A negative or non-finite gain or norm is an input error naming its
    # flag, not a certificate.
    code = main(["check-gains", str(NOMINAL), "--gamma0y", "1.0", "--gamma2y", "2.0",
                 flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {flag}: must be finite and >= 0, got {float(value)!r}\n"
    assert captured.out == ""


def test_cmd_check_gains_failing(tmp_path, capsys):
    code = main(["check-gains", str(NOMINAL),
                 "--gamma0y", "1e9", "--gamma2y", "1e9"])
    captured = capsys.readouterr()
    assert code == 2
    assert "overall: FAIL" in captured.out
