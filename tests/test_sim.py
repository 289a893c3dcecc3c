import errno
import math
import os
import pickle
import re
import signal
import time
import warnings
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from igcsim import airframe, cli, engagement, frames, igc, sim
from igcsim.cli import parse_scenario
from igcsim.engagement import (
    AxisSignal,
    DisturbanceModel,
    EngagementState,
    EvaderModel,
    VectorSignal,
)
from igcsim.errors import GuardError, SingularityError
from igcsim.sim import (
    LOG_WIDTH,
    STATE_FIELDS,
    Kernel,
    check_envelope,
    inputs,
    rk4_step,
    run,
    sweep,
    trim_attitude_to_commands,
)

from .conftest import (
    IN_ENVELOPE, SCENARIO_DIR, make_gains, make_initial, make_scenario,
)
from .oracles import attitude_rates, rk4_tableau, summary_from_log, velocity_angle_derivatives


def test_rk4_scalar_decay():
    out = rk4_step(lambda t, x: -x, 1.0, 0.0, 0.1)
    expected = 1.0 - 0.1 + 0.1**2 / 2.0 - 0.1**3 / 6.0 + 0.1**4 / 24.0
    assert math.isclose(out, expected, rel_tol=1e-15)
    assert math.isclose(out, 0.90483750, abs_tol=5e-9)


def test_rk4_zero_derivative():
    y = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(rk4_step(lambda t, x: 0.0 * x, y, 0.0, 0.5), y)


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_step(lambda t, x: -x, 1.0, 0.0, 0.0)


def test_rk4_detects_nonfinite():
    with pytest.raises(GuardError):
        rk4_step(lambda t, x: x * np.inf, np.array([1.0]), 0.0, 0.1)


def test_rk4_step_contract():
    # What rk4_step accepts and returns, pinned: a deriv may return a tuple,
    # a 2-D state keeps its shape, and a float comes back as a numpy float.
    y = np.array([1.0, -2.0])
    assert np.array_equal(rk4_step(lambda t, x: (-x[0], -x[1]), y, 0.0, 0.1),
                          rk4_step(lambda t, x: -x, y, 0.0, 0.1))
    grid = np.arange(6.0).reshape(2, 3)
    out = rk4_step(lambda t, x: -x, grid, 0.0, 0.1)
    assert out.shape == (2, 3)
    assert np.array_equal(out.ravel(), rk4_step(lambda t, x: -x, grid.ravel(), 0.0, 0.1))
    assert type(rk4_step(lambda t, x: -x, 1.0, 0.0, 0.1)) is np.float64
    with pytest.raises(ValueError, match="^dt must be > 0, got nan$"):
        rk4_step(lambda t, x: -x, 1.0, 0.0, math.nan)


def test_rk4_step_overflow_is_a_guard_error():
    # Stage states that overflow to inf (k2's), and a combination of inf and
    # -inf (k2 and k4), end in GuardError with its message, not in a
    # RuntimeWarning.
    def deriv(t, x):
        return (1e308 if t < 10.0 else -1e308) * x

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GuardError,
                           match=r"^non-finite state produced by integrator step at t=0\.5$"):
            rk4_step(deriv, np.array([1.0, -1.0]), 0.5, 10.0)


def test_rk4_observed_order():
    # Richardson estimate on dx/dt = -x against the exact exponential.
    def global_error(dt):
        x, t = 1.0, 0.0
        while t < 1.0 - 1e-12:
            x = rk4_step(lambda tt, xx: -xx, x, t, dt)
            t += dt
        return abs(x - math.exp(-1.0))

    order = math.log2(global_error(0.1) / global_error(0.05))
    assert 3.8 <= order <= 4.2


def test_closed_loop_derivative_quiescent():
    scenario = make_scenario(
        initial=make_initial(x01=0.0, x02=0.0, alpha=0.0, beta=0.0,
                             gamma=0.0, pitch=0.0))
    deriv = sim.evaluate(Kernel(scenario), scenario.signals(0.0), list(scenario.initial))[0]
    expected = np.zeros(15)
    expected[0] = scenario.initial[1]
    assert np.allclose(deriv, expected, atol=1e-15)


def _composed_evaluation(scenario, k, u, y, fins):
    # The reference decomposition of sim.evaluate: the closed-loop derivative
    # composed from the piecewise helpers.
    check_envelope(y)
    _, _, theta_l, phi_l, _, _, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    rows = frames.los_rows(theta_l, phi_l, theta_v, psi_v)
    g1 = airframe.mixer(gamma, alpha, beta, pitch)
    f1, f2 = airframe.attitude_drift(k, alpha, beta), airframe.rate_drift(k, alpha, beta, wx, wy, wz)
    if fins is None:
        fins = igc.law(k, y)[0]
    rate, accel, lift, side, evader = u
    a_theta, a_psi = airframe.lift_side_accels(alpha, beta, lift, side,
                                               scenario.cfg, scenario.plant_mode)
    accel_p = frames.los_accel(rows, 0.0, a_theta, a_psi)
    rel = engagement.relative_derivatives(EngagementState(*y[:8]), accel_p, evader)
    tv_dot, pv_dot = velocity_angle_derivatives(a_theta, a_psi, k, theta_v)
    att = attitude_rates(k, g1, f1, f2, gamma, wx, wy, wz, fins, rate, accel)
    return [*rel, tv_dot, pv_dot, *att]


# A weave evader and sinusoid disturbances on every channel.
_SIGNALS = dict(
    evader=EvaderModel(kind="weave", accel_r=5.0, accel_theta=40.0, accel_phi=-30.0,
                       frequency=2.0, phase=0.3),
    disturbances=DisturbanceModel(
        rate=VectorSignal(kind="sinusoid", amplitude=(0.01, -0.02, 0.015), frequency=3.0,
                          phase=0.1),
        accel=VectorSignal(kind="sinusoid", amplitude=(0.5, -0.3, 0.2), frequency=5.0,
                           phase=0.7),
        lift=AxisSignal(kind="sinusoid", amplitude=300.0, frequency=4.0, phase=0.2),
        side=AxisSignal(kind="sinusoid", amplitude=-200.0, frequency=6.0, phase=1.1)))


@given(y=IN_ENVELOPE, t=st.floats(0.0, 20.0), plant_mode=st.sampled_from(["trig", "linear"]),
       delta_max=st.sampled_from([None, 1e-3]), held=st.booleans(), quiet=st.booleans())
@example(y=make_initial(), t=0.0, plant_mode="linear", delta_max=None, held=False, quiet=True)
def test_closed_loop_derivative_composition(y, t, plant_mode, delta_max, held, quiet):
    # The flat evaluation equals its reference decomposition bit for bit, and
    # the piecewise helpers equal their numpy adapters, at random states
    # inside the envelope under zero or nonzero signals, with held fins and
    # with the law's fins.
    scenario = make_scenario(plant_mode=plant_mode, delta_max=delta_max,
                             **({} if quiet else _SIGNALS))
    k, y, u = Kernel(scenario), list(y), scenario.signals(t)
    try:
        law_out = igc.law(k, y)
    except SingularityError as exc:  # then only held fins give a derivative
        with pytest.raises(SingularityError, match=re.escape(str(exc))):
            sim.evaluate(k, u, y)
        law_out, held = None, True
    fins = law_out[0] if law_out else (0.01, -0.02, 0.03)
    flat, flat_law = sim.evaluate(k, u, y, fins if held else None)
    assert flat_law == (None if held else law_out)
    reference = _composed_evaluation(scenario, k, u, y, fins)
    assert array("d", flat).tobytes() == array("d", reference).tobytes()

    rate, accel, lift, side, evader = u
    eng, (gamma, alpha, beta, wx, wy, wz, pitch) = EngagementState(*y[:8]), y[8:]
    g1 = airframe.mixer(gamma, alpha, beta, pitch)
    f1, f2 = airframe.attitude_drift(k, alpha, beta), airframe.rate_drift(k, alpha, beta, wx, wy, wz)
    assert flat[8:] == list(attitude_rates(k, g1, f1, f2, gamma, wx, wy, wz, fins, rate, accel))
    a_theta, a_psi = airframe.lift_side_accels(alpha, beta, lift, side,
                                               scenario.cfg, scenario.plant_mode)
    accel_p = frames.accel_velocity_to_los((0.0, a_theta, a_psi), eng.los, eng.vel)
    assert np.array_equal(flat[:6], engagement.relative_derivatives(eng, accel_p, evader))
    assert tuple(flat[6:8]) == velocity_angle_derivatives(
        a_theta, a_psi, scenario.cfg, eng.theta_v)


def _step_outcome(step):
    # A step's next state as packed floats, or its error's type and text.
    try:
        return array("d", step()).tobytes()
    except (GuardError, SingularityError) as exc:
        return type(exc), str(exc)


@given(y=IN_ENVELOPE, t=st.floats(0.0, 20.0), dt=st.floats(1e-4, 0.1),
       control_update=st.sampled_from(["hold", "substep"]),
       plant_mode=st.sampled_from(["trig", "linear"]), quiet=st.booleans())
# A step so long that the stage states overflow and leave the envelope.
@example(y=make_initial(), t=0.0, dt=1e300, control_update="hold", plant_mode="trig", quiet=True)
@example(y=make_initial(), t=0.0, dt=1e300, control_update="substep", plant_mode="trig",
         quiet=False)
def test_written_out_step_matches_tableau(y, t, dt, control_update, plant_mode, quiet):
    # The loop's written-out step equals the generic tableau over evaluate
    # bit for bit, at random states inside the envelope, in hold mode (the
    # law's fins of y) and substep mode, and raises the same error.
    scenario = make_scenario(plant_mode=plant_mode, dt=dt, **({} if quiet else _SIGNALS))
    k, y, signals = Kernel(scenario), list(y), scenario.signals
    try:
        k1, (fins, *_) = sim.evaluate(k, signals(t), y)
    except SingularityError:  # the law fails at y: step with fixed fins
        fins = (0.01, -0.02, 0.03)
        k1 = sim.evaluate(k, signals(t), y, fins)[0]
    held = fins if control_update == "hold" else None
    outcome = _step_outcome(lambda: sim._step(k, signals, y, t, dt, k1, held))
    assert outcome == _step_outcome(lambda: rk4_tableau(
        lambda tt, yy: sim.evaluate(k, signals(tt), yy, held)[0], y, t, dt, k1))
    if dt == 1e300:
        assert outcome[0] is GuardError


def test_written_out_step_reports_a_non_finite_state(monkeypatch):
    # Stage derivatives that overflow the combined state: the step returns
    # it, as the tableau does, and a run ends at the next state's envelope
    # check, whose note names the variable.
    evaluate = sim.evaluate
    monkeypatch.setattr(sim, "evaluate", lambda k, u, y, fins: ([1e308] * 15, None))
    scenario = make_scenario()
    k, y, k1 = Kernel(scenario), list(scenario.initial), [1e308] * 15
    outcome = _step_outcome(lambda: sim._step(k, scenario.signals, y, 0.5, 1.0, k1, None))
    assert outcome == array("d", [math.inf] * 15).tobytes()
    assert outcome == _step_outcome(lambda: rk4_tableau(
        lambda tt, yy: sim.evaluate(k, scenario.signals(tt), yy, None)[0], y, 0.5, 1.0, k1))

    def overflowing(k, u, y, fins=None):
        # The held stages' range-rate derivative overflows the new vr.
        derivative, law_out = evaluate(k, u, y, fins)
        if fins is not None:
            derivative[1] = 1e308
        return derivative, law_out

    monkeypatch.setattr(sim, "evaluate", overflowing)
    log, summary = run(scenario)
    assert (summary.outcome, summary.message) == ("guard-breach", "t=0.001: vr inf must be finite")
    assert len(log) == 1


@pytest.mark.parametrize("plant_mode", ["trig", "linear"])
@pytest.mark.parametrize("held", [False, True], ids=["law", "held"])
def test_evaluation_takes_each_angles_trig_once(monkeypatch, plant_mode, held):
    # Seven angles (theta_l, theta_v, phi_l - psi_v, pitch, beta, alpha,
    # gamma), one sine and one cosine each, and the one tangent of theta_l.
    scenario = replace(parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg"), plant_mode=plant_mode)
    k, y, u = Kernel(scenario), list(scenario.initial), scenario.signals(0.3)
    fins = igc.law(k, y)[0] if held else None
    calls = Counter()
    for name in ("sin", "cos", "tan"):
        def counted(x, fn=getattr(math, name), name=name):
            calls[name] += 1
            return fn(x)

        monkeypatch.setattr(math, name, counted)
    sim.evaluate(k, u, y, fins)
    assert calls == {"sin": 7, "cos": 7, "tan": 1}


def test_run_nominal_intercepts():
    scenario = make_scenario(initial=make_initial(r=900.0), r_min=100.0, t_max=4.0)
    log, summary = run(scenario)
    assert summary.outcome == "intercept"
    assert summary.final_r <= scenario.r_intercept
    assert len(log) == summary.steps


def test_run_timeout_immediately():
    log, summary = run(make_scenario(t_max=0.0))
    assert summary.outcome == "timeout"
    assert summary.steps == 1 and len(log) == 1


def test_run_immediate_intercept():
    # An r_intercept at or past the initial range would "intercept" at the
    # first step; such a scenario is rejected when built, naming both values.
    for r_intercept in (1.0, 0.5, 0.0):
        with pytest.raises(ValueError, match=re.escape(
                "sim.r_intercept: need 0 < r_intercept < initial range, got "
                f"r_intercept={r_intercept!r}, r=0.5")):
            make_scenario(initial=make_initial(r=0.5), r_intercept=r_intercept,
                          r_min=0.1, t_max=1.0)


def test_run_miss_on_opening_range():
    scenario = make_scenario(
        initial=make_initial(r=600.0, vr=300.0, x01=0.0, x02=0.0),
        r_min=100.0, divergence_factor=1.1, t_max=3.0)
    _, summary = run(scenario)
    assert summary.outcome == "miss"
    assert summary.final_r > 1.1 * 600.0


@pytest.mark.parametrize("amplitude, message", [
    pytest.param((0.0, 0.0, 60.0), "t=0.022: sideslip 1.204 breached guard 1.2",
                 id="sideslip"),
    pytest.param((0.0, 60.0, 0.0), "t=0.081: pitch -1.218 breached guard 1.2",
                 id="pitch"),
])
def test_run_guard_breach_reported(amplitude, message):
    blown = DisturbanceModel(rate=VectorSignal(kind="constant", amplitude=amplitude))
    scenario = make_scenario(disturbances=blown, t_max=2.0)
    _, summary = run(scenario)
    assert summary.outcome == "guard-breach"
    assert summary.message == message


@pytest.mark.parametrize("field, value, message", [
    pytest.param("theta_l", 1.25, "LOS elevation 1.25 breached guard 1.2", id="theta_l"),
    pytest.param("theta_v", -1.25, "velocity elevation -1.25 breached guard 1.2",
                 id="theta_v"),
    pytest.param("beta", math.pi / 2, "sideslip 1.571 breached guard 1.2", id="beta"),
    pytest.param("pitch", -1.21, "pitch -1.21 breached guard 1.2", id="pitch"),
    pytest.param("r", -2.37536, "range -2.37536 must be positive", id="r"),
    pytest.param("omega_y", math.inf, "omega_y inf must be finite", id="nonfinite"),
])
def test_envelope_guard(field, value, message):
    # The one envelope check, alone and at the head of every derivative.
    scenario = make_scenario()
    y = list(scenario.initial)
    y[STATE_FIELDS.index(field)] = value
    with pytest.raises(GuardError) as alone:
        check_envelope(y)
    with pytest.raises(GuardError) as in_derivative:
        sim.evaluate(Kernel(scenario), scenario.signals(0.0), y, (0.0, 0.0, 0.0))
    assert str(alone.value) == str(in_derivative.value) == message


def test_envelope_passes_finite_state_whose_sum_overflows():
    # The one-pass check sums the state; a sum that overflows must fall
    # through to the per-variable checks, which find nothing wrong.
    y = list(make_scenario().initial)
    y[0] = y[1] = 1e308
    check_envelope(y)


large = st.floats(-1e200, 1e200)


@given(large, large)
def test_run_never_raises_on_large_los_rates(x01, x02):
    # Overflow in the plant is a guard breach, never an exception.
    log, summary = run(make_scenario(initial=make_initial(x01=x01, x02=x02), t_max=0.05))
    assert summary.outcome in ("intercept", "miss", "guard-breach", "timeout")
    assert summary.steps == len(log)


def test_log_columns_are_table_views():
    log, _ = run(make_scenario(t_max=0.05, delta_max=1e-3))
    assert log.table.shape == (len(log), LOG_WIDTH) == (51, 25)
    for name in ("t", "states", "fins", "x1_sharp_cmd", "x2_cmd", "x1", "omega",
                 "alpha_cmd", "beta_cmd", *STATE_FIELDS):
        assert np.shares_memory(getattr(log, name), log.table), name
    assert np.array_equal(log.states[:, STATE_FIELDS.index("pitch")], log.pitch)
    assert np.array_equal(log.omega, log.states[:, 11:14])
    assert np.array_equal(log.x1, log.states[:, 8:11])
    assert np.array_equal(log.x1_sharp_cmd, np.column_stack([log.alpha_cmd, log.beta_cmd]))
    assert log.saturated.dtype == bool and log.saturated.all()
    with pytest.raises(AttributeError):
        log.rate_dist


def test_time_invariant_signals_sampled_once(monkeypatch):
    # Constant signals are sampled once per run and per audit; the run and
    # the inputs are bit-identical to sampling them at every time.  The
    # inputs are then read-only views of the one sample, repeated per row.
    constant = DisturbanceModel(rate=VectorSignal(kind="constant", amplitude=(0.01, -0.02, 0.03)),
                                lift=AxisSignal(kind="constant", amplitude=5.0))
    scenario = make_scenario(disturbances=constant, t_max=0.2)
    assert scenario.time_invariant
    assert not replace(scenario, evader=EvaderModel(kind="step", accel_theta=1.0)).time_invariant
    wavy = DisturbanceModel(side=AxisSignal(kind="sinusoid", amplitude=1.0, frequency=2.0))
    assert not replace(scenario, disturbances=wavy).time_invariant
    log, _ = run(scenario)
    sampled_once = inputs(scenario, log.t)
    for once in sampled_once:
        assert once.strides[0] == 0 and not once.flags.writeable
    monkeypatch.setattr(sim.Scenario, "time_invariant", False)
    log_each, _ = run(scenario)
    assert np.array_equal(log.table, log_each.table)
    for once, each in zip(sampled_once, inputs(scenario, log.t)):
        assert np.array_equal(once, each)


def test_inputs_sample_the_plant_signals():
    rate = VectorSignal(kind="sinusoid", amplitude=(1.0, 2.0, 3.0), frequency=7.0, phase=0.5)
    scenario = make_scenario(disturbances=DisturbanceModel(rate=rate))
    t = np.arange(5) * 0.1
    sampled = inputs(scenario, t)
    assert [a.shape for a in sampled] == [(5, 3), (5, 3), (5,), (5,), (5, 3)]
    assert np.array_equal(sampled[0], [rate.sample(ti) for ti in t.tolist()])
    assert not np.any(np.concatenate([a.reshape(5, -1) for a in sampled[1:]], axis=1))


def test_run_long_horizon_intercepts():
    # The log grows with the flight, never with t_max: sized from this
    # horizon it would need 1e12 rows.
    log, summary = run(make_scenario(t_max=1e9))
    assert summary.outcome == "intercept"
    assert summary.steps == len(log) == 8065


def test_run_stops_at_the_step_cap(monkeypatch):
    # The cap ends a run as a timeout, with a note, only where it cuts the
    # flight short of t_max.
    monkeypatch.setattr(sim, "MAX_STEPS", 50)
    log, summary = run(make_scenario())
    assert summary.outcome == "timeout" and summary.steps == len(log) == 50
    assert summary.message == "step cap sim.MAX_STEPS = 50 reached at t=0.049, before t_max"
    log, summary = run(make_scenario(t_max=0.049))
    assert summary.outcome == "timeout" and len(log) == 50 and summary.message == ""


def test_run_deterministic():
    scenario = make_scenario(t_max=0.5)
    log_a, _ = run(scenario)
    log_b, _ = run(scenario)
    assert np.array_equal(log_a.table, log_b.table)


def test_log_uniform_timestamps():
    scenario = make_scenario(t_max=0.5)
    log, summary = run(scenario)
    steps = np.diff(log.t)
    assert np.all(np.abs(steps - scenario.dt) < 1e-12)
    assert len(log) == math.floor(summary.flight_time / scenario.dt) + 1


def test_scenario_validation_messages():
    with pytest.raises(ValueError, match="sim.dt"):
        make_scenario(dt=0.0)
    with pytest.raises(ValueError, match="r_min"):
        make_scenario(r_min=5000.0)
    with pytest.raises(ValueError, match="plant_mode"):
        make_scenario(plant_mode="exact")


@pytest.mark.parametrize("initial, message", [
    pytest.param(make_initial(r=-1.0), "initial: range -1 must be positive", id="r"),
    # Inside (-pi/2, pi/2) but past the band: the run's envelope decides.
    pytest.param(make_initial(beta=1.3), "initial: sideslip 1.3 breached guard 1.2",
                 id="beta-band"),
    pytest.param(make_initial(pitch=1.3), "initial: pitch 1.3 breached guard 1.2",
                 id="pitch-band"),
    pytest.param(make_initial(theta_l=1.3), "initial: LOS elevation 1.3 breached guard 1.2",
                 id="theta_l-band"),
    pytest.param(make_initial(theta_v=1.6), "initial: velocity elevation 1.6 breached guard 1.2",
                 id="theta_v"),
    pytest.param(make_initial(beta=-1.6), "initial: sideslip -1.6 breached guard 1.2", id="beta"),
    pytest.param(make_initial(pitch=math.pi / 2), "initial: pitch 1.571 breached guard 1.2",
                 id="pitch-half-pi"),
    pytest.param(make_initial(omega_x=math.nan), "initial: omega_x nan must be finite",
                 id="nonfinite"),
    pytest.param(make_initial()[:14], "initial: need 15 floats in STATE_FIELDS order, got 14",
                 id="short"),
    pytest.param((*make_initial(), 0.0), "initial: need 15 floats in STATE_FIELDS order, got 16",
                 id="long"),
])
def test_scenario_validates_initial_state(initial, message):
    # A scenario built in code is checked as one read from a file is: building
    # it, or replacing a valid one's initial state, rejects an initial state
    # that is not 15 floats inside the flight envelope.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_scenario(initial=initial)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(make_scenario(), initial=initial)


def test_trimmed_attitude_zeroes_tracking_errors():
    scenario = trim_attitude_to_commands(make_scenario())
    y = np.array(scenario.initial)
    _, x1_sharp, x2_cmd, _, _, _ = igc.law(igc.LawConstants(scenario.cfg, scenario.gains),
                                           y.tolist())
    eta1 = y[8:11] - np.array([0.0, *x1_sharp])
    eta2 = y[11:14] - np.array(x2_cmd)
    assert np.abs(eta1).max() < 1e-12
    assert np.abs(eta2).max() < 1e-12


def test_disturbance_free_decay_rate():
    # On the command manifold with no disturbances the LOS rate must decay
    # at least as fast as the guidance convergence coefficient.
    scenario = trim_attitude_to_commands(make_scenario(t_max=1.6))
    log, _ = run(scenario)
    window = log.t <= 3.0 / scenario.gains.k0
    slope = np.polyfit(log.t[window], np.log(log.x0_norm[window]), 1)[0]
    assert -slope >= 0.95 * scenario.gains.k0


def test_quiet_run_beats_disturbed_run():
    # Same geometry and horizon; the maneuvering evader must leave a larger
    # residual LOS rate than the quiet engagement.
    from igcsim.engagement import EvaderModel
    quiet = make_scenario(initial=make_initial(vr=-150.0), t_max=2.0)
    weaving = make_scenario(
        initial=make_initial(vr=-150.0), t_max=2.0,
        evader=EvaderModel(kind="weave", accel_theta=20.0, accel_phi=20.0,
                           frequency=1.0))
    _, quiet_summary = run(quiet)
    _, weaving_summary = run(weaving)
    assert quiet_summary.post_transient_sup_x0 < weaving_summary.post_transient_sup_x0


def test_sweep_single_point_matches_run():
    scenario = make_scenario(t_max=0.5)
    points = sweep(scenario, [scenario.gains])
    _, summary = run(scenario)
    assert len(points) == 1
    assert points[0].summary == summary


def test_sweep_records_errors_and_continues():
    scenario = make_scenario(t_max=0.2)
    points = sweep(scenario, [None, scenario.gains])
    assert points[0].summary is None and points[0].error
    assert points[1].summary is not None


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError, match="nonempty"):
        sweep(make_scenario(), [])


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")


def _pid(_):
    return os.getpid()


def _nap(_):
    """The child's pid and the monotonic times around a short sleep in it."""
    start = time.monotonic()
    time.sleep(0.05)
    return os.getpid(), start, time.monotonic()


def _raise_on_one(item):
    if item == 1:
        raise SingularityError("attitude", 7.5)
    return item


@needs_fork
def test_map_points_forks_one_worker_per_cpu(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    spans = sim.map_points(_nap, range(5))
    pids = [pid for pid, _, _ in spans]
    # Each item ran in a child of its own, never here.
    assert os.getpid() not in pids and len(set(pids)) == 5
    # At most two items ran at once: at each start, at most two were running.
    for _, start, _ in spans:
        assert sum(begin <= start < end for _, begin, end in spans) <= 2
    # One item, or one usable CPU: the items run in this process.
    assert sim.map_points(_pid, [0]) == [os.getpid()]
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
    assert sim.map_points(_pid, range(3)) == [os.getpid()] * 3


@needs_fork
def test_map_points_propagates_worker_exceptions(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    with pytest.raises(SingularityError) as info:
        sim.map_points(_raise_on_one, range(3))
    assert (info.value.stage, info.value.condition) == ("attitude", 7.5)
    assert str(info.value) == str(SingularityError("attitude", 7.5))


def _inner_failure(item):
    raise ValueError(f"item {item} failed")


def _outer_call(item):
    return _inner_failure(item)


@needs_fork
def test_map_points_chains_the_child_traceback(monkeypatch):
    # The exception is raised again here with the child's traceback as its
    # cause, which names the frame that raised it.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="item 0 failed") as info:
        sim.map_points(_outer_call, range(2))
    assert "_inner_failure" in str(info.value.__cause__)
    assert "_outer_call" in str(info.value.__cause__)


@needs_fork
def test_pooled_sweep_matches_serial_runs(monkeypatch):
    # Five points on two CPUs, so children run side by side and in turn.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    scenario = make_scenario(t_max=0.3)
    grid = [make_gains(delta1=d, delta2=d) for d in (0.5, 0.25)] + [None] + \
        [make_gains(k1=k, k2=k) for k in (5.0, 20.0)]
    points = sweep(scenario, grid)
    assert [p.gains for p in points] == grid
    for point in points:
        if point.gains is None:
            with pytest.raises(Exception) as info:
                run(replace(scenario, gains=None))
            assert point.summary is None and point.error == str(info.value)
        else:
            assert point.error == ""
            assert point.summary == run(replace(scenario, gains=point.gains))[1]


@needs_fork
def test_sweep_survives_worker_death(monkeypatch):
    # Six points on two CPUs: the child that dies loses only its own point,
    # and the other points all come back as a serial sweep's.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    scenario = make_scenario(t_max=0.2)
    grid = [make_gains(k1=k, k2=k) for k in (5.0, 7.0, 10.0, 12.0, 15.0, 20.0)]
    serial = [run(replace(scenario, gains=g))[1] for g in grid]
    real_stream = sim.stream

    def dying_stream(s, on_block):
        if s.gains.k1 == 7.0:
            os._exit(1)  # the worker process dies, as under a kill signal
        return real_stream(s, on_block)

    monkeypatch.setattr(sim, "stream", dying_stream)  # before the workers fork
    with _time_bound(60):
        points = sweep(scenario, grid)
    assert [p.gains for p in points] == grid
    assert points[1].summary is None and points[1].error == sim.WORKER_LOST
    for point, summary in zip(points[:1] + points[2:], serial[:1] + serial[2:]):
        assert point.error == "" and point.summary == summary
    _assert_no_child_process()


@contextmanager
def _time_bound(seconds: float):
    """Raise TimeoutError in the block if it runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _square(item):
    return item * item


def _map_then_return(monkeypatch, tmp_path):
    assert sim.map_points(_square, range(5)) == [0, 1, 4, 9, 16]


def _map_where_fn_raises(monkeypatch, tmp_path):
    with pytest.raises(SingularityError):
        sim.map_points(_raise_on_one, range(5))


def _map_where_parent_raises(monkeypatch, tmp_path):
    # The parent fails while outcomes are still coming back: the second
    # reap that is not a kill raises before it reaps.
    real_reap = sim.ChildProcess.reap
    reaped = []

    def reap_once(child, kill=False):
        if kill:
            return real_reap(child, kill)
        if reaped:
            raise KeyError("collecting")
        reaped.append(real_reap(child))
        return reaped[-1]

    monkeypatch.setattr(sim.ChildProcess, "reap", reap_once)
    with pytest.raises(KeyError, match="collecting"):
        sim.map_points(_square, range(5))
    assert reaped[0] in [(True, 0), (True, 1)]


class _TwoArgumentError(Exception):
    # Pickles as (cls, (message,)), so it does not unpickle.
    def __init__(self, stage, condition):
        super().__init__(f"{stage}: {condition}")


def _raise_two_argument_error(item):
    raise _TwoArgumentError("attitude", item)


def _map_where_error_does_not_unpickle(monkeypatch, tmp_path):
    # The child sends a stand-in naming the type and message, with the
    # child's traceback still chained.
    with pytest.raises(RuntimeError, match="^_TwoArgumentError: attitude: 0$") as info:
        sim.map_points(_raise_two_argument_error, range(5))
    assert "_raise_two_argument_error" in str(info.value.__cause__)


def _raise_unpicklable_error(item):
    error = ValueError(f"attitude: {item}")
    error.hook = lambda: item  # pickled with the exception, and a lambda does not pickle
    raise error


def _map_where_error_does_not_pickle(monkeypatch, tmp_path):
    with pytest.raises(RuntimeError, match="^ValueError: attitude: 0$") as info:
        sim.map_points(_raise_unpicklable_error, range(5))
    assert "_raise_unpicklable_error" in str(info.value.__cause__)


def _csv_writer_where_run_raises(monkeypatch, tmp_path):
    def fail_after_first(on_block):
        def forward(rows):
            on_block(rows)
            raise KeyError("stepping")
        return forward

    path = tmp_path / "out.csv"
    with pytest.raises(KeyError, match="stepping"):
        with cli._forked_csv_writer(path) as on_block:
            run(make_scenario(t_max=1.0), fail_after_first(on_block))
    assert len(path.read_text().splitlines()) == 1 + sim.LOG_BLOCK


@needs_fork
@pytest.mark.parametrize("case", [_map_then_return, _map_where_fn_raises,
                                  _map_where_parent_raises, _csv_writer_where_run_raises,
                                  _map_where_error_does_not_unpickle,
                                  _map_where_error_does_not_pickle],
                         ids=["returns", "fn-raises", "parent-raises", "csv-writer",
                              "error-does-not-unpickle", "error-does-not-pickle"])
def test_no_child_outlives_map_points_or_csv_writer(monkeypatch, tmp_path, case):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    with _time_bound(60):
        case(monkeypatch, tmp_path)
    _assert_no_child_process()


def _open_descriptors():
    # None where there is no /proc to list them.
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@needs_fork
def test_failed_fork_closes_its_pipes(monkeypatch, tmp_path, capsys):
    # When os.fork fails, ChildProcess closes the two pipes it made and
    # raises the error: map_points raises it once the child it already forked
    # is reaped, and `igcsim run` reports the writer's as an error.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    real_fork, forks = os.fork, []

    def fork_failing_at(call):
        def fork():
            forks.append(None)
            if len(forks) == call:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()
        return fork

    descriptors = _open_descriptors()
    monkeypatch.setattr(os, "fork", fork_failing_at(2))
    with _time_bound(60), pytest.raises(OSError) as info:
        sim.map_points(_square, range(3))
    assert info.value.errno == errno.EAGAIN and len(forks) == 2
    _assert_no_child_process()

    forks.clear()
    monkeypatch.setattr(os, "fork", fork_failing_at(1))
    assert cli.main(["run", str(SCENARIO_DIR / "nominal.cfg"), str(tmp_path / "out.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}\n"
    assert captured.out == "" and len(forks) == 1
    assert _open_descriptors() == descriptors


def _mebibyte(item):
    return np.random.default_rng(item).random(1 << 17)  # 1 MiB of float64


@needs_fork
def test_map_points_returns_results_larger_than_a_pipe(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    with _time_bound(60):
        results = sim.map_points(_mebibyte, range(5))
    assert [r.tobytes() for r in results] == [_mebibyte(i).tobytes() for i in range(5)]
    _assert_no_child_process()


@needs_fork
def test_map_points_needs_only_results_to_pickle(monkeypatch):
    # fn and the items reach the workers through the fork, unpickled.
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    with _time_bound(60):
        assert sim.map_points(lambda item: item(), [lambda: 1, lambda: 2, lambda: 3]) == [1, 2, 3]
        # A result that does not pickle is a pickling error here: not a
        # hang, and not a lost worker.
        with pytest.raises((pickle.PicklingError, AttributeError), match="[Cc]an't pickle"):
            sim.map_points(lambda item: (lambda: item), range(3))
    _assert_no_child_process()


def test_validate_rejects_overflowing_signal_phase():
    # The last sine argument RK4 samples, frequency * (t_max + dt) + phase,
    # must be finite; a signal that never samples its sine is not checked.
    huge = AxisSignal(kind="sinusoid", amplitude=1.0, frequency=1e308)
    with pytest.raises(ValueError, match=r"^disturbance\.lift_frequency: "):
        make_scenario(disturbances=DisturbanceModel(lift=huge), t_max=2.0)
    make_scenario(disturbances=DisturbanceModel(lift=replace(huge, kind="constant")), t_max=2.0)


def test_substep_control_mode_runs():
    scenario = make_scenario(t_max=0.2, control_update="substep")
    _, summary = run(scenario)
    assert summary.outcome == "timeout"


def _array_rk4(deriv, y, t, dt):
    # The integrator's operation order, written over numpy arrays.
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = deriv(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("name, control_update, delta_max", [
    pytest.param(name, update, None, id=f"{name}-{update}")
    for name, update in (("nominal.cfg", "hold"), ("nominal.cfg", "substep"),
                         ("weave_disturbed.cfg", "hold"), ("weave_disturbed.cfg", "substep"))
] + [
    pytest.param("weave_disturbed.cfg", update, 1e-3, id=f"weave_disturbed.cfg-{update}-delta_max")
    for update in ("hold", "substep")
])
def test_loop_tableau_matches_array_rk4(name, control_update, delta_max):
    # Replay each logged step through the public array RK4 and through the
    # array tableau above, with the fins the loop logged held (or the law
    # re-evaluated in substep mode): both land on the next logged state bit
    # for bit.
    shipped = parse_scenario(SCENARIO_DIR / name)
    scenario = replace(shipped, t_max=200 * shipped.dt, control_update=control_update,
                       delta_max=delta_max)
    log, _ = run(scenario)
    assert len(log) == 201
    k = Kernel(scenario)
    for n in range(len(log) - 1):
        held = tuple(log.fins[n].tolist()) if control_update == "hold" else None

        def deriv(t, y):
            return np.array(sim.evaluate(k, scenario.signals(t), y.tolist(), held)[0])

        t, y = float(log.t[n]), log.states[n]
        assert np.array_equal(rk4_step(deriv, y, t, scenario.dt), log.states[n + 1]), n
        assert np.array_equal(_array_rk4(deriv, y, t, scenario.dt), log.states[n + 1]), n


# Runs of make_scenario's dt = 1e-3 that log exactly so many rows.
_ROWS = {"1-row": 1, "2-rows": 2, "LOG_BLOCK-rows": sim.LOG_BLOCK,
         "LOG_BLOCK+1-rows": sim.LOG_BLOCK + 1}


def _summary_run(name):
    """The scenario of a case of test_stream_summary_equals_log_oracle."""
    if name.endswith(".cfg"):
        return parse_scenario(SCENARIO_DIR / name)
    if name == "guard-breach":  # sideslip breaches the guard at t=0.022
        blown = DisturbanceModel(rate=VectorSignal(kind="constant", amplitude=(0.0, 0.0, 60.0)))
        return make_scenario(disturbances=blown, t_max=2.0)
    if name == "range-rate-turns":  # vr turns from -1 m/s to >= 0 in the last step
        return make_scenario(initial=make_initial(vr=-1.0), t_max=0.196)
    return make_scenario(t_max=(_ROWS[name] - 1) * 1e-3)


@pytest.mark.parametrize("name", ["nominal.cfg", "weave_disturbed.cfg", "guard-breach",
                                  "range-rate-turns", *_ROWS])
def test_stream_summary_equals_log_oracle(name):
    # stream keeps one block and reduces as it goes; its summary equals the
    # one computed from the whole log it hands on, field for field, and run
    # collects that log.
    scenario = _summary_run(name)
    blocks = []
    summary = sim.stream(scenario, blocks.append)
    log = sim.SimLog(np.frombuffer(b"".join(blocks)).reshape(-1, LOG_WIDTH))
    assert summary == summary_from_log(log, summary.outcome, summary.message)
    assert [len(block) for block in blocks[:-1]] == [sim.LOG_BLOCK * LOG_WIDTH] * (len(blocks) - 1)
    run_log, run_summary = run(scenario)
    assert run_summary == summary and np.array_equal(run_log.table, log.table)
    if name in _ROWS:
        assert summary.outcome == "timeout" and summary.steps == _ROWS[name]
    if name == "guard-breach":
        assert summary.outcome == "guard-breach" and summary.steps > 1
    if name == "range-rate-turns":
        assert log.vr[-2] < 0.0 <= log.vr[-1]
        assert summary.miss_distance < summary.final_r


def test_law_and_plant_make_no_numpy_call(monkeypatch):
    # The step loop makes no numpy call: with numpy unreachable from the law
    # and plant modules a run still completes.
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached from the step loop")

    scenario = replace(parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg"), t_max=0.05)
    for module in (airframe, engagement, frames, igc):
        monkeypatch.setattr(module, "np", NoNumpy(), raising=False)
    log, summary = run(scenario)
    assert summary.outcome == "timeout" and len(log) == 26

    # sim itself reaches numpy as often in a 100x longer run, which also
    # outgrows any fixed-size log block: not once a step.
    class CountingNumpy:
        def __init__(self):
            self.count = 0

        def __getattr__(self, name):
            self.count += 1
            return getattr(np, name)

    counts = []
    for t_max in (0.05, 5.0):
        counting = CountingNumpy()
        monkeypatch.setattr(sim, "np", counting)
        log, summary = run(replace(scenario, t_max=t_max))
        assert summary.outcome == "timeout" and len(log) == round(t_max / scenario.dt) + 1
        counts.append(counting.count)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("control_update", ["hold", "substep"])
def test_step_evaluates_each_state_once(monkeypatch, control_update):
    # One flat evaluation per RK4 stage: the law's evaluation of a step's
    # state is also its first stage, so a step evaluates four states (its
    # own, then those of k2, k3 and k4), and the last logged state is
    # evaluated once more.  Each evaluation checks the envelope once, and
    # nothing else does: the scenario, built before counting, was checked
    # when built, and a step's new state is checked when next evaluated.
    # The law is its stage functions, so each runs once per law evaluation:
    # once a step in hold mode, once per RK4 stage in substep mode, and once
    # for the last logged state.  The piecewise helpers that evaluate
    # composes and rk4_step are off the run path.
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(module, name, counted)

    unused = ((frames, "los_rows"), (airframe, "mixer"), (sim, "rk4_step"))
    stages = ((engagement, "guidance_map"), (igc, "guidance_stage"), (igc, "attitude_stage"),
              (igc, "fin_stage"))
    for module, name in ((sim, "evaluate"), (sim, "check_envelope"), *unused, *stages):
        count(module, name)
    shipped = parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg")
    for steps in (10, 30):
        scenario = replace(shipped, t_max=steps * shipped.dt, control_update=control_update)
        calls.clear()
        log, summary = run(scenario)
        assert summary.outcome == "timeout" and len(log) == steps + 1
        evaluations = 4 * steps + 1
        law_evaluations = steps + 1 if control_update == "hold" else evaluations
        assert calls == {"evaluate": evaluations, "check_envelope": evaluations,
                         **{name: law_evaluations for _, name in stages}}
        assert [calls[name] for _, name in unused] == [0] * len(unused)
