import math

import numpy as np
import pytest

from igcsim import airframe, engagement, frames, igc
from igcsim.engagement import VectorSignal, DisturbanceModel
from igcsim.sim import (
    FullState,
    Scenario,
    closed_loop_derivative,
    rk4_step,
    run,
    sweep,
    trim_attitude_to_commands,
)

from .conftest import make_cfg, make_gains, make_initial, make_scenario


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
    from igcsim.errors import GuardError
    with pytest.raises(GuardError):
        rk4_step(lambda t, x: x * np.inf, np.array([1.0]), 0.0, 0.1)


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
    deriv = closed_loop_derivative(scenario.initial, scenario)
    expected = np.zeros(15)
    expected[0] = scenario.initial.engagement.vr
    assert np.allclose(deriv, expected, atol=1e-15)


def test_closed_loop_derivative_composition():
    scenario = make_scenario()
    state = scenario.initial
    fins, _ = igc.igc_step(state.engagement, state.attitude, scenario.cfg,
                           scenario.gains)
    deriv = closed_loop_derivative(state, scenario, fins)

    x1_dot, x2_dot, pitch_dot = airframe.attitude_derivatives(
        state.attitude, fins, np.zeros(3), np.zeros(3), scenario.cfg)
    assert np.array_equal(deriv[8:11], x1_dot)
    assert np.array_equal(deriv[11:14], x2_dot)
    assert deriv[14] == pitch_dot

    a_theta, a_psi = airframe.lift_side_accels(
        state.attitude.alpha, state.attitude.beta, 0.0, 0.0,
        scenario.cfg, scenario.plant_mode)
    accel_p = frames.accel_velocity_to_los((0.0, a_theta, a_psi),
                                           state.engagement.los,
                                           state.engagement.vel)
    expected_rel = engagement.relative_derivatives(
        state.engagement, accel_p, np.zeros(3))
    assert np.array_equal(deriv[:6], expected_rel)


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
    scenario = make_scenario(initial=make_initial(r=0.5), r_intercept=1.0,
                             r_min=0.1, t_max=1.0)
    log, summary = run(scenario)
    assert summary.outcome == "intercept"
    assert summary.steps == 1


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


def test_run_long_horizon_intercepts():
    # The log grows with the flight, never with t_max: sized from this
    # horizon it would need 1e12 rows.
    log, summary = run(make_scenario(t_max=1e9))
    assert summary.outcome == "intercept"
    assert summary.steps == len(log) == 8065


def test_run_deterministic():
    scenario = make_scenario(t_max=0.5)
    log_a, _ = run(scenario)
    log_b, _ = run(scenario)
    for name in ("t", "states", "fins", "x1_sharp_cmd", "x2_cmd",
                 "rate_dist", "accel_dist", "lift_dist", "side_dist",
                 "evader", "saturated"):
        assert np.array_equal(getattr(log_a, name), getattr(log_b, name))


def test_log_uniform_timestamps():
    scenario = make_scenario(t_max=0.5)
    log, summary = run(scenario)
    steps = np.diff(log.t)
    assert np.all(np.abs(steps - scenario.dt) < 1e-12)
    assert len(log) == math.floor(summary.flight_time / scenario.dt) + 1


def test_scenario_validation_messages():
    with pytest.raises(ValueError, match="sim.dt"):
        make_scenario(dt=0.0).validate()
    with pytest.raises(ValueError, match="r_min"):
        make_scenario(r_min=5000.0).validate()
    with pytest.raises(ValueError, match="plant_mode"):
        make_scenario(plant_mode="exact").validate()


def test_trimmed_attitude_zeroes_tracking_errors():
    scenario = trim_attitude_to_commands(make_scenario())
    _, diag = igc.igc_step(scenario.initial.engagement, scenario.initial.attitude,
                           scenario.cfg, scenario.gains)
    assert np.abs(diag.eta1).max() < 1e-12
    assert np.abs(diag.eta2).max() < 1e-12


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


def test_substep_control_mode_runs():
    scenario = make_scenario(t_max=0.2, control_update="substep")
    _, summary = run(scenario)
    assert summary.outcome == "timeout"


def test_full_state_array_round_trip():
    state = make_initial()
    again = FullState.from_array(state.as_array(), t=0.0)
    assert again.engagement == state.engagement
    assert again.attitude == state.attitude
