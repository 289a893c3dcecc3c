import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim import airframe, engagement, frames, igc, sim
from igcsim.cli import parse_scenario
from igcsim.engagement import AxisSignal, DisturbanceModel, EngagementState, VectorSignal
from igcsim.errors import GuardError, SingularityError
from igcsim.sim import (
    LOG_WIDTH,
    STATE_FIELDS,
    Kernel,
    check_envelope,
    derivative,
    inputs,
    rk4_step,
    run,
    sweep,
    trim_attitude_to_commands,
)

from .conftest import SCENARIO_DIR, make_cfg, make_gains, make_initial, make_scenario


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
    deriv = derivative(Kernel(scenario), scenario.signals(0.0), list(scenario.initial))
    expected = np.zeros(15)
    expected[0] = scenario.initial[1]
    assert np.allclose(deriv, expected, atol=1e-15)


def test_closed_loop_derivative_composition():
    scenario = make_scenario()
    k = Kernel(scenario)
    y = list(scenario.initial)
    eng, alpha, beta = EngagementState(*y[:8]), y[9], y[10]
    fins = igc.law(k, y)[0]
    deriv = derivative(k, scenario.signals(0.0), y, fins)

    zeros = (0.0, 0.0, 0.0)
    assert deriv[8:] == list(airframe.attitude_rates(k, *y[8:], fins, zeros, zeros))

    a_theta, a_psi = airframe.lift_side_accels(alpha, beta, 0.0, 0.0,
                                               scenario.cfg, scenario.plant_mode)
    accel_p = frames.accel_velocity_to_los((0.0, a_theta, a_psi), eng.los, eng.vel)
    expected_rel = engagement.relative_derivatives(eng, accel_p, np.zeros(3))
    assert np.array_equal(deriv[:6], expected_rel)
    assert tuple(deriv[6:8]) == engagement.velocity_angle_derivatives(
        a_theta, a_psi, scenario.cfg, eng.theta_v)


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
        derivative(Kernel(scenario), scenario.signals(0.0), y, (0.0, 0.0, 0.0))
    assert str(alone.value) == str(in_derivative.value) == message


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
        make_scenario(dt=0.0).validate()
    with pytest.raises(ValueError, match="r_min"):
        make_scenario(r_min=5000.0).validate()
    with pytest.raises(ValueError, match="plant_mode"):
        make_scenario(plant_mode="exact").validate()


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
    # A scenario built in code holds any floats; validate, and so run, rejects
    # an initial state that is not 15 floats inside the flight envelope.
    scenario = make_scenario(initial=initial)
    with pytest.raises(ValueError) as info:
        scenario.validate()
    assert str(info.value) == message
    with pytest.raises(ValueError, match="^initial: "):
        run(scenario)


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


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="worker processes are forked")


def _pid(_):
    return os.getpid()


def _raise_on_one(item):
    if item == 1:
        raise SingularityError("attitude", 7.5)
    return item


@needs_fork
def test_map_points_forks_one_worker_per_cpu(monkeypatch):
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    pids = sim.map_points(_pid, range(5))
    assert len(pids) == 5 and os.getpid() not in pids
    assert len(set(pids)) <= 2
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


@needs_fork
def test_pooled_sweep_matches_serial_runs(monkeypatch):
    # Five points on two workers, so each worker runs several points.
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
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    scenario = make_scenario(t_max=0.2)
    grid = [make_gains(k1=k, k2=k) for k in (5.0, 7.0, 10.0, 20.0)]
    serial = [run(replace(scenario, gains=g))[1] for g in grid]
    real_run = sim.run

    def dying_run(s):
        if s.gains.k1 == 7.0:
            os._exit(1)  # the worker process dies, as under a kill signal
        return real_run(s)

    monkeypatch.setattr(sim, "run", dying_run)  # before the pool forks
    points = sweep(scenario, grid)
    assert [p.gains for p in points] == grid
    assert points[1].summary is None and points[1].error == sim.WORKER_LOST
    for point, summary in zip(points, serial):
        assert point.summary == summary or (point.summary is None
                                             and point.error == sim.WORKER_LOST)


def test_validate_rejects_overflowing_signal_phase():
    # The last sine argument RK4 samples, frequency * (t_max + dt) + phase,
    # must be finite; a signal that never samples its sine is not checked.
    huge = AxisSignal(kind="sinusoid", amplitude=1.0, frequency=1e308)
    with pytest.raises(ValueError, match=r"^disturbance\.lift_frequency: "):
        make_scenario(disturbances=DisturbanceModel(lift=huge), t_max=2.0).validate()
    make_scenario(disturbances=DisturbanceModel(lift=replace(huge, kind="constant")),
                  t_max=2.0).validate()


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


@pytest.mark.parametrize("name, control_update", [
    ("nominal.cfg", "hold"), ("weave_disturbed.cfg", "hold"), ("weave_disturbed.cfg", "substep"),
])
def test_loop_tableau_matches_array_rk4(name, control_update):
    # Replay each logged step through the public array RK4 and through the
    # array tableau above, with the fins the loop logged held (or the law
    # re-evaluated in substep mode): both land on the next logged state bit
    # for bit.
    shipped = parse_scenario(SCENARIO_DIR / name)
    scenario = replace(shipped, t_max=200 * shipped.dt, control_update=control_update)
    log, _ = run(scenario)
    assert len(log) == 201
    k = Kernel(scenario)
    for n in range(len(log) - 1):
        held = tuple(log.fins[n].tolist()) if control_update == "hold" else None

        def deriv(t, y):
            return np.array(derivative(k, scenario.signals(t), y.tolist(), held))

        t, y = float(log.t[n]), log.states[n]
        assert np.array_equal(rk4_step(deriv, y, t, scenario.dt), log.states[n + 1]), n
        assert np.array_equal(_array_rk4(deriv, y, t, scenario.dt), log.states[n + 1]), n


def test_law_and_plant_make_no_numpy_call(monkeypatch):
    # Inside the step loop numpy only writes the log table: with numpy
    # unreachable from the law and plant modules a run still completes.
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} reached from the step loop")

    scenario = replace(parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg"), t_max=0.05)
    for module in (airframe, engagement, frames, igc):
        monkeypatch.setattr(module, "np", NoNumpy(), raising=False)
    log, summary = run(scenario)
    assert summary.outcome == "timeout" and len(log) == 26
