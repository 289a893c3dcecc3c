import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim import analysis
from igcsim.airframe import g1_series
from igcsim.analysis import (
    LinearGain,
    bound_audit,
    build_certificate,
    estimate_loop_gain,
    linear_gains,
    small_gain_check,
    spectral_norm,
    theorem2_bound,
    worst_case_g0_norm,
    worst_case_g1_norm,
    x0_bound,
)
from igcsim.cli import parse_scenario
from igcsim.engagement import DisturbanceModel
from igcsim.sim import LOG_WIDTH, SimLog, inputs, run

from .conftest import SCENARIO_DIR, make_gains, make_scenario

positive = st.floats(min_value=0.1, max_value=10.0)
nonneg = st.floats(min_value=0.0, max_value=10.0)
times = st.floats(min_value=0.0, max_value=100.0)


def test_theorem2_bound_at_zero():
    assert theorem2_bound(0.0, 1.7, k=2.0, delta=0.5, d_sup=3.0) == 1.7


def test_theorem2_bound_steady_state():
    assert math.isclose(theorem2_bound(1e3, 0.0, k=2.0, delta=0.5, d_sup=1.0),
                        0.25, rel_tol=1e-12)


def test_theorem2_bound_disturbance_free():
    t = 0.8
    assert math.isclose(theorem2_bound(t, 2.0, k=1.5, delta=0.7, d_sup=0.0),
                        math.exp(-1.5 * t) * 2.0, rel_tol=1e-15)


@given(times, positive, positive, positive, nonneg, positive)
def test_theorem2_bound_monotonicity(t, x0n, k, delta, d_sup, bump):
    base = theorem2_bound(t, x0n, k, delta, d_sup)
    assert theorem2_bound(t, x0n, k + bump, delta, d_sup) <= base + 1e-12
    assert theorem2_bound(t, x0n, k, delta + bump, d_sup) >= base - 1e-12
    assert theorem2_bound(t, x0n + bump, k, delta, d_sup) >= base
    assert theorem2_bound(t, x0n, k, delta, d_sup + bump) >= base


def test_x0_bound_cases(gains):
    decay_only = x0_bound(0.3, 1.0, gains, r_m=100.0, d0_sup=0.0, y1_sup=0.0)
    assert math.isclose(decay_only, math.exp(-gains.k0 * 0.3), rel_tol=1e-15)
    tight = x0_bound(50.0, 0.0, gains, r_m=100.0, d0_sup=50.0, y1_sup=0.0)
    loose = x0_bound(50.0, 0.0, gains, r_m=200.0, d0_sup=50.0, y1_sup=0.0)
    assert math.isclose(tight, 2.0 * loose, rel_tol=1e-12)
    g = make_gains(k0=2.0, delta0=0.1)
    assert math.isclose(x0_bound(1e3, 0.0, g, 100.0, 50.0, 0.0), 0.025, rel_tol=1e-12)


def test_linear_gains_formula():
    g = make_gains(k1=5.0, delta1=0.1)
    g1y, g1u, g3y, g3u = linear_gains(g, g0_norm=2.0, g1_norm=1.0)
    assert math.isclose(g1y.coefficient, 0.2 / math.sqrt(10.0), rel_tol=1e-15)
    assert g1y.coefficient == g1u.coefficient
    assert g3y.coefficient == g3u.coefficient


def test_linear_gains_vanish_with_delta():
    coeffs = [linear_gains(make_gains(delta1=d), 2.0, 1.0)[0].coefficient
              for d in (0.1, 0.01, 0.001)]
    assert coeffs[0] > coeffs[1] > coeffs[2]
    assert coeffs[2] < 1e-3


def test_linear_gains_k_scaling():
    base = linear_gains(make_gains(k2=5.0), 2.0, 1.0)[2].coefficient
    quad = linear_gains(make_gains(k2=20.0), 2.0, 1.0)[2].coefficient
    assert math.isclose(quad, base / 2.0, rel_tol=1e-12)


def test_small_gain_check_cases():
    passed, margin = small_gain_check(LinearGain(0.06325), LinearGain(10.0))
    assert passed and math.isclose(margin, 1.0 - 0.6325, rel_tol=1e-12)
    passed, margin = small_gain_check(LinearGain(1.0), LinearGain(1.0))
    assert not passed and margin == 0.0
    passed, margin = small_gain_check(LinearGain(0.0), LinearGain(123.0))
    assert passed and margin == 1.0


@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_small_gain_check_symmetric(a, b):
    assert small_gain_check(LinearGain(a), LinearGain(b)) == \
        small_gain_check(LinearGain(b), LinearGain(a))


def test_linear_gain_callable_and_validated():
    assert LinearGain(0.5)(4.0) == 2.0
    with pytest.raises(ValueError):
        LinearGain(-0.1)


def test_spectral_norm_cases():
    assert spectral_norm(np.eye(3)) == 1.0
    assert math.isclose(spectral_norm(np.diag([3.0, -4.0])), 4.0, rel_tol=1e-15)


def test_spectral_norm_sampling_oracle():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(3, 3))
    directions = rng.normal(size=(10_000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    sampled = np.linalg.norm(directions @ m.T, axis=1).max()
    assert abs(spectral_norm(m) - sampled) < 1e-3


def test_worst_case_norms(cfg):
    assert math.isclose(worst_case_g0_norm(cfg, 500.0),
                        362000.0 / (100.0 * 500.0), rel_tol=1e-15)
    bound = worst_case_g1_norm(half_width=0.3)
    sampled = spectral_norm(g1_series(1.1, -0.3, 0.3, 0.3))
    assert bound >= sampled - 1e-9


def _constant_log(n=5, dt=0.01):
    # Zero fins, commands and saturation; the scenario's inputs are zero too.
    log = SimLog(np.zeros((n, LOG_WIDTH)))
    log.t[:] = np.arange(n) * dt
    log.states[:] = [1000.0, -10.0] + [0.0] * 13
    return log


def test_bound_audit_constant_log():
    traces, total = bound_audit(_constant_log(), make_scenario(r_min=100.0))
    assert total == 0
    assert all(trace.violations == 0 for trace in traces)


def test_bound_audit_rejects_short_log():
    log = _constant_log(n=2)
    with pytest.raises(ValueError, match="too short"):
        bound_audit(log, make_scenario(r_min=100.0))


def test_bound_audit_rejects_nonuniform_log():
    log = _constant_log()
    log.t[-1] += 0.5
    with pytest.raises(ValueError, match="uniform"):
        bound_audit(log, make_scenario(r_min=100.0))


def test_bound_audit_rejects_invalid_r_min():
    with pytest.raises(ValueError, match="r_min"):
        bound_audit(_constant_log(), make_scenario(r_min=-1.0))


def test_bound_audit_covers_scenario_inputs():
    # The attitude and rate channels are driven by the scenario's rate and
    # accel disturbances, which the audit samples at the logged times: their
    # share of each envelope is the gain times the disturbance supremum.
    scenario = replace(parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg"), t_max=0.5)
    log, _ = run(scenario)
    (_, attitude, rate_channel), _ = bound_audit(log, scenario)
    (_, quiet_attitude, quiet_rate), _ = bound_audit(
        log, replace(scenario, disturbances=DisturbanceModel()))
    rate, accel, _, _, _ = inputs(scenario, log.t)
    t, g = log.t[-1], scenario.gains
    for trace, quiet, k, delta, d in ((attitude, quiet_attitude, g.k1, g.delta1, rate),
                                      (rate_channel, quiet_rate, g.k2, g.delta2, accel)):
        share = delta / math.sqrt(2.0 * k) * math.sqrt(-math.expm1(-2.0 * k * t)) \
            * np.linalg.norm(d, axis=-1).max()
        assert share > 0.0
        assert trace.bound[-1] >= share
        assert trace.bound[-1] - quiet.bound[-1] == pytest.approx(share, rel=1e-9)


def test_bound_audit_clean_short_run():
    scenario = make_scenario(t_max=1.5)
    log, summary = run(scenario)
    traces, total = bound_audit(log, scenario)
    assert summary.outcome == "timeout"
    assert total == 0
    for trace in traces:
        assert np.all(trace.measured <= trace.bound * 1.05)


def test_bound_audit_measures_logged_channels():
    # The audited norms are the log's own channel definitions, which the CSV
    # writes as norm_x0, norm_eta1 and norm_eta2, bit for bit.
    scenario = make_scenario(t_max=1.5)
    log, _ = run(scenario)
    traces, _ = bound_audit(log, scenario)
    for trace, logged in zip(traces, (log.x0_norm, log.eta1_norm, log.eta2_norm)):
        assert np.array_equal(trace.measured, logged)


def test_bound_audit_flags_violations():
    # A constant nonzero LOS rate with no disturbance cannot satisfy a
    # decaying envelope.
    log = _constant_log(n=50)
    log.states[:, 4] = 0.05
    _, total = bound_audit(log, make_scenario(r_min=100.0))
    assert total > 0


def test_certificate_render_and_pass():
    cert = build_certificate(make_gains(), g0_norm=7.24, g1_norm=1.34,
                             gamma_0y_est=1.0, gamma_2y_est=2.0)
    assert cert.passed is True
    text = cert.render()
    assert "PASS" in text and "margin" in text
    inconclusive = build_certificate(make_gains(), 7.24, 1.34)
    assert inconclusive.passed is None
    assert "INCONCLUSIVE" in inconclusive.render()
    failing = build_certificate(make_gains(), 7.24, 1.34,
                                gamma_0y_est=50.0, gamma_2y_est=50.0)
    assert failing.passed is False


def test_estimate_loop_gain_smoke():
    scenario = make_scenario(t_max=1.0)
    gain = estimate_loop_gain(scenario, "rate", base_amplitude=0.02)
    assert math.isfinite(gain.coefficient) and gain.coefficient >= 0.0


def test_estimate_loop_gain_rejects_bad_inputs():
    scenario = make_scenario(t_max=1.0)
    with pytest.raises(ValueError, match="loop"):
        estimate_loop_gain(scenario, "outer", 1.0)
    with pytest.raises(ValueError, match="base_amplitude"):
        estimate_loop_gain(scenario, "rate", -1.0)
    from .conftest import make_initial
    intercepting = make_scenario(initial=make_initial(r=600.0), r_min=100.0,
                                 t_max=5.0)  # intercepts well inside the horizon
    with pytest.raises(ValueError, match="horizon"):
        estimate_loop_gain(intercepting, "rate", 0.02)
