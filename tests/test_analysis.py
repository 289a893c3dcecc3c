import math
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim import sim
from igcsim.airframe import AeroConstants
from igcsim.analysis import (
    MIN_AUDIT_SAMPLES,
    BlockAudit,
    LinearGain,
    bound_audit,
    build_certificate,
    estimate_loop_gain,
    linear_gains,
    theorem2_bound,
    worst_case_g0_norm,
    worst_case_g1_norm,
    x0_bound,
)
from igcsim.cli import parse_scenario
from igcsim.engagement import AxisSignal, DisturbanceModel, EngagementState, guidance_map
from igcsim.errors import SingularityError
from igcsim.frames import los_rows
from igcsim.sim import LOG_BLOCK, LOG_WIDTH, SimLog, inputs, run

from .conftest import SCENARIO_DIR, g1_matrix, make_gains, make_scenario
from .oracles import bound_audit_columns
from .test_kernel import assert_close, composed_projection

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


def test_linear_gain_callable_and_validated():
    assert LinearGain(0.5)(4.0) == 2.0
    with pytest.raises(ValueError):
        LinearGain(-0.1)


def test_worst_case_norms(cfg):
    assert math.isclose(worst_case_g0_norm(cfg, 500.0),
                        362000.0 / (100.0 * 500.0), rel_tol=1e-15)
    bound = worst_case_g1_norm()
    assert bound == 1.3356334212649232  # pinned: the scan's grid and mixer
    sampled = np.linalg.norm(g1_matrix(1.1, -0.3, 0.3, 0.3), 2)
    assert bound >= sampled - 1e-9


def _constant_log(n=5, dt=0.01):
    # Zero fins, commands and saturation; the scenario's inputs are zero too.
    # The velocity points along the LOS (psi_v = phi_l - pi/2), a state at
    # which the law's guidance map is invertible.
    log = SimLog(np.zeros((n, LOG_WIDTH)))
    log.t[:] = np.arange(n) * dt
    log.states[:] = [1000.0, -10.0] + [0.0] * 13
    log.psi_v[:] = -math.pi / 2
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


def test_bound_audit_rejects_singular_geometry():
    # No run logs a state at which the guidance map is singular (the law
    # raises there first); the audit of such a log raises the law's own
    # error for the first singular sample.  Two rows put the velocity
    # orthogonal to the LOS, with |cos| = 0 and 5e-10: rows 3 and 7 of a
    # one-block log, then two rows after the first block of a longer one.
    scenario = make_scenario(r_min=100.0)
    for n, first, second in ((10, 3, 7), (LOG_BLOCK + 10, LOG_BLOCK + 3, LOG_BLOCK + 7)):
        log = _constant_log(n=n)
        log.psi_v[first] = 0.0
        log.psi_v[second] = 5e-10
        r, _, theta_l, phi_l, _, _, theta_v, psi_v = log.states[first, :8].tolist()
        with pytest.raises(SingularityError) as row:
            guidance_map(AeroConstants(scenario.cfg), r, los_rows(theta_l, phi_l, theta_v, psi_v))
        with pytest.raises(SingularityError) as info:
            bound_audit(log, scenario)
        assert str(info.value) == str(row.value) == "guidance: velocity orthogonal to LOS (|cos| = 0)"
        assert (info.value.stage, info.value.condition) == ("guidance", math.inf)


def _audit_peak(log, scenario):
    """The audit's heap peak above its inputs [B]."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bound_audit(log, scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


def test_bound_audit_memory_of_nominal_log():
    # The audit reads the log in views of LOG_BLOCK rows, one pass each, and
    # holds only its six output columns at the log's length (387 KB here):
    # on the full nominal.cfg log (8,065 rows, a 1.6 MB table) its heap
    # peaks at most 0.6 MB above its inputs, below the 1.6 MB of
    # bound_audit_columns, which holds whole-column temporaries.  Passes of
    # four blocks, concatenated from the blocks they span, peaked at 0.78 MB.
    scenario = parse_scenario(SCENARIO_DIR / "nominal.cfg")
    log, _ = run(scenario)
    assert len(log) == 8065
    assert _audit_peak(log, scenario) <= 0.6e6


def test_block_audit_memory_of_streamed_blocks():
    # Fed nominal.cfg's 32 streamed blocks, the audit holds one block, its
    # halo rows and one pass's temporaries, whatever the run's length: its
    # heap peaks at most 0.45 MB above its inputs.  Buffering four blocks
    # per pass peaked at 0.90 MB.
    scenario = parse_scenario(SCENARIO_DIR / "nominal.cfg")
    blocks = []
    sim.stream(scenario, lambda block: blocks.append(array("d", block)))
    assert len(blocks) == 32
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        audit = BlockAudit(scenario)
        for block in blocks:
            audit(block)
        audit.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.violations.tolist() == [0, 0, 0]
    assert peak - base <= 0.45e6


def test_bound_audit_memory_scales_with_outputs():
    # Per row, the audit keeps six float64 output columns (48 B); the rest
    # of its peak is one block's temporaries, which do not grow with the
    # log.  bound_audit_columns peaks at 7.7 MB here.
    n = 40_000
    assert _audit_peak(_constant_log(n=n), make_scenario(r_min=100.0)) <= 48 * n + 0.6e6


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


@pytest.mark.parametrize("name", ["nominal.cfg", "weave_disturbed.cfg"])
def test_bound_audit_envelopes_from_frame_oracle(name):
    # The audit replays the log through the law's input maps; rebuild its
    # three envelopes from the frame composition and the reference g1.  The
    # force disturbances make the projection matter: they enter through it.
    shipped = parse_scenario(SCENARIO_DIR / name)
    forces = replace(shipped.disturbances, lift=AxisSignal("sinusoid", 200.0, 3.0),
                     side=AxisSignal("constant", -150.0))
    scenario = replace(shipped, disturbances=forces, t_max=0.3)
    log, _ = run(scenario)
    traces, _ = bound_audit(log, scenario)
    cfg, g = scenario.cfg, scenario.gains
    rate, accel, lift, side, evader = inputs(scenario, log.t)
    proj = np.array([composed_projection(EngagementState(*row[:8])) for row in log.states])
    g0 = -proj * np.array([cfg.lift_gain, cfg.side_gain]) / (cfg.mass * log.r)[:, None, None]
    g1 = np.array([g1_matrix(*row) for row in log.states[:, [8, 9, 10, 14]]])

    def sup(v):
        return np.maximum.accumulate(np.linalg.norm(v, axis=-1))

    def derivative(v):
        return np.gradient(v, scenario.dt, axis=0)

    d0 = evader[:, 1:3] - np.einsum("nij,nj->ni", proj, np.column_stack([lift, side]) / cfg.mass)
    y1 = np.einsum("nij,nj->ni", g0, log.eta1[:, 1:])
    y3 = np.einsum("nij,nj->ni", g1, log.eta2)
    # The guidance channel's disturbance is d0/r: its running sup is of each
    # row's norm over that row's range.
    d0_over_r = np.maximum.accumulate(np.linalg.norm(d0, axis=-1) / log.r)
    expected = (
        theorem2_bound(log.t, log.x0_norm[0], g.k0, g.delta0, d0_over_r + sup(y1)),
        theorem2_bound(log.t, log.eta1_norm[0], g.k1, g.delta1,
                       sup(rate) + sup(derivative(log.x1_cmd)) + sup(y3)),
        theorem2_bound(log.t, log.eta2_norm[0], g.k2, g.delta2,
                       sup(accel) + sup(derivative(log.x2_cmd))),
    )
    for trace, bound in zip(traces, expected):
        assert_close(trace.bound, bound)


# Log lengths at the edges of the audit's passes, one per LOG_BLOCK-row
# block: one and two blocks, a last block of one or two rows, and around
# four blocks, which were one pass before a pass was a block.
PASS_EDGES = [LOG_BLOCK - 1, LOG_BLOCK, LOG_BLOCK + 1, LOG_BLOCK + 2, 2 * LOG_BLOCK,
              2 * LOG_BLOCK + 1, 4 * LOG_BLOCK - 1, 4 * LOG_BLOCK, 4 * LOG_BLOCK + 1,
              8 * LOG_BLOCK + 1]


@pytest.fixture(scope="module")
def shipped_runs():
    """Each shipped scenario with the log of its full run."""
    runs = {}
    for name in ("nominal.cfg", "weave_disturbed.cfg"):
        scenario = parse_scenario(SCENARIO_DIR / name)
        runs[name] = scenario, run(scenario)[0]
    return runs


@pytest.mark.parametrize("rows", [None, MIN_AUDIT_SAMPLES, *PASS_EDGES])
@pytest.mark.parametrize("name", ["nominal.cfg", "weave_disturbed.cfg"])
def test_bound_audit_blocks_equal_whole_columns(shipped_runs, name, rows):
    # The block walk reproduces the audit over the whole columns bit for
    # bit: on the full run (rows None) and on its first rows, at the
    # shortest audited log and at each of PASS_EDGES.  Every operation
    # is elementwise, or a running maximum carried across blocks, so no
    # tolerance is allowed.
    scenario, log = shipped_runs[name]
    log = SimLog(log.table[:rows])
    traces, total = bound_audit(log, scenario)
    expected, expected_total = bound_audit_columns(log, scenario)
    assert total == expected_total
    for trace, want in zip(traces, expected, strict=True):
        assert trace.channel == want.channel
        assert trace.violations == want.violations
        assert np.array_equal(trace.time, want.time)
        assert np.array_equal(trace.measured, want.measured)
        assert np.array_equal(trace.bound, want.bound)


def test_bound_audit_of_a_non_finite_rate_command(shipped_runs):
    # A logged yaw-rate command that is not finite: the audit still equals
    # the whole-column audit, NaN for NaN.  The mixer's 0 entry times the
    # infinite yaw-rate error is NaN, so the attitude channel's bound is NaN
    # from that row on; the command's derivative makes the rate channel's
    # bound inf from the row before it on.
    scenario, full = shipped_runs["weave_disturbed.cfg"]
    log, row = SimLog(full.table[:600].copy()), 300
    log.x2_cmd[row, 2] = math.inf
    with np.errstate(invalid="ignore"):  # 0 * inf in the norms, inf - inf in the margins
        traces, total = bound_audit(log, scenario)
        expected, expected_total = bound_audit_columns(log, scenario)
    assert total == expected_total
    assert np.isnan(traces[1].bound[row:]).all() and np.isposinf(traces[2].bound[row - 1:]).all()
    for trace, want in zip(traces, expected, strict=True):
        assert np.array_equal(trace.measured, want.measured)
        assert np.array_equal(trace.bound, want.bound, equal_nan=True)


@pytest.mark.parametrize("n", [MIN_AUDIT_SAMPLES, *PASS_EDGES])
def test_block_audit_of_streamed_blocks_equals_bound_audit(n):
    # Fed sim.LOG_BLOCK rows at a time as array('d') blocks, as sim.stream
    # hands them on, the audit makes one pass per block; the passes are the
    # traces of bound_audit over the whole log, and their reductions its
    # violation counts and worst margins.  A constant LOS rate violates its decaying envelope, so past
    # the first rows neither is zero.
    scenario = make_scenario(r_min=100.0)
    log = _constant_log(n=n)
    log.states[:, 4] = 0.05
    passes = []
    audit = BlockAudit(scenario, lambda lo, measured, bound: passes.append((lo, measured, bound)))
    for lo in range(0, n, LOG_BLOCK):
        audit(array("d", log.table[lo:lo + LOG_BLOCK].tobytes()))
    audit.close()
    traces, total = bound_audit(log, scenario)
    assert [lo for lo, _, _ in passes] == list(range(0, n, LOG_BLOCK))
    for c, trace in enumerate(traces):
        assert np.array_equal(np.concatenate([m[c] for _, m, _ in passes]), trace.measured)
        assert np.array_equal(np.concatenate([b[c] for _, _, b in passes]), trace.bound)
    assert audit.violations.tolist() == [trace.violations for trace in traces]
    assert audit.worst_margins.tolist() == [trace.worst_margin for trace in traces]
    if n > MIN_AUDIT_SAMPLES:  # three rows are too early for a violation
        assert total > 0 and traces[0].worst_margin < 0.0


def test_bound_audit_causal_los_term_on_an_intercept():
    # weave_disturbed.cfg run to t_max = 25 s intercepts at about 20.6 s;
    # its range is below r_min = 500 m from about 17.2 s on.  The LOS
    # channel's evader and force term is the running sup of |d0|/r, the
    # sup of the channel's disturbance so far: no sample of the whole log
    # violates it, and where the analysis holds (r >= r_min), after the
    # first 0.5 s, the measured LOS rate takes a fair share of its bound.
    # Dividing sup|d0| by the final range instead gave a ratio of 0.0018.
    scenario = replace(parse_scenario(SCENARIO_DIR / "weave_disturbed.cfg"), t_max=25.0)
    log, summary = run(scenario)
    assert summary.outcome == "intercept"
    assert summary.flight_time == pytest.approx(20.6, abs=0.05)
    traces, total = bound_audit(log, scenario)
    assert total == 0
    los = traces[0]
    domain = (log.t >= 0.5) & (log.r >= scenario.r_min)
    assert 0.1 < (los.measured[domain] / los.bound[domain]).max() < 1.0


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
    # decaying envelope.  Over three blocks, each block counts its own
    # violations: as many in all as over the whole columns.
    scenario = make_scenario(r_min=100.0)
    for n in (50, 2 * LOG_BLOCK + 1):
        log = _constant_log(n=n)
        log.states[:, 4] = 0.05
        traces, total = bound_audit(log, scenario)
        expected, expected_total = bound_audit_columns(log, scenario)
        assert total == expected_total > 0
        assert [trace.violations for trace in traces] == [trace.violations for trace in expected]


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


@pytest.mark.parametrize("loop, amplitude", [("guidance", 5.0), ("rate", 0.02)])
def test_estimate_loop_gain_same_in_workers_and_in_process(monkeypatch, loop, amplitude):
    # The two probe runs go through sim.map_points; one usable CPU runs both here.
    scenario = make_scenario(t_max=1.0)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
    pooled = estimate_loop_gain(scenario, loop, amplitude)
    monkeypatch.setattr(sim, "_usable_cpus", lambda: 1)
    assert pooled == estimate_loop_gain(scenario, loop, amplitude)


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
