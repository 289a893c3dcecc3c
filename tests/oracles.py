"""Reference formulas that the package writes out inline, kept here so that
the tests can hold it to them bit for bit: :func:`igcsim.sim.evaluate` to
:func:`attitude_rates` and :func:`velocity_angle_derivatives` (composed
with the package's own piecewise helpers), :func:`igcsim.sim._step` to
:func:`rk4_tableau` over :func:`igcsim.sim.evaluate`,
:func:`igcsim.analysis.bound_audit`, which walks the log in row blocks, to
:func:`bound_audit_columns` over its whole columns, and the running
reductions of :func:`igcsim.sim.stream` to :func:`summary_from_log`."""

import math

import numpy as np

from igcsim import airframe, engagement, frames, sim
from igcsim.analysis import (DEFAULT_SLACK, MIN_AUDIT_SAMPLES, BoundTrace, _matvec, _norm,
                             theorem2_bound)


def rk4_tableau(deriv, y, t, dt, k1):
    """One classical RK4 step of dy/dt = deriv(t, y) over a float list of any
    length, in the operation order of ``sim._step`` and ``sim.rk4_step``.
    ``k1`` is deriv(t, y), which the caller evaluates.  Like ``sim._step``,
    it returns the new state unchecked, finite or not."""
    h = 0.5 * dt
    k2 = deriv(t + h, [a + h * b for a, b in zip(y, k1)])
    k3 = deriv(t + h, [a + h * b for a, b in zip(y, k2)])
    k4 = deriv(t + dt, [a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    return [a + c * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
            for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def attitude_rates(k, g1, f1, f2, gamma, wx, wy, wz, fins, d1, d2):
    """Derivatives of (gamma, alpha, beta, wx, wy, wz, pitch) as seven floats
    under fin command and disturbances.

    ``k`` holds the airframe constants (an ``airframe.AeroConstants``);
    ``g1``, ``f1`` and ``f2`` are ``airframe.mixer``,
    ``airframe.attitude_drift`` and ``airframe.rate_drift`` at the state.
    ``fins``, ``d1`` [rad/s, angle channel] and ``d2`` [rad/s^2, rate
    channel] are triples.
    """
    a0, a1, a2 = f1
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = g1
    r0, r1, r2 = f2
    bx, by, bz = k.fin_gain
    dx, dy, dz = fins
    return (
        a0 + (m00 * wx + m01 * wy + m02 * wz) + d1[0],
        a1 + (m10 * wx + m11 * wy + m12 * wz) + d1[1],
        a2 + (m20 * wx + m21 * wy + m22 * wz) + d1[2],
        r0 + bx * dx + d2[0],
        r1 + by * dy + d2[1],
        r2 + bz * dz + d2[2],
        wy * math.sin(gamma) + wz * math.cos(gamma),
    )


def velocity_angle_derivatives(a_theta, a_psi, cfg, theta_v):
    """Rates of the velocity elevation/azimuth under the frame accelerations.

    Reads only ``cfg.speed``, so ``cfg`` may be an AeroConfig or its
    AeroConstants.
    """
    return a_theta / cfg.speed, -a_psi / (cfg.speed * math.cos(theta_v))


def bound_audit_columns(log, scenario):
    """:func:`igcsim.analysis.bound_audit` over the log's whole columns: each
    input map is called once over every row, and each running supremum is
    one ``np.maximum.accumulate`` of its full column.  Returns the same
    (traces, total)."""
    t = log.t
    n = t.shape[0]
    if n < MIN_AUDIT_SAMPLES:
        raise ValueError(f"log too short for finite differences: {n} samples")
    steps = np.diff(t)
    dt = steps[0]
    if not np.all(np.abs(steps - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("log timestamps are not uniform")
    gains, cfg = scenario.gains, scenario.cfg
    rate, accel, lift, side, evader = sim.inputs(scenario, t)

    # The channels' input maps at every sample, each entry a column.  Each
    # column is dropped once used.
    k = airframe.AeroConstants(cfg)
    m = frames.los_rows(log.theta_l, log.phi_l, log.theta_v, log.psi_v, trig=np)
    singular = np.abs(engagement.projection_det(m)) < engagement.GEOMETRY_SINGULARITY
    if singular.any():
        i = int(singular.argmax())
        # The law's gate raises its own error on the first singular sample.
        engagement.guidance_map(k, float(log.r[i]), [float(c[i]) for c in m])
    g0 = engagement.guidance_entries(k, log.r, m)

    # Guidance channel: disturbance is (evader + force uncertainty)/r plus
    # the attitude tracking error mapped through the input matrix; the first
    # term's supremum is taken of its norm over each row's own range.
    x0_norm = log.x0_norm
    _, p0, p1 = frames.los_accel(m, 0.0, lift / cfg.mass, side / cfg.mass)
    d0_norm = _norm(-p0 + evader[:, 1], -p1 + evader[:, 2]) / log.r
    del m, singular, p0, p1
    y1_norm = _norm(*_matvec(g0, (log.alpha - log.alpha_cmd, log.beta - log.beta_cmd)))
    del g0
    bound_x0 = theorem2_bound(t, float(x0_norm[0]), gains.k0, gains.delta0,
                              np.maximum.accumulate(d0_norm) + np.maximum.accumulate(y1_norm))

    # Attitude channel: disturbance is the rate noise, the command
    # derivative, and the rate tracking error mapped through the mixer.
    eta1_norm = log.eta1_norm
    y0 = -np.gradient(log.x1_cmd, dt, axis=0)
    g1 = airframe.mixer(log.gamma, log.alpha, log.beta, log.pitch, trig=np)
    y3_norm = _norm(*_matvec(g1, log.eta2.T))
    del g1
    combined1 = (
        np.maximum.accumulate(np.linalg.norm(rate, axis=-1))
        + np.maximum.accumulate(np.linalg.norm(y0, axis=-1))
        + np.maximum.accumulate(y3_norm)
    )
    bound_eta1 = theorem2_bound(t, float(eta1_norm[0]), gains.k1, gains.delta1, combined1)

    # Rate channel: disturbance is the moment noise plus the rate-command
    # derivative.
    eta2_norm = log.eta2_norm
    y2 = -np.gradient(log.x2_cmd, dt, axis=0)
    combined2 = (
        np.maximum.accumulate(np.linalg.norm(accel, axis=-1))
        + np.maximum.accumulate(np.linalg.norm(y2, axis=-1))
    )
    bound_eta2 = theorem2_bound(t, float(eta2_norm[0]), gains.k2, gains.delta2, combined2)

    traces = []
    total = 0
    for channel, measured, bound in (
        ("los_rate", x0_norm, bound_x0),
        ("attitude_error", eta1_norm, bound_eta1),
        ("rate_error", eta2_norm, bound_eta2),
    ):
        violations = int(np.count_nonzero(measured > bound * (1.0 + DEFAULT_SLACK)))
        total += violations
        traces.append(BoundTrace(channel, t, measured, bound, violations))
    return tuple(traces), total


def summary_from_log(log, outcome, message=""):
    """The summary of a run from its whole log (one row or more), its
    outcome and its note: the final range refined by linear interpolation
    across the last step when the range rate changed sign inside it, and
    the sup of |x0| over the final 20% of the flight time."""
    r = log.r
    miss_distance = float(r[-1])
    if len(log) >= 2:
        vr0, vr1 = log.vr[-2], log.vr[-1]
        if vr0 < 0.0 <= vr1:
            w = vr0 / (vr0 - vr1)
            miss_distance = float(r[-2] + w * (r[-1] - r[-2]))
    post_transient = log.t >= 0.8 * log.t[-1]
    return sim.SimSummary(
        outcome=outcome,
        final_r=float(r[-1]),
        flight_time=float(log.t[-1]),
        miss_distance=miss_distance,
        post_transient_sup_x0=float(log.x0_norm[post_transient].max()),
        steps=len(log),
        message=message,
    )
