"""Reference formulas that the package writes out inline, kept here so that
the tests can hold it to them bit for bit: :func:`igcsim.sim.evaluate` to
:func:`attitude_rates` and :func:`velocity_angle_derivatives` (composed
with the package's own piecewise helpers), and :func:`igcsim.sim._step` to
:func:`rk4_tableau` over :func:`igcsim.sim.evaluate`."""

import math


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
