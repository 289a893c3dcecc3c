"""Three-stage integrated guidance and control law.

Each stage is the same ISS primitive: cancel the channel drift and add
proportional feedback -(K + 1/(2 delta^2)) on the channel error, which
yields an exponential decay plus a disturbance gain delta/sqrt(2K) on the
channel's lumped disturbance.  Stages consume only current measurements;
no command derivatives are computed anywhere, so there is no filter state
and no explosion of complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import airframe, engagement, frames
from .airframe import AeroConfig
from .errors import SingularityError

# Frobenius condition estimate (an upper bound on cond_2) at or past which
# a stage's input map no longer counts as invertible.
COND_LIMIT = 1e6


@dataclass(frozen=True)
class Gains:
    """Controller coefficients: convergence rates K and attenuation deltas."""

    k0: float      # guidance channel convergence [1/s]
    k1: float      # attitude-angle channel convergence [1/s]
    k2: float      # body-rate channel convergence [1/s]
    delta0: float  # guidance disturbance attenuation
    delta1: float  # attitude disturbance attenuation
    delta2: float  # rate disturbance attenuation

    def __post_init__(self):
        for name in ("k0", "k1", "k2", "delta0", "delta1", "delta2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}: must be > 0, got {value!r}")
        for channel in "012":
            k, delta = getattr(self, "k" + channel), getattr(self, "delta" + channel)
            # delta * delta underflows to 0 below 1e-162; the feedback overflows just above.
            if delta * delta == 0.0 or not math.isfinite(feedback(k, delta)):
                raise ValueError(f"delta{channel}: feedback k{channel} + 1/(2 delta{channel}^2) "
                                 f"must be finite, got {delta!r}")


def _singular(stage: str) -> SingularityError:
    return SingularityError(stage, math.inf, f"{stage}: matrix is exactly singular")


def _gate(stage: str, cond: float) -> float:
    """The invertibility gate of every stage: ``cond`` if it is below
    COND_LIMIT, else SingularityError."""
    if not cond < COND_LIMIT:
        raise SingularityError(stage, cond)
    return cond


def iss_control(f, g, x, k: float, delta: float) -> np.ndarray:
    """Drift-cancelling ISS feedback u = g^-1 (-f - k x - x / (2 delta^2)).

    Dimension-generic; the closed loop x_dot = f + g u + d then satisfies
    ||x(t)|| <= exp(-k t) ||x(0)||
              + delta / sqrt(2 k) * sqrt(1 - exp(-2 k t)) * sup||d||.
    The three stages of :func:`law` apply the same formula through their
    closed-form inverses.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    try:
        g_inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise _singular("iss") from None
    # The Frobenius condition estimate, as each stage of :func:`law` takes it.
    _gate("iss", float(np.sqrt((g * g).sum() * (g_inv * g_inv).sum())))
    return g_inv @ (-f - feedback(k, delta) * x)


def feedback(k: float, delta: float) -> float:
    """Proportional coefficient k + 1/(2 delta^2) of the ISS primitive."""
    # delta * delta, not delta**2, which raises OverflowError for a large delta.
    return k + 0.5 / (delta * delta)


def guidance_stage(c0: float, r, vr, x01, x02, g0):
    """Commanded (attack, sideslip) and cond(g0); cancels only the radial
    drift -2 (vr / r) x0.  ``g0`` is the 2x2 input map, row-major."""
    a, b, c, d = g0
    det = a * d - b * c
    if det == 0.0:
        raise _singular("guidance")
    # ||g0^-1||_F = ||g0||_F / |det| for a 2x2 matrix.
    cond = _gate("guidance", (a * a + b * b + c * c + d * d) / abs(det))
    s = -2.0 * vr / r
    v0, v1 = -(s * x01) - c0 * x01, -(s * x02) - c0 * x02
    return (d * v0 - b * v1) / det, (a * v1 - c * v0) / det, cond


def attitude_stage(c1: float, x1, x1_cmd, g1, f1):
    """Commanded body rates and cond(g1).  ``g1`` is the 3x3 mixer,
    row-major, solved through its adjugate."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = g1
    a00 = m11 * m22 - m12 * m21
    a01 = m12 * m20 - m10 * m22
    a02 = m10 * m21 - m11 * m20
    a10 = m02 * m21 - m01 * m22
    a11 = m00 * m22 - m02 * m20
    a12 = m01 * m20 - m00 * m21
    a20 = m01 * m12 - m02 * m11
    a21 = m02 * m10 - m00 * m12
    a22 = m00 * m11 - m01 * m10
    det = m00 * a00 + m01 * a01 + m02 * a02
    if det == 0.0:
        raise _singular("rate")
    norm_g = (m00 * m00 + m01 * m01 + m02 * m02 + m10 * m10 + m11 * m11
              + m12 * m12 + m20 * m20 + m21 * m21 + m22 * m22)
    norm_adj = (a00 * a00 + a01 * a01 + a02 * a02 + a10 * a10 + a11 * a11
                + a12 * a12 + a20 * a20 + a21 * a21 + a22 * a22)
    cond = _gate("rate", math.sqrt(norm_g * norm_adj) / abs(det))
    v0 = -f1[0] - c1 * (x1[0] - x1_cmd[0])
    v1 = -f1[1] - c1 * (x1[1] - x1_cmd[1])
    v2 = -f1[2] - c1 * (x1[2] - x1_cmd[2])
    return ((a00 * v0 + a10 * v1 + a20 * v2) / det,
            (a01 * v0 + a11 * v1 + a21 * v2) / det,
            (a02 * v0 + a12 * v1 + a22 * v2) / det,
            cond)


def fin_inverse(fin_gain) -> tuple[float, float, float]:
    """Inverse of the diagonal fin map diag(fin_gain), as its three diagonal
    entries, past the invertibility gate."""
    bx, by, bz = fin_gain
    if bx == 0.0 or by == 0.0 or bz == 0.0:
        raise _singular("fin")
    ix, iy, iz = 1.0 / bx, 1.0 / by, 1.0 / bz
    _gate("fin", math.sqrt((bx * bx + by * by + bz * bz) * (ix * ix + iy * iy + iz * iz)))
    return ix, iy, iz


def fin_stage(c2: float, x2, x2_cmd, f2, fin_inv):
    """Fin deflections (three floats) tracking the body-rate command through
    the diagonal fin map, given its inverse :func:`fin_inverse`."""
    ix, iy, iz = fin_inv
    return (ix * (-f2[0] - c2 * (x2[0] - x2_cmd[0])),
            iy * (-f2[1] - c2 * (x2[1] - x2_cmd[1])),
            iz * (-f2[2] - c2 * (x2[2] - x2_cmd[2])))


class LawConstants(airframe.AeroConstants):
    """AeroConstants plus the stage feedback coefficients, the inverse fin
    map and the optional fin limit: everything :func:`law` reads."""

    __slots__ = ("c0", "c1", "c2", "fin_inv", "delta_max")

    def __init__(self, cfg: AeroConfig, gains: Gains, delta_max: float | None = None):
        super().__init__(cfg)
        self.c0 = feedback(gains.k0, gains.delta0)
        self.c1 = feedback(gains.k1, gains.delta1)
        self.c2 = feedback(gains.k2, gains.delta2)
        try:
            self.fin_inv = fin_inverse(self.fin_gain)
        except SingularityError:
            # None: law raises the gate's error at its fin stage, so a run
            # ends at step 0 as a guard breach, as any stage failure does.
            self.fin_inv = None
        self.delta_max = delta_max


def law(k: LawConstants, y, terms=None):
    """The guidance -> attitude -> fin cascade on the 15 floats of a state.

    Returns (fins, x1_sharp_cmd, x2_cmd, saturated, cond_g0, cond_g1), the
    vectors as float tuples.  Each stage inverts its matrix once, in closed
    form, and takes its condition estimate from that inverse.  Roll is
    commanded to zero (skid-to-turn).  Raises SingularityError naming the
    stage whose map is not invertible at ``y``.  With ``k.delta_max`` set the
    fins are clamped to it and ``saturated`` flags the clamp.  ``terms`` is
    the (LOS rows, mixer g1, drift f1, drift f2) of ``y``, where the caller
    has them (:func:`sim.evaluate` computes them inline); by default the law
    takes them from :func:`frames.los_rows`, :func:`airframe.mixer`,
    :func:`airframe.attitude_drift` and :func:`airframe.rate_drift`.

    The composition :func:`engagement.guidance_map` -> :func:`guidance_stage`
    -> :func:`attitude_stage` -> :func:`fin_stage` -> :func:`airframe.clamp`;
    each stage's gate raises its own error.
    """
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    if terms is None:
        terms = (frames.los_rows(theta_l, phi_l, theta_v, psi_v),
                 airframe.mixer(gamma, alpha, beta, pitch),
                 airframe.attitude_drift(k, alpha, beta),
                 airframe.rate_drift(k, alpha, beta, wx, wy, wz))
    rows, g1, f1, f2 = terms
    g0 = engagement.guidance_map(k, r, rows)
    alpha_cmd, beta_cmd, cond_g0 = guidance_stage(k.c0, r, vr, x01, x02, g0)
    wx_cmd, wy_cmd, wz_cmd, cond_g1 = attitude_stage(
        k.c1, (gamma, alpha, beta), (0.0, alpha_cmd, beta_cmd), g1, f1)
    x2_cmd = (wx_cmd, wy_cmd, wz_cmd)
    fins = fin_stage(k.c2, (wx, wy, wz), x2_cmd, f2, k.fin_inv or fin_inverse(k.fin_gain))
    saturated = False
    if k.delta_max is not None:
        clamped = airframe.clamp(fins, k.delta_max)
        saturated = clamped != fins
        fins = clamped
    return fins, (alpha_cmd, beta_cmd), x2_cmd, saturated, cond_g0, cond_g1
