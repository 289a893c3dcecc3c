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

from . import airframe, engagement
from .airframe import AeroConfig, AttitudeState, FinDeflections
from .engagement import EngagementState
from .errors import SingularityError

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


@dataclass(frozen=True, eq=False)
class IgcDiagnostics:
    """Per-call command and error snapshot for logging and audits."""

    x1_sharp_cmd: np.ndarray  # commanded (attack, sideslip) [rad]
    x1_cmd: np.ndarray        # commanded attitude with zero roll [rad]
    x2_cmd: np.ndarray        # commanded body rates [rad/s]
    eta1: np.ndarray          # attitude tracking error [rad]
    eta2: np.ndarray          # rate tracking error [rad/s]
    cond_g0: float            # condition estimate of the guidance input map
    cond_g1: float            # condition estimate of the rate mixing matrix
    saturated: bool = False


def _gated_inverse(matrix, cond_limit: float, stage: str) -> tuple[np.ndarray, float]:
    """Invert with a Frobenius condition-estimate gate (upper bounds cond_2)."""
    m = np.asarray(matrix, dtype=float)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        raise SingularityError(stage, math.inf, f"{stage}: matrix is exactly singular")
    cond = float(np.sqrt((m * m).sum() * (inv * inv).sum()))
    if not cond < cond_limit:
        raise SingularityError(stage, cond)
    return inv, cond


def condition_estimate(matrix) -> float:
    """Frobenius condition estimate; inf if exactly singular."""
    m = np.asarray(matrix, dtype=float)
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return math.inf
    return float(np.sqrt((m * m).sum() * (inv * inv).sum()))


def iss_control(f, g, x, k: float, delta: float,
                cond_limit: float = COND_LIMIT, stage: str = "iss") -> np.ndarray:
    """Drift-cancelling ISS feedback u = g^-1 (-f - k x - x / (2 delta^2)).

    Dimension-generic; the closed loop x_dot = f + g u + d then satisfies
    ||x(t)|| <= exp(-k t) ||x(0)||
              + delta / sqrt(2 k) * sqrt(1 - exp(-2 k t)) * sup||d||.
    The three stages of :func:`igc_step` apply the same formula through
    their closed-form inverses.
    """
    f = np.asarray(f, dtype=float)
    x = np.asarray(x, dtype=float)
    g_inv, _ = _gated_inverse(g, cond_limit, stage)
    return g_inv @ (-f - feedback(k, delta) * x)


def feedback(k: float, delta: float) -> float:
    """Proportional coefficient k + 1/(2 delta^2) of the ISS primitive."""
    return k + 0.5 / delta**2


def _singular(stage: str) -> SingularityError:
    return SingularityError(stage, math.inf, f"{stage}: matrix is exactly singular")


def _gate(stage: str, cond: float, cond_limit: float) -> None:
    if not cond < cond_limit:
        raise SingularityError(stage, cond)


def _solve2(g, v0: float, v1: float, cond_limit: float, stage: str):
    """(g^-1 v, Frobenius condition estimate) for a 2x2 ``g`` given row-major."""
    a, b, c, d = g
    det = a * d - b * c
    if det == 0.0:
        raise _singular(stage)
    # ||g^-1||_F = ||g||_F / |det| for a 2x2 matrix.
    cond = (a * a + b * b + c * c + d * d) / abs(det)
    _gate(stage, cond, cond_limit)
    return (d * v0 - b * v1) / det, (a * v1 - c * v0) / det, cond


def _solve3(g, v0: float, v1: float, v2: float, cond_limit: float, stage: str):
    """(g^-1 v, Frobenius condition estimate) for a 3x3 ``g`` given row-major,
    through its adjugate."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = g
    c00 = m11 * m22 - m12 * m21
    c01 = m12 * m20 - m10 * m22
    c02 = m10 * m21 - m11 * m20
    c10 = m02 * m21 - m01 * m22
    c11 = m00 * m22 - m02 * m20
    c12 = m01 * m20 - m00 * m21
    c20 = m01 * m12 - m02 * m11
    c21 = m02 * m10 - m00 * m12
    c22 = m00 * m11 - m01 * m10
    det = m00 * c00 + m01 * c01 + m02 * c02
    if det == 0.0:
        raise _singular(stage)
    norm_g = (m00 * m00 + m01 * m01 + m02 * m02 + m10 * m10 + m11 * m11
              + m12 * m12 + m20 * m20 + m21 * m21 + m22 * m22)
    norm_adj = (c00 * c00 + c01 * c01 + c02 * c02 + c10 * c10 + c11 * c11
                + c12 * c12 + c20 * c20 + c21 * c21 + c22 * c22)
    cond = math.sqrt(norm_g * norm_adj) / abs(det)
    _gate(stage, cond, cond_limit)
    return ((c00 * v0 + c10 * v1 + c20 * v2) / det,
            (c01 * v0 + c11 * v1 + c21 * v2) / det,
            (c02 * v0 + c12 * v1 + c22 * v2) / det,
            cond)


def _solve_diagonal(b, v0: float, v1: float, v2: float, cond_limit: float, stage: str):
    """(g^-1 v, Frobenius condition estimate) for g = diag(b)."""
    bx, by, bz = b
    if bx == 0.0 or by == 0.0 or bz == 0.0:
        raise _singular(stage)
    ix, iy, iz = 1.0 / bx, 1.0 / by, 1.0 / bz
    cond = math.sqrt((bx * bx + by * by + bz * bz) * (ix * ix + iy * iy + iz * iz))
    _gate(stage, cond, cond_limit)
    return ix * v0, iy * v1, iz * v2, cond


def guidance_stage(c0: float, r, vr, x01, x02, g0, cond_limit: float):
    """Commanded (attack, sideslip) and cond(g0); cancels only the radial
    drift -2 (vr / r) x0."""
    s = -2.0 * vr / r
    return _solve2(g0, -(s * x01) - c0 * x01, -(s * x02) - c0 * x02, cond_limit, "guidance")


def attitude_stage(c1: float, x1, x1_cmd, g1, f1, cond_limit: float):
    """Commanded body rates and cond(g1)."""
    return _solve3(g1,
                   -f1[0] - c1 * (x1[0] - x1_cmd[0]),
                   -f1[1] - c1 * (x1[1] - x1_cmd[1]),
                   -f1[2] - c1 * (x1[2] - x1_cmd[2]),
                   cond_limit, "rate")


def fin_stage(c2: float, x2, x2_cmd, f2, fin_gain, cond_limit: float):
    """Fin deflections (three floats) tracking the body-rate command."""
    return _solve_diagonal(fin_gain,
                           -f2[0] - c2 * (x2[0] - x2_cmd[0]),
                           -f2[1] - c2 * (x2[1] - x2_cmd[1]),
                           -f2[2] - c2 * (x2[2] - x2_cmd[2]),
                           cond_limit, "fin")[:3]


class LawConstants(airframe.AeroConstants):
    """AeroConstants plus the stage feedback coefficients, the invertibility
    gate and the optional fin limit: everything :func:`law` reads."""

    __slots__ = ("c0", "c1", "c2", "cond_limit", "delta_max")

    def __init__(self, cfg: AeroConfig, gains: Gains, cond_limit: float = COND_LIMIT,
                 delta_max: float | None = None):
        super().__init__(cfg)
        self.c0 = feedback(gains.k0, gains.delta0)
        self.c1 = feedback(gains.k1, gains.delta1)
        self.c2 = feedback(gains.k2, gains.delta2)
        self.cond_limit = cond_limit
        self.delta_max = delta_max


def law(k: LawConstants, y):
    """The guidance -> attitude -> fin cascade on the 15 floats of a state.

    Returns (fins, x1_sharp_cmd, x2_cmd, saturated, cond_g0, cond_g1), the
    vectors as float tuples.  Each stage inverts its matrix once, in closed
    form, and takes its condition estimate from that inverse.
    """
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    g0 = engagement.guidance_map(k, r, theta_l, phi_l, theta_v, psi_v)
    alpha_cmd, beta_cmd, cond_g0 = guidance_stage(k.c0, r, vr, x01, x02, g0, k.cond_limit)
    wx_cmd, wy_cmd, wz_cmd, cond_g1 = attitude_stage(
        k.c1, (gamma, alpha, beta), (0.0, alpha_cmd, beta_cmd),
        airframe.mixer(gamma, alpha, beta, pitch), airframe.attitude_drift(k, alpha, beta),
        k.cond_limit)
    x2_cmd = (wx_cmd, wy_cmd, wz_cmd)
    fins = fin_stage(k.c2, (wx, wy, wz), x2_cmd,
                     airframe.rate_drift(k, alpha, beta, wx, wy, wz), k.fin_gain, k.cond_limit)
    saturated = False
    if k.delta_max is not None:
        clamped = airframe.clamp(fins, k.delta_max)
        saturated = clamped != fins
        fins = clamped
    return fins, (alpha_cmd, beta_cmd), x2_cmd, saturated, cond_g0, cond_g1


def _floats(v) -> list[float]:
    return [float(x) for x in v]


def alpha_beta_command(state: EngagementState, g0_matrix, gains: Gains,
                       cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Commanded (attack, sideslip) that regulates the LOS rate.

    Cancels only the radial drift -2 (vr / r) x0; the tan(theta_l) cross
    couplings are orthogonal to x0 and are deliberately left alone.
    """
    g = _floats(np.asarray(g0_matrix, dtype=float).ravel())
    u0, u1, _ = guidance_stage(feedback(gains.k0, gains.delta0), state.r, state.vr,
                               state.x01, state.x02, g, cond_limit)
    return np.array([u0, u1])


def rate_command(x1, x1_cmd, g1_matrix, f1_vector, gains: Gains,
                 cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Commanded body rates that track the attitude command."""
    g = _floats(np.asarray(g1_matrix, dtype=float).ravel())
    u0, u1, u2, _ = attitude_stage(feedback(gains.k1, gains.delta1), _floats(x1),
                                   _floats(x1_cmd), g, _floats(f1_vector), cond_limit)
    return np.array([u0, u1, u2])


def fin_command(x1, x2, x2_cmd, cfg: AeroConfig, gains: Gains,
                cond_limit: float = COND_LIMIT) -> FinDeflections:
    """Fin deflections that track the body-rate command."""
    k = airframe.AeroConstants(cfg)
    x1, x2 = _floats(x1), _floats(x2)
    f2 = airframe.rate_drift(k, x1[1], x1[2], *x2)
    return FinDeflections(*fin_stage(feedback(gains.k2, gains.delta2), x2, _floats(x2_cmd),
                                     f2, k.fin_gain, cond_limit))


def igc_step(eng: EngagementState, att: AttitudeState, cfg: AeroConfig,
             gains: Gains, cond_limit: float = COND_LIMIT,
             delta_max: float | None = None) -> tuple[FinDeflections, IgcDiagnostics]:
    """One pure evaluation of the full guidance-to-fin cascade.

    Roll is commanded to zero (skid-to-turn).  Raises SingularityError
    naming the stage when the guidance or rate map is not invertible at the
    current state.  An optional symmetric fin limit clamps the output and
    flags the diagnostics.
    """
    y = (eng.r, eng.vr, eng.theta_l, eng.phi_l, eng.x01, eng.x02, eng.theta_v, eng.psi_v,
         att.gamma, att.alpha, att.beta, att.omega_x, att.omega_y, att.omega_z, att.pitch)
    fins, x1_sharp, x2_cmd, saturated, cond_g0, cond_g1 = law(
        LawConstants(cfg, gains, cond_limit, delta_max), y)
    x1_cmd = np.array([0.0, *x1_sharp])
    x2_cmd = np.array(x2_cmd)
    diag = IgcDiagnostics(
        x1_sharp_cmd=np.array(x1_sharp),
        x1_cmd=x1_cmd,
        x2_cmd=x2_cmd,
        eta1=att.x1 - x1_cmd,
        eta2=att.x2 - x2_cmd,
        cond_g0=cond_g0,
        cond_g1=cond_g1,
        saturated=saturated,
    )
    return FinDeflections(*fins), diag
