"""Skid-to-turn airframe: attitude dynamics and the aerodynamic force model.

The attitude state is x1 = (roll, attack, sideslip) with body rates
x2 = (roll rate, yaw rate, pitch rate).  Fin deflections act through a
constant diagonal moment map, so the rate channel is always controllable
for a valid configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError

# Flight-envelope guard on the tan() angles; past this the model terms are
# meaningless and integration aborts rather than emitting garbage.
ATTITUDE_GUARD = 1.2


@dataclass(frozen=True)
class AeroConfig:
    """Constant pursuer mass/propulsion/aero/inertia properties.

    Moment slopes are per-radian coefficients of the standard dimensionless
    moment derivatives; signs are supplied by the scenario (a statically
    unstable airframe is allowed).
    """

    mass: float                # [kg]
    thrust: float              # [N]
    speed: float               # [m/s], held constant
    air_density: float         # [kg/m^3]
    ref_area: float            # [m^2]
    ref_length: float          # [m]
    lift_slope: float          # lift coefficient per attack angle [1/rad]
    side_slope: float          # side-force coefficient per sideslip [1/rad]
    roll_moment_fin: float     # roll moment per aileron [1/rad]
    yaw_moment_beta: float     # yaw moment per sideslip [1/rad]
    yaw_moment_fin: float      # yaw moment per rudder [1/rad]
    pitch_moment_alpha: float  # pitch moment per attack angle [1/rad]
    pitch_moment_fin: float    # pitch moment per elevator [1/rad]
    inertia_x: float           # [kg m^2]
    inertia_y: float           # [kg m^2]
    inertia_z: float           # [kg m^2]

    def __post_init__(self):
        for name in ("mass", "speed", "air_density", "ref_area", "ref_length",
                     "inertia_x", "inertia_y", "inertia_z"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name}: must be > 0, got {value!r}")
        for name in ("roll_moment_fin", "yaw_moment_fin", "pitch_moment_fin"):
            value = getattr(self, name)
            if not math.isfinite(value) or value == 0.0:
                raise ValueError(f"{name}: must be nonzero, got {value!r}")
        for name in ("thrust", "lift_slope", "side_slope", "yaw_moment_beta",
                     "pitch_moment_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")

    @property
    def dynamic_pressure(self) -> float:
        """0.5 * rho * V^2 [Pa]; constant because the speed is constant."""
        return 0.5 * self.air_density * self.speed**2

    @property
    def lift_gain(self) -> float:
        """Normal-channel force per attack angle, thrust included [N/rad]."""
        return self.thrust + self.dynamic_pressure * self.ref_area * self.lift_slope

    @property
    def side_gain(self) -> float:
        """Lateral-channel force per sideslip, thrust included [N/rad]."""
        return -self.thrust + self.dynamic_pressure * self.ref_area * self.side_slope


@dataclass(frozen=True)
class AttitudeState:
    """Pursuer attitude angles, body rates, and pitch angle."""

    gamma: float    # roll angle [rad]
    alpha: float    # attack angle [rad]
    beta: float     # sideslip angle [rad], |beta| < pi/2
    omega_x: float  # roll rate [rad/s]
    omega_y: float  # yaw rate [rad/s]
    omega_z: float  # pitch rate [rad/s]
    pitch: float    # pitch angle [rad], |pitch| < pi/2

    def __post_init__(self):
        check_attitude(self.gamma, self.alpha, self.beta,
                       self.omega_x, self.omega_y, self.omega_z, self.pitch)

    @property
    def x1(self) -> np.ndarray:
        return np.array([self.gamma, self.alpha, self.beta])

    @property
    def x2(self) -> np.ndarray:
        return np.array([self.omega_x, self.omega_y, self.omega_z])


@dataclass(frozen=True)
class FinDeflections:
    """Aileron, rudder, and elevator deflections [rad]."""

    delta_x: float
    delta_y: float
    delta_z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.delta_x, self.delta_y, self.delta_z])

    def clamped(self, limit: float) -> "FinDeflections":
        return FinDeflections(*clamp((self.delta_x, self.delta_y, self.delta_z), limit))


class AeroConstants:
    """The constants of an AeroConfig in the form the scalar kernel reads them.

    Built once per run (or once per call of a public adapter); every derived
    quantity is computed exactly as the formulas below would compute it
    inline, so hoisting changes no result.
    """

    __slots__ = ("mass", "thrust", "speed", "mv", "qs_lift", "qs_side",
                 "lift_gain", "side_gain", "qsl_yaw", "qsl_pitch", "jy", "jz",
                 "gyro", "fin_gain")

    def __init__(self, cfg: AeroConfig):
        qs = cfg.dynamic_pressure * cfg.ref_area
        qsl = qs * cfg.ref_length
        jx, jy, jz = cfg.inertia_x, cfg.inertia_y, cfg.inertia_z
        self.mass, self.thrust, self.speed = cfg.mass, cfg.thrust, cfg.speed
        self.mv = cfg.mass * cfg.speed
        self.qs_lift = qs * cfg.lift_slope
        self.qs_side = qs * cfg.side_slope
        self.lift_gain, self.side_gain = cfg.lift_gain, cfg.side_gain
        self.qsl_yaw = qsl * cfg.yaw_moment_beta
        self.qsl_pitch = qsl * cfg.pitch_moment_alpha
        self.jy, self.jz = jy, jz
        self.gyro = ((jz - jy) / jx, (jx - jz) / jy, (jy - jx) / jz)
        self.fin_gain = (qsl * cfg.roll_moment_fin / jx,
                         qsl * cfg.yaw_moment_fin / jy,
                         qsl * cfg.pitch_moment_fin / jz)


def check_attitude(gamma, alpha, beta, omega_x, omega_y, omega_z, pitch) -> None:
    """Raise GuardError unless the attitude is finite with |beta|, |pitch| < pi/2."""
    if not (math.isfinite(gamma) and math.isfinite(alpha) and math.isfinite(beta)
            and math.isfinite(omega_x) and math.isfinite(omega_y)
            and math.isfinite(omega_z) and math.isfinite(pitch)):
        raise GuardError("attitude state must be finite")
    if abs(beta) >= math.pi / 2:
        raise GuardError(f"sideslip {beta:.6g} outside (-pi/2, pi/2)")
    if abs(pitch) >= math.pi / 2:
        raise GuardError(f"pitch {pitch:.6g} outside (-pi/2, pi/2)")


def clamp(fins, limit: float) -> tuple[float, float, float]:
    """Symmetric fin limit applied per axis."""
    dx, dy, dz = fins
    return (min(max(dx, -limit), limit),
            min(max(dy, -limit), limit),
            min(max(dz, -limit), limit))


def attitude_drift(k: AeroConstants, alpha: float, beta: float) -> tuple[float, float, float]:
    """f1 as floats; see :func:`f1`."""
    return (
        0.0,
        -(k.thrust * math.sin(alpha) + k.qs_lift * alpha) / (k.mv * math.cos(beta)),
        (k.qs_side * beta - k.thrust * math.cos(alpha) * math.sin(beta)) / k.mv,
    )


def mixer(gamma: float, alpha: float, beta: float, pitch: float) -> tuple[float, ...]:
    """g1 as nine floats, row-major; see :func:`g1`.

    The tangents are taken as sin/cos, exactly as :func:`g1_series` takes
    them, so the scalar and the broadcast matrices agree bit for bit.
    """
    tp = math.sin(pitch) / math.cos(pitch)
    tb = math.sin(beta) / math.cos(beta)
    sa, ca = math.sin(alpha), math.cos(alpha)
    return (1.0, -tp * math.cos(gamma), tp * math.sin(gamma),
            -tb * ca, sa * tb, 1.0,
            sa, ca, 0.0)


def rate_drift(k: AeroConstants, alpha: float, beta: float,
               wx: float, wy: float, wz: float) -> tuple[float, float, float]:
    """f2 as floats; see :func:`f2`."""
    gx, gy, gz = k.gyro
    return (
        gx * wy * wz,
        k.qsl_yaw * beta / k.jy + gy * wx * wz,
        k.qsl_pitch * alpha / k.jz + gz * wx * wy,
    )


def accels(k: AeroConstants, alpha: float, beta: float, d_lift: float, d_side: float,
           trig: bool) -> tuple[float, float]:
    """(a_theta, a_psi) as floats; see :func:`lift_side_accels`."""
    if trig:
        return (
            (k.thrust * math.sin(alpha) + k.qs_lift * alpha + d_lift) / k.mass,
            (-k.thrust * math.cos(alpha) * math.sin(beta) + k.qs_side * beta + d_side)
            / k.mass,
        )
    return (k.lift_gain * alpha + d_lift) / k.mass, (k.side_gain * beta + d_side) / k.mass


def attitude_rates(k: AeroConstants, gamma, alpha, beta, wx, wy, wz, pitch,
                   fins, d1, d2) -> tuple[float, ...]:
    """Derivatives of (gamma, alpha, beta, wx, wy, wz, pitch) as seven floats;
    see :func:`attitude_derivatives`.  ``fins``, ``d1`` and ``d2`` are triples."""
    if abs(beta) > ATTITUDE_GUARD:
        raise GuardError(f"sideslip {beta:.4g} breached guard {ATTITUDE_GUARD}")
    if abs(pitch) > ATTITUDE_GUARD:
        raise GuardError(f"pitch {pitch:.4g} breached guard {ATTITUDE_GUARD}")
    a0, a1, a2 = attitude_drift(k, alpha, beta)
    # The one matrix product left to numpy: it must round exactly as
    # ``g1(pitch, x1) @ x2`` does, and BLAS may fuse its multiply-adds.
    m0, m1, m2 = (np.array(mixer(gamma, alpha, beta, pitch)).reshape(3, 3)
                  @ np.array((wx, wy, wz))).tolist()
    r0, r1, r2 = rate_drift(k, alpha, beta, wx, wy, wz)
    bx, by, bz = k.fin_gain
    dx, dy, dz = fins
    return (
        a0 + m0 + d1[0],
        a1 + m1 + d1[1],
        a2 + m2 + d1[2],
        r0 + bx * dx + d2[0],
        r1 + by * dy + d2[1],
        r2 + bz * dz + d2[2],
        wy * math.sin(gamma) + wz * math.cos(gamma),
    )


def f1(x1, cfg: AeroConfig) -> np.ndarray:
    """Drift of the attitude-angle channel [rad/s]."""
    return np.array(attitude_drift(AeroConstants(cfg), float(x1[1]), float(x1[2])))


def g1_series(gamma, alpha, beta, pitch) -> np.ndarray:
    """Broadcastable body-rate-to-attitude-rate mixing matrix, shape (..., 3, 3)."""
    gamma = np.asarray(gamma, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    pitch = np.asarray(pitch, dtype=float)
    tp, tb = np.sin(pitch) / np.cos(pitch), np.sin(beta) / np.cos(beta)
    ones = np.ones(np.broadcast_shapes(gamma.shape, alpha.shape, beta.shape, pitch.shape))
    zeros = np.zeros_like(ones)
    row0 = np.stack([ones, -tp * np.cos(gamma) * ones, tp * np.sin(gamma) * ones], axis=-1)
    row1 = np.stack([-tb * np.cos(alpha) * ones, np.sin(alpha) * tb * ones, ones], axis=-1)
    row2 = np.stack([np.sin(alpha) * ones, np.cos(alpha) * ones, zeros], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def g1(pitch: float, x1) -> np.ndarray:
    """Body-rate-to-attitude-rate mixing matrix.

    Invertible throughout a reasonable flight domain; determinant is -1
    exactly at zero angles.
    """
    m = mixer(float(x1[0]), float(x1[1]), float(x1[2]), float(pitch))
    return np.array(m).reshape(3, 3)


def f2(x1, x2, cfg: AeroConfig) -> np.ndarray:
    """Drift of the body-rate channel [rad/s^2]."""
    return np.array(rate_drift(AeroConstants(cfg), float(x1[1]), float(x1[2]),
                               float(x2[0]), float(x2[1]), float(x2[2])))


def g2(cfg: AeroConfig) -> np.ndarray:
    """Diagonal fin-effectiveness matrix [rad/s^2 per rad], constant in time."""
    return np.diag(AeroConstants(cfg).fin_gain)


def lift_side_accels(
    alpha: float,
    beta: float,
    d_lift: float,
    d_side: float,
    cfg: AeroConfig,
    mode: str = "trig",
) -> tuple[float, float]:
    """Velocity-frame normal/lateral accelerations (a_theta, a_psi) [m/s^2].

    ``trig`` evaluates the exact thrust projection; ``linear`` is the
    small-angle model the guidance law is designed against.  d_lift/d_side
    are additive force uncertainties [N].
    """
    if mode not in ("trig", "linear"):
        raise ValueError(f"plant mode must be 'trig' or 'linear', got {mode!r}")
    return accels(AeroConstants(cfg), alpha, beta, d_lift, d_side, mode == "trig")


def attitude_derivatives(
    state: AttitudeState, fins: FinDeflections, d1, d2, cfg: AeroConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Time derivatives of (x1, x2, pitch) under fin command and disturbances.

    d1 [rad/s] perturbs the angle channel, d2 [rad/s^2] the rate channel.
    Raises GuardError once sideslip or pitch leaves the guard band.
    """
    rates = attitude_rates(
        AeroConstants(cfg), state.gamma, state.alpha, state.beta,
        state.omega_x, state.omega_y, state.omega_z, state.pitch,
        (fins.delta_x, fins.delta_y, fins.delta_z),
        [float(v) for v in d1], [float(v) for v in d2],
    )
    return np.array(rates[:3]), np.array(rates[3:6]), rates[6]
