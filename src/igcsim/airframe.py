"""Skid-to-turn airframe: attitude dynamics and the aerodynamic force model.

The attitude state is x1 = (roll, attack, sideslip) with body rates
x2 = (roll rate, yaw rate, pitch rate).  Fin deflections act through a
constant diagonal moment map, so the rate channel is always controllable
for a valid configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# The keys of an AeroConfig behind each derived constant the kernel reads.
_QS = "air_density, speed, ref_area, "
_DERIVED_FROM = {
    "dynamic_pressure": "air_density, speed",
    "mv": "mass, speed",
    "qs_lift": _QS + "lift_slope",
    "qs_side": _QS + "side_slope",
    "lift_gain": "thrust, " + _QS + "lift_slope",
    "side_gain": "thrust, " + _QS + "side_slope",
    "qsl_yaw": _QS + "ref_length, yaw_moment_beta",
    "qsl_pitch": _QS + "ref_length, pitch_moment_alpha",
    "gyro": "inertia_x, inertia_y, inertia_z",
    "fin_gain": _QS + "ref_length, roll_moment_fin, yaw_moment_fin, pitch_moment_fin, "
                      "inertia_x, inertia_y, inertia_z",
}


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
        # Finite keys can still overflow in the products the kernel reads.
        k = AeroConstants(self)
        for name, keys in _DERIVED_FROM.items():
            value = getattr(self if name == "dynamic_pressure" else k, name)
            if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                raise ValueError(f"derived constant {name} {value} is not finite (from {keys})")

    @property
    def dynamic_pressure(self) -> float:
        """0.5 * rho * V^2 [Pa]; constant because the speed is constant."""
        return 0.5 * self.air_density * (self.speed * self.speed)

    @property
    def lift_gain(self) -> float:
        """Normal-channel force per attack angle, thrust included [N/rad]."""
        return self.thrust + self.dynamic_pressure * self.ref_area * self.lift_slope

    @property
    def side_gain(self) -> float:
        """Lateral-channel force per sideslip, thrust included [N/rad]."""
        return -self.thrust + self.dynamic_pressure * self.ref_area * self.side_slope


class AeroConstants:
    """The constants of an AeroConfig in the form the scalar kernel reads them.

    Built once per run; every derived quantity is computed exactly as the
    formulas below would compute it inline, so hoisting changes no result.
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


def clamp(fins, limit: float) -> tuple[float, float, float]:
    """Symmetric fin limit applied per axis."""
    dx, dy, dz = fins
    return (min(max(dx, -limit), limit),
            min(max(dy, -limit), limit),
            min(max(dz, -limit), limit))


def aero_forces(k: AeroConstants, alpha: float, beta: float) -> tuple[float, float]:
    """Normal and lateral force [N] of the trig force model: thrust projected
    through attack and sideslip plus the linear aerodynamic forces."""
    return (k.thrust * math.sin(alpha) + k.qs_lift * alpha,
            k.qs_side * beta - k.thrust * math.cos(alpha) * math.sin(beta))


def attitude_drift(k: AeroConstants, alpha: float, beta: float) -> tuple[float, float, float]:
    """Drift f1 of the attitude-angle channel [rad/s]."""
    lift, side = aero_forces(k, alpha, beta)
    return 0.0, -lift / (k.mv * math.cos(beta)), side / k.mv


def mixer(gamma, alpha, beta, pitch, trig=math) -> tuple:
    """Body-rate-to-attitude-rate mixing matrix g1 as nine floats, row-major.

    Invertible throughout a reasonable flight domain; its determinant is -1
    exactly at zero angles.  The tangents are taken as sin/cos.  ``trig`` is
    anything with ``sin`` and ``cos``: with ``numpy``, the angles may be
    arrays, and each entry but the constants 1 and 0 is then an array.
    """
    tp = trig.sin(pitch) / trig.cos(pitch)
    tb = trig.sin(beta) / trig.cos(beta)
    sa, ca = trig.sin(alpha), trig.cos(alpha)
    return (1.0, -tp * trig.cos(gamma), tp * trig.sin(gamma),
            -tb * ca, sa * tb, 1.0,
            sa, ca, 0.0)


def rate_drift(k: AeroConstants, alpha: float, beta: float,
               wx: float, wy: float, wz: float) -> tuple[float, float, float]:
    """Drift f2 of the body-rate channel [rad/s^2]."""
    gx, gy, gz = k.gyro
    return (
        gx * wy * wz,
        k.qsl_yaw * beta / k.jy + gy * wx * wz,
        k.qsl_pitch * alpha / k.jz + gz * wx * wy,
    )


def lift_side_accels(alpha: float, beta: float, d_lift: float, d_side: float,
                     cfg: AeroConfig, mode: str = "trig") -> tuple[float, float]:
    """Velocity-frame normal/lateral accelerations (a_theta, a_psi) [m/s^2].

    ``mode`` ``trig`` evaluates the exact thrust projection
    (:func:`aero_forces`), ``linear`` the small-angle model the guidance law
    is designed against.  d_lift/d_side are additive force uncertainties
    [N].  :func:`sim.evaluate` writes the same formulas out inline.
    """
    if mode not in ("trig", "linear"):
        raise ValueError(f"plant mode must be 'trig' or 'linear', got {mode!r}")
    k = AeroConstants(cfg)
    if mode == "trig":
        lift, side = aero_forces(k, alpha, beta)
        return (lift + d_lift) / k.mass, (side + d_side) / k.mass
    return (k.lift_gain * alpha + d_lift) / k.mass, (k.side_gain * beta + d_side) / k.mass
