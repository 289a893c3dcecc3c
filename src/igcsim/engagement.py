"""Relative pursuit-evasion kinematics in spherical LOS coordinates.

The regulated output is the LOS-rate pair x0 = (elevation rate,
azimuth rate * cos(elevation)); driving it to zero puts the pursuer on a
collision course.  Evader acceleration and model uncertainties are
deterministic closed-form signals so that disturbance suprema are exactly
reproducible for bound audits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import frames
from .airframe import AeroConfig, AeroConstants
from .errors import SingularityError

# |cos(LOS, velocity)| below which the guidance channel is declared singular.
GEOMETRY_SINGULARITY = 1e-9


@dataclass(frozen=True)
class EngagementState:
    """Relative geometry, LOS rates, and pursuer velocity direction."""

    r: float        # range [m], > 0
    vr: float       # range rate [m/s]
    theta_l: float  # LOS elevation [rad]
    phi_l: float    # LOS azimuth [rad]
    x01: float      # LOS elevation rate [rad/s]
    x02: float      # LOS azimuth rate * cos(elevation) [rad/s]
    theta_v: float  # velocity elevation [rad]
    psi_v: float    # velocity azimuth [rad]

    @property
    def los(self) -> frames.LosAngles:
        return frames.LosAngles(self.theta_l, self.phi_l)

    @property
    def vel(self) -> frames.VelocityAngles:
        return frames.VelocityAngles(self.theta_v, self.psi_v)


@dataclass(frozen=True)
class EvaderModel:
    """Bounded evader acceleration in LOS components (radial, elevation, azimuth).

    kind: 'constant' holds the amplitudes, 'step' switches them on at
    step_time, 'weave' is amplitude * sin(frequency * t + phase) per axis.
    """

    kind: str = "constant"
    accel_r: float = 0.0      # [m/s^2]
    accel_theta: float = 0.0  # [m/s^2]
    accel_phi: float = 0.0    # [m/s^2]
    frequency: float = 0.0    # [rad/s], weave only
    phase: float = 0.0        # [rad], weave only
    step_time: float = 0.0    # [s], step only

    def __post_init__(self):
        if self.kind not in ("constant", "step", "weave"):
            raise ValueError(f"kind: must be constant, step, or weave, got {self.kind!r}")
        for name in ("accel_r", "accel_theta", "accel_phi", "frequency", "phase", "step_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")

    def sample(self, t: float) -> tuple[float, float, float]:
        """Acceleration (a_r, a_theta, a_phi) [m/s^2] at time t."""
        amplitudes = (self.accel_r, self.accel_theta, self.accel_phi)
        if self.kind == "constant":
            return amplitudes
        if self.kind == "step":
            return amplitudes if t >= self.step_time else (0.0, 0.0, 0.0)
        s = math.sin(self.frequency * t + self.phase)
        return amplitudes[0] * s, amplitudes[1] * s, amplitudes[2] * s


@dataclass(frozen=True)
class AxisSignal:
    """Scalar disturbance generator: zero, constant, or sinusoid."""

    kind: str = "zero"
    amplitude: float = 0.0
    frequency: float = 0.0  # [rad/s]
    phase: float = 0.0      # [rad]

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sinusoid"):
            raise ValueError(f"kind: must be zero, constant, or sinusoid, got {self.kind!r}")
        for name in ("amplitude", "frequency", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")

    def value(self, t: float) -> float:
        if self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.amplitude
        return self.amplitude * math.sin(self.frequency * t + self.phase)


@dataclass(frozen=True)
class VectorSignal:
    """Three-axis disturbance generator with shared frequency and phase."""

    kind: str = "zero"
    amplitude: tuple[float, float, float] = (0.0, 0.0, 0.0)
    frequency: float = 0.0  # [rad/s]
    phase: float = 0.0      # [rad]

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "sinusoid"):
            raise ValueError(f"kind: must be zero, constant, or sinusoid, got {self.kind!r}")
        if len(self.amplitude) != 3 or not all(math.isfinite(a) for a in self.amplitude):
            raise ValueError("amplitude: must be three finite values")
        for name in ("frequency", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite")

    def sample(self, t: float) -> tuple[float, float, float]:
        if self.kind == "zero":
            return 0.0, 0.0, 0.0
        ax, ay, az = self.amplitude
        if self.kind == "constant":
            return ax, ay, az
        s = math.sin(self.frequency * t + self.phase)
        return ax * s, ay * s, az * s


@dataclass(frozen=True)
class DisturbanceModel:
    """Bounded model uncertainties injected into the truth plant.

    rate [rad/s] perturbs the attitude-angle derivatives, accel [rad/s^2]
    the body-rate derivatives, lift/side [N] the aerodynamic forces.
    """

    rate: VectorSignal = VectorSignal()
    accel: VectorSignal = VectorSignal()
    lift: AxisSignal = AxisSignal()
    side: AxisSignal = AxisSignal()


def los_rate_drift(r, vr, theta_l, x01, x02) -> tuple[float, float]:
    """Drift f0 of the LOS-rate pair [rad/s^2]: the radial term -2 (vr / r) x0
    plus the tan(theta_l) elevation/azimuth cross couplings, which are
    orthogonal to x0 in the Lyapunov sense and left uncancelled by the law."""
    two_vr_r = 2.0 * vr / r
    tl = math.tan(theta_l)
    # x * x, not x**2: a float power raises OverflowError where a product gives inf.
    return -two_vr_r * x01 - x02 * x02 * tl, -two_vr_r * x02 + x01 * x02 * tl


def projection_det(m):
    """Determinant of the 2x2 projection block of the nine :func:`frames.los_rows`
    ``m``; its magnitude equals |cos(LOS, velocity)|.  ``m`` may hold columns."""
    return m[4] * m[8] - m[5] * m[7]


def guidance_entries(k: AeroConstants, r, m) -> tuple:
    """The four entries of :func:`guidance_map`, row-major, without its gate:
    ``r`` and the entries of ``m`` may be floats or log columns."""
    scale = k.mass * r
    return (-(m[4] * k.lift_gain) / scale, -(m[5] * k.side_gain) / scale,
            -(m[7] * k.lift_gain) / scale, -(m[8] * k.side_gain) / scale)


def guidance_map(k: AeroConstants, r, m) -> tuple[float, float, float, float]:
    """Input map g0 from (attack, sideslip) to the LOS-rate derivatives as four
    floats, row-major, built from the small-angle force model at range ``r``
    and the nine :func:`frames.los_rows` ``m`` of the geometry; singular when
    the pursuer velocity is orthogonal to the LOS."""
    det_m = projection_det(m)
    if abs(det_m) < GEOMETRY_SINGULARITY:
        raise SingularityError(
            "guidance", math.inf,
            f"guidance: velocity orthogonal to LOS (|cos| = {abs(det_m):.3g})",
        )
    return guidance_entries(k, r, m)


def f0(state: EngagementState) -> np.ndarray:
    """:func:`los_rate_drift` of ``state`` as an array [rad/s^2]."""
    return np.array(los_rate_drift(state.r, state.vr, state.theta_l, state.x01, state.x02))


def g0(state: EngagementState, cfg: AeroConfig) -> np.ndarray:
    """:func:`guidance_map` of ``state`` as a 2x2 array."""
    rows = frames.los_rows(state.theta_l, state.phi_l, state.theta_v, state.psi_v)
    m = guidance_map(AeroConstants(cfg), state.r, rows)
    return np.array(m).reshape(2, 2)


def relative_derivatives(state: EngagementState, accel_pursuer, accel_evader
                         ) -> tuple[float, float, float, float, float, float]:
    """Time derivatives (r, vr, theta_l, phi_l, x01, x02) of the relative
    motion of ``state``.  Both accelerations are array-like LOS-frame
    triples (radial, elevation channel, azimuth channel) [m/s^2].
    :func:`sim.evaluate` writes the same formulas out inline."""
    r, vr, theta_l, x01, x02 = state.r, state.vr, state.theta_l, state.x01, state.x02
    ap0, ap1, ap2 = (float(a) for a in accel_pursuer)
    ae0, ae1, ae2 = (float(a) for a in accel_evader)
    drift0, drift1 = los_rate_drift(r, vr, theta_l, x01, x02)
    return (
        vr,
        r * (x01 * x01 + x02 * x02) + ae0 - ap0,
        x01,
        x02 / math.cos(theta_l),
        drift0 + (ae1 - ap1) / r,
        drift1 + (ae2 - ap2) / r,
    )

