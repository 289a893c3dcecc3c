"""Coordinate-frame transforms between ground, pursuer-velocity, and LOS frames.

All angles are in radians.  The ground frame has x/z horizontal and y up;
elevation angles are measured toward +y.  The frames degenerate as an
elevation nears pi/2; a run keeps both elevations within ``sim.GUARD``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VelocityAngles:
    """Direction of the pursuer velocity vector in the ground frame."""

    theta_v: float  # velocity elevation [rad]
    psi_v: float    # velocity azimuth [rad]


@dataclass(frozen=True)
class LosAngles:
    """Direction of the pursuer-to-evader sight line in the ground frame."""

    theta_l: float  # LOS elevation [rad]
    phi_l: float    # LOS azimuth [rad]


def _axis_rotation(psi: float, theta: float) -> np.ndarray:
    """Ground-to-rotated-frame matrix for an azimuth/elevation pair."""
    cp, sp = math.cos(psi), math.sin(psi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [ct * cp, st, -ct * sp],
            [-st * cp, ct, st * sp],
            [sp, 0.0, cp],
        ]
    )


def velocity_dcm(angles: VelocityAngles) -> np.ndarray:
    """Direction cosine matrix from the ground frame to the velocity frame.

    Orthogonal for every angle pair; rows are the velocity-frame axes
    expressed in ground coordinates.
    """
    return _axis_rotation(angles.psi_v, angles.theta_v)


def los_dcm(angles: LosAngles) -> np.ndarray:
    """Direction cosine matrix from the ground frame to the LOS frame.

    Uses the same azimuth/elevation template as :func:`velocity_dcm`,
    evaluated at (phi_l - pi/2, theta_l).
    """
    return _axis_rotation(angles.phi_l - math.pi / 2, angles.theta_l)


def los_rows(theta_l, phi_l, theta_v, psi_v, trig=math) -> tuple:
    """Velocity-to-LOS acceleration map as nine floats, row-major.

    The closed form of ``los_dcm @ velocity_dcm.T`` with its azimuth row
    negated.  Rows are the radial, elevation and azimuth channels; columns
    the velocity-frame axes (a_v, a_theta, a_psi).  The lower-right 2x2 block
    is :func:`projection_matrix`.  ``trig`` is anything with ``sin`` and
    ``cos``: with ``numpy``, the angles may be whole log columns, and each of
    the nine entries is then a column.
    """
    stl, ctl = trig.sin(theta_l), trig.cos(theta_l)
    stv, ctv = trig.sin(theta_v), trig.cos(theta_v)
    d = phi_l - psi_v
    sd, cd = trig.sin(d), trig.cos(d)
    return (stl * stv + ctl * ctv * sd, stl * ctv - ctl * stv * sd, ctl * cd,
            ctl * stv - stl * ctv * sd, stl * stv * sd + ctl * ctv, -stl * cd,
            ctv * cd, -stv * cd, -sd)


def los_accel(m, a_v: float, a_theta: float, a_psi: float) -> tuple[float, float, float]:
    """Map a velocity-frame acceleration (a_v, a_theta, a_psi) into the LOS
    frame through ``m``, the nine :func:`los_rows` of the geometry, returning
    (radial, elevation-channel, azimuth-channel) [m/s^2].

    The azimuth channel carries a sign flip relative to the raw frame
    composition, as in :func:`los_rows`.
    """
    return (m[0] * a_v + m[1] * a_theta + m[2] * a_psi,
            m[3] * a_v + m[4] * a_theta + m[5] * a_psi,
            m[6] * a_v + m[7] * a_theta + m[8] * a_psi)


def projection_matrix(los: LosAngles, vel: VelocityAngles) -> np.ndarray:
    """2x2 matrix mapping (a_theta, a_psi) into the LOS angular channels."""
    m = los_rows(los.theta_l, los.phi_l, vel.theta_v, vel.psi_v)
    return np.array([[m[4], m[5]], [m[7], m[8]]])


def accel_velocity_to_los(
    accel, los: LosAngles, vel: VelocityAngles
) -> np.ndarray:
    """:func:`los_accel` of an array-like acceleration, as an array."""
    a_v, a_theta, a_psi = (float(a) for a in accel)
    m = los_rows(los.theta_l, los.phi_l, vel.theta_v, vel.psi_v)
    return np.array(los_accel(m, a_v, a_theta, a_psi))


def los_velocity_cosine(los: LosAngles, vel: VelocityAngles) -> float:
    """Cosine of the angle between the LOS and the pursuer velocity: the dot
    product of their unit vectors in ground coordinates.

    Equals |det| of :func:`projection_matrix` up to sign, which makes it the
    natural invertibility diagnostic for the guidance channel.
    """
    ctl, ctv = math.cos(los.theta_l), math.cos(vel.theta_v)
    along_los = (ctl * math.sin(los.phi_l), math.sin(los.theta_l), ctl * math.cos(los.phi_l))
    along_vel = (ctv * math.cos(vel.psi_v), math.sin(vel.theta_v), -ctv * math.sin(vel.psi_v))
    return float(np.array(along_los) @ np.array(along_vel))
