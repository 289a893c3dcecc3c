import math

import numpy as np
from hypothesis import given, strategies as st

from igcsim.frames import (
    LosAngles,
    VelocityAngles,
    accel_velocity_to_los,
    los_dcm,
    los_velocity_cosine,
    projection_matrix,
    velocity_dcm,
)

elevations = st.floats(min_value=-1.4, max_value=1.4)
azimuths = st.floats(min_value=-math.pi, max_value=math.pi)


def test_velocity_dcm_identity_at_zero():
    assert np.array_equal(velocity_dcm(VelocityAngles(0.0, 0.0)), np.eye(3))


def test_velocity_dcm_near_vertical():
    # Elevation just inside the guard: rows forced by the matrix template.
    theta = np.nextafter(math.pi / 2, 0.0)
    m = velocity_dcm(VelocityAngles(theta, 0.0))
    expected = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(m, expected, atol=1e-9)


@given(elevations, azimuths)
def test_velocity_dcm_orthogonal(theta, psi):
    m = velocity_dcm(VelocityAngles(theta, psi))
    assert np.abs(m.T @ m - np.eye(3)).max() < 1e-12


def test_los_dcm_identity():
    assert np.allclose(los_dcm(LosAngles(0.0, math.pi / 2)), np.eye(3), atol=1e-15)


def test_los_dcm_is_velocity_template():
    assert np.array_equal(
        los_dcm(LosAngles(0.0, 0.0)),
        velocity_dcm(VelocityAngles(0.0, -math.pi / 2)),
    )


@given(elevations, azimuths)
def test_los_dcm_orthogonal(theta, phi):
    m = los_dcm(LosAngles(theta, phi))
    assert np.abs(m.T @ m - np.eye(3)).max() < 1e-12


def _forward_axes_cosine(los, vel):
    # Oracle: each DCM's first row is its frame's forward axis (along the
    # LOS, along the velocity) in ground coordinates.
    return float(los_dcm(los)[0] @ velocity_dcm(vel)[0])


def test_projection_aligned_has_unit_determinant():
    los = LosAngles(0.3, 0.8)
    vel = VelocityAngles(0.3, 0.8 - math.pi / 2)
    m = projection_matrix(los, vel)
    # Oracle: velocity along the LOS means |cos| = 1 by construction.
    for cosine in (_forward_axes_cosine(los, vel), los_velocity_cosine(los, vel)):
        assert math.isclose(cosine, 1.0, abs_tol=1e-12)
    assert math.isclose(abs(np.linalg.det(m)), 1.0, abs_tol=1e-12)


@given(elevations, azimuths)
def test_projection_singular_when_orthogonal(theta_l, phi_l):
    # Zero velocity elevation with azimuth equal to the LOS azimuth puts the
    # velocity exactly orthogonal to the LOS.
    los = LosAngles(theta_l, phi_l)
    vel = VelocityAngles(0.0, phi_l)
    assert abs(_forward_axes_cosine(los, vel)) < 1e-12
    assert abs(los_velocity_cosine(los, vel)) < 1e-12
    assert abs(np.linalg.det(projection_matrix(los, vel))) < 1e-12


@given(elevations, azimuths, elevations, azimuths)
def test_projection_matches_frame_composition(theta_l, phi_l, theta_v, psi_v):
    los, vel = LosAngles(theta_l, phi_l), VelocityAngles(theta_v, psi_v)
    t = los_dcm(los) @ velocity_dcm(vel).T
    expected = np.array([[t[1, 1], t[1, 2]], [-t[2, 1], -t[2, 2]]])
    assert np.abs(projection_matrix(los, vel) - expected).max() < 1e-12


@given(elevations, azimuths, elevations, azimuths)
def test_projection_determinant_is_cosine(theta_l, phi_l, theta_v, psi_v):
    los, vel = LosAngles(theta_l, phi_l), VelocityAngles(theta_v, psi_v)
    det = np.linalg.det(projection_matrix(los, vel))
    assert abs(abs(det) - abs(los_velocity_cosine(los, vel))) < 1e-9


def test_accel_map_zero():
    out = accel_velocity_to_los((0.0, 0.0, 0.0), LosAngles(0.4, 1.0), VelocityAngles(0.2, -0.5))
    assert np.array_equal(out, np.zeros(3))


def test_accel_map_aligned_frames():
    # Identical frame arguments collapse the composition to the identity,
    # leaving only the azimuth-channel sign flip.
    los = LosAngles(0.0, math.pi / 2)
    vel = VelocityAngles(0.0, 0.0)
    out = accel_velocity_to_los((1.0, 2.0, 3.0), los, vel)
    assert np.allclose(out, [1.0, 2.0, -3.0], atol=1e-12)


@given(elevations, azimuths, elevations, azimuths,
       st.floats(-50, 50), st.floats(-50, 50))
def test_accel_map_lateral_consistent_with_projection(theta_l, phi_l, theta_v, psi_v,
                                                      a_theta, a_psi):
    los, vel = LosAngles(theta_l, phi_l), VelocityAngles(theta_v, psi_v)
    full = accel_velocity_to_los((0.0, a_theta, a_psi), los, vel)
    lateral = projection_matrix(los, vel) @ np.array([a_theta, a_psi])
    assert np.allclose(full[1:], lateral, rtol=1e-12, atol=1e-12)


def test_cosine_aligned_and_antiparallel():
    los = LosAngles(0.25, 0.7)
    along = VelocityAngles(0.25, 0.7 - math.pi / 2)
    against = VelocityAngles(-0.25, 0.7 + math.pi / 2)
    assert math.isclose(los_velocity_cosine(los, along), 1.0, abs_tol=1e-12)
    assert math.isclose(los_velocity_cosine(los, against), -1.0, abs_tol=1e-12)
