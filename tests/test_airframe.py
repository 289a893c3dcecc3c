import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from igcsim.airframe import (
    AeroConfig,
    AeroConstants,
    attitude_drift,
    lift_side_accels,
    mixer,
    rate_drift,
)

from .conftest import g1_matrix, make_cfg
from .oracles import attitude_rates

ZERO3 = (0.0, 0.0, 0.0)
small_angles = st.floats(min_value=-0.3, max_value=0.3)
rates = st.floats(min_value=-5.0, max_value=5.0)


def test_config_rejects_zero_fin_slope():
    with pytest.raises(ValueError, match="roll_moment_fin"):
        make_cfg(roll_moment_fin=0.0)


def test_config_rejects_nonpositive_mass():
    with pytest.raises(ValueError, match="mass"):
        make_cfg(mass=-1.0)


def test_dynamic_pressure_derived_exactly(cfg):
    assert cfg.dynamic_pressure == 0.5 * cfg.air_density * cfg.speed**2


def test_f1_zero_angles(cfg):
    assert np.array_equal(attitude_drift(AeroConstants(cfg), 0.0, 0.0), np.zeros(3))


def test_f1_attack_row(cfg):
    # Independent arithmetic: thrust and lift terms over m V cos(beta).
    out = attitude_drift(AeroConstants(cfg), 0.01, 0.0)
    qs_lift = 0.5 * 1.0 * 600.0**2 * 0.05 * 40.0
    expected = -(2000.0 * math.sin(0.01) + qs_lift * 0.01) / (100.0 * 600.0)
    assert math.isclose(out[1], expected, rel_tol=1e-15)
    assert out[0] == 0.0 and out[2] == 0.0


def test_f1_sideslip_row(cfg):
    out = attitude_drift(AeroConstants(cfg), 0.0, 0.01)
    qs_side = 0.5 * 1.0 * 600.0**2 * 0.05 * (-40.0)
    expected = (qs_side * 0.01 - 2000.0 * math.sin(0.01)) / (100.0 * 600.0)
    assert math.isclose(out[2], expected, rel_tol=1e-15)


def test_g1_zero_angles():
    m = np.reshape(mixer(0.0, 0.0, 0.0, 0.0), (3, 3))
    assert np.array_equal(m, np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    assert math.isclose(np.linalg.det(m), -1.0, abs_tol=1e-15)


def test_g1_small_angle_determinant():
    det = np.linalg.det(np.reshape(mixer(0.0, 0.05, 0.05, 0.05), (3, 3)))
    assert -1.1 < det < -0.9


def test_g1_determinant_over_flight_domain():
    grid = np.linspace(-0.3, 0.3, 7)
    for pitch in grid:
        for alpha in grid:
            for beta in grid:
                for gamma in (-3.0, -1.0, 0.0, 2.0):
                    m = np.reshape(mixer(gamma, alpha, beta, pitch), (3, 3))
                    assert abs(np.linalg.det(m)) > 0.5


def test_g1_near_vertical_pitch_flagged():
    m = np.reshape(mixer(0.0, 0.0, 0.0, math.pi / 2 - 1e-8), (3, 3))
    assert np.linalg.cond(m, "fro") > 1e6


def test_f2_zero_state(cfg):
    assert np.array_equal(rate_drift(AeroConstants(cfg), 0.0, 0.0, 0.0, 0.0, 0.0),
                          np.zeros(3))


def test_f2_gyroscopic_row(cfg):
    out = rate_drift(AeroConstants(cfg), 0.0, 0.0, 0.0, 1.0, 1.0)
    assert np.allclose(out, [(50.0 - 50.0) / 10.0, 0.0, 0.0], atol=1e-15)


def test_f2_full_state(cfg):
    alpha, beta = 0.04, -0.03
    wx, wy, wz = 0.4, -0.2, 0.6
    out = rate_drift(AeroConstants(cfg), alpha, beta, wx, wy, wz)
    qsl = 0.5 * 1.0 * 600.0**2 * 0.05 * 1.0
    expected = np.array([
        (50.0 - 50.0) / 10.0 * wy * wz,
        qsl * (-10.0) * beta / 50.0 + (10.0 - 50.0) / 50.0 * wx * wz,
        qsl * (-10.0) * alpha / 50.0 + (50.0 - 10.0) / 50.0 * wx * wy,
    ])
    assert np.allclose(out, expected, rtol=1e-15)


def test_g2_unit_parameters():
    unit = AeroConfig(
        mass=1.0, thrust=0.0, speed=1.0, air_density=2.0, ref_area=1.0,
        ref_length=1.0, lift_slope=1.0, side_slope=1.0,
        roll_moment_fin=1.0, yaw_moment_beta=0.0, yaw_moment_fin=1.0,
        pitch_moment_alpha=0.0, pitch_moment_fin=1.0,
        inertia_x=1.0, inertia_y=1.0, inertia_z=1.0,
    )
    assert np.array_equal(np.diag(AeroConstants(unit).fin_gain), np.eye(3))


def test_g2_nominal_diagonal(cfg):
    qsl = 0.5 * 1.0 * 600.0**2 * 0.05 * 1.0
    expected = np.diag([qsl * -5.0 / 10.0, qsl * -15.0 / 50.0, qsl * -15.0 / 50.0])
    assert np.array_equal(np.diag(AeroConstants(cfg).fin_gain), expected)


def test_g2_constant_for_fixed_config(cfg):
    assert AeroConstants(cfg).fin_gain == AeroConstants(cfg).fin_gain


def test_lift_side_zero(cfg):
    assert lift_side_accels(0.0, 0.0, 0.0, 0.0, cfg, "trig") == (0.0, 0.0)
    assert lift_side_accels(0.0, 0.0, 0.0, 0.0, cfg, "linear") == (0.0, 0.0)


def test_lift_side_small_angle_agreement(cfg):
    trig = lift_side_accels(0.01, 0.01, 0.0, 0.0, cfg, "trig")
    lin = lift_side_accels(0.01, 0.01, 0.0, 0.0, cfg, "linear")
    for a, b in zip(trig, lin):
        assert abs(a - b) < 1e-4 * abs(b)


def test_lift_side_large_angle_mismatch(cfg):
    trig = lift_side_accels(0.3, 0.0, 0.0, 0.0, cfg, "trig")
    lin = lift_side_accels(0.3, 0.0, 0.0, 0.0, cfg, "linear")
    assert abs(trig[0] - lin[0]) > 0.05  # absorbed into the lumped disturbance


def test_lift_side_rejects_unknown_mode(cfg):
    with pytest.raises(ValueError, match="plant mode"):
        lift_side_accels(0.0, 0.0, 0.0, 0.0, cfg, "exact")


@given(small_angles, small_angles, st.floats(-100, 100), st.floats(-100, 100))
def test_linear_mode_is_matrix_form(alpha, beta, d_lift, d_side, ):
    cfg = make_cfg()
    a_theta, a_psi = lift_side_accels(alpha, beta, d_lift, d_side, cfg, "linear")
    gain = np.array([[cfg.lift_gain, 0.0], [0.0, cfg.side_gain]])
    expected = (gain @ np.array([alpha, beta]) + np.array([d_lift, d_side])) / cfg.mass
    assert a_theta == expected[0] and a_psi == expected[1]


def _attitude_rates(k, gamma, alpha, beta, wx, wy, wz, pitch, fins, d1, d2):
    # attitude_rates at the state, given the mixer and drifts evaluated there.
    return attitude_rates(k, mixer(gamma, alpha, beta, pitch), attitude_drift(k, alpha, beta),
                          rate_drift(k, alpha, beta, wx, wy, wz), gamma, wx, wy, wz,
                          fins, d1, d2)


def test_attitude_derivatives_zero(cfg):
    rates = _attitude_rates(AeroConstants(cfg), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                            ZERO3, ZERO3, ZERO3)
    assert np.array_equal(rates[:3], np.zeros(3))
    assert np.array_equal(rates[3:6], np.zeros(3))
    assert rates[6] == 0.0


def test_pitch_rate_kinematics(cfg):
    rates = _attitude_rates(AeroConstants(cfg), 0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.0,
                            ZERO3, ZERO3, ZERO3)
    assert math.isclose(rates[6], 0.1, rel_tol=1e-15)


@given(small_angles, small_angles, small_angles, rates, rates, rates,
       small_angles, st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_attitude_derivatives_recompose(gamma, alpha, beta, wx, wy, wz, pitch,
                                        dx, dy, dz):
    # Oracle: reassemble the derivatives from the tested pieces, with the
    # reference g1 applied column by column.  Not ``g1 @ x2``: BLAS may fuse
    # that product's multiply-adds, so how it rounds depends on the host.
    k = AeroConstants(make_cfg())
    g1 = g1_matrix(gamma, alpha, beta, pitch)
    fins = np.array([dx, dy, dz])
    d1 = np.array([0.01, -0.02, 0.03])
    d2 = np.array([-0.5, 0.25, 0.1])
    rates = _attitude_rates(k, gamma, alpha, beta, wx, wy, wz, pitch,
                            (dx, dy, dz), tuple(d1), tuple(d2))
    assert np.array_equal(rates[:3], attitude_drift(k, alpha, beta)
                          + (g1[:, 0] * wx + g1[:, 1] * wy + g1[:, 2] * wz) + d1)
    assert np.array_equal(rates[3:6], rate_drift(k, alpha, beta, wx, wy, wz)
                          + np.diag(k.fin_gain) @ fins + d2)
