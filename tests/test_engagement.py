import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from igcsim import frames
from igcsim.airframe import lift_side_accels
from igcsim.engagement import (
    AxisSignal,
    EngagementState,
    EvaderModel,
    VectorSignal,
    f0,
    g0,
    relative_derivatives,
)
from igcsim.errors import SingularityError

from .conftest import make_cfg
from .oracles import velocity_angle_derivatives


def state_strategy():
    return st.builds(
        EngagementState,
        r=st.floats(500.0, 8000.0),
        vr=st.floats(-800.0, 100.0),
        theta_l=st.floats(-1.0, 1.0),
        phi_l=st.floats(-3.0, 3.0),
        x01=st.floats(-0.2, 0.2),
        x02=st.floats(-0.2, 0.2),
        theta_v=st.floats(-1.0, 1.0),
        psi_v=st.floats(-3.0, 3.0),
    )


def make_state(**overrides) -> EngagementState:
    values = dict(r=3000.0, vr=-300.0, theta_l=0.0, phi_l=0.3,
                  x01=0.01, x02=-0.02, theta_v=0.1, psi_v=-1.0)
    values.update(overrides)
    return EngagementState(**values)


def test_f0_zero_rates():
    assert np.array_equal(f0(make_state(x01=0.0, x02=0.0)), np.zeros(2))


def test_f0_level_los():
    out = f0(make_state(theta_l=0.0, vr=-300.0, r=3000.0, x01=0.01, x02=-0.02))
    assert np.allclose(out, [0.002, -0.004], atol=1e-15)


def test_f0_cross_coupling_terms():
    state = make_state(theta_l=0.1, vr=-300.0, r=3000.0, x01=0.01, x02=-0.02)
    tl = math.tan(0.1)
    expected = np.array([0.002 - (-0.02) ** 2 * tl, -0.004 + 0.01 * (-0.02) * tl])
    assert np.allclose(f0(state), expected, rtol=1e-15)


def test_g0_identity_projection_geometry():
    # Zero elevations with velocity azimuth a quarter turn past the LOS
    # azimuth make the projection the identity.
    cfg = make_cfg(lift_slope=22.0, side_slope=-22.0)
    assert cfg.lift_gain == 2.0e5 and cfg.side_gain == -2.0e5
    state = make_state(r=1000.0, theta_l=0.0, theta_v=0.0, phi_l=0.3,
                       psi_v=0.3 + math.pi / 2)
    assert np.allclose(g0(state, cfg), np.diag([-2.0, 2.0]), atol=1e-13)


def test_g0_singular_when_orthogonal(cfg):
    state = make_state(theta_v=0.0, psi_v=make_state().phi_l)
    with pytest.raises(SingularityError, match="guidance"):
        g0(state, cfg)


def test_g0_scales_inversely_with_range(cfg):
    near = g0(make_state(r=1000.0), cfg)
    far = g0(make_state(r=2000.0), cfg)
    assert np.allclose(near, 2.0 * far, rtol=1e-12)


def test_relative_derivatives_static():
    state = make_state(vr=0.0, x01=0.0, x02=0.0)
    out = relative_derivatives(state, np.zeros(3), np.zeros(3))
    assert out == (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_relative_derivatives_acceleration_difference():
    state = make_state(r=1000.0, vr=0.0, x01=0.0, x02=0.0, theta_l=0.0)
    _, _, _, _, x01_dot, x02_dot = relative_derivatives(
        state, np.zeros(3), np.array([0.0, 1.0, 0.0]))
    assert math.isclose(x01_dot, 1e-3, rel_tol=1e-15)
    assert x02_dot == 0.0


@given(state_strategy())
def test_relative_derivatives_reduce_to_drift(state):
    _, _, _, _, x01_dot, x02_dot = relative_derivatives(state, np.zeros(3), np.zeros(3))
    drift = f0(state)
    assert np.allclose([x01_dot, x02_dot], drift, rtol=1e-12, atol=1e-15)


@given(state_strategy(),
       st.floats(-0.2, 0.2), st.floats(-0.2, 0.2),
       st.floats(-200, 200), st.floats(-200, 200),
       st.floats(-30, 30), st.floats(-30, 30))
def test_relative_derivatives_match_model_decomposition(state, alpha, beta,
                                                        d_lift, d_side,
                                                        ae_theta, ae_phi):
    # The truth path (forces -> velocity frame -> LOS frame -> relative
    # kinematics) must agree with the designed decomposition
    # drift + g0 (alpha, beta) + d0 / r when the plant is small-angle.
    cfg = make_cfg()
    proj = frames.projection_matrix(state.los, state.vel)
    assume(abs(np.linalg.det(proj)) > 0.05)

    a_theta, a_psi = lift_side_accels(alpha, beta, d_lift, d_side, cfg, "linear")
    accel_p = frames.accel_velocity_to_los((0.0, a_theta, a_psi), state.los, state.vel)
    accel_e = np.array([0.0, ae_theta, ae_phi])
    _, _, _, _, x01_dot, x02_dot = relative_derivatives(state, accel_p, accel_e)

    d0 = -proj @ (np.array([d_lift, d_side]) / cfg.mass) + accel_e[1:]
    model = f0(state) + g0(state, cfg) @ np.array([alpha, beta]) + d0 / state.r
    assert np.allclose([x01_dot, x02_dot], model, atol=1e-10)


def test_level_los_decouples_channels():
    # With zero LOS elevation the cross couplings vanish: each LOS-rate
    # derivative depends only on its own channel.
    base = make_state(theta_l=0.0, x01=0.05, x02=0.01)
    varied = make_state(theta_l=0.0, x01=0.05, x02=-0.17)
    assert f0(base)[0] == f0(varied)[0]
    base_b = make_state(theta_l=0.0, x01=0.02, x02=0.07)
    varied_b = make_state(theta_l=0.0, x01=-0.11, x02=0.07)
    assert f0(base_b)[1] == f0(varied_b)[1]


def test_velocity_angle_derivatives_zero(cfg):
    assert velocity_angle_derivatives(0.0, 0.0, cfg, 0.3) == (0.0, 0.0)


def test_velocity_angle_derivatives_signs(cfg):
    theta_dot, psi_dot = velocity_angle_derivatives(6.0, 0.0, cfg, 0.0)
    assert math.isclose(theta_dot, 0.01, rel_tol=1e-15) and psi_dot == 0.0
    theta_dot, psi_dot = velocity_angle_derivatives(0.0, 6.0, cfg, 0.0)
    assert theta_dot == 0.0 and math.isclose(psi_dot, -0.01, rel_tol=1e-15)


def test_evader_constant():
    model = EvaderModel(kind="constant", accel_theta=3.0, accel_phi=-3.0)
    assert np.array_equal(model.sample(0.0), [0.0, 3.0, -3.0])
    assert np.array_equal(model.sample(17.3), [0.0, 3.0, -3.0])


def test_evader_weave():
    model = EvaderModel(kind="weave", accel_theta=3.0, frequency=math.pi)
    assert np.allclose(model.sample(0.5), [0.0, 3.0, 0.0], rtol=1e-12)


def test_evader_step():
    model = EvaderModel(kind="step", accel_r=1.0, accel_theta=2.0, step_time=2.0)
    assert np.array_equal(model.sample(1.9), np.zeros(3))
    assert np.array_equal(model.sample(2.0), [1.0, 2.0, 0.0])


def test_evader_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        EvaderModel(kind="spiral")


@given(st.floats(0.0, 50.0))
def test_evader_bounded_by_amplitudes(t):
    model = EvaderModel(kind="weave", accel_r=1.0, accel_theta=3.0,
                        accel_phi=-2.0, frequency=2.2, phase=0.4)
    sample = np.abs(model.sample(t))
    amplitudes = np.array([model.accel_r, model.accel_theta, model.accel_phi])
    assert np.all(sample <= np.abs(amplitudes) + 1e-15)


def test_axis_signal_values():
    assert AxisSignal().value(3.0) == 0.0
    assert AxisSignal(kind="constant", amplitude=2.5).value(9.0) == 2.5
    sig = AxisSignal(kind="sinusoid", amplitude=2.0, frequency=3.0, phase=0.25)
    assert math.isclose(sig.value(1.5), 2.0 * math.sin(3.0 * 1.5 + 0.25), rel_tol=1e-15)


def test_vector_signal_values():
    sig = VectorSignal(kind="sinusoid", amplitude=(1.0, -2.0, 3.0), frequency=2.0)
    assert np.allclose(sig.sample(0.7), np.array([1.0, -2.0, 3.0]) * math.sin(1.4), rtol=1e-15)
    assert np.array_equal(VectorSignal().sample(5.0), np.zeros(3))
