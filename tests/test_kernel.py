"""The scalar kernel against the matrix formulas it replaced.

The kernel sums in another order than numpy's matrix products and inverts in
closed form, so agreement is to a relative tolerance fixed from float64:
RTOL of the reference's largest magnitude.
"""

import math

import numpy as np
from hypothesis import assume, given, strategies as st

from igcsim import airframe, engagement, frames, igc
from igcsim.airframe import AttitudeState
from igcsim.engagement import EngagementState
from igcsim.frames import los_dcm, projection_matrix_series, velocity_dcm

from .conftest import make_cfg, make_gains

RTOL = 1e-12

# Two correct inversions of a matrix agree to about cond * eps, so the
# condition estimates are compared where that stays far below RTOL.
COND_COMPARED = 1e3

elevations = st.floats(-1.2, 1.2)
azimuths = st.floats(-math.pi, math.pi)


@st.composite
def valid_states(draw):
    eng = EngagementState(
        r=draw(st.floats(10.0, 1e4)), vr=draw(st.floats(-800.0, 800.0)),
        theta_l=draw(elevations), phi_l=draw(azimuths),
        x01=draw(st.floats(-0.5, 0.5)), x02=draw(st.floats(-0.5, 0.5)),
        theta_v=draw(elevations), psi_v=draw(azimuths),
    )
    att = AttitudeState(
        gamma=draw(azimuths), alpha=draw(st.floats(-0.5, 0.5)),
        beta=draw(st.floats(-0.5, 0.5)), omega_x=draw(st.floats(-5.0, 5.0)),
        omega_y=draw(st.floats(-5.0, 5.0)), omega_z=draw(st.floats(-5.0, 5.0)),
        pitch=draw(elevations),
    )
    return eng, att


def assert_close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()


@given(valid_states(), st.sampled_from(["trig", "linear"]))
def test_projection_matches_frame_composition(state, mode):
    eng, att = state
    k = airframe.AeroConstants(make_cfg())
    a_theta, a_psi = airframe.accels(k, att.alpha, att.beta, 0.0, 0.0, mode == "trig")
    got = frames.los_accel(eng.theta_l, eng.phi_l, eng.theta_v, eng.psi_v,
                           0.0, a_theta, a_psi)
    w = los_dcm(eng.los) @ velocity_dcm(eng.vel).T @ np.array([0.0, a_theta, a_psi])
    assert_close(got, [w[0], w[1], -w[2]])


@given(valid_states())
def test_guidance_map_matches_projection_series(state):
    eng, _ = state
    cfg = make_cfg()
    proj = projection_matrix_series(eng.theta_l, eng.phi_l, eng.theta_v, eng.psi_v)
    assume(abs(np.linalg.det(proj)) >= engagement.GEOMETRY_SINGULARITY)
    got = engagement.guidance_map(airframe.AeroConstants(cfg), eng.r, eng.theta_l,
                                  eng.phi_l, eng.theta_v, eng.psi_v)
    ref = -(proj * np.array([cfg.lift_gain, cfg.side_gain])) / (cfg.mass * eng.r)
    assert_close(got, ref.ravel())


@given(valid_states())
def test_condition_estimates_match_reference(state):
    eng, att = state
    cfg = make_cfg()
    proj = projection_matrix_series(eng.theta_l, eng.phi_l, eng.theta_v, eng.psi_v)
    assume(abs(np.linalg.det(proj)) >= engagement.GEOMETRY_SINGULARITY)
    ref_g0 = igc.condition_estimate(engagement.g0(eng, cfg))
    ref_g1 = igc.condition_estimate(airframe.g1(att.pitch, att.x1))
    assume(max(ref_g0, ref_g1) <= COND_COMPARED)
    _, diag = igc.igc_step(eng, att, cfg, make_gains())
    assert_close(diag.cond_g0, ref_g0)
    assert_close(diag.cond_g1, ref_g1)
