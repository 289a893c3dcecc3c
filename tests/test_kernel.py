"""The scalar kernel against independent matrix oracles: the frame
composition, a reference g1 and numpy's condition numbers.

The kernel sums in another order than numpy's matrix products and inverts in
closed form, so agreement is to a relative tolerance fixed from float64:
RTOL of the reference's largest magnitude.
"""

import math
from dataclasses import astuple

import numpy as np
from hypothesis import assume, given, strategies as st

from igcsim import airframe, engagement, frames, igc
from igcsim.engagement import EngagementState
from igcsim.frames import los_dcm, velocity_dcm

from .conftest import g1_matrix, make_cfg, make_gains

RTOL = 1e-12

# Two correct inversions of a matrix agree to about cond * eps, so the
# condition estimates are compared where that stays far below RTOL.
COND_COMPARED = 1e3

# The map helpers called on columns (trig=numpy) round as on floats where
# numpy's sin and cos round as math's do: they matched on 10^6 samples with
# numpy 2.4.6 on x86-64, where numpy's tan did not (hence the tangents taken
# as sin/cos).  Elsewhere each entry may move by a few ulp of the larger of
# 1 and itself.
COLUMN_ULPS = 4

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
    # (gamma, alpha, beta, omega_x, omega_y, omega_z, pitch), the attitude
    # part of the state in STATE_FIELDS order.
    att = (draw(azimuths), draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
           draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0)),
           draw(st.floats(-5.0, 5.0)), draw(elevations))
    return eng, att


def assert_close(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()


def composed_projection(eng: EngagementState) -> np.ndarray:
    """The 2x2 acceleration projection read off ``los_dcm @ velocity_dcm.T``,
    its azimuth row negated."""
    t = los_dcm(eng.los) @ velocity_dcm(eng.vel).T
    return np.array([[t[1, 1], t[1, 2]], [-t[2, 1], -t[2, 2]]])


@given(st.lists(valid_states(), min_size=1, max_size=16))
def test_column_maps_equal_scalar_rows(states):
    # The audit's call of each map helper over a log's columns equals the
    # law's calls on each row's floats: frames.los_rows and airframe.mixer
    # within COLUMN_ULPS, the guidance entries on the same LOS rows exactly.
    table = np.array([[*astuple(eng), *att] for eng, att in states])
    r, theta_l, phi_l, theta_v, psi_v = (table[:, j] for j in (0, 2, 3, 6, 7))
    gamma, alpha, beta, pitch = (table[:, j] for j in (8, 9, 10, 14))
    k = airframe.AeroConstants(make_cfg())
    rows = frames.los_rows(theta_l, phi_l, theta_v, psi_v, trig=np)
    mixers = np.broadcast_arrays(*airframe.mixer(gamma, alpha, beta, pitch, trig=np))
    g0 = engagement.guidance_entries(k, r, rows)
    for i, y in enumerate(table.tolist()):
        for columns, scalar in ((rows, frames.los_rows(y[2], y[3], y[6], y[7])),
                                (mixers, airframe.mixer(y[8], y[9], y[10], y[14]))):
            got, want = np.array([c[i] for c in columns]), np.array(scalar)
            ulp = np.spacing(np.maximum(np.abs(want), 1.0))
            assert np.all(np.abs(got - want) <= COLUMN_ULPS * ulp)
        row_i = [float(c[i]) for c in rows]
        assert [float(c[i]) for c in g0] == list(engagement.guidance_entries(k, y[0], row_i))


@given(valid_states(), st.sampled_from(["trig", "linear"]))
def test_projection_matches_frame_composition(state, mode):
    eng, (_, alpha, beta, *_) = state
    a_theta, a_psi = airframe.lift_side_accels(alpha, beta, 0.0, 0.0, make_cfg(), mode)
    rows = frames.los_rows(eng.theta_l, eng.phi_l, eng.theta_v, eng.psi_v)
    got = frames.los_accel(rows, 0.0, a_theta, a_psi)
    w = los_dcm(eng.los) @ velocity_dcm(eng.vel).T @ np.array([0.0, a_theta, a_psi])
    assert_close(got, [w[0], w[1], -w[2]])


@given(valid_states())
def test_guidance_map_matches_projection_series(state):
    eng, _ = state
    cfg = make_cfg()
    proj = composed_projection(eng)
    assume(abs(np.linalg.det(proj)) >= engagement.GEOMETRY_SINGULARITY)
    rows = frames.los_rows(eng.theta_l, eng.phi_l, eng.theta_v, eng.psi_v)
    got = engagement.guidance_map(airframe.AeroConstants(cfg), eng.r, rows)
    ref = -(proj * np.array([cfg.lift_gain, cfg.side_gain])) / (cfg.mass * eng.r)
    assert_close(got, ref.ravel())


@given(valid_states())
def test_condition_numbers_match_reference(state):
    eng, att = state
    cfg = make_cfg()
    proj = composed_projection(eng)
    assume(abs(np.linalg.det(proj)) >= engagement.GEOMETRY_SINGULARITY)
    ref_g0 = np.linalg.cond(engagement.g0(eng, cfg), "fro")
    gamma, alpha, beta, *_, pitch = att
    ref_g1 = np.linalg.cond(g1_matrix(gamma, alpha, beta, pitch), "fro")
    assume(max(ref_g0, ref_g1) <= COND_COMPARED)
    y = [*astuple(eng), *att]
    _, _, _, _, cond_g0, cond_g1 = igc.law(igc.LawConstants(cfg, make_gains()), y)
    assert_close(cond_g0, ref_g0)
    assert_close(cond_g1, ref_g1)
