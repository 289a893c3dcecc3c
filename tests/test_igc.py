import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from igcsim import sim
from igcsim.airframe import AeroConfig, AeroConstants, attitude_drift, mixer, rate_drift
from igcsim.engagement import guidance_map
from igcsim.errors import SingularityError
from igcsim.frames import los_rows
from igcsim.igc import (
    COND_LIMIT,
    LawConstants,
    attitude_stage,
    feedback,
    fin_inverse,
    fin_stage,
    guidance_stage,
    iss_control,
    law,
)

from .conftest import IN_ENVELOPE, g1_matrix, make_cfg, make_gains, make_initial, make_scenario

small_angles = st.floats(min_value=-0.25, max_value=0.25)
errors = st.floats(min_value=-0.5, max_value=0.5)

ENGAGEMENT = dict(r=3000.0, vr=-300.0, theta_l=0.1, phi_l=0.3,
                  x01=0.01, x02=-0.02, theta_v=0.12, psi_v=0.3 - math.pi / 2 + 0.03)
ATTITUDE = dict(gamma=0.01, alpha=0.03, beta=-0.02,
                omega_x=0.1, omega_y=-0.2, omega_z=0.3, pitch=0.15)
QUIET_ATTITUDE = dict.fromkeys(ATTITUDE, 0.0)
ZERO3 = (0.0, 0.0, 0.0)


def make_state(**overrides) -> list[float]:
    """The 15 floats of a state, in sim.STATE_FIELDS order."""
    values = {**ENGAGEMENT, **ATTITUDE, **overrides}
    return [values[name] for name in sim.STATE_FIELDS]


def test_gains_positive():
    with pytest.raises(ValueError, match="k0"):
        make_gains(k0=-1.0)
    with pytest.raises(ValueError, match="delta2"):
        make_gains(delta2=0.0)


def test_iss_control_zero_state():
    f = np.array([1.0, -2.0, 0.5])
    g = np.diag([2.0, 4.0, 0.5])
    u = iss_control(f, g, np.zeros(3), k=1.0, delta=1.0)
    assert np.allclose(u, -np.linalg.inv(g) @ f, rtol=1e-14)


def test_feedback_of_large_delta():
    # 1/(2 delta^2) underflows to 0 rather than raising OverflowError.
    assert feedback(2.0, 1e200) == 2.0


def test_iss_control_pure_feedback():
    u = iss_control(np.zeros(3), np.eye(3), np.array([1.0, 0.0, 0.0]), k=1.0, delta=1.0)
    assert np.allclose(u, [-1.5, 0.0, 0.0], atol=1e-15)


def test_iss_control_combined():
    u = iss_control(np.ones(3), 2.0 * np.eye(3), np.array([0.1, 0.0, 0.0]),
                    k=2.0, delta=0.5)
    assert np.allclose(u, [-0.7, -0.5, -0.5], atol=1e-14)


def test_iss_control_singular_gate():
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularityError) as info:
        iss_control(np.zeros(2), singular, np.zeros(2), 1.0, 1.0)
    assert info.value.condition == math.inf
    nearly = np.array([[1.0, 0.0], [0.0, 1e-9]])
    with pytest.raises(SingularityError) as info:
        iss_control(np.zeros(2), nearly, np.zeros(2), 1.0, 1.0)
    assert info.value.condition > 1e6


def test_alpha_beta_command_zero_rate():
    c0 = feedback(2.0, 0.5)
    out = guidance_stage(c0, 3000.0, -300.0, 0.0, 0.0, (-2.0, 0.0, 0.0, 2.0))
    assert np.array_equal(out[:2], np.zeros(2))


def test_alpha_beta_command_scalar_structure():
    # Scalar factor 2 vr / r - 1/(2 delta0^2) - k0 = -52.2, then the inverse
    # of the diagonal input map.
    scalar = 2.0 * (-300.0) / 3000.0 - 0.5 / 0.1**2 - 2.0
    assert math.isclose(scalar, -52.2, rel_tol=1e-15)
    out = guidance_stage(feedback(2.0, 0.1), 3000.0, -300.0, 0.01, -0.02,
                         (-2.0, 0.0, 0.0, 2.0))
    assert np.allclose(out[:2], [0.261, 0.522], atol=1e-12)


@given(st.floats(0.001, 0.2), st.floats(0.001, 0.2))
def test_alpha_beta_command_linear_in_rate(x01, x02):
    gains = make_gains()
    c0 = feedback(gains.k0, gains.delta0)
    r, vr, theta_l, phi_l = 3000.0, -300.0, ENGAGEMENT["theta_l"], ENGAGEMENT["phi_l"]
    g = guidance_map(AeroConstants(make_cfg()), r,
                     los_rows(theta_l, phi_l, ENGAGEMENT["theta_v"], ENGAGEMENT["psi_v"]))
    base = guidance_stage(c0, r, vr, x01, x02, g)
    doubled = guidance_stage(c0, r, vr, 2.0 * x01, 2.0 * x02, g)
    assert np.allclose(doubled[:2], 2.0 * np.array(base[:2]), rtol=1e-12)


def test_rate_command_zero_error():
    identity = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    out = attitude_stage(feedback(10.0, 0.2), ZERO3, ZERO3, identity, ZERO3)
    assert np.array_equal(out[:3], np.zeros(3))


def test_rate_command_permutation_mixer():
    permutation = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    out = attitude_stage(feedback(5.0, 0.2), (0.1, 0.0, 0.0), ZERO3, permutation, ZERO3)
    assert np.allclose(out[:3], [-1.75, 0.0, 0.0], atol=1e-14)


@given(small_angles, small_angles, small_angles, small_angles,
       errors, errors, errors)
def test_rate_command_cancellation_identity(gamma, alpha, beta, pitch,
                                            e1, e2, e3):
    # Closed-form content of the stage: g1 x2* + f1 = -(k1 + 1/(2 d1^2)) eta1,
    # with g1 from the reference matrix.
    gains = make_gains()
    x1 = np.array([gamma, alpha, beta])
    eta1 = np.array([e1, e2, e3])
    drift = attitude_drift(AeroConstants(make_cfg()), alpha, beta)
    out = attitude_stage(feedback(gains.k1, gains.delta1), tuple(x1), tuple(x1 - eta1),
                         mixer(gamma, alpha, beta, pitch), drift)
    lhs = g1_matrix(gamma, alpha, beta, pitch) @ out[:3] + drift
    rhs = -(gains.k1 + 0.5 / gains.delta1**2) * eta1
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_fin_command_diagonal_case():
    cfg = AeroConfig(
        mass=1.0, thrust=0.0, speed=1.0, air_density=2.0, ref_area=1.0,
        ref_length=1.0, lift_slope=1.0, side_slope=1.0,
        roll_moment_fin=2.0, yaw_moment_beta=0.0, yaw_moment_fin=2.0,
        pitch_moment_alpha=0.0, pitch_moment_fin=2.0,
        inertia_x=1.0, inertia_y=1.0, inertia_z=1.0,
    )
    k = AeroConstants(cfg)
    assert np.array_equal(np.diag(k.fin_gain), 2.0 * np.eye(3))
    x2 = (0.1, 0.0, 0.0)
    fins = fin_stage(feedback(10.0, 0.2), x2, ZERO3, rate_drift(k, 0.0, 0.0, *x2),
                     fin_inverse(k.fin_gain))
    assert np.allclose(fins, [-1.125, 0.0, 0.0], atol=1e-14)


@given(small_angles, small_angles, st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-2, 2), errors, errors, errors)
def test_fin_command_cancellation_identity(alpha, beta, wx, wy, wz, e1, e2, e3):
    gains = make_gains()
    k = AeroConstants(make_cfg())
    x2 = np.array([wx, wy, wz])
    eta2 = np.array([e1, e2, e3])
    drift = rate_drift(k, alpha, beta, wx, wy, wz)
    fins = fin_stage(feedback(gains.k2, gains.delta2), tuple(x2), tuple(x2 - eta2), drift,
                     fin_inverse(k.fin_gain))
    lhs = np.diag(k.fin_gain) @ fins + drift
    rhs = -(gains.k2 + 0.5 / gains.delta2**2) * eta2
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_igc_step_quiescent(cfg, gains):
    state = make_state(x01=0.0, x02=0.0, **QUIET_ATTITUDE)
    fins, _, x2_cmd, _, _, _ = law(LawConstants(cfg, gains), state)
    assert np.array_equal(fins, np.zeros(3))
    assert np.array_equal(x2_cmd, np.zeros(3))


def test_igc_step_memoryless(cfg, gains):
    k, state = LawConstants(cfg, gains), make_state()
    fins_a, sharp_a, x2_cmd_a, _, _, _ = law(k, state)
    fins_b, sharp_b, x2_cmd_b, _, _, _ = law(k, state)
    assert fins_a == fins_b
    assert np.array_equal(x2_cmd_a, x2_cmd_b)
    assert np.array_equal(sharp_a, sharp_b)


def test_igc_step_error_definitions(cfg, gains):
    # The logged tracking errors are the state minus the law's commands,
    # the attitude command being (0, alpha_cmd, beta_cmd).
    state = make_state()
    log, _ = sim.run(make_scenario(initial=make_initial(**ENGAGEMENT, **ATTITUDE),
                                   t_max=0.0))
    _, x1_sharp, x2_cmd, _, _, _ = law(LawConstants(cfg, gains), state)
    assert np.array_equal(log.x1_sharp_cmd[0], x1_sharp)
    assert np.array_equal(log.eta1[0], np.array(state[8:11]) - np.array([0.0, *x1_sharp]))
    assert np.array_equal(log.eta2[0], np.array(state[11:14]) - np.array(x2_cmd))


@given(st.floats(-0.15, 0.15), st.floats(-0.15, 0.15),
       st.floats(-0.8, -0.1), st.floats(900.0, 5000.0))
def test_roll_command_identically_zero(x01, x02, theta_v, r):
    # Skid-to-turn: the rate command tracks a zero roll command for every
    # state.
    k = LawConstants(make_cfg(), make_gains())
    state = make_state(x01=x01, x02=x02, theta_v=theta_v, r=r)
    _, (alpha_cmd, beta_cmd), x2_cmd, _, _, _ = law(k, state)
    gamma, alpha, beta = state[8:11]
    tracked = attitude_stage(k.c1, (gamma, alpha, beta), (0.0, alpha_cmd, beta_cmd),
                             mixer(gamma, alpha, beta, state[14]),
                             attitude_drift(k, alpha, beta))
    assert x2_cmd == tracked[:3]


def test_igc_step_saturation(cfg, gains):
    state = make_state()
    fins_free, _, _, saturated_free, _, _ = law(LawConstants(cfg, gains), state)
    assert not saturated_free
    limit = 0.5 * max(abs(v) for v in fins_free)
    fins, _, _, saturated, _, _ = law(LawConstants(cfg, gains, delta_max=limit), state)
    assert saturated
    assert max(abs(v) for v in fins) <= limit


def test_igc_step_singularity_stages(cfg, gains):
    k = LawConstants(cfg, gains)
    orthogonal = make_state(theta_v=0.0, psi_v=ENGAGEMENT["phi_l"])
    with pytest.raises(SingularityError, match="guidance"):
        law(k, orthogonal)
    vertical = make_state(pitch=math.pi / 2 - 1e-9)
    with pytest.raises(SingularityError, match="rate") as info:
        law(k, vertical)
    assert info.value.condition >= COND_LIMIT
    weak_roll_fin = LawConstants(make_cfg(roll_moment_fin=-1e-7), gains)
    with pytest.raises(SingularityError, match="^fin: matrix condition estimate"):
        law(weak_roll_fin, make_state())


# Relative tolerance between igc.law and _iss_reference_law.  Both invert
# each stage's map in a backward-stable way, so they agree to within about
# cond * eps, and the gate keeps cond below COND_LIMIT = 1e6: cond * eps is
# at most 2.2e-10.  Over 2e5 random in-envelope states the worst relative
# difference was 1.1e-11, at cond(g1) = 4e5.
LAW_RTOL = 1e-9


def _iss_stage(stage, f, g, x, k, delta):
    # igc.iss_control, its gate's error renamed to the law's stage.
    try:
        return iss_control(f, g, x, k, delta)
    except SingularityError as exc:
        raise SingularityError(stage, exc.condition) from None


def _iss_reference_law(k, gains, y):
    # An independent writing of igc.law: each stage is the numpy ISS primitive
    # igc.iss_control (np.linalg.inv and the Frobenius condition of its
    # result) on the stage's drift, input map and error, then the fin clamp.
    # Returns law's tuple, the vectors as arrays.
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    g0 = np.reshape(guidance_map(k, r, los_rows(theta_l, phi_l, theta_v, psi_v)), (2, 2))
    x0 = np.array([x01, x02])
    x1_sharp = _iss_stage("guidance", -2.0 * vr / r * x0, g0, x0, gains.k0, gains.delta0)
    g1 = g1_matrix(gamma, alpha, beta, pitch)
    eta1 = np.array([gamma, alpha, beta]) - np.array([0.0, *x1_sharp])
    x2_cmd = _iss_stage("rate", attitude_drift(k, alpha, beta), g1, eta1, gains.k1, gains.delta1)
    eta2 = np.array([wx, wy, wz]) - x2_cmd
    fins = _iss_stage("fin", rate_drift(k, alpha, beta, wx, wy, wz), np.diag(k.fin_gain), eta2,
                      gains.k2, gains.delta2)
    saturated = False
    if k.delta_max is not None:
        clipped = np.clip(fins, -k.delta_max, k.delta_max)
        saturated, fins = bool(np.any(clipped != fins)), clipped
    return (fins, x1_sharp, x2_cmd, saturated,
            np.linalg.cond(g0, "fro"), np.linalg.cond(g1, "fro"))


@given(y=IN_ENVELOPE, delta_max=st.sampled_from([None, 1e-3]), roll_moment_fin=st.just(-5.0))
# LOS orthogonal to the velocity: the guidance map's geometry gate.
@example(y=make_state(theta_v=0.0, psi_v=ENGAGEMENT["phi_l"]), delta_max=None,
         roll_moment_fin=-5.0)
# Pitch next to vertical: a rate-stage condition past COND_LIMIT.
@example(y=make_state(pitch=math.pi / 2 - 1e-9), delta_max=1e-3, roll_moment_fin=-5.0)
# A roll fin moment too weak for the fin map's gate.
@example(y=make_state(), delta_max=None, roll_moment_fin=-1e-7)
def test_law_equals_stage_composition(y, delta_max, roll_moment_fin):
    # The law's closed-form stages equal the numpy ISS primitive stage by
    # stage within LAW_RTOL, and a failing gate fails in the same stage,
    # with the same condition within LAW_RTOL.
    gains = make_gains()
    k = LawConstants(make_cfg(roll_moment_fin=roll_moment_fin), gains, delta_max=delta_max)
    y = list(y)
    try:
        reference = _iss_reference_law(k, gains, y)
    except SingularityError as exc:
        with pytest.raises(SingularityError) as info:
            law(k, y)
        assert info.value.stage == exc.stage
        assert info.value.condition == pytest.approx(exc.condition, rel=LAW_RTOL)
        return
    got = law(k, y)
    assert got[3] == reference[3]  # saturated
    for value, expected in zip(got[:3] + got[4:], reference[:3] + reference[4:]):
        assert np.linalg.norm(np.subtract(value, expected)) <= LAW_RTOL * np.linalg.norm(expected)
