import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from igcsim.airframe import AeroConfig
from igcsim.igc import Gains
from igcsim.sim import GUARD, STATE_FIELDS, Scenario

settings.register_profile("package", deadline=None)
settings.load_profile("package")

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"

_BAND = st.floats(-GUARD, GUARD)
_TURN = st.floats(-math.pi, math.pi)
_RATE = st.floats(-2.0, 2.0)
# States inside the flight envelope, as 15-float tuples in STATE_FIELDS order.
IN_ENVELOPE = st.tuples(
    st.floats(1.0, 1e4), st.floats(-1e3, 1e3), _BAND, _TURN, _RATE, _RATE, _BAND, _TURN,
    _TURN, st.floats(-1.0, 1.0), _BAND, _RATE, _RATE, _RATE, _BAND)


def make_cfg(**overrides) -> AeroConfig:
    values = dict(
        mass=100.0, thrust=2000.0, speed=600.0, air_density=1.0,
        ref_area=0.05, ref_length=1.0, lift_slope=40.0, side_slope=-40.0,
        roll_moment_fin=-5.0, yaw_moment_beta=-10.0, yaw_moment_fin=-15.0,
        pitch_moment_alpha=-10.0, pitch_moment_fin=-15.0,
        inertia_x=10.0, inertia_y=50.0, inertia_z=50.0,
    )
    values.update(overrides)
    return AeroConfig(**values)


def make_gains(**overrides) -> Gains:
    values = dict(k0=2.0, k1=10.0, k2=20.0, delta0=0.5, delta1=0.2, delta2=0.2)
    values.update(overrides)
    return Gains(**values)


def make_initial(**overrides) -> tuple[float, ...]:
    """The 15 floats of an initial state, in STATE_FIELDS order."""
    values = dict(r=4000.0, vr=-500.0, theta_l=0.2, phi_l=0.3,
                  x01=0.012, x02=-0.015,
                  theta_v=0.24, psi_v=0.3 - math.pi / 2 + 0.05,
                  gamma=0.0, alpha=0.02, beta=-0.02,
                  omega_x=0.0, omega_y=0.0, omega_z=0.0, pitch=0.26)
    assert overrides.keys() <= values.keys(), overrides.keys() - values.keys()
    values.update(overrides)
    return tuple(values[name] for name in STATE_FIELDS)


def g1_matrix(gamma, alpha, beta, pitch) -> np.ndarray:
    """Reference body-rate-to-attitude-rate mixing matrix g1, its tangents
    taken as sin/cos."""
    tp = math.sin(pitch) / math.cos(pitch)
    tb = math.sin(beta) / math.cos(beta)
    return np.array([[1.0, -tp * math.cos(gamma), tp * math.sin(gamma)],
                     [-tb * math.cos(alpha), math.sin(alpha) * tb, 1.0],
                     [math.sin(alpha), math.cos(alpha), 0.0]])


def make_scenario(**overrides) -> Scenario:
    values = dict(
        cfg=make_cfg(), gains=make_gains(), initial=make_initial(),
        dt=1e-3, t_max=15.0, r_intercept=1.0, r_min=500.0, r_max=10000.0,
        plant_mode="linear",
    )
    values.update(overrides)
    return Scenario(**values)


@pytest.fixture
def cfg() -> AeroConfig:
    return make_cfg()


@pytest.fixture
def gains() -> Gains:
    return make_gains()


@pytest.fixture
def scenario() -> Scenario:
    return make_scenario()
