"""Fixed-step closed-loop simulation of the 15-state engagement.

State order: (r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v,
gamma, alpha, beta, omega_x, omega_y, omega_z, pitch).  The fin command is
computed once per step and held across the integrator substeps by default;
re-evaluating it inside substeps is a scenario toggle for convergence
studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import airframe, engagement, frames, igc
from .airframe import AeroConfig, AttitudeState, FinDeflections
from .engagement import DisturbanceModel, EngagementState, EvaderModel
from .errors import GuardError, SingularityError
from .igc import Gains

STATE_FIELDS = (
    "r", "vr", "theta_l", "phi_l", "x01", "x02", "theta_v", "psi_v",
    "gamma", "alpha", "beta", "omega_x", "omega_y", "omega_z", "pitch",
)

OUTCOME_INTERCEPT = "intercept"
OUTCOME_MISS = "miss"
OUTCOME_GUARD = "guard-breach"
OUTCOME_TIMEOUT = "timeout"


@dataclass(frozen=True)
class FullState:
    """Engagement plus attitude state at a point in time."""

    engagement: EngagementState
    attitude: AttitudeState
    t: float = 0.0

    def as_array(self) -> np.ndarray:
        e, a = self.engagement, self.attitude
        return np.array([
            e.r, e.vr, e.theta_l, e.phi_l, e.x01, e.x02, e.theta_v, e.psi_v,
            a.gamma, a.alpha, a.beta, a.omega_x, a.omega_y, a.omega_z, a.pitch,
        ])

    @classmethod
    def from_array(cls, values, t: float) -> "FullState":
        v = [float(x) for x in values]
        return cls(
            engagement=EngagementState(*v[:8]),
            attitude=AttitudeState(*v[8:15]),
            t=t,
        )


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: plant constants, gains, initial state, inputs."""

    cfg: AeroConfig
    gains: Gains
    initial: FullState
    evader: EvaderModel = EvaderModel()
    disturbances: DisturbanceModel = DisturbanceModel()
    dt: float = 1e-3             # [s]
    t_max: float = 20.0          # [s]
    r_intercept: float = 1.0     # [m], range at which interception is declared
    r_min: float = 1.0           # [m], assumed lower range bound for analysis
    r_max: float = 1e5           # [m], assumed upper range bound for analysis
    plant_mode: str = "trig"     # force model of the truth plant
    delta_max: float | None = None   # optional symmetric fin limit [rad]
    divergence_factor: float = 1.5   # miss once r exceeds this times the initial range while opening
    control_update: str = "hold"     # 'hold' or 'substep'

    def validate(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"sim.dt: must be > 0, got {self.dt!r}")
        if not self.t_max >= 0.0:
            raise ValueError(f"sim.t_max: must be >= 0, got {self.t_max!r}")
        if not self.r_intercept > 0.0:
            raise ValueError(f"sim.r_intercept: must be > 0, got {self.r_intercept!r}")
        if not 0.0 < self.r_min < self.initial.engagement.r < self.r_max:
            raise ValueError(
                "sim.r_min/sim.r_max: need 0 < r_min < initial range < r_max, got "
                f"r_min={self.r_min!r}, r={self.initial.engagement.r!r}, r_max={self.r_max!r}"
            )
        if self.plant_mode not in ("trig", "linear"):
            raise ValueError(f"sim.plant_mode: must be trig or linear, got {self.plant_mode!r}")
        if self.control_update not in ("hold", "substep"):
            raise ValueError(f"sim.control_update: must be hold or substep, got {self.control_update!r}")
        if self.delta_max is not None and not self.delta_max > 0.0:
            raise ValueError(f"sim.delta_max: must be > 0, got {self.delta_max!r}")
        if not self.divergence_factor > 1.0:
            raise ValueError(f"sim.divergence_factor: must be > 1, got {self.divergence_factor!r}")


@dataclass(frozen=True, eq=False)
class SimLog:
    """Column-oriented per-step record of a run."""

    t: np.ndarray
    states: np.ndarray       # (n, 15) in STATE_FIELDS order
    fins: np.ndarray         # (n, 3)
    x1_sharp_cmd: np.ndarray  # (n, 2) commanded (attack, sideslip)
    x2_cmd: np.ndarray       # (n, 3) commanded body rates
    rate_dist: np.ndarray    # (n, 3) attitude-rate disturbance samples
    accel_dist: np.ndarray   # (n, 3) body-rate disturbance samples
    lift_dist: np.ndarray    # (n,) lift force disturbance samples
    side_dist: np.ndarray    # (n,) side force disturbance samples
    evader: np.ndarray       # (n, 3) evader acceleration samples
    saturated: np.ndarray    # (n,) bool

    def __len__(self) -> int:
        return self.t.shape[0]

    def __getattr__(self, name: str) -> np.ndarray:
        if name in STATE_FIELDS:
            return self.states[:, STATE_FIELDS.index(name)]
        raise AttributeError(name)

    @property
    def omega(self) -> np.ndarray:
        return self.states[:, 11:14]

    @property
    def alpha_cmd(self) -> np.ndarray:
        return self.x1_sharp_cmd[:, 0]

    @property
    def beta_cmd(self) -> np.ndarray:
        return self.x1_sharp_cmd[:, 1]

    @property
    def x0_norm(self) -> np.ndarray:
        return np.hypot(self.x01, self.x02)

    @property
    def eta1(self) -> np.ndarray:
        return np.stack(
            [self.gamma, self.alpha - self.alpha_cmd, self.beta - self.beta_cmd],
            axis=-1,
        )

    @property
    def eta2(self) -> np.ndarray:
        return self.omega - self.x2_cmd

    @property
    def eta1_norm(self) -> np.ndarray:
        return np.linalg.norm(self.eta1, axis=-1)

    @property
    def eta2_norm(self) -> np.ndarray:
        return np.linalg.norm(self.eta2, axis=-1)


@dataclass(frozen=True)
class SimSummary:
    """Outcome and headline measures of a run."""

    outcome: str
    final_r: float
    flight_time: float
    miss_distance: float
    post_transient_sup_x0: float
    steps: int
    message: str = ""
    audit_violations: tuple[int, int, int] | None = None


def rk4_step(deriv, y, t: float, dt: float):
    """Classical fourth-order Runge-Kutta update for dy/dt = deriv(t, y)."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    k1 = deriv(t, y)
    k2 = deriv(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = deriv(t + dt, y + dt * k3)
    y_next = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(y_next)):
        raise GuardError(f"non-finite state produced by integrator step at t={t:.6g}")
    return y_next


class Kernel(igc.LawConstants):
    """Per-run constants of a scenario: the law's, plus the plant mode and the
    exogenous signal generators the derivative samples."""

    __slots__ = ("trig", "rate", "accel", "lift", "side", "evader")

    def __init__(self, scenario: Scenario):
        super().__init__(scenario.cfg, scenario.gains, delta_max=scenario.delta_max)
        self.trig = scenario.plant_mode == "trig"
        d = scenario.disturbances
        self.rate, self.accel, self.lift, self.side = d.rate, d.accel, d.lift, d.side
        self.evader = scenario.evader


def check_full_state(y) -> None:
    """The FullState guards on the 15 floats of a state, in the same order."""
    engagement.check_state(*y[:8])
    airframe.check_attitude(*y[8:])


def derivative(k: Kernel, t: float, y, fins=None) -> list[float]:
    """Derivative of the 15-state closed loop as a list of floats.

    With ``fins`` (a float triple) the control is held; otherwise the
    cascade is evaluated at ``y``.
    """
    check_full_state(y)
    if fins is None:
        fins = igc.law(k, y)[0]
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    a_theta, a_psi = airframe.accels(k, alpha, beta, k.lift.value(t), k.side.value(t), k.trig)
    accel_p = frames.los_accel(theta_l, phi_l, theta_v, psi_v, 0.0, a_theta, a_psi)
    rel = engagement.relative_rates(r, vr, theta_l, x01, x02, accel_p, k.evader.sample(t))
    tv_dot, pv_dot = engagement.velocity_angle_derivatives(a_theta, a_psi, k, theta_v)
    att = airframe.attitude_rates(k, gamma, alpha, beta, wx, wy, wz, pitch, fins,
                                  k.rate.sample(t), k.accel.sample(t))
    return [*rel, tv_dot, pv_dot, *att]


def closed_loop_derivative(state: FullState, scenario: Scenario,
                           fins: FinDeflections | None = None) -> np.ndarray:
    """Derivative of the 15-state closed loop at ``state``.

    With ``fins`` given the control is treated as held; otherwise the
    cascade is evaluated at the current state.
    """
    held = None if fins is None else (fins.delta_x, fins.delta_y, fins.delta_z)
    return np.array(derivative(Kernel(scenario), state.t, state.as_array().tolist(), held))


def _post_transient_sup_x0(t: np.ndarray, x0_norm: np.ndarray) -> float:
    """Supremum of the LOS-rate norm over the final 20% of the flight."""
    window = t >= 0.8 * t[-1]
    return float(x0_norm[window].max())


def _miss_distance(log: SimLog) -> float:
    """Final range, refined by linear interpolation across the last step
    when the range rate changed sign inside it."""
    r = log.r
    if len(log) < 2:
        return float(r[-1])
    vr0, vr1 = log.vr[-2], log.vr[-1]
    if vr0 < 0.0 <= vr1:
        w = vr0 / (vr0 - vr1)
        return float(r[-2] + w * (r[-1] - r[-2]))
    return float(r[-1])


# Per-step log row layout: (SimLog field, width).  Rows are written into one
# float table that doubles when full; it is never sized from t_max, which
# may be far longer than the flight.
_LOG_LAYOUT = (
    ("t", 1), ("states", 15), ("fins", 3), ("x1_sharp_cmd", 2), ("x2_cmd", 3),
    ("rate_dist", 3), ("accel_dist", 3), ("lift_dist", 1), ("side_dist", 1),
    ("evader", 3), ("saturated", 1),
)
_LOG_WIDTH = sum(width for _, width in _LOG_LAYOUT)
_LOG_BLOCK = 1024


def _sim_log(table: np.ndarray) -> SimLog:
    columns, start = {}, 0
    for name, width in _LOG_LAYOUT:
        block = table[:, start:start + width]
        columns[name] = np.array(block[:, 0] if width == 1 else block)
        start += width
    columns["saturated"] = columns["saturated"].astype(bool)
    return SimLog(**columns)


def run(scenario: Scenario) -> tuple[SimLog, SimSummary]:
    """Integrate the closed loop until intercept, miss, guard breach, or timeout."""
    scenario.validate()
    dt = scenario.dt
    r0 = scenario.initial.engagement.r
    hold = scenario.control_update == "hold"
    k = Kernel(scenario)

    table = np.empty((_LOG_BLOCK, _LOG_WIDTH))
    n = 0  # logged rows, which is also the index of the current step

    y = scenario.initial.as_array()
    outcome, message = OUTCOME_TIMEOUT, ""
    while True:
        t = n * dt
        state = y.tolist()
        check_full_state(state)
        try:
            fins, x1_sharp, x2_cmd, saturated, _, _ = igc.law(k, state)
        except (GuardError, SingularityError) as exc:
            outcome, message = OUTCOME_GUARD, f"t={t:.6g}: {exc}"
            break

        if n == table.shape[0]:
            table = np.concatenate((table, np.empty_like(table)))
        table[n] = (t, *state, *fins, *x1_sharp, *x2_cmd, *k.rate.sample(t),
                    *k.accel.sample(t), k.lift.value(t), k.side.value(t),
                    *k.evader.sample(t), saturated)
        n += 1

        r, vr = state[0], state[1]
        if r <= scenario.r_intercept:
            outcome, message = OUTCOME_INTERCEPT, ""
            break
        if vr > 0.0 and r > scenario.divergence_factor * r0:
            outcome, message = OUTCOME_MISS, f"range opened past {scenario.divergence_factor:g} x initial"
            break
        if t >= scenario.t_max - 0.5 * dt:
            outcome, message = OUTCOME_TIMEOUT, ""
            break

        held = fins if hold else None
        try:
            y = rk4_step(lambda tt, yy: np.array(derivative(k, tt, yy.tolist(), held)),
                         y, t, dt)
        except (GuardError, SingularityError) as exc:
            outcome, message = OUTCOME_GUARD, f"t={t:.6g}: {exc}"
            break

    log = _sim_log(table[:n])
    if len(log) > 0:
        summary = SimSummary(
            outcome=outcome,
            final_r=float(log.r[-1]),
            flight_time=float(log.t[-1]),
            miss_distance=_miss_distance(log),
            post_transient_sup_x0=_post_transient_sup_x0(log.t, log.x0_norm),
            steps=len(log),
            message=message,
        )
    else:
        e = scenario.initial.engagement
        summary = SimSummary(outcome=outcome, final_r=e.r, flight_time=0.0,
                             miss_distance=e.r, post_transient_sup_x0=float("nan"),
                             steps=0, message=message)
    return log, summary


@dataclass(frozen=True)
class SweepPoint:
    """Result of one grid point of a gain sweep."""

    gains: Gains
    summary: SimSummary | None
    error: str = ""


def sweep(scenario: Scenario, grid) -> list[SweepPoint]:
    """Run the scenario once per gain set, identical inputs at every point.

    Per-point failures are recorded and the sweep continues.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    points = []
    for gains in grid:
        try:
            _, summary = run(replace(scenario, gains=gains))
            points.append(SweepPoint(gains=gains, summary=summary))
        except Exception as exc:  # per-point isolation is the contract
            points.append(SweepPoint(gains=gains, summary=None, error=str(exc)))
    return points


def trim_attitude_to_commands(scenario: Scenario) -> Scenario:
    """Scenario copy whose initial attitude sits on the command manifold.

    Sets (roll, attack, sideslip) to the initial attitude command and the
    body rates to the resulting rate command, so both tracking errors start
    at zero.
    """
    eng = scenario.initial.engagement
    g0_matrix = engagement.g0(eng, scenario.cfg)
    x1_sharp = igc.alpha_beta_command(eng, g0_matrix, scenario.gains)
    x1_cmd = np.array([0.0, x1_sharp[0], x1_sharp[1]])
    f1_vector = airframe.f1(x1_cmd, scenario.cfg)
    g1_matrix = airframe.g1(scenario.initial.attitude.pitch, x1_cmd)
    x2_cmd = igc.rate_command(x1_cmd, x1_cmd, g1_matrix, f1_vector, scenario.gains)
    attitude = AttitudeState(
        gamma=0.0, alpha=float(x1_cmd[1]), beta=float(x1_cmd[2]),
        omega_x=float(x2_cmd[0]), omega_y=float(x2_cmd[1]), omega_z=float(x2_cmd[2]),
        pitch=scenario.initial.attitude.pitch,
    )
    initial = replace(scenario.initial, attitude=attitude)
    return replace(scenario, initial=initial)
