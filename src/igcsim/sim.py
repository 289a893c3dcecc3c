"""Fixed-step closed-loop simulation of the 15-state engagement.

State order: (r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v,
gamma, alpha, beta, omega_x, omega_y, omega_z, pitch).  The fin command is
computed once per step and held across the integrator substeps by default;
re-evaluating it inside substeps is a scenario toggle for convergence
studies.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import airframe, engagement, frames, igc
from .airframe import AeroConfig
from .engagement import DisturbanceModel, EvaderModel
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

# Flight envelope of the plant model on |theta_l|, |theta_v|, |beta| and
# |pitch| [rad]: tan() and 1/cos() of these angles blow up toward pi/2, so
# past this band the model terms are meaningless and integration aborts
# rather than emitting garbage.
GUARD = 1.2
# The variables GUARD bounds: (name in messages, index in STATE_FIELDS).
_BANDED = (("LOS elevation", 2), ("velocity elevation", 6), ("sideslip", 10), ("pitch", 14))


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: plant constants, gains, initial state, inputs."""

    cfg: AeroConfig
    gains: Gains
    initial: tuple[float, ...]   # the 15 state floats, in STATE_FIELDS order
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
        if len(self.initial) != len(STATE_FIELDS):
            raise ValueError(f"initial: need {len(STATE_FIELDS)} floats in STATE_FIELDS order, "
                             f"got {len(self.initial)}")
        try:
            check_envelope(self.initial)
        except GuardError as exc:
            raise ValueError(f"initial: {exc}") from None
        if not self.dt > 0.0:
            raise ValueError(f"sim.dt: must be > 0, got {self.dt!r}")
        if not self.t_max >= 0.0:
            raise ValueError(f"sim.t_max: must be >= 0, got {self.t_max!r}")
        if not self.r_intercept > 0.0:
            raise ValueError(f"sim.r_intercept: must be > 0, got {self.r_intercept!r}")
        if not 0.0 < self.r_min < self.initial[0] < self.r_max:
            raise ValueError(
                "sim.r_min/sim.r_max: need 0 < r_min < initial range < r_max, got "
                f"r_min={self.r_min!r}, r={self.initial[0]!r}, r_max={self.r_max!r}"
            )
        if self.plant_mode not in ("trig", "linear"):
            raise ValueError(f"sim.plant_mode: must be trig or linear, got {self.plant_mode!r}")
        if self.control_update not in ("hold", "substep"):
            raise ValueError(f"sim.control_update: must be hold or substep, got {self.control_update!r}")
        if self.delta_max is not None and not self.delta_max > 0.0:
            raise ValueError(f"sim.delta_max: must be > 0, got {self.delta_max!r}")
        if not self.divergence_factor > 1.0:
            raise ValueError(f"sim.divergence_factor: must be > 1, got {self.divergence_factor!r}")
        # RK4 samples the signals up to t_max + dt at the latest; a sine
        # argument that overflows there would end the run inside math.sin.
        last, d = self.t_max + self.dt, self.disturbances
        for key, signal in (("evader.", self.evader), ("disturbance.rate_", d.rate),
                            ("disturbance.accel_", d.accel), ("disturbance.lift_", d.lift),
                            ("disturbance.side_", d.side)):
            if (signal.kind in ("weave", "sinusoid")
                    and not math.isfinite(signal.frequency * last + signal.phase)):
                raise ValueError(
                    f"{key}frequency: frequency * (t_max + dt) + phase must be finite, "
                    f"got frequency={signal.frequency!r}, phase={signal.phase!r}, "
                    f"t_max={self.t_max!r}")

    def signals(self, t: float) -> tuple:
        """The exogenous inputs at time ``t``, (rate, accel, lift, side, evader):
        the one sampler of both the plant derivative and :func:`inputs`."""
        d = self.disturbances
        return (d.rate.sample(t), d.accel.sample(t), d.lift.value(t), d.side.value(t),
                self.evader.sample(t))


# Per-step log row layout, in row order: (block, width), the one declaration
# of the log.  Rows are written into one float table that doubles when full;
# it is never sized from t_max, which may be far longer than the flight.
_LOG_LAYOUT = (("t", 1), ("states", 15), ("fins", 3), ("x1_sharp_cmd", 2), ("x2_cmd", 3),
               ("saturated", 1))
_LOG_BLOCK = 1024


def _log_columns() -> tuple[dict[str, int | slice], int]:
    """Column or column slice of every named view of the log, and its width."""
    columns, start = {}, 0
    for name, width in _LOG_LAYOUT:
        columns[name] = start if width == 1 else slice(start, start + width)
        start += width
    for block, names in (("states", STATE_FIELDS), ("x1_sharp_cmd", ("alpha_cmd", "beta_cmd"))):
        columns.update(zip(names, range(columns[block].start, columns[block].stop)))
    columns["x1"] = slice(columns["gamma"], columns["beta"] + 1)
    columns["omega"] = slice(columns["omega_x"], columns["omega_z"] + 1)
    return columns, start


_COLUMNS, LOG_WIDTH = _log_columns()


@dataclass(frozen=True, eq=False)
class SimLog:
    """Per-step record of a run: its (n, LOG_WIDTH) step table.  Each layout
    block, each STATE_FIELDS name, ``x1`` (roll, attack, sideslip), ``omega``,
    ``alpha_cmd`` and ``beta_cmd`` read as views of the table by name.  The
    exogenous inputs are not logged; :func:`inputs` samples them."""

    table: np.ndarray

    def __len__(self) -> int:
        return self.table.shape[0]

    def __getattr__(self, name: str) -> np.ndarray:
        column = _COLUMNS.get(name)
        if column is None:
            raise AttributeError(name)
        return self.table[:, column]

    @property
    def saturated(self) -> np.ndarray:
        """(n,) bool: the fin limit clamped the command at that step."""
        return self.table[:, _COLUMNS["saturated"]] != 0.0

    @property
    def x1_cmd(self) -> np.ndarray:
        """(n, 3) commanded (roll, attack, sideslip); roll is commanded to zero."""
        return np.column_stack([np.zeros(len(self)), self.x1_sharp_cmd])

    @property
    def x0_norm(self) -> np.ndarray:
        return np.hypot(self.x01, self.x02)

    @property
    def eta1(self) -> np.ndarray:
        return self.x1 - self.x1_cmd

    @property
    def eta2(self) -> np.ndarray:
        return self.omega - self.x2_cmd

    # A run whose commands overflow logs values whose squares are inf; the
    # norm is then inf, which needs no warning.
    @property
    def eta1_norm(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.linalg.norm(self.eta1, axis=-1)

    @property
    def eta2_norm(self) -> np.ndarray:
        with np.errstate(over="ignore"):
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


def _rk4(deriv, at, y: list[float], t: float, dt: float) -> list[float]:
    """One classical RK4 step of dy/dt = deriv(at(t), y) over a float list: the
    package's one tableau.  ``at`` maps a stage time to deriv's first argument
    and is called once per distinct time, so both midpoint stages share it."""
    h = 0.5 * dt
    k1 = deriv(at(t), y)
    mid = at(t + h)
    k2 = deriv(mid, [a + h * b for a, b in zip(y, k1)])
    k3 = deriv(mid, [a + h * b for a, b in zip(y, k2)])
    k4 = deriv(at(t + dt), [a + dt * b for a, b in zip(y, k3)])
    c = dt / 6.0
    y_next = [a + c * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
              for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y_next)):
        raise GuardError(f"non-finite state produced by integrator step at t={t:.6g}")
    return y_next


def rk4_step(deriv, y, t: float, dt: float):
    """Classical fourth-order Runge-Kutta update for dy/dt = deriv(t, y) on a
    float or an array: the numpy-facing adapter over :func:`_rk4`."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    shape = np.shape(y)

    def flat(tt, yy):  # [()] turns a 0-d array back into a scalar
        return np.ravel(deriv(tt, np.reshape(yy, shape)[()])).tolist()

    return np.reshape(_rk4(flat, lambda tt: tt, np.ravel(y).tolist(), t, dt), shape)[()]


class Kernel(igc.LawConstants):
    """Per-run constants of a scenario: the law's, plus the plant mode."""

    __slots__ = ("trig",)

    def __init__(self, scenario: Scenario):
        super().__init__(scenario.cfg, scenario.gains, delta_max=scenario.delta_max)
        self.trig = scenario.plant_mode == "trig"


def check_envelope(y) -> None:
    """Raise GuardError naming the first variable of the 15-float state ``y``
    that leaves the flight envelope: every entry finite, the range positive,
    and |theta_l|, |theta_v|, |beta|, |pitch| within GUARD."""
    if not all(map(math.isfinite, y)):
        for name, value in zip(STATE_FIELDS, y):
            if not math.isfinite(value):
                raise GuardError(f"{name} {value} must be finite")
    if y[0] <= 0.0:
        raise GuardError(f"range {y[0]:.6g} must be positive")
    for label, i in _BANDED:
        if abs(y[i]) > GUARD:
            raise GuardError(f"{label} {y[i]:.4g} breached guard {GUARD}")


def derivative(k: Kernel, u: tuple, y, fins=None) -> list[float]:
    """Derivative of the 15-state closed loop as a list of floats, under the
    exogenous inputs ``u`` (:meth:`Scenario.signals` at the time).  With
    ``fins`` (a float triple) the control is held; otherwise the cascade is
    evaluated at ``y``."""
    check_envelope(y)
    if fins is None:
        fins = igc.law(k, y)[0]
    rate, accel, lift, side, evader = u
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    a_theta, a_psi = airframe.accels(k, alpha, beta, lift, side, k.trig)
    accel_p = frames.los_accel(theta_l, phi_l, theta_v, psi_v, 0.0, a_theta, a_psi)
    rel = engagement.relative_rates(r, vr, theta_l, x01, x02, accel_p, evader)
    tv_dot, pv_dot = engagement.velocity_angle_derivatives(a_theta, a_psi, k, theta_v)
    att = airframe.attitude_rates(k, gamma, alpha, beta, wx, wy, wz, pitch, fins, rate, accel)
    return [*rel, tv_dot, pv_dot, *att]


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


def inputs(scenario: Scenario, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """:meth:`Scenario.signals` at the times ``t``: (rate (n, 3), accel (n, 3),
    lift (n,), side (n,), evader (n, 3)).  At a log's ``t`` these are, bit for
    bit, the inputs the run saw at its logged steps."""
    out = np.empty((len(t), 11))
    for row, ti in zip(out, t.tolist()):
        rate, accel, lift, side, evader = scenario.signals(ti)
        row[:] = (*rate, *accel, lift, side, *evader)
    return out[:, 0:3], out[:, 3:6], out[:, 6], out[:, 7], out[:, 8:11]


def run(scenario: Scenario) -> tuple[SimLog, SimSummary]:
    """Integrate the closed loop until intercept, miss, guard breach, or timeout."""
    scenario.validate()
    dt = scenario.dt
    r0 = scenario.initial[0]
    hold = scenario.control_update == "hold"
    k = Kernel(scenario)

    table = np.empty((_LOG_BLOCK, LOG_WIDTH))
    n = 0  # logged rows, which is also the index of the current step

    y = list(scenario.initial)
    outcome, message = None, ""
    while outcome is None:
        t = n * dt
        try:
            check_envelope(y)
            fins, x1_sharp, x2_cmd, saturated, _, _ = igc.law(k, y)
            if n == table.shape[0]:
                table = np.concatenate((table, np.empty_like(table)))
            table[n] = (t, *y, *fins, *x1_sharp, *x2_cmd, saturated)  # _LOG_LAYOUT order
            n += 1

            r, vr = y[0], y[1]
            if r <= scenario.r_intercept:
                outcome = OUTCOME_INTERCEPT
            elif vr > 0.0 and r > scenario.divergence_factor * r0:
                outcome, message = OUTCOME_MISS, f"range opened past {scenario.divergence_factor:g} x initial"
            elif t >= scenario.t_max - 0.5 * dt:
                outcome = OUTCOME_TIMEOUT
            else:
                held = fins if hold else None
                y = _rk4(lambda u, yy: derivative(k, u, yy, held), scenario.signals, y, t, dt)
        except (GuardError, SingularityError) as exc:
            outcome, message = OUTCOME_GUARD, f"t={t:.6g}: {exc}"

    log = SimLog(table[:n])
    if len(log) > 0:
        post_transient = log.t >= 0.8 * log.t[-1]  # the final 20% of the flight
        summary = SimSummary(
            outcome=outcome,
            final_r=float(log.r[-1]),
            flight_time=float(log.t[-1]),
            miss_distance=_miss_distance(log),
            post_transient_sup_x0=float(log.x0_norm[post_transient].max()),
            steps=len(log),
            message=message,
        )
    else:
        summary = SimSummary(outcome=outcome, final_r=r0, flight_time=0.0,
                             miss_distance=r0, post_transient_sup_x0=float("nan"),
                             steps=0, message=message)
    return log, summary


@dataclass(frozen=True)
class SweepPoint:
    """Result of one grid point of a gain sweep."""

    gains: Gains
    summary: SimSummary | None
    error: str = ""


# The error of a sweep point whose worker process died before returning it.
WORKER_LOST = "worker process ended before this point finished"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def map_points(fn, items) -> list:
    """``[fn(item) for item in items]``, in item order, computed in forked
    worker processes: one per usable CPU and at most one per item.  With a
    single worker, or where ``fork`` is not available, the items run here,
    one after another.  An exception ``fn`` raises propagates; the result of
    an item whose worker process ended before it finished reads None.  ``fn``
    and the items must pickle, and so must the results."""
    items = list(items)
    workers = min(len(items), _usable_cpus())
    if workers >= 2:
        # Imported here, not at module top: every process that never sweeps,
        # such as each `igcsim run`, would pay about 30 ms of start-up.
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            # fork, not spawn: a spawned worker imports igcsim afresh, about
            # 160 ms each.  The pool forks its workers before it starts its
            # own threads.
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                # One future per item, not pool.map: map stops at the first
                # lost item and drops the finished items after it.
                futures = [pool.submit(fn, item) for item in items]
                results = []
                for future in futures:
                    try:
                        results.append(future.result())
                    except BrokenProcessPool:
                        results.append(None)
                return results
    return [fn(item) for item in items]


def _sweep_point(scenario: Scenario, gains) -> SweepPoint:
    try:
        _, summary = run(replace(scenario, gains=gains))
        return SweepPoint(gains=gains, summary=summary)
    except Exception as exc:  # per-point isolation is the contract
        return SweepPoint(gains=gains, summary=None, error=str(exc))


def sweep(scenario: Scenario, grid) -> list[SweepPoint]:
    """Run the scenario once per gain set, identical inputs at every point.

    The points run in forked worker processes, one per usable CPU and at
    most one per point (:func:`map_points`); a one-point grid or a one-CPU
    host runs them in this process.  Either way the points come back in grid
    order and identical to a serial sweep's.  Per-point failures are
    recorded and the sweep continues, also when a worker process dies.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    points = map_points(partial(_sweep_point, scenario), grid)
    return [SweepPoint(gains=gains, summary=None, error=WORKER_LOST) if point is None else point
            for gains, point in zip(grid, points)]


def trim_attitude_to_commands(scenario: Scenario) -> Scenario:
    """Scenario copy whose initial attitude sits on the command manifold.

    Sets (roll, attack, sideslip) to the initial attitude command and the
    body rates to the resulting rate command, so both tracking errors start
    at zero.
    """
    k = igc.LawConstants(scenario.cfg, scenario.gains)
    y = list(scenario.initial)
    alpha_cmd, beta_cmd = igc.law(k, y)[1]
    # The rate command evaluated on the attitude command itself.
    y[8:11] = (0.0, alpha_cmd, beta_cmd)
    y[11:14] = igc.law(k, y)[2]
    return replace(scenario, initial=tuple(y))
