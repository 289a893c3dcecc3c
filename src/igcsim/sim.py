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
import pickle
from array import array
from collections import deque
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import igc
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
# Most steps one run takes, whatever its t_max and dt.  A log row is 25
# floats, so the cap holds the step table of :func:`run` to about 200 MB;
# :func:`stream` holds one block of it.
MAX_STEPS = 1_000_000

# The variables GUARD bounds: (name in messages, index in STATE_FIELDS).
_BANDED = (("LOS elevation", 2), ("velocity elevation", 6), ("sideslip", 10), ("pitch", 14))


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs: plant constants, gains, initial state, inputs.
    Building or ``replace``-ing one checks it: ValueError names a bad key."""

    cfg: AeroConfig
    gains: Gains
    initial: tuple[float, ...]   # the 15 state floats, in STATE_FIELDS order
    evader: EvaderModel = EvaderModel()
    disturbances: DisturbanceModel = DisturbanceModel()
    dt: float = 1e-3             # [s]
    t_max: float = 20.0          # [s]
    r_intercept: float = 1.0     # [m], range at which interception is declared
    r_min: float = 1.0           # [m], assumed lower range bound for analysis
    r_max: float = 1e5           # [m], sanity bound on the initial range; only checked when built
    plant_mode: str = "trig"     # force model of the truth plant
    delta_max: float | None = None   # optional symmetric fin limit [rad]
    divergence_factor: float = 1.5   # miss once r exceeds this times the initial range while opening
    control_update: str = "hold"     # 'hold' or 'substep'

    def __post_init__(self) -> None:
        if len(self.initial) != len(STATE_FIELDS):
            raise ValueError(f"initial: need {len(STATE_FIELDS)} floats in STATE_FIELDS order, "
                             f"got {len(self.initial)}")
        try:
            check_envelope(self.initial)
        except GuardError as exc:
            raise ValueError(f"initial: {exc}") from None
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"sim.dt: must be finite and > 0, got {self.dt!r}")
        if not (math.isfinite(self.t_max) and self.t_max >= 0.0):
            raise ValueError(f"sim.t_max: must be finite and >= 0, got {self.t_max!r}")
        if not 0.0 < self.r_intercept < self.initial[0]:
            raise ValueError(f"sim.r_intercept: need 0 < r_intercept < initial range, got "
                             f"r_intercept={self.r_intercept!r}, r={self.initial[0]!r}")
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

    @property
    def time_invariant(self) -> bool:
        """Whether :meth:`signals` returns the same inputs at every time: a
        constant evader and disturbances that are each zero or constant."""
        d = self.disturbances
        return (self.evader.kind == "constant"
                and all(s.kind in ("zero", "constant") for s in (d.rate, d.accel, d.lift, d.side)))


# Per-step log row layout, in row order: (block, width), the one declaration
# of the log.  Rows are appended to one flat float array that grows with the
# flight; it is never sized from t_max, which may be far longer.
_LOG_LAYOUT = (("t", 1), ("states", 15), ("fins", 3), ("x1_sharp_cmd", 2), ("x2_cmd", 3),
               ("saturated", 1))


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

# Rows per block of the log, as :func:`stream` hands it on and as the CSV
# writer formats it.
LOG_BLOCK = 256


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


def rk4_step(deriv, y, t: float, dt: float):
    """Classical fourth-order Runge-Kutta update for dy/dt = deriv(t, y) on a
    float or an array of any shape, in :func:`_step`'s operation order.  A
    float ``y`` comes back as a numpy float, an array as a float array of its
    shape; ``deriv`` may return any array-like of ``y``'s size.  An entry of
    the new state that is not finite raises GuardError."""
    if not dt > 0.0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    y = np.array(y, dtype=float)[()]  # [()] turns a 0-d array into a numpy float
    shape, h = np.shape(y), 0.5 * dt

    def stage(tt, yy):
        return np.reshape(np.asarray(deriv(tt, yy), dtype=float), shape)

    # An overflow, in a stage state, a sum or deriv, ends in the check of the
    # new state below, not in a RuntimeWarning.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stage(t, y)
        k2 = stage(t + h, y + h * k1)
        k3 = stage(t + h, y + h * k2)
        k4 = stage(t + dt, y + dt * k3)
        y_next = y + dt / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + k4)
    if not np.isfinite(y_next).all():
        raise GuardError(f"non-finite state produced by integrator step at t={t:.6g}")
    return y_next


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
    # One pass over a state inside the envelope: a finite sum means every
    # entry is finite; a sum that overflows goes on to the checks below.
    g = GUARD
    if (math.isfinite(sum(y)) and y[0] > 0.0 and -g <= y[2] <= g and -g <= y[6] <= g
            and -g <= y[10] <= g and -g <= y[14] <= g):
        return
    for name, value in zip(STATE_FIELDS, y):
        if not math.isfinite(value):
            raise GuardError(f"{name} {value} must be finite")
    if y[0] <= 0.0:
        raise GuardError(f"range {y[0]:.6g} must be positive")
    for label, i in _BANDED:
        if abs(y[i]) > GUARD:
            raise GuardError(f"{label} {y[i]:.4g} breached guard {GUARD}")


def evaluate(k: Kernel, u: tuple, y, fins=None) -> tuple[list[float], tuple | None]:
    """One evaluation of the 15-state closed loop at ``y`` under the exogenous
    inputs ``u`` (:meth:`Scenario.signals` at the time): the envelope check,
    the law unless ``fins`` (a float triple) holds the control, and the
    derivative.  Returns (derivative as a list of floats, :func:`igc.law`'s
    tuple at ``y`` or None when the fins are held).

    The step loop's one evaluation per RK4 stage.  It writes out, term for
    term and in their operation order, the terms the law reads
    (:func:`frames.los_rows`, :func:`airframe.mixer`,
    :func:`airframe.attitude_drift`, :func:`airframe.rate_drift`) and the
    plant helpers (:func:`airframe.lift_side_accels`,
    :func:`frames.los_accel`, :func:`engagement.relative_derivatives`), so
    that each angle's sine and cosine is taken once.  The tests compose those
    helpers, and the velocity-angle and attitude rates, into the reference
    it equals bit for bit."""
    check_envelope(y)
    r, vr, theta_l, phi_l, x01, x02, theta_v, psi_v, gamma, alpha, beta, wx, wy, wz, pitch = y
    stl, ctl = math.sin(theta_l), math.cos(theta_l)
    stv, ctv = math.sin(theta_v), math.cos(theta_v)
    d = phi_l - psi_v
    sd, cd = math.sin(d), math.cos(d)
    sp, cp = math.sin(pitch), math.cos(pitch)
    sb, cb = math.sin(beta), math.cos(beta)
    sa, ca = math.sin(alpha), math.cos(alpha)
    sg, cg = math.sin(gamma), math.cos(gamma)
    # frames.los_rows
    m0, m1, m2 = stl * stv + ctl * ctv * sd, stl * ctv - ctl * stv * sd, ctl * cd
    m3, m4, m5 = ctl * stv - stl * ctv * sd, stl * stv * sd + ctl * ctv, -stl * cd
    m6, m7, m8 = ctv * cd, -stv * cd, -sd
    # airframe.mixer: rows (1, g01, g02), (g10, g11, 1), (sa, ca, 0)
    tp = sp / cp
    tb = sb / cb
    g01, g02, g10, g11 = -tp * cg, tp * sg, -tb * ca, sa * tb
    # airframe.aero_forces, then attitude_drift (0, f11, f12) and rate_drift
    lift_force = k.thrust * sa + k.qs_lift * alpha
    side_force = k.qs_side * beta - k.thrust * ca * sb
    f11, f12 = -lift_force / (k.mv * cb), side_force / k.mv
    gx, gy, gz = k.gyro
    f20 = gx * wy * wz
    f21 = k.qsl_yaw * beta / k.jy + gy * wx * wz
    f22 = k.qsl_pitch * alpha / k.jz + gz * wx * wy
    law_out = None
    if fins is None:
        law_out = igc.law(k, y, ((m0, m1, m2, m3, m4, m5, m6, m7, m8),
                                 (1.0, g01, g02, g10, g11, 1.0, sa, ca, 0.0),
                                 (0.0, f11, f12), (f20, f21, f22)))
        fins = law_out[0]
    rate, accel, lift, side, evader = u
    # airframe.lift_side_accels
    if k.trig:
        a_theta, a_psi = (lift_force + lift) / k.mass, (side_force + side) / k.mass
    else:
        a_theta, a_psi = (k.lift_gain * alpha + lift) / k.mass, (k.side_gain * beta + side) / k.mass
    # frames.los_accel of (0, a_theta, a_psi)
    ap0 = m0 * 0.0 + m1 * a_theta + m2 * a_psi
    ap1 = m3 * 0.0 + m4 * a_theta + m5 * a_psi
    ap2 = m6 * 0.0 + m7 * a_theta + m8 * a_psi
    ae0, ae1, ae2 = evader
    # engagement.los_rate_drift
    two_vr_r = 2.0 * vr / r
    tl = math.tan(theta_l)
    drift0, drift1 = -two_vr_r * x01 - x02 * x02 * tl, -two_vr_r * x02 + x01 * x02 * tl
    bx, by, bz = k.fin_gain
    dx, dy, dz = fins
    return [
        # engagement.relative_derivatives
        vr,
        r * (x01 * x01 + x02 * x02) + ae0 - ap0,
        x01,
        x02 / ctl,
        drift0 + (ae1 - ap1) / r,
        drift1 + (ae2 - ap2) / r,
        # the velocity angles
        a_theta / k.speed,
        -a_psi / (k.speed * ctv),
        # the attitude angles, the body rates and pitch
        0.0 + (1.0 * wx + g01 * wy + g02 * wz) + rate[0],
        f11 + (g10 * wx + g11 * wy + 1.0 * wz) + rate[1],
        f12 + (sa * wx + ca * wy + 0.0 * wz) + rate[2],
        f20 + bx * dx + accel[0],
        f21 + by * dy + accel[1],
        f22 + bz * dz + accel[2],
        wy * sg + wz * cg,
    ], law_out


def _step(k: Kernel, signals, y, t: float, dt: float, k1: list[float], held) -> list[float]:
    """The step loop's RK4 step of the 15-float state ``y`` from ``t``: the
    tableau of :func:`rk4_step` over :func:`evaluate` under
    :meth:`Scenario.signals`, with the fins ``held`` (None: the law at every
    stage), each stage written out over locals in that operation order.
    ``k1`` is the evaluation of ``y``.  The new state is unchecked here: the
    run's next :func:`evaluate` is its one envelope check."""
    y0, y1, y2, y3, y4, y5, y6, y7, y8, y9, y10, y11, y12, y13, y14 = y
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14 = k1
    h = 0.5 * dt
    mid = signals(t + h)
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14 = evaluate(
        k, mid, [y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3, y4 + h * a4, y5 + h * a5,
                 y6 + h * a6, y7 + h * a7, y8 + h * a8, y9 + h * a9, y10 + h * a10, y11 + h * a11,
                 y12 + h * a12, y13 + h * a13, y14 + h * a14], held)[0]
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = evaluate(
        k, mid, [y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3, y4 + h * b4, y5 + h * b5,
                 y6 + h * b6, y7 + h * b7, y8 + h * b8, y9 + h * b9, y10 + h * b10, y11 + h * b11,
                 y12 + h * b12, y13 + h * b13, y14 + h * b14], held)[0]
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11, d12, d13, d14 = evaluate(
        k, signals(t + dt), [y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3, y4 + dt * c4,
                             y5 + dt * c5, y6 + dt * c6, y7 + dt * c7, y8 + dt * c8, y9 + dt * c9,
                             y10 + dt * c10, y11 + dt * c11, y12 + dt * c12, y13 + dt * c13,
                             y14 + dt * c14], held)[0]
    w = dt / 6.0
    return [y0 + w * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
            y1 + w * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
            y2 + w * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
            y3 + w * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
            y4 + w * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
            y5 + w * (((a5 + 2.0 * b5) + 2.0 * c5) + d5),
            y6 + w * (((a6 + 2.0 * b6) + 2.0 * c6) + d6),
            y7 + w * (((a7 + 2.0 * b7) + 2.0 * c7) + d7),
            y8 + w * (((a8 + 2.0 * b8) + 2.0 * c8) + d8),
            y9 + w * (((a9 + 2.0 * b9) + 2.0 * c9) + d9),
            y10 + w * (((a10 + 2.0 * b10) + 2.0 * c10) + d10),
            y11 + w * (((a11 + 2.0 * b11) + 2.0 * c11) + d11),
            y12 + w * (((a12 + 2.0 * b12) + 2.0 * c12) + d12),
            y13 + w * (((a13 + 2.0 * b13) + 2.0 * c13) + d13),
            y14 + w * (((a14 + 2.0 * b14) + 2.0 * c14) + d14)]


def inputs(scenario: Scenario, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """:meth:`Scenario.signals` at the times ``t``: (rate (n, 3), accel (n, 3),
    lift (n,), side (n,), evader (n, 3)).  At a log's ``t`` these are, bit for
    bit, the inputs the run saw at its logged steps.  Time-invariant signals
    are sampled once: the five are then read-only views that repeat that one
    sample in every row, and take no memory per row."""
    if scenario.time_invariant:
        rate, accel, lift, side, evader = scenario.signals(0.0)
        out = np.broadcast_to(np.array((*rate, *accel, lift, side, *evader), dtype=float),
                              (len(t), 11))
    else:
        out = np.empty((len(t), 11))
        for row, ti in zip(out, t.tolist()):
            rate, accel, lift, side, evader = scenario.signals(ti)
            row[:] = (*rate, *accel, lift, side, *evader)
    return out[:, 0:3], out[:, 3:6], out[:, 6], out[:, 7], out[:, 8:11]


def stream(scenario: Scenario, on_block) -> SimSummary:
    """Integrate the closed loop until intercept, miss, guard breach, or timeout:
    ``t_max`` reached, or MAX_STEPS steps logged, which the summary's message
    names.  Each RK4 stage is one :func:`evaluate`, whose envelope check is
    the one check of each state the run reaches.

    The step table goes to ``on_block`` as it is logged: each completed
    LOG_BLOCK rows, then the remaining rows at the end, each an
    ``array('d')`` of the rows' floats, back to back, that the run does not
    touch again.  An exception it raises ends the run and propagates.  The
    run keeps only the current block: the summary comes from the last two
    rows and from the ``t``, ``x01`` and ``x02`` columns of the blocks that
    can still fall in the final fifth of the flight."""
    dt = scenario.dt
    r0 = scenario.initial[0]
    hold = scenario.control_update == "hold"
    k = Kernel(scenario)
    signals = scenario.signals
    if scenario.time_invariant:  # sampled once, not three times a step
        u_const = signals(0.0)

        def signals(_t):
            return u_const

    recent = deque()  # (t, x01, x02) columns of each block that may reach the final fifth
    tail = array("d")  # the last two rows

    def hand_on(block) -> None:
        nonlocal tail
        on_block(block)
        tail = (tail + block[-2 * LOG_WIDTH:])[-2 * LOG_WIDTH:]
        # A slice with a step copies a column out of the rows, with no numpy call.
        columns = tuple(block[_COLUMNS[name]::LOG_WIDTH] for name in ("t", "x01", "x02"))
        while recent and recent[0][0][-1] < 0.8 * columns[0][-1]:
            recent.popleft()  # its rows all come before 0.8 times any later time
        recent.append(columns)

    logged = array("d")  # the current block's rows, back to back
    n = 0  # logged rows, which is also the index of the current step
    block_end = LOG_BLOCK

    y = list(scenario.initial)
    t_end = scenario.t_max - 0.5 * dt
    max_steps = MAX_STEPS
    outcome, message = None, ""
    while outcome is None:
        t = n * dt
        try:
            # The law's evaluation of the step state is also RK4's first stage.
            k1, (fins, x1_sharp, x2_cmd, saturated, _, _) = evaluate(k, signals(t), y)
            logged.fromlist([t, *y, *fins, *x1_sharp, *x2_cmd, saturated])  # _LOG_LAYOUT order
            n += 1

            r, vr = y[0], y[1]
            if r <= scenario.r_intercept:
                outcome = OUTCOME_INTERCEPT
            elif vr > 0.0 and r > scenario.divergence_factor * r0:
                outcome, message = OUTCOME_MISS, f"range opened past {scenario.divergence_factor:g} x initial"
            elif t >= t_end or n >= max_steps:
                outcome = OUTCOME_TIMEOUT
                if t < t_end:
                    message = f"step cap sim.MAX_STEPS = {max_steps} reached at t={t:.6g}, before t_max"
            else:
                held = fins if hold else None
                y = _step(k, signals, y, t, dt, k1, held)
        except (GuardError, SingularityError) as exc:
            outcome, message = OUTCOME_GUARD, f"t={t:.6g}: {exc}"
        # Outside the try: an error of a consumer is its own, not a guard breach.
        if n == block_end:
            hand_on(logged)
            logged = array("d")
            block_end += LOG_BLOCK

    if n % LOG_BLOCK:
        hand_on(logged)
    if n == 0:
        return SimSummary(outcome=outcome, final_r=r0, flight_time=0.0, miss_distance=r0,
                          post_transient_sup_x0=float("nan"), steps=0, message=message)
    last, before = tail[-LOG_WIDTH:], tail[:-LOG_WIDTH]  # before is empty after one row
    at_r, at_vr = _COLUMNS["r"], _COLUMNS["vr"]
    miss_distance = last[at_r]
    if before and before[at_vr] < 0.0 <= last[at_vr]:
        # The range rate changed sign inside the last step: interpolate across it.
        w = before[at_vr] / (before[at_vr] - last[at_vr])
        miss_distance = before[at_r] + w * (last[at_r] - before[at_r])
    columns = (array("d"), array("d"), array("d"))
    for parts in recent:
        for column, part in zip(columns, parts):
            column.extend(part)
    t, x01, x02 = (np.frombuffer(column) for column in columns)
    post_transient = t >= 0.8 * t[-1]  # the final 20% of the flight
    return SimSummary(
        outcome=outcome,
        final_r=last[at_r],
        flight_time=last[_COLUMNS["t"]],
        miss_distance=miss_distance,
        post_transient_sup_x0=float(np.hypot(x01, x02)[post_transient].max()),
        steps=n,
        message=message,
    )


def run(scenario: Scenario, on_block=None) -> tuple[SimLog, SimSummary]:
    """:func:`stream`, its blocks collected into the step table: returns the
    run's log and summary.  ``on_block``, if given, is also called with each
    block, as :func:`stream` calls it."""
    logged = array("d")

    def collect(block) -> None:
        logged.extend(block)
        if on_block is not None:
            on_block(block)

    summary = stream(scenario, collect)
    return SimLog(np.frombuffer(logged, dtype=float).reshape(-1, LOG_WIDTH)), summary


@dataclass(frozen=True)
class SweepPoint:
    """Result of one grid point of a gain sweep."""

    gains: Gains
    summary: SimSummary | None
    error: str = ""


# The error of a sweep point whose child process ended without an outcome.
WORKER_LOST = "worker process ended before this point finished"


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def fork_workers(tasks: int) -> int:
    """How many processes should run ``tasks`` tasks at once: one per usable
    CPU and at most one per task, where ``fork`` is available and that makes
    at least two; otherwise 1, and the tasks run in this process, in turn."""
    workers = min(tasks, _usable_cpus())
    return workers if workers >= 2 and hasattr(os, "fork") else 1


class _RemoteTraceback(Exception):
    """The traceback text of an exception raised in a child process, chained
    as that exception's cause where it is raised again."""


class ChildProcess:
    """A forked process that runs ``body(inbound)`` once and sends back its
    outcome.

    ``inbound`` is the read end of a pipe whose write end here is the
    buffered file ``to_child``.  The child inherits everything else, so
    ``body`` and what it reads need not pickle.  Its outcome is one pickle,
    of ``(True, what body returned)`` or ``(False, the exception it or the
    pickling raised, its traceback text)``, written to the pipe read here
    as ``from_child``, plus exit status 0; an exception that does not
    pickle, or does not load back, goes as a RuntimeError naming its type
    and message.  A child that ends without an outcome (killed, or exited
    inside ``body``) is lost.  It ends with ``os._exit`` whatever happens,
    never back into the caller's stack nor its buffers flushed.  Whoever
    forks one calls :meth:`reap` on every path.  Forked, not spawned: a
    spawned process imports igcsim afresh, about 160 ms."""

    def __init__(self, body):
        fds = []
        try:
            fds += os.pipe()  # to the child
            fds += os.pipe()  # the outcome, back
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        inbound, to_child, from_child, outbound = fds
        if pid == 0:
            code = 1
            try:
                os.close(to_child)
                os.close(from_child)
                try:
                    sent = pickle.dumps((True, body(inbound)))
                except Exception as exc:  # from body, or pickling what it returned
                    import traceback

                    text = traceback.format_exc()
                    try:
                        sent = pickle.dumps((False, exc, text))
                        pickle.loads(sent)
                    except Exception:  # the exception does not pickle, or does not load
                        stand_in = RuntimeError(f"{type(exc).__qualname__}: {exc}")
                        sent = pickle.dumps((False, stand_in, text))
                with open(outbound, "wb") as out:
                    out.write(sent)
                code = 0
            finally:
                os._exit(code)
        os.close(inbound)
        os.close(outbound)
        self.pid = pid
        self.to_child = open(to_child, "wb")
        self.from_child = open(from_child, "rb")
        self._sent = None  # what the child sent, once it is reaped

    def fileno(self) -> int:  # select() waits on the outcome
        return self.from_child.fileno()

    def reap(self, kill: bool = False):
        """Close the pipe to the child, SIGKILL it first if ``kill``, read its
        outcome to the end (unless killed) and wait for it to end.  Returns
        ``(True, result)``, or ``(False, exception)`` with the child's
        traceback chained as the exception's cause, or None where the child
        was killed or is lost.  Once reaped, it waits for nothing more."""
        if self._sent is None:
            if kill:
                import signal  # here, not at module top: see map_points

                os.kill(self.pid, signal.SIGKILL)
            try:
                self.to_child.close()
            except BrokenPipeError:
                pass  # the child ended before it read all that was sent
            try:  # to the end before waiting, so no outcome fills the pipe
                sent = b"" if kill else self.from_child.read()
            finally:
                self.from_child.close()
            status = os.waitpid(self.pid, 0)[1]
            self._sent = sent if os.waitstatus_to_exitcode(status) == 0 else b""
        if kill or not self._sent:
            return None
        ok, value, *text = pickle.loads(self._sent)
        if text:
            value.__cause__ = _RemoteTraceback(text[0])
        return ok, value


def map_points(fn, items) -> list:
    """``[fn(item) for item in items]``, in item order, each item computed in
    its own forked :class:`ChildProcess`, at most :func:`fork_workers` of
    them at once; where that is one, the items run here, one after another.

    The children inherit ``fn`` and the items through the fork, so neither
    needs to pickle.  A child's outcome is one pickle plus exit status 0;
    an item whose child ended without one (killed, or exited inside ``fn``)
    is lost and reads None.  An exception ``fn`` raises, or one pickling
    its result raises, is that item's, with the child's traceback as its
    cause: no further children are forked, and the exception of the first
    failed item propagates once the running ones are back.  Every child is
    reaped before this returns or raises."""
    items = list(items)
    workers = fork_workers(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    # Imported here, not at module top: `igcsim run` forks its CSV writer
    # but never selects or kills, and the two imports add about 0.15 MB to
    # its peak RSS.
    import select

    outcomes = [None] * len(items)
    running = {}  # each child to the index of its item
    started = 0
    try:
        while running or started < len(items):
            while started < len(items) and len(running) < workers:
                running[ChildProcess(lambda _, item=items[started]: fn(item))] = started
                started += 1
            for child in select.select(list(running), [], [])[0]:
                outcome = outcomes[running[child]] = child.reap()
                del running[child]
                if outcome is not None and not outcome[0]:
                    started = len(items)  # an item failed: start no more
    finally:
        for child in running:
            child.reap(kill=True)
    for outcome in outcomes:
        if outcome is not None and not outcome[0]:
            raise outcome[1]
    return [None if outcome is None else outcome[1] for outcome in outcomes]


def _sweep_point(scenario: Scenario, gains) -> SweepPoint:
    try:
        summary = stream(replace(scenario, gains=gains), lambda _block: None)
        return SweepPoint(gains=gains, summary=summary)
    except Exception as exc:  # per-point isolation is the contract
        return SweepPoint(gains=gains, summary=None, error=str(exc))


def sweep(scenario: Scenario, grid) -> list[SweepPoint]:
    """Run the scenario once per gain set, identical inputs at every point.

    Each point runs in its own forked child process, at most one per
    usable CPU at once (:func:`map_points`); a one-point grid, a one-CPU
    host or a platform without ``fork`` runs them in this process.  Either
    way the points come back in grid order and identical to a serial
    sweep's.  A child's outcome is one pickle plus exit status 0.
    Per-point failures are recorded and the sweep continues; a point whose
    child ended without an outcome (killed for memory, say) is lost and
    reads :data:`WORKER_LOST`, and the other points still run.
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
