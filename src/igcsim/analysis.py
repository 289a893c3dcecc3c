"""ISS bound evaluators, small-gain certificates, and trajectory bound audits.

Every channel of the cascade satisfies the same envelope along a closed-loop
trajectory:

    ||x(t)|| <= exp(-K t) ||x(0)||
              + delta / sqrt(2 K) * sqrt(1 - exp(-2 K t)) * sup||d||

with d the channel's lumped disturbance.  The audit replays the log of a
scenario's run, reconstructs each channel's disturbance from the logged
states and commands (command derivatives via finite differences) and the
scenario's signals at the logged times, and counts samples where the
measured norm exceeds the envelope beyond a slack covering discretization
error.
Disturbance suprema are combined as sums of per-component running suprema,
which upper-bounds the supremum of the sum, so the audit is conservative
and therefore sound as a test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import airframe, engagement, frames, sim
from .airframe import AeroConfig
from .engagement import DisturbanceModel, EvaderModel, VectorSignal
from .igc import Gains

DEFAULT_SLACK = 0.05

# The second probe of estimate_loop_gain runs at this multiple of the first's amplitude.
PROBE_AMPLITUDE_RATIO = 2.0

# Half-width [rad] of the attack, sideslip and pitch ranges over which
# worst_case_g1_norm scans the mixer.
G1_SCAN_ANGLE = 0.3

# The central differences of the command derivatives need three samples.
MIN_AUDIT_SAMPLES = 3


@dataclass(frozen=True)
class LinearGain:
    """A linear comparison function s -> coefficient * s."""

    coefficient: float

    def __post_init__(self):
        if not (math.isfinite(self.coefficient) and self.coefficient >= 0.0):
            raise ValueError(f"coefficient: must be >= 0, got {self.coefficient!r}")

    def __call__(self, s: float) -> float:
        return self.coefficient * s


@dataclass(frozen=True, eq=False)
class BoundTrace:
    """Per-sample comparison of a measured channel norm against its envelope."""

    channel: str
    time: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    violations: int

    def __post_init__(self):
        if not np.all(np.diff(self.time) > 0.0):
            raise ValueError("time: samples must be strictly increasing")

    @property
    def margin(self) -> np.ndarray:
        return self.bound - self.measured

    @property
    def worst_margin(self) -> float:
        return float(self.margin.min())


def theorem2_bound(t, x0_norm: float, k: float, delta: float, d_sup) -> float | np.ndarray:
    """ISS decay-plus-gain envelope for the drift-cancelling controller.

    Vectorized over t (and over a matching running-supremum array d_sup).
    """
    t = np.asarray(t, dtype=float)
    # 1 - exp(-2 k t) as -expm1(-2 k t): the difference cancels for small k t
    # and would break the bound's monotonicity in k.
    bound = (
        np.exp(-k * t) * x0_norm
        + delta / math.sqrt(2.0 * k) * np.sqrt(-np.expm1(-2.0 * k * t)) * d_sup
    )
    return float(bound) if bound.ndim == 0 else bound


def x0_bound(t, x0_norm_initial: float, gains: Gains, r_m: float, d0_sup, y1_sup):
    """LOS-rate envelope with the evader/force disturbance scaled by 1/r_m."""
    if not r_m > 0.0:
        raise ValueError(f"r_m: must be > 0, got {r_m!r}")
    return theorem2_bound(
        t, x0_norm_initial, gains.k0, gains.delta0, d0_sup / r_m + y1_sup
    )


def linear_gains(gains: Gains, g0_norm: float, g1_norm: float
                 ) -> tuple[LinearGain, LinearGain, LinearGain, LinearGain]:
    """Explicit loop gains of the two interconnections.

    The attitude loop exports g0_norm * delta1 / sqrt(2 K1) toward the
    guidance channel (same coefficient for its disturbance input), and
    the rate loop exports g1_norm * delta2 / sqrt(2 K2).
    """
    c_attitude = g0_norm * gains.delta1 / math.sqrt(2.0 * gains.k1)
    c_rate = g1_norm * gains.delta2 / math.sqrt(2.0 * gains.k2)
    return (
        LinearGain(c_attitude),
        LinearGain(c_attitude),
        LinearGain(c_rate),
        LinearGain(c_rate),
    )


def worst_case_g0_norm(cfg: AeroConfig, r_m: float) -> float:
    """Upper bound on the guidance input-map norm over the flight domain.

    The 2x2 projection is a submatrix of an orthogonal composition, so its
    spectral norm never exceeds 1; the worst range is the closest one.
    """
    if not r_m > 0.0:
        raise ValueError(f"r_m: must be > 0, got {r_m!r}")
    return max(abs(cfg.lift_gain), abs(cfg.side_gain)) / (cfg.mass * r_m)


def worst_case_g1_norm() -> float:
    """Grid-scan bound on the rate mixing-matrix norm over the flight domain.

    Scans attack, sideslip, and pitch over [-G1_SCAN_ANGLE, G1_SCAN_ANGLE]
    on 9 points and the roll angle over a full turn on 18.
    """
    angles = np.linspace(-G1_SCAN_ANGLE, G1_SCAN_ANGLE, 9)
    rolls = np.linspace(-math.pi, math.pi, 18)
    pitch, alpha, beta, gamma = np.meshgrid(angles, angles, angles, rolls, indexing="ij")
    entries = np.broadcast_arrays(*airframe.mixer(gamma, alpha, beta, pitch, trig=np))
    blocks = np.stack(entries, axis=-1).reshape(-1, 3, 3)
    return float(np.linalg.norm(blocks, 2, axis=(-2, -1)).max())


@dataclass(frozen=True)
class GainCertificate:
    """Small-gain contraction record for the two designed interconnections.

    The outer gains of each loop (guidance-side and attitude-side responses
    of the command derivatives) have no closed form; they are supplied by
    the user or estimated by probing, and the certificate labels them as
    estimates.  pass requires both loop products < 1.
    """

    gamma_1y: float          # explicit: attitude loop, both inputs (= gamma_1u)
    gamma_3y: float          # explicit: rate loop, both inputs (= gamma_3u)
    g0_norm: float
    g1_norm: float
    gamma_0y_est: float | None = None
    gamma_2y_est: float | None = None
    g1_scanned: bool = False  # g1_norm is worst_case_g1_norm's, not supplied

    @property
    def attitude_loop_product(self) -> float | None:
        if self.gamma_0y_est is None:
            return None
        return self.gamma_1y * self.gamma_0y_est

    @property
    def rate_loop_product(self) -> float | None:
        if self.gamma_2y_est is None:
            return None
        return self.gamma_3y * self.gamma_2y_est

    @property
    def passed(self) -> bool | None:
        """True/False when both loops are checkable, None when inconclusive."""
        products = (self.attitude_loop_product, self.rate_loop_product)
        if any(p is None for p in products):
            return None
        return all(p < 1.0 for p in products)

    def render(self) -> str:
        g1_source = (f"scanned over |attack|, |sideslip|, |pitch| <= {G1_SCAN_ANGLE:g} rad "
                     "and a full roll turn") if self.g1_scanned else "supplied, not scanned"
        lines = [
            "small-gain certificate",
            f"  |g0| bound: {self.g0_norm:.6g}   |g1| bound: {self.g1_norm:.6g}",
            f"  |g1| bound {g1_source}",
            f"  explicit  gamma_1y = gamma_1u = {self.gamma_1y:.12g}",
            f"  explicit  gamma_3y = gamma_3u = {self.gamma_3y:.12g}",
        ]
        for name, est, product in (
            ("guidance/attitude", self.gamma_0y_est, self.attitude_loop_product),
            ("attitude/rate", self.gamma_2y_est, self.rate_loop_product),
        ):
            if est is None:
                lines.append(f"  {name} loop: INCONCLUSIVE (no estimated outer gain)")
            else:
                verdict = "pass" if product < 1.0 else "FAIL"
                lines.append(
                    f"  {name} loop: estimated outer gain {est:.6g}, "
                    f"product {product:.6g}, margin {1.0 - product:.6g} -> {verdict}"
                )
        overall = {True: "PASS", False: "FAIL", None: "INCONCLUSIVE"}[self.passed]
        lines.append(f"  overall: {overall}")
        return "\n".join(lines)


def build_certificate(gains: Gains, g0_norm: float, g1_norm: float,
                      gamma_0y_est: float | None = None,
                      gamma_2y_est: float | None = None,
                      g1_scanned: bool = False) -> GainCertificate:
    g1y, _, g3y, _ = linear_gains(gains, g0_norm, g1_norm)
    return GainCertificate(
        gamma_1y=g1y.coefficient,
        gamma_3y=g3y.coefficient,
        g0_norm=g0_norm,
        g1_norm=g1_norm,
        gamma_0y_est=gamma_0y_est,
        gamma_2y_est=gamma_2y_est,
        g1_scanned=g1_scanned,
    )


def _matvec(m, v) -> list:
    """The matrix ``m`` (row-major entries) times the vector ``v``, where an
    entry of either is a log column or a constant: one column per entry of
    the product, its terms summed in order."""
    w = len(v)
    return [sum((m[i * w + j] * v[j] for j in range(1, w)), m[i * w] * v[0]) for i in range(w)]


def _norm(*components) -> np.ndarray:
    """Euclidean norm of the vector whose components are the given columns,
    summed in order as ``np.linalg.norm(..., axis=-1)`` sums a row."""
    return np.sqrt(sum((c * c for c in components[1:]), components[0] * components[0]))


def _derivative(f: np.ndarray, lo: int, hi: int, dt) -> np.ndarray:
    """Rows ``lo:hi`` of ``np.gradient(f, dt, axis=0)``, bit for bit: central
    differences, one-sided at the first and last rows of ``f``."""
    a, b = max(lo, 1), min(hi, len(f) - 1)  # the rows with a row on each side
    d = (f[a + 1:b + 1] - f[a - 1:b - 1]) / (2.0 * dt)
    if a > lo or b < hi:
        d = np.concatenate([(f[1:2] - f[:1]) / dt] * (a > lo) + [d]
                           + [(f[-1:] - f[-2:-1]) / dt] * (b < hi))
    return d


def _disturbance_norms(window: np.ndarray, lo: int, hi: int, eta1, eta2, scenario: sim.Scenario,
                       k: airframe.AeroConstants, dt) -> np.ndarray:
    """The norms of the channels' seven disturbance terms at rows ``lo:hi`` of
    the step-table rows ``window``, as a (7, hi - lo) array; the other rows
    of ``window`` are their neighbours in the log, and ``eta1``, ``eta2``
    the rows' tracking errors.  Guidance: the evader and force uncertainty,
    divided by each row's range, and the attitude tracking error mapped
    through the input matrix.  Attitude: the rate noise, the command
    derivative, and the rate tracking error mapped through the mixer.  Rate:
    the moment noise and the rate-command derivative."""
    rows = sim.SimLog(window[lo:hi])
    rate, accel, lift, side, evader = sim.inputs(scenario, rows.t)
    m = frames.los_rows(rows.theta_l, rows.phi_l, rows.theta_v, rows.psi_v, trig=np)
    singular = np.abs(engagement.projection_det(m)) < engagement.GEOMETRY_SINGULARITY
    if singular.any():
        i = int(singular.argmax())
        # The law's gate raises its own error on the first singular sample.
        engagement.guidance_map(k, float(rows.r[i]), [float(c[i]) for c in m])
    g0 = engagement.guidance_entries(k, rows.r, m)
    # frames.los_accel of (0, lift, side) / mass, less the radial row and the 0 terms.
    p0, p1 = _matvec((m[4], m[5], m[7], m[8]), (lift / k.mass, side / k.mass))
    g1 = airframe.mixer(rows.gamma, rows.alpha, rows.beta, rows.pitch, trig=np)
    e0, e1, e2 = eta2
    # The commanded roll and its derivative are zero, and add nothing to a norm.
    around = sim.SimLog(window)
    return np.array((
        _norm(-p0 + evader[:, 1], -p1 + evader[:, 2]) / rows.r,
        _norm(*_matvec(g0, eta1[1:])),
        _norm(*rate.T),
        _norm(*_derivative(around.x1_sharp_cmd, lo, hi, dt).T),
        # g1 @ eta2 less the products by g1[0] = g1[5] = 1 (g1[8] = 0 stays: 0 * inf is NaN).
        _norm(e0 + g1[1] * e1 + g1[2] * e2, g1[3] * e0 + g1[4] * e1 + e2,
              g1[6] * e0 + g1[7] * e1 + g1[8] * e2),
        _norm(*accel.T),
        _norm(*_derivative(around.x2_cmd, lo, hi, dt).T),
    ))


CHANNELS = ("los_rate", "attitude_error", "rate_error")


class BlockAudit:
    """The envelope audit of a run of ``scenario``, fed its step table in
    order, block by block: call it with each block of rows (a 2-D table, or
    the ``array('d')`` of :func:`sim.stream`), then :meth:`close` it.

    Each block is one pass, once the next block's first row, or close(),
    supplies its halo row after it.  Beside that block it carries only its
    last row (the next pass's halo), the running suprema and row 0's
    measured norms.  ``on_pass(lo, measured, bound)``, if given, receives
    each pass's (3, rows) measured norms and bounds (CHANNELS order) from
    log row ``lo`` on; ``violations`` and ``worst_margins`` reduce them
    per channel as :func:`bound_audit`'s traces do."""

    def __init__(self, scenario: sim.Scenario, on_pass=None):
        self._scenario, self._on_pass = scenario, on_pass
        self._k = airframe.AeroConstants(scenario.cfg)
        self._block = None  # the rows not yet audited
        self._before = np.empty((0, sim.LOG_WIDTH))  # the row before them, if any
        self._row = 0  # the log index of their first row
        self._dt = self._first = None  # the step, and row 0's measured norms
        self._sups = np.full((7, 1), -math.inf)  # the running suprema at the last pass's end
        self.violations = np.zeros(3, dtype=int)
        self.worst_margins = np.full(3, math.inf)

    def __call__(self, rows) -> None:
        if not isinstance(rows, np.ndarray):
            rows = np.frombuffer(rows).reshape(-1, sim.LOG_WIDTH)
        if self._block is not None:
            self._pass(rows[:1])
        self._block = rows

    def close(self) -> None:
        """Audit the last block, whose last row is the log's."""
        received = self._row + (0 if self._block is None else len(self._block))
        if received < MIN_AUDIT_SAMPLES:
            raise ValueError(f"log too short for finite differences: {received} samples")
        self._pass(self._before[:0])
        self._block = None

    def _pass(self, after: np.ndarray) -> None:
        """Audit the held block; ``after``, the log's next row if any, and
        the row before it are its halo."""
        block, before = self._block, self._before
        window = np.concatenate((before, block, after))
        lo, hi = len(before), len(before) + len(block)
        t = window[:, 0]
        dt = self._dt = t[1] - t[0] if self._dt is None else self._dt
        if not np.all(np.abs(np.diff(t) - dt) <= 1e-9 * max(dt, 1.0)):
            raise ValueError("log timestamps are not uniform")
        rows = sim.SimLog(window[lo:hi])
        # SimLog's eta1 and eta2, whose commanded roll is zero.
        eta1 = (rows.gamma, rows.alpha - rows.alpha_cmd, rows.beta - rows.beta_cmd)
        eta2 = (rows.omega - rows.x2_cmd).T
        with np.errstate(over="ignore"):  # as SimLog's eta1_norm and eta2_norm
            measured = np.array((rows.x0_norm, _norm(*eta1), _norm(*eta2)))
        norms = _disturbance_norms(window, lo, hi, eta1, eta2, self._scenario, self._k, dt)
        running = np.maximum(np.maximum.accumulate(norms, axis=1), self._sups)
        self._sups = running[:, -1:]
        d0, y1, rate, y0, y3, accel, y2 = running
        if self._first is None:
            self._first = measured[:, 0].tolist()
        x0_first, eta1_first, eta2_first = self._first
        g = self._scenario.gains
        bound = np.array((
            theorem2_bound(rows.t, x0_first, g.k0, g.delta0, d0 + y1),
            theorem2_bound(rows.t, eta1_first, g.k1, g.delta1, rate + y0 + y3),
            theorem2_bound(rows.t, eta2_first, g.k2, g.delta2, accel + y2),
        ))
        self.violations += np.count_nonzero(measured > bound * (1.0 + DEFAULT_SLACK), axis=1)
        self.worst_margins = np.minimum(self.worst_margins, (bound - measured).min(axis=1))
        if self._on_pass is not None:
            self._on_pass(self._row, measured, bound)
        self._before = block[-1:].copy()
        self._row += len(block)


def bound_audit(log: sim.SimLog, scenario: sim.Scenario) -> tuple[tuple[BoundTrace, ...], int]:
    """Channelwise envelope audit of the log of a run of ``scenario``, whose
    gains, plant constants and signals (at the logged times) it reads.

    Returns one trace per channel (LOS rate, attitude error, rate error) and
    the total violation count; a sample violates when measured exceeds
    bound * (1 + DEFAULT_SLACK).  The LOS channel's evader and force term is
    the running sup over [0, t] of its norm over each row's range, the
    channel's disturbance d0/r, which the ISS estimate at time t takes.
    Command derivatives are central differences (one-sided at the log's two
    ends), so that slack covers the discretization and integration error of
    a smooth run.  It is :class:`BlockAudit` fed the log as sim.LOG_BLOCK-row
    views, one pass each, writing each pass into its six output columns:
    the traces equal, bit for bit, those of one pass over the whole columns.
    A state where the guidance map is singular, which no run logs, raises
    the law's SingularityError for the first such state.
    """
    n = len(log)
    measured, bound = np.empty((3, n)), np.empty((3, n))  # the only temporaries that span the log

    def store(lo: int, pass_measured: np.ndarray, pass_bound: np.ndarray) -> None:
        measured[:, lo:lo + pass_measured.shape[1]] = pass_measured
        bound[:, lo:lo + pass_bound.shape[1]] = pass_bound

    audit = BlockAudit(scenario, store)
    for lo in range(0, n, sim.LOG_BLOCK):
        audit(log.table[lo:lo + sim.LOG_BLOCK])
    audit.close()
    traces = tuple(BoundTrace(channel, log.t, measured[c], bound[c], int(audit.violations[c]))
                   for c, channel in enumerate(CHANNELS))
    return traces, int(audit.violations.sum())


def estimate_loop_gain(scenario, loop: str, base_amplitude: float,
                       frequency: float = 2.0) -> LinearGain:
    """Crude probe of an outer loop gain that has no closed form.

    Runs the closed loop twice with a sinusoidal input injected into the
    target channel, at ``base_amplitude`` and at PROBE_AMPLITUDE_RATIO times
    it, differences the responses of the relevant command derivative (so
    matching transients cancel), and ratios the response-difference
    supremum against the input-supremum difference.
    loop 'guidance' probes the attitude-command derivative against LOS-rate
    forcing; loop 'rate' probes the rate-command derivative against
    attitude-rate forcing.  The scenario must not intercept or breach a
    guard within its horizon: the probe needs a pair of full-length,
    endgame-free trajectories.
    """
    if loop not in ("guidance", "rate"):
        raise ValueError(f"loop must be 'guidance' or 'rate', got {loop!r}")
    if not base_amplitude > 0.0:
        raise ValueError("base_amplitude must be > 0")

    # Start on the command manifold and strip the scenario's own inputs so
    # the paired responses differ only through the injected signal.
    quiet = sim.trim_attitude_to_commands(
        replace(scenario, evader=EvaderModel(), disturbances=DisturbanceModel()))
    probes = []
    for amplitude in (base_amplitude, PROBE_AMPLITUDE_RATIO * base_amplitude):
        if loop == "guidance":
            probe = replace(
                quiet,
                evader=EvaderModel(kind="weave", accel_theta=amplitude,
                                   accel_phi=amplitude, frequency=frequency),
            )
        else:
            probe = replace(
                quiet,
                disturbances=DisturbanceModel(
                    rate=VectorSignal(kind="sinusoid",
                                      amplitude=(amplitude, amplitude, amplitude),
                                      frequency=frequency),
                ),
            )
        probes.append(probe)
    # The two probe runs are independent: they run side by side.
    responses = sim.map_points(partial(_probe_response, loop), probes)
    if any(response is None for response in responses):
        raise RuntimeError("probe run: worker process ended before it finished")
    (out0, in0), (out1, in1) = responses
    span = in1 - in0
    if span <= 0.0:
        raise ValueError("probe inputs did not scale; cannot estimate a slope")
    response = float(np.linalg.norm(out1 - out0, axis=-1).max())
    return LinearGain(response / span)


def _probe_response(loop: str, probe: sim.Scenario) -> tuple[np.ndarray, float]:
    """One probe run of :func:`estimate_loop_gain`: the probed command
    derivative along the run and the supremum of the injected forcing."""
    log, summary = sim.run(probe)
    if summary.outcome != "timeout":
        raise ValueError(
            f"probe run ended with {summary.outcome!r}; supply a scenario "
            f"whose horizon stays clear of intercept and guards")
    rate, _, _, _, evader = sim.inputs(probe, log.t)
    if loop == "guidance":
        cmd = log.x1_cmd
        forcing = np.linalg.norm(evader[:, 1:3], axis=-1) / log.r
    else:
        cmd = log.x2_cmd
        forcing = np.linalg.norm(rate, axis=-1)
    # Drop the one-sided finite-difference endpoints.
    return np.gradient(cmd, probe.dt, axis=0)[2:-2], float(forcing.max())
