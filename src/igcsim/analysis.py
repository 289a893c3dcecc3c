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

# Rows the audit takes per pass.  Each pass holds its own temporaries and
# pays numpy's per-call cost once more: at 256 rows the audit of
# nominal.cfg's log took twice as long.
AUDIT_BLOCK = 4 * sim.LOG_BLOCK


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


def _disturbance_norms(window: np.ndarray, lo: int, hi: int, scenario: sim.Scenario,
                       k: airframe.AeroConstants, dt: float) -> np.ndarray:
    """The norms of the channels' seven disturbance terms at rows ``lo:hi`` of
    the step-table rows ``window``, as a (7, hi - lo) array; the rows of
    ``window`` around them are their neighbours in the log.  Guidance: the
    evader and force uncertainty, divided by each row's range, and the
    attitude tracking error mapped through the input matrix.  Attitude: the
    rate noise, the command derivative, and the rate tracking error mapped
    through the mixer.  Rate: the moment noise and the rate-command
    derivative."""
    rows = sim.SimLog(window[lo:hi])
    rate, accel, lift, side, evader = sim.inputs(scenario, rows.t)
    m = frames.los_rows(rows.theta_l, rows.phi_l, rows.theta_v, rows.psi_v, trig=np)
    singular = np.abs(engagement.projection_det(m)) < engagement.GEOMETRY_SINGULARITY
    if singular.any():
        i = int(singular.argmax())
        # The law's gate raises its own error on the first singular sample.
        engagement.guidance_map(k, float(rows.r[i]), [float(c[i]) for c in m])
    g0 = engagement.guidance_entries(k, rows.r, m)
    _, p0, p1 = frames.los_accel(m, 0.0, lift / k.mass, side / k.mass)
    g1 = airframe.mixer(rows.gamma, rows.alpha, rows.beta, rows.pitch, trig=np)
    # The central differences reach the rows of the window around lo:hi,
    # and are one-sided only at the log's two ends.
    around = sim.SimLog(window)
    y0 = -np.gradient(around.x1_cmd, dt, axis=0)[lo:hi]
    y2 = -np.gradient(around.x2_cmd, dt, axis=0)[lo:hi]
    return np.stack((
        _norm(-p0 + evader[:, 1], -p1 + evader[:, 2]) / rows.r,
        _norm(*_matvec(g0, (rows.alpha - rows.alpha_cmd, rows.beta - rows.beta_cmd))),
        np.linalg.norm(rate, axis=-1),
        np.linalg.norm(y0, axis=-1),
        _norm(*_matvec(g1, rows.eta2.T)),
        np.linalg.norm(accel, axis=-1),
        np.linalg.norm(y2, axis=-1),
    ))


CHANNELS = ("los_rate", "attitude_error", "rate_error")


class BlockAudit:
    """The envelope audit of a run of ``scenario``, fed its step table in
    order, block by block: call it with each block of rows (a 2-D table, or
    the ``array('d')`` of :func:`sim.stream`), then :meth:`close` it.

    It audits AUDIT_BLOCK rows per pass, once the row after them has come,
    and keeps one row of the last pass for the central differences: it
    holds at most a pass, the block that completed it and that row.  For
    each pass ``on_pass(lo, measured, bound)``, if given, receives the
    (3, rows) measured norms and bounds of the channels (CHANNELS order)
    from log row ``lo`` on.  ``violations`` and ``worst_margins`` reduce
    them, per channel, as :func:`bound_audit`'s traces do."""

    def __init__(self, scenario: sim.Scenario, on_pass=None):
        self._scenario, self._on_pass = scenario, on_pass
        self._k = airframe.AeroConstants(scenario.cfg)
        self._tables = []   # the last audited row, if any, then the rows not yet audited
        self._start = 0     # the log index of the first row of self._tables
        self._end = 0       # rows received
        self._next = 0      # the log index of the first row not yet audited
        self._dt = None
        self._first = None  # the measured norms of row 0
        self._sups = np.full((7, 1), -math.inf)  # the running suprema at the last pass's end
        self.violations = np.zeros(3, dtype=int)
        self.worst_margins = np.full(3, math.inf)

    def __call__(self, rows) -> None:
        if not isinstance(rows, np.ndarray):
            rows = np.frombuffer(rows).reshape(-1, sim.LOG_WIDTH)
        self._tables.append(rows)
        self._end += len(rows)
        if self._end - self._next > AUDIT_BLOCK:
            self._audit(final=False)

    def close(self) -> None:
        """Audit the rows not yet audited, the log's last row among them."""
        if self._end < MIN_AUDIT_SAMPLES:
            raise ValueError(f"log too short for finite differences: {self._end} samples")
        self._audit(final=True)  # a call leaves at least its last row unaudited

    def _audit(self, final: bool) -> None:
        """Audit AUDIT_BLOCK rows per pass while the row after them has come,
        and then, if ``final``, the rows left."""
        tables, start = self._tables, self._start
        table = tables[0] if len(tables) == 1 else np.concatenate(tables)
        lo = self._next
        while self._end - lo > AUDIT_BLOCK or (final and lo < self._end):
            hi = min(lo + AUDIT_BLOCK, self._end)
            a = max(lo - 1, 0)  # one row of halo on each side, where the log has one
            self._pass(table[a - start:hi + 1 - start], lo - a, hi - a, lo)
            lo = hi
        self._next, self._start = lo, lo - 1
        self._tables = [table[lo - 1 - start:]]

    def _pass(self, window: np.ndarray, lo: int, hi: int, row: int) -> None:
        """Audit rows ``lo:hi`` of ``window``, the log's rows from ``row`` on;
        the other rows of ``window`` are their halo."""
        t = window[:, 0]
        if self._dt is None:
            self._dt = t[1] - t[0]
        dt = self._dt
        if not np.all(np.abs(np.diff(t) - dt) <= 1e-9 * max(dt, 1.0)):
            raise ValueError("log timestamps are not uniform")
        norms = _disturbance_norms(window, lo, hi, self._scenario, self._k, dt)
        running = np.maximum(np.maximum.accumulate(norms, axis=1), self._sups)
        self._sups = running[:, -1:]
        d0, y1, rate, y0, y3, accel, y2 = running
        rows = sim.SimLog(window[lo:hi])
        measured = np.stack((rows.x0_norm, rows.eta1_norm, rows.eta2_norm))
        if self._first is None:
            self._first = measured[:, 0].tolist()
        x0_first, eta1_first, eta2_first = self._first
        g = self._scenario.gains
        bound = np.stack((
            theorem2_bound(rows.t, x0_first, g.k0, g.delta0, d0 + y1),
            theorem2_bound(rows.t, eta1_first, g.k1, g.delta1, rate + y0 + y3),
            theorem2_bound(rows.t, eta2_first, g.k2, g.delta2, accel + y2),
        ))
        self.violations += np.count_nonzero(measured > bound * (1.0 + DEFAULT_SLACK), axis=1)
        self.worst_margins = np.minimum(self.worst_margins, (bound - measured).min(axis=1))
        if self._on_pass is not None:
            self._on_pass(row, measured, bound)


def bound_audit(log: sim.SimLog, scenario: sim.Scenario) -> tuple[tuple[BoundTrace, ...], int]:
    """Channelwise envelope audit of the log of a run of ``scenario``, whose
    gains, plant constants and signals (at the logged times) it reads.

    Returns one trace per channel (LOS rate, attitude error, rate error) and
    the total violation count; a sample violates when measured exceeds
    bound * (1 + DEFAULT_SLACK).  The LOS channel's evader and force term is
    the running supremum of its norm divided by the range, row by row: the
    sup over [0, t] of the channel's disturbance d0/r, which the ISS
    estimate at time t takes.  Command derivatives are estimated by central
    finite differences (``np.gradient``, one-sided at the log's two ends), so
    that slack covers the discretization and integration error of a smooth
    run.  It is :class:`BlockAudit` fed the whole log: the input maps are
    the law's own helpers, called once over each pass's columns, and each
    running supremum carries on from the previous pass's last value, so
    the traces are those of one pass over the whole columns.  A state where
    the guidance map is singular, which no run logs, raises the law's
    SingularityError for the first such state.
    """
    # Only the measured norms and the bounds span the log; every other
    # temporary spans one pass.
    n = len(log)
    measured, bound = np.empty((3, n)), np.empty((3, n))

    def store(lo: int, pass_measured: np.ndarray, pass_bound: np.ndarray) -> None:
        hi = lo + pass_measured.shape[1]
        measured[:, lo:hi] = pass_measured
        bound[:, lo:hi] = pass_bound

    audit = BlockAudit(scenario, store)
    audit(log.table)
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
