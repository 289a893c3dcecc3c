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

    Scans attack, sideslip, and pitch over [-0.3, 0.3] on 9 points and the
    roll angle over a full turn on 18.
    """
    angles = np.linspace(-0.3, 0.3, 9).tolist()
    rolls = np.linspace(-math.pi, math.pi, 18).tolist()
    blocks = [airframe.mixer(gamma, alpha, beta, pitch)
              for pitch in angles for alpha in angles for beta in angles for gamma in rolls]
    return float(np.linalg.norm(np.reshape(blocks, (-1, 3, 3)), 2, axis=(-2, -1)).max())


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
        lines = [
            "small-gain certificate",
            f"  |g0| bound: {self.g0_norm:.6g}   |g1| bound: {self.g1_norm:.6g}",
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
                      gamma_2y_est: float | None = None) -> GainCertificate:
    g1y, _, g3y, _ = linear_gains(gains, g0_norm, g1_norm)
    return GainCertificate(
        gamma_1y=g1y.coefficient,
        gamma_3y=g3y.coefficient,
        g0_norm=g0_norm,
        g1_norm=g1_norm,
        gamma_0y_est=gamma_0y_est,
        gamma_2y_est=gamma_2y_est,
    )


def _central_differences(series: np.ndarray, dt: float) -> np.ndarray:
    """Columnwise derivative estimate; one-sided at the endpoints."""
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (series[1] - series[0]) / dt
    out[-1] = (series[-1] - series[-2]) / dt
    return out


def _running_sup(norms: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(norms)


def bound_audit(log: sim.SimLog, scenario: sim.Scenario, slack: float = DEFAULT_SLACK
                ) -> tuple[tuple[BoundTrace, ...], int]:
    """Channelwise envelope audit of the log of a run of ``scenario``, whose
    gains, plant constants, ``r_min`` and signals (at the logged times) it reads.

    Returns one trace per channel (LOS rate, attitude error, rate error) and
    the total violation count; a sample violates when measured exceeds
    bound * (1 + slack).  Command derivatives are estimated by central
    finite differences, so the default slack covers the discretization and
    integration error of a smooth run.  The input maps are the law's own at
    each logged state, so a state where the guidance map is singular, which
    no run logs, raises SingularityError.
    """
    t = log.t
    n = t.shape[0]
    if n < MIN_AUDIT_SAMPLES:
        raise ValueError(f"log too short for finite differences: {n} samples")
    steps = np.diff(t)
    dt = steps[0]
    if not np.all(np.abs(steps - dt) <= 1e-9 * max(dt, 1.0)):
        raise ValueError("log timestamps are not uniform")
    scenario.validate()  # r_min > 0 bounds the 1/r scaling below
    gains, cfg, r_min = scenario.gains, scenario.cfg, scenario.r_min
    rate, accel, lift, side, evader = sim.inputs(scenario, t)

    # The channels' input maps at every sample, replayed through the law's
    # functions row by row into arrays: lists of the whole log's floats
    # would raise the peak memory of a run by a fifth.
    k = airframe.AeroConstants(cfg)
    proj, g0, g1 = np.empty((n, 4)), np.empty((n, 4)), np.empty((n, 9))
    for i, y in enumerate(log.states):
        r, _, theta_l, phi_l, _, _, theta_v, psi_v, gamma, alpha, beta, _, _, _, pitch = y.tolist()
        m = frames.los_rows(theta_l, phi_l, theta_v, psi_v)
        proj[i] = m[4], m[5], m[7], m[8]
        g0[i] = engagement.guidance_map(k, r, theta_l, phi_l, theta_v, psi_v)
        g1[i] = airframe.mixer(gamma, alpha, beta, pitch)
    proj, g0, g1 = proj.reshape(n, 2, 2), g0.reshape(n, 2, 2), g1.reshape(n, 3, 3)

    # Guidance channel: disturbance is (evader + force uncertainty)/r plus
    # the attitude tracking error mapped through the input matrix.
    x0_norm = log.x0_norm
    d_force = np.stack([lift, side], axis=-1) / cfg.mass
    d0 = -np.einsum("nij,nj->ni", proj, d_force) + evader[:, 1:3]
    y1 = np.einsum("nij,nj->ni", g0, log.eta1[:, 1:])
    # Keep the 1/r scaling sound even if the final sample dips below r_min.
    r_floor = min(r_min, float(log.r.min()))
    bound_x0 = x0_bound(t, float(x0_norm[0]), gains, r_floor,
                        _running_sup(np.linalg.norm(d0, axis=-1)),
                        _running_sup(np.linalg.norm(y1, axis=-1)))

    # Attitude channel: disturbance is the rate noise, the command
    # derivative, and the rate tracking error mapped through the mixer.
    eta1_norm = log.eta1_norm
    y0 = -_central_differences(log.x1_cmd, dt)
    y3 = np.einsum("nij,nj->ni", g1, log.eta2)
    combined1 = (
        _running_sup(np.linalg.norm(rate, axis=-1))
        + _running_sup(np.linalg.norm(y0, axis=-1))
        + _running_sup(np.linalg.norm(y3, axis=-1))
    )
    bound_eta1 = theorem2_bound(t, float(eta1_norm[0]), gains.k1, gains.delta1, combined1)

    # Rate channel: disturbance is the moment noise plus the rate-command
    # derivative.
    eta2_norm = log.eta2_norm
    y2 = -_central_differences(log.x2_cmd, dt)
    combined2 = (
        _running_sup(np.linalg.norm(accel, axis=-1))
        + _running_sup(np.linalg.norm(y2, axis=-1))
    )
    bound_eta2 = theorem2_bound(t, float(eta2_norm[0]), gains.k2, gains.delta2, combined2)

    traces = []
    total = 0
    for channel, measured, bound in (
        ("los_rate", x0_norm, bound_x0),
        ("attitude_error", eta1_norm, bound_eta1),
        ("rate_error", eta2_norm, bound_eta2),
    ):
        violations = int(np.count_nonzero(measured > bound * (1.0 + slack)))
        total += violations
        traces.append(BoundTrace(channel, t, measured, bound, violations))
    return tuple(traces), total


def estimate_loop_gain(scenario, loop: str, base_amplitude: float,
                       scale: float = 2.0, frequency: float = 2.0) -> LinearGain:
    """Crude probe of an outer loop gain that has no closed form.

    Runs the closed loop twice with a sinusoidal input injected into the
    target channel at two amplitudes, differences the responses of the
    relevant command derivative (so matching transients cancel), and ratios
    the response-difference supremum against the input-supremum difference.
    loop 'guidance' probes the attitude-command derivative against LOS-rate
    forcing; loop 'rate' probes the rate-command derivative against
    attitude-rate forcing.  The scenario must not intercept or breach a
    guard within its horizon: the probe needs a pair of full-length,
    endgame-free trajectories.
    """
    if loop not in ("guidance", "rate"):
        raise ValueError(f"loop must be 'guidance' or 'rate', got {loop!r}")
    if not base_amplitude > 0.0 or not scale > 1.0:
        raise ValueError("base_amplitude must be > 0 and scale > 1")

    # Start on the command manifold and strip the scenario's own inputs so
    # the paired responses differ only through the injected signal.
    quiet = sim.trim_attitude_to_commands(
        replace(scenario, evader=EvaderModel(), disturbances=DisturbanceModel()))
    probes = []
    for amplitude in (base_amplitude, scale * base_amplitude):
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
    return _central_differences(cmd, probe.dt)[2:-2], float(forcing.max())
