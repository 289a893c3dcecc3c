"""Output checks for one workload operation.

Under every seed the outcome invariants hold: a nominal run intercepts
with zero audit violations and a miss distance within ``r_intercept``;
every sweep point runs to the horizon and sup|x0| does not grow along
either half of the grid.  Under the default seed the outputs must also
match the reference pinned at the seed commit, entry by entry, within
RTOL of the reference column's peak magnitude.

``miss_distance`` is checked by its invariant only, never by value, so a
redefinition as closest approach keeps passing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, SWEEP_POINTS, SWEEP_TRENDS, Workload, read_value

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RTOL = 1e-10
# Every REFERENCE_STRIDE-th logged state row, and the last one, is pinned.
REFERENCE_STRIDE = 8
# Along a sweep trend, each point's sup|x0| may exceed the previous one's by
# at most this factor (the acceptance suite's criterion-6 slack).
TREND_SLACK = 1.10

CSV_COLUMNS = (
    "t", "r", "vr", "theta_l", "phi_l", "x01", "x02", "theta_v", "psi_v",
    "gamma", "alpha", "beta", "wx", "wy", "wz", "pitch",
    "dx", "dy_fin", "dz_fin",
    "alpha_cmd", "beta_cmd", "wx_cmd", "wy_cmd", "wz_cmd",
    "norm_x0", "norm_eta1", "norm_eta2",
)
STATE_COLUMNS = slice(1, 16)


@dataclass
class Verdict:
    """Engagements one operation covered, how many failed, and the steps it logged."""

    attempted: int
    failed: int
    steps: int
    notes: list[str] = field(default_factory=list)


def mismatched_rows(actual, expected, rtol: float = RTOL) -> np.ndarray:
    """Rows of ``actual`` with an entry farther than rtol * (column peak of
    ``expected``) from ``expected``; every row when the shapes differ."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return np.ones(len(expected), dtype=bool)
    scale = np.abs(expected).max(axis=0)
    close = np.abs(actual - expected) <= rtol * scale
    return ~close.all(axis=1)


def output_digest(workload: Workload, work: Path) -> str:
    """Hash of every byte the command wrote."""
    digest = hashlib.sha256()
    for name in workload.outputs:
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def load_reference(workload: Workload):
    """Pinned default-seed outputs: (row indices, states, steps) for a run,
    the list of point records for a sweep."""
    if workload.command == "run":
        with np.load(REFERENCE_DIR / f"{workload.name}.npz") as data:
            return data["rows"], data["states"], int(data["steps"])
    return json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text())["points"]


def _sweep_values(points) -> np.ndarray:
    return np.array([[p["final_r"], p["post_transient_sup_x0"]] for p in points])


def comparator_self_check(workload: Workload) -> bool:
    """The reference matches itself and does not match a copy nudged at its
    largest entry by ten times the tolerance."""
    reference = load_reference(workload)
    values = reference[1] if workload.command == "run" else _sweep_values(reference)
    nudged = values.copy()
    peak = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    nudged[peak] += 10.0 * RTOL * abs(values[peak])
    return not mismatched_rows(values, values).any() and mismatched_rows(nudged, values).any()


def _read_table(workload: Workload, work: Path) -> list[dict]:
    with open(work / workload.outputs[0], encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _sweep_point(row: dict, dt: float) -> dict:
    return {
        "outcome": row["outcome"],
        "steps": round(float(row["flight_time"]) / dt) + 1,
        "final_r": float(row["final_r"]),
        "post_transient_sup_x0": float(row["post_transient_sup_x0"]),
    }


def pin_reference(workload: Workload, scenario_text: str, work: Path) -> Path:
    """Store the outputs in ``work`` as the workload's reference."""
    if workload.command == "run":
        log = np.loadtxt(work / workload.outputs[0], delimiter=",", skiprows=1, ndmin=2)
        rows = np.unique(np.r_[np.arange(0, len(log), REFERENCE_STRIDE), len(log) - 1])
        path = REFERENCE_DIR / f"{workload.name}.npz"
        np.savez_compressed(path, rows=rows, states=log[rows, STATE_COLUMNS], steps=len(log))
        return path
    dt = read_value(scenario_text, "dt")
    points = [_sweep_point(row, dt) for row in _read_table(workload, work)]
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps({"points": points}, indent=1) + "\n", encoding="utf-8")
    return path


def check(workload: Workload, scenario_text: str, rc, work: Path, seed: int) -> Verdict:
    """Check the outputs one operation left in ``work``; ``rc`` is its exit code."""
    if workload.command == "run":
        return _check_run(workload, scenario_text, rc, work, seed)
    return _check_sweep(workload, scenario_text, rc, work, seed)


def _check_run(workload, scenario_text, rc, work, seed) -> Verdict:
    log_path, summary_path = (work / name for name in workload.outputs)
    r_intercept = read_value(scenario_text, "r_intercept")
    dt = read_value(scenario_text, "dt")
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        with open(log_path, encoding="utf-8") as handle:
            header = tuple(handle.readline().strip().split(","))
        log = np.loadtxt(log_path, delimiter=",", skiprows=1, ndmin=2)
        steps = int(summary["steps"])
        outcome, violations = summary["outcome"], summary.get("audit_violations")
        final_r, miss = float(summary["final_r"]), float(summary["miss_distance"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(1, 1, 0, [f"unreadable outputs: {exc!r}"])

    notes = []
    if rc != 0:
        notes.append(f"exit code {rc!r}, expected 0")
    if outcome != "intercept":
        notes.append(f"outcome {outcome!r}, expected intercept")
    if violations != [0, 0, 0]:
        notes.append(f"audit violations {violations!r}, expected [0, 0, 0]")
    if not 0.0 < miss <= r_intercept:
        notes.append(f"miss distance {miss!r} outside (0, r_intercept={r_intercept!r}]")
    if header != CSV_COLUMNS or log.shape != (steps, len(CSV_COLUMNS)):
        notes.append(f"log shape {log.shape} / header does not match {steps} steps x 27 columns")
    else:
        if not np.allclose(log[:, 0], np.arange(steps) * dt, rtol=0.0, atol=1e-9):
            notes.append("log time column is not the uniform step grid")
        if not log[-1, 1] == final_r <= r_intercept:
            notes.append(f"final range {final_r!r} does not close the log at r <= r_intercept")
        if seed == DEFAULT_SEED:
            rows, states, ref_steps = load_reference(workload)
            if steps != ref_steps:
                notes.append(f"{steps} steps, reference {ref_steps}")
            else:
                bad = int(mismatched_rows(log[rows, STATE_COLUMNS], states).sum())
                if bad:
                    notes.append(f"{bad} of {len(rows)} pinned state rows differ from "
                                 f"the reference beyond rtol {RTOL:g}")
    return Verdict(1, 1 if notes else 0, steps, notes)


def _check_sweep(workload, scenario_text, rc, work, seed) -> Verdict:
    n = len(SWEEP_POINTS)
    dt = read_value(scenario_text, "dt")
    horizon_steps = round(read_value(scenario_text, "t_max") / dt) + 1
    try:
        table = _read_table(workload, work)
    except OSError as exc:
        return Verdict(n, n, 0, [f"unreadable table: {exc!r}"])
    if rc != 0 or len(table) != n:
        return Verdict(n, n, 0, [f"exit code {rc!r} with {len(table)} rows, expected 0 and {n}"])

    notes, bad, points = [], set(), []
    for i, (row, gains) in enumerate(zip(table, SWEEP_POINTS)):
        try:
            point = _sweep_point(row, dt)
            miss = float(row["miss_distance"])
            same_gains = all(float(row[key]) == value for key, value in gains.items())
        except (KeyError, ValueError) as exc:
            notes.append(f"point {i}: unreadable row: {exc!r}")
            bad.add(i)
            points.append(None)
            continue
        points.append(point)
        problems = []
        if not same_gains:
            problems.append("gains differ from the grid")
        if point["outcome"] != "timeout" or row["error"]:
            problems.append(f"outcome {point['outcome']!r} {row['error']!r}, expected timeout")
        if point["steps"] != horizon_steps:
            problems.append(f"{point['steps']} steps, horizon is {horizon_steps}")
        if not 0.0 < miss <= point["final_r"]:
            problems.append(f"miss distance {miss!r} outside (0, final range]")
        if not (math.isfinite(point["post_transient_sup_x0"])
                and point["post_transient_sup_x0"] > 0.0):
            problems.append("sup|x0| not finite and positive")
        if problems:
            notes.append(f"point {i}: " + "; ".join(problems))
            bad.add(i)

    for trend in SWEEP_TRENDS:
        if any(points[i] is None for i in trend):
            continue
        sups = [points[i]["post_transient_sup_x0"] for i in trend]
        if not all(b <= TREND_SLACK * a for a, b in zip(sups, sups[1:])):
            notes.append(f"points {list(trend)}: sup|x0| {sups} grows along the grid")
            bad.update(trend)

    if seed == DEFAULT_SEED and None not in points:
        reference = load_reference(workload)
        off = mismatched_rows(_sweep_values(points), _sweep_values(reference))
        for i, (point, pinned) in enumerate(zip(points, reference)):
            if off[i] or (point["outcome"], point["steps"]) != (pinned["outcome"], pinned["steps"]):
                notes.append(f"point {i}: differs from the reference beyond rtol {RTOL:g}")
                bad.add(i)

    steps = sum(point["steps"] for point in points if point is not None)
    return Verdict(n, len(bad), steps, notes)
