"""Benchmark workloads: seeded scenario files and the igcsim command line of each.

A workload operation is one igcsim CLI command.  Its scenario file is
generated from a copy of a shipped scenario (under ``scenarios/``, byte
for byte the files in ``scripts/scenarios/``) and the workload seed.  The
default seed leaves the text untouched; any other seed perturbs the initial
LOS rates and attack/sideslip inside a band that keeps every workload's
outcome (README.md records the evidence).  The program receives only the
generated files.

This module imports nothing but the standard library, so the set-up probe
times igcsim's import and not the benchmark's.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent / "scenarios"

DEFAULT_SEED = 0
# Each initial LOS rate is scaled by a factor drawn from
# [1 - LOS_RATE_BAND, 1 + LOS_RATE_BAND]; attack and sideslip are offset by
# a draw from [-ANGLE_BAND, ANGLE_BAND] rad.
LOS_RATE_BAND = 0.2
ANGLE_BAND = 0.01

# The acceptance-criterion-6 grid as one zipped six-point sweep:
# delta1 = delta2 in {0.5, 0.25, 0.1} at the shipped k1 = 10, k2 = 20, then
# k1 = k2 in {5, 10, 20} at the shipped delta1 = delta2 = 0.2.
SWEEP_GRID = {
    "k1": (10.0, 10.0, 10.0, 5.0, 10.0, 20.0),
    "k2": (20.0, 20.0, 20.0, 5.0, 10.0, 20.0),
    "delta1": (0.5, 0.25, 0.1, 0.2, 0.2, 0.2),
    "delta2": (0.5, 0.25, 0.1, 0.2, 0.2, 0.2),
}
SWEEP_POINTS = tuple(dict(zip(SWEEP_GRID, values)) for values in zip(*SWEEP_GRID.values()))
# The two halves of the grid; along each, sup|x0| must not grow.
SWEEP_TRENDS = (range(0, 3), range(3, 6))


def _key_pattern(key: str) -> re.Pattern:
    return re.compile(rf"^{re.escape(key)} = (\S+)$", re.MULTILINE)


def read_value(text: str, key: str) -> float:
    """The numeric value of a key that appears exactly once in scenario text."""
    found = _key_pattern(key).findall(text)
    if len(found) != 1:
        raise ValueError(f"scenario key {key!r} appears {len(found)} times, expected once")
    return float(found[0])


def _set_value(text: str, key: str, value: float) -> str:
    read_value(text, key)
    return _key_pattern(key).sub(lambda _: f"{key} = {value!r}", text)


@dataclass(frozen=True)
class Workload:
    """One igcsim CLI command over a seeded scenario."""

    name: str
    scenario: str          # file under scenarios/
    command: str           # "run" or "sweep"

    @property
    def outputs(self) -> tuple[str, ...]:
        """Files the command writes, relative to the work directory."""
        if self.command == "run":
            return (f"{self.name}.log.csv", f"{self.name}.summary.json")
        return (f"{self.name}.table.csv",)

    def scenario_text(self, seed: int) -> str:
        text = (SCENARIO_DIR / self.scenario).read_text(encoding="utf-8")
        if seed != DEFAULT_SEED:
            rng = random.Random(seed)
            for key in ("x01", "x02"):
                scale = rng.uniform(1.0 - LOS_RATE_BAND, 1.0 + LOS_RATE_BAND)
                text = _set_value(text, key, read_value(text, key) * scale)
            for key in ("alpha", "beta"):
                offset = rng.uniform(-ANGLE_BAND, ANGLE_BAND)
                text = _set_value(text, key, read_value(text, key) + offset)
        return text

    def write_scenario(self, seed: int, work: Path, stem: str | None = None) -> Path:
        path = work / f"{stem or self.name}.cfg"
        path.write_text(self.scenario_text(seed), encoding="utf-8")
        return path

    def argv(self, scenario: Path, work: Path) -> list[str]:
        outputs = [str(work / name) for name in self.outputs]
        if self.command == "run":
            return ["run", str(scenario), outputs[0], "--audit", "--summary-json", outputs[1]]
        grid = []
        for key, values in SWEEP_GRID.items():
            grid += ["--grid", f"{key}=" + ",".join(repr(v) for v in values)]
        return ["sweep", str(scenario), outputs[0], *grid]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("nominal-run", "nominal.cfg", "run"),
        Workload("weave-sweep", "weave_disturbed.cfg", "sweep"),
    )
}
