"""Smoke tests of the study scripts on a shortened copy of the weave scenario."""

import os
import subprocess
import sys

import pytest

from .conftest import SCENARIO_DIR

SCRIPTS = SCENARIO_DIR.parent
SRC = SCRIPTS.parent / "src"


@pytest.fixture
def short_weave(tmp_path):
    text = (SCENARIO_DIR / "weave_disturbed.cfg").read_text()
    assert "t_max = 8.0" in text
    path = tmp_path / "weave_short.cfg"
    path.write_text(text.replace("t_max = 8.0", "t_max = 0.2"))
    return path


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_bound_audit_report(tmp_path, short_weave):
    out = tmp_path / "traces.csv"
    done = run_script("bound_audit_report.py", "--scenario", str(short_weave),
                      "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "channel,t,measured,bound,margin"
    # One row per logged sample (t = 0 to 0.2 at dt = 0.002) and channel.
    assert len(lines) == 1 + 3 * 101


def test_gain_sweep_study(tmp_path, short_weave):
    done = run_script("gain_sweep_study.py", "--scenario", str(short_weave),
                      "--out-dir", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("delta_sweep", "k_sweep"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,delta1,delta2,outcome,post_transient_sup_x0"
        assert len(lines) == 1 + 3
