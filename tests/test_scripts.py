"""Smoke tests of the study scripts on a shortened copy of the weave scenario."""

import os
import subprocess
import sys

import pytest

from .conftest import SCENARIO_DIR

SCRIPTS = SCENARIO_DIR.parent
SRC = SCRIPTS.parent / "src"


def weave_copy(tmp_path, t_max):
    text = (SCENARIO_DIR / "weave_disturbed.cfg").read_text()
    assert "t_max = 8.0" in text
    path = tmp_path / f"weave_{t_max}.cfg"
    path.write_text(text.replace("t_max = 8.0", f"t_max = {t_max}"))
    return path


@pytest.fixture
def short_weave(tmp_path):
    return weave_copy(tmp_path, "0.2")


def run_python(*args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def run_script(name, *args, cwd):
    return run_python(str(SCRIPTS / name), *args, cwd=cwd)


def test_bound_audit_report(tmp_path, short_weave):
    out = tmp_path / "traces.csv"
    done = run_script("bound_audit_report.py", "--scenario", str(short_weave),
                      "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "channel,t,measured,bound,margin"
    # One row per logged sample (t = 0 to 0.2 at dt = 0.002) and channel.
    assert len(lines) == 1 + 3 * 101


def test_bound_audit_report_short_log(tmp_path):
    # One logged sample: the audit is skipped as in `igcsim run --audit`.
    out = tmp_path / "traces.csv"
    done = run_script("bound_audit_report.py", "--scenario", str(weave_copy(tmp_path, "0")),
                      "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "bound audit: skipped, 1 sample(s) logged (needs 3)" in done.stdout
    assert out.read_text().splitlines() == ["channel,t,measured,bound,margin"]


def test_audit_memory(tmp_path, short_weave):
    done = run_script("audit_memory.py", "--scenario", str(short_weave), "--t-max", "0.1",
                      "--t-max", "0.2", "--dt", "0.002", "--dt", "0.001", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header == ("scenario t_max rows audit_ms heap_peak_mb rss_growth_mb "
                      "stream_audit_ms stream_heap_peak_mb")
    lines, (command_header, *command_lines) = lines[:2], lines[2:]
    # One line per run length, in a process of its own: 51 and 101 rows at dt = 0.002.
    assert [line.split()[:3] for line in lines] == [[short_weave.name, "0.1", "51"],
                                                    [short_weave.name, "0.2", "101"]]
    for line in lines:
        audit_ms, heap_peak_mb, rss_growth_mb, stream_audit_ms, stream_heap_peak_mb = map(
            float, line.split()[3:])
        assert audit_ms > 0.0 and heap_peak_mb > 0.0 and rss_growth_mb >= 0.0
        assert stream_audit_ms > 0.0 and stream_heap_peak_mb > 0.0
    # Then one line per step of the whole command over the scenario's 0.2 s.
    assert command_header == "scenario dt steps run_rss_growth_mb"
    assert [line.split()[:3] for line in command_lines] == [[short_weave.name, "0.002", "101"],
                                                            [short_weave.name, "0.001", "201"]]
    for line in command_lines:
        assert float(line.split()[3]) >= 0.0


def test_module_entry_point(tmp_path, short_weave):
    done = run_python("-m", "igcsim", "run", str(short_weave), str(tmp_path / "out.csv"),
                      "--audit", cwd=tmp_path)
    assert done.returncode == 2, done.stderr
    assert "outcome: timeout" in done.stdout
    assert "\nbound audit: " in done.stdout


def test_gain_sweep_study(tmp_path, short_weave):
    done = run_script("gain_sweep_study.py", "--scenario", str(short_weave),
                      "--out-dir", str(tmp_path), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    for name in ("delta_sweep", "k_sweep"):
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == "k1,k2,delta1,delta2,outcome,post_transient_sup_x0"
        assert len(lines) == 1 + 3


def test_step_digests(tmp_path, short_weave):
    args = ("--scenario", str(short_weave), "--scenario", str(SCENARIO_DIR / "nominal.cfg"),
            "--t-max", "0.05")
    first, second = (run_script("step_digests.py", *args, cwd=tmp_path) for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    # Two scenarios x hold/substep x trig/linear x no fin limit/delta_max.
    assert len(lines) == 16
    assert lines[0].startswith(f"{short_weave.name} hold trig delta_max=None ")
    assert len({line.split()[-1] for line in lines}) == 16
