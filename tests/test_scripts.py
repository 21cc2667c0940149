"""The demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result


def test_run_case3bus_demo(tmp_path):
    out_csv = tmp_path / "demo.csv"
    result = run_script(
        "run_case3bus.py", "--horizon", "0.05", "--out", str(out_csv), cwd=tmp_path
    )
    assert out_csv.exists()
    assert (tmp_path / "demo.manifest.json").exists()
    assert "conclusion:" in result.stdout


def test_benchmark_check_selftest():
    # the benchmark's output checks accept the genuine outputs of a
    # generated case and reject corrupted ones; it writes only under the
    # ignored perfbench/_work/
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_identity_convergence_script(tmp_path):
    result = run_script(
        "identity_convergence.py", "--horizon", "0.2", "--halvings", "1", cwd=tmp_path
    )
    # one row per step size, then the fitted order of the potential identity
    rows = [line.split()[0] for line in result.stdout.splitlines()[1:3]]
    assert rows == ["1.00e-02", "5.00e-03"]
    order = float(result.stdout.rsplit("fitted order (potential identity):", 1)[1])
    assert order == pytest.approx(2.0, abs=0.1)


def test_output_digests_script(tmp_path):
    # one line per command on case3bus: exit code, digests and stderr, with
    # no path of the run in them
    out = run_script("output_digests.py", "--sets", "case3bus", cwd=tmp_path).stdout
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "case3bus equilibrium", "case3bus simulate", "case3bus certify",
        "case3bus certify --with-trajectory", "case3bus verify-identities",
        "case3bus simulate rejected",
    ]
    assert all("exit=0" in line and "stderr=''" in line for line in lines[:-1])
    assert "exit=1" in lines[-1] and "sim.csv=absent" in lines[-1]
    assert "unknown component 'ghost_source'" in lines[-1]
    assert "tmp" not in out
