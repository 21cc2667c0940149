"""The demo scripts run end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_case3bus_demo(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out_csv = tmp_path / "demo.csv"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_case3bus.py"),
         "--horizon", "0.05", "--out", str(out_csv)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert out_csv.exists()
    assert (tmp_path / "demo.manifest.json").exists()
    assert "conclusion:" in result.stdout
