"""The benchmark harness still runs against the library: `perfbench/run.py
--smoke` runs every workload at tiny sizes, checks every metric name and
unit, and counts wrong answers, so a renamed field it reads fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    run = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    assert "smoke: ok" in run.stdout.splitlines(), run.stdout[-2000:]
