"""The benchmark at its smallest size (bench/smoke.py) runs and checks clean."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke():
    done = subprocess.run(
        [sys.executable, "bench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
