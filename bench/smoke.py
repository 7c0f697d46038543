"""Smoke test of the benchmark at its smallest size, apart from timed runs.

    python3 bench/smoke.py

Runs bench/run.py with --smoke, traced and untraced, from the repository
root and checks the result line against BENCHMARK.json.  Then runs it in a
directory that holds only BENCHMARK.json and bench/, where it must fail
without printing a result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    command = SPEC["command"] + [
        "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(trace: int) -> None:
    done = run(ROOT, trace)
    if done.returncode != 0:
        sys.exit(f"trace {trace}: exit code {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        sys.exit(f"trace {trace}: outputs failed their checks\n{done.stderr}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.exit(f"trace {trace}: metrics differ from BENCHMARK.json:\n"
                 f"missing {sorted(set(expected) - set(got))}, "
                 f"extra {sorted(set(got) - set(expected))}, "
                 f"units {[(k, got[k], expected[k]) for k in got if k in expected and got[k] != expected[k]]}")
    print(f"trace {trace}: {result['attempted']} operations checked, {len(got)} metrics")


def check_bare_directory() -> None:
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run(bare, 0)
    shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        sys.exit("without the sources the benchmark must fail without a result")
    print(f"bare directory: exit code {done.returncode}, no result")


if __name__ == "__main__":
    check_result(0)
    check_result(1)
    check_bare_directory()
    print("smoke OK")
