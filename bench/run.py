"""digitcover benchmark: cold report, order-m resolution and number primitives.

    python3 bench/run.py --workload report --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each sample runs `bench/worker.py` in a fresh
interpreter with `src/` on the path, one at a time.  Every workload runs the
same three phases (a cold `reproduce_report()`, an order-m band, and the
number primitives), so it prints every end-to-end metric; the workloads
differ in which phase carries the weight and in the inputs, see
bench/README.md.  Outputs are checked with bench/oracle.py, which does not
use the code under test.

With --trace 1, one traced worker per phase times each layer's public calls
on the same inputs and the per-layer metrics are printed instead.  Every
run writes its samples (and spans) to bench/out/<workload>-seed<n>-trace<t>.json.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEADLINE_S = 170  # a run must end within 180 s

# The seed drives the `numbers` workload's inputs only.  The other two
# workloads read the shipped tables, and factor a fixed reference draw so
# that their number metrics move with the code, not with the seed.
REFERENCE_SEED = 0

PLANS = {
    # Many cold reports; the report's own order band (m <= 64, default budget).
    "report": {"reports": 6, "limit": 64, "rho_iterations": None, "bands": 3,
               "chunks": 5, "uniform": 400, "semiprimes": 60, "seeded": False},
    # One cold band m <= 1000 at the CLI's smallest --budget (10k iterations).
    "orders": {"reports": 3, "limit": 1000, "rho_iterations": 10_000, "bands": 1,
               "chunks": 3, "uniform": 400, "semiprimes": 60, "seeded": False},
    # Seeded 64-bit inputs, enough of them for steady percentiles.
    "numbers": {"reports": 3, "limit": 64, "rho_iterations": None, "bands": 3,
                "chunks": 5, "uniform": 800, "semiprimes": 200, "seeded": True},
}
SMOKE_PLAN = {"reports": 1, "limit": 12, "rho_iterations": 10_000, "bands": 1,
              "chunks": 1, "uniform": 20, "semiprimes": 5, "seeded": True}

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "report_s": "s", "orders_s": "s",
    "orders_resolved": "count", "orders_complete": "count",
    "factor64_ms_p50": "ms", "factor64_ms_p90": "ms",
    "semiprime64_ms_mean": "ms", "semiprime64_ms_p75": "ms", "scan_s": "s",
}


def per_layer_units(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "share" if name.endswith("share") else "count"


class Run:
    """Spawns workers one at a time and checks every output they return."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.results: list[tuple[str, dict]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def sample(self, phase: str, trace: bool, **job) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        job.update(phase=phase, trace=trace, spawned=time.time())
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=max(1.0, self.deadline - time.perf_counter()),
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            sys.exit(f"{phase} worker failed with exit code {done.returncode}")
        result = json.loads(done.stdout.splitlines()[-1])
        self.check(phase, job, result["out"])
        self.results.append((phase, result))
        return result

    def record(self, errors: list[str]) -> None:
        """Count one checked operation, failed if it has any error."""
        self.attempted += 1
        self.failed += bool(errors)
        self.errors.extend(errors)

    def check(self, phase: str, job: dict, out: dict) -> None:
        if phase == "report":
            errors = oracle.check_report(out["digits"])
            for digit, *_ in out["digits"]:
                self.record([e for e in errors if e.startswith(f"d={digit}:")])
            overall = [e for e in errors if not e.startswith("d=")]
            self.record(overall + ([] if out["ok"] else ["report: overall verdict is FAIL"]))
        elif phase == "orders":
            for m, primes, _, rows in out["moduli"]:
                primes = [int(p) for p in primes]
                rows = [[rho, None if p is None else int(p)] for rho, p in rows]
                self.record(oracle.check_modulus(m, primes, rows))
        else:
            for kind in ("uniform", "semiprimes"):
                for n, (fac, rem) in zip(job[kind], out[kind]):
                    self.record(oracle.check_factorization(n, fac, rem))
            for found in out["scans"]:
                ok = found == oracle.FIRST_DELICATE
                self.record([] if ok else [f"scan found {found}, not {oracle.FIRST_DELICATE}"])

    def outs(self, phase: str, key: str) -> list:
        return [r["out"][key] for p, r in self.results if p == phase]


def numbers_job(plan: dict, seed: int) -> dict:
    seed = seed if plan["seeded"] else REFERENCE_SEED
    return {"uniform": oracle.uniform64(seed, plan["uniform"]),
            "semiprimes": oracle.semiprimes64(seed, plan["semiprimes"]),
            "scan_bound": oracle.SCAN_BOUND}


def end_to_end(run: Run, plan: dict, seed: int, seconds: float, start: float) -> dict:
    """Interleave the phases' samples so that each metric is sampled across
    the whole run, not in one stretch of a host whose speed drifts."""
    numbers = numbers_job(plan, seed)
    k = plan["chunks"]
    chunks = [
        {**numbers, "uniform": numbers["uniform"][i::k], "semiprimes": numbers["semiprimes"][i::k]}
        for i in range(k)
    ]
    band = {"limit": plan["limit"], "rho_iterations": plan["rho_iterations"]}
    queues = [
        [("numbers", chunk) for chunk in chunks],
        [("orders", band)] * plan["bands"],
        [("report", {})] * plan["reports"],
    ]
    for phase, job in filter(None, sum(itertools.zip_longest(*queues), ())):
        run.sample(phase, False, **job)
    while time.perf_counter() - start < seconds:
        run.sample("report", False)
    uniform_ms = sum(run.outs("numbers", "uniform_ms"), [])
    semiprime_ms = sum(run.outs("numbers", "semiprimes_ms"), [])
    return {
        "setup_s": statistics.median(r["setup_s"] for _, r in run.results),
        "peak_rss_mb": max(r["rss_mb"] for _, r in run.results),
        "report_s": statistics.median(run.outs("report", "report_s")),
        "orders_s": statistics.median(run.outs("orders", "orders_s")),
        "orders_resolved": statistics.median(run.outs("orders", "resolved")),
        "orders_complete": statistics.median(run.outs("orders", "complete")),
        "factor64_ms_p50": statistics.median(uniform_ms),
        "factor64_ms_p90": statistics.quantiles(uniform_ms, n=10)[8],
        "semiprime64_ms_mean": statistics.mean(semiprime_ms),
        "semiprime64_ms_p75": statistics.quantiles(semiprime_ms, n=4)[2],
        "scan_s": statistics.median(run.outs("numbers", "scan_s")),
    }


def traced(run: Run, plan: dict, seed: int) -> dict:
    layer: dict = {}
    job = numbers_job(plan, seed)
    for phase, kwargs in (
        ("report", {}),
        ("orders", {"limit": plan["limit"], "rho_iterations": plan["rho_iterations"]}),
        ("numbers", job),
    ):
        layer.update(run.sample(phase, True, **kwargs)["layer"])
    layer["trace.spans"] = sum(len(r["spans"]) for _, r in run.results)
    layer["arith.factor64.rho_share"] = oracle.rho_share(
        [fac for fac, _ in run.outs("numbers", "uniform")[0]]
    )
    return layer


def machine() -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": version("numpy")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest inputs, for bench/smoke.py only")
    args = parser.parse_args()
    if not (ROOT / "src" / "digitcover" / "__init__.py").is_file():
        sys.exit(f"no src/digitcover under {ROOT}: run from the repository root")

    start = time.perf_counter()
    plan = SMOKE_PLAN if args.smoke else PLANS[args.workload]
    facts = machine()
    print(json.dumps({"machine": facts, "workload": args.workload, "seed": args.seed}))
    run = Run(start + DEADLINE_S)
    if args.trace:
        values = traced(run, plan, args.seed)
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in values.items()}
    else:
        values = end_to_end(run, plan, args.seed, args.seconds, start)
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    # Every sample's timings (and, traced, its spans) for later inspection.
    samples = [
        {"phase": phase, "setup_s": r["setup_s"], "raw_setup_s": r["raw_setup_s"],
         "rss_mb": r["rss_mb"],
         **{k: v for k, v in r["out"].items() if k.endswith(("_s", "_ms"))},
         **({"spans": r["spans"]} if args.trace else {})}
        for phase, r in run.results
    ]
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{run_id}.json").write_text(json.dumps(
        {"run_id": run_id, "machine": facts, "plan": plan, "samples": samples, "metrics": metrics}
    ))
    for error in run.errors[:20]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
