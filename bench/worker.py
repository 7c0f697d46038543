"""One benchmark sample in a fresh interpreter.

Reads a JSON job on stdin, imports `digitcover` from `src/` of the current
directory, runs one phase, and prints one JSON line: set-up time, peak RSS,
the phase's outputs (checked by run.py), and, for a traced job, the spans
and per-layer metrics.

A fresh interpreter per sample matters: `default_bundle` and
`_primes_of_order_cached` are lru caches, so a second in-process sample
would measure a warm program that `digitcover` users never run.

Untraced jobs time only public calls and hold no tracer.  Traced jobs wrap
each public call in a span and add the per-layer calls (`factor` and
`has_order` on the cyclotomic values, `reduction_profile`, ...) after the
outputs are taken, so the untraced path stays as users run it.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import digitcover
from digitcover.arith import DEFAULT_BUDGET, FactorBudget, factor, has_order, primes_up_to
from digitcover.bundle import (
    DATA_ROOT,
    default_bundle,
    ingest_tables,
    reproduce_report,
    resolve_assignment,
    shared_prime_checks,
)
from digitcover.covering import (
    is_covering_fast,
    is_covering_naive,
    lcm_analysis,
    reduction_profile,
)
from digitcover.cyclotomic import cyclotomic_value, primes_of_order
from digitcover.delicate import find_first_digitally_delicate, is_digitally_delicate

# Routing thresholds the package applies at this commit, mirrored so the
# traced run can time each route and record the input mix: the report
# scans digits with lcm <= 10**6 naively, and primes_of_order skips rho on
# cyclotomic values above 512 bits.
NAIVE_LCM = 10 ** 6
RHO_BITS = 512

# Host-speed calibration.  The host's speed swings by up to 1.7x within
# seconds (other tenants on the same cores), and CPU time follows wall
# time.  Every timed call is therefore bracketed by a fixed calibration
# kernel that runs no package code, and its time is scaled by the kernel's
# time on an idle vCPU of this host over its time around the call: the
# result reads as seconds at idle speed.  The Python kernel tracks
# interpreter-bound calls; the report also spends about half its time in
# numpy strided writes, whose slowdown follows memory instead, so it is
# calibrated with both halves.
CAL_ITERATIONS = 10_000
CAL_STRIDES = (7, 11, 13, 17, 19, 23, 29, 31)
CAL_REF_S = {False: 0.0021, True: 0.0039}  # idle kernel time, without and with numpy
CAL_EVERY_S = 0.05  # work between two calibrations
LONG_CALL_LOOPS = 25  # kernel runs around a call of about a second


def calibrate(loops: int = 1, with_numpy: bool = False) -> float:
    """Seconds per kernel run, averaged over `loops` runs."""
    start = time.perf_counter()
    for _ in range(loops):
        x, modulus = 1, (1 << 61) - 1
        for k in range(CAL_ITERATIONS):
            x = (x * x + k) % modulus
        if with_numpy:
            cells = np.zeros(1 << 22, dtype=bool)  # freed before the timed call
            for step in CAL_STRIDES:
                cells[3::step] = True
    return (time.perf_counter() - start) / loops


def timed(calls, loops: int = 1, with_numpy: bool = False) -> tuple[list, list[float], list[float]]:
    """Run zero-argument calls in order; return their results, their
    calibrated times and their raw wall times in seconds.  The kernel runs
    `loops` times before the first call and after every CAL_EVERY_S of
    calls; each call is scaled by the mean of the two readings around it."""
    results, raw = [], []
    cals, ends = [calibrate(loops, with_numpy)], []
    since = 0.0
    for call in calls:
        start = time.perf_counter()
        results.append(call())
        raw.append(time.perf_counter() - start)
        since += raw[-1]
        if since >= CAL_EVERY_S:
            cals.append(calibrate(loops, with_numpy))
            ends.append(len(raw))
            since = 0.0
    if not ends or ends[-1] < len(raw):
        cals.append(calibrate(loops, with_numpy))
        ends.append(len(raw))
    scaled, begin = [], 0
    for k, end in enumerate(ends):
        scale = CAL_REF_S[with_numpy] / ((cals[k] + cals[k + 1]) / 2)
        scaled.extend(dt * scale for dt in raw[begin:end])
        begin = end
    return results, scaled, raw


class Tracer:
    """Spans (name, parent, start, end, attributes), kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = [name, self._open[-1] if self._open else None, 0.0, 0.0, attrs]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._open.pop()

    def total(self, name: str, **match) -> float:
        return sum(
            end - start
            for n, _, start, end, attrs in self.spans
            if n == name and all(attrs.get(k) == v for k, v in match.items())
        )

    def dump(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": parent, "start": start, "end": end, **attrs}
            for i, (n, parent, start, end, attrs) in enumerate(self.spans)
        ]


def report_outputs(report) -> dict:
    return {
        "digits": [
            [r.digit, r.covering, r.congruences, str(r.lcm), str(r.max_prime)]
            for r in report.digits
        ],
        "ok": report.ok,
    }


def phase_report(job) -> dict:
    (report,), (seconds,), (raw,) = timed([reproduce_report], LONG_CALL_LOOPS, with_numpy=True)
    return {"report_s": seconds, "raw_report_s": raw, **report_outputs(report)}


def traced_report(job, tracer: Tracer) -> tuple[dict, dict]:
    with tracer.span("bundle.ingest_tables"):
        bundle = ingest_tables(DATA_ROOT)
    layer = {"covering.classes": 0, "covering.kept": 0, "covering.cells_spanned": 0,
             "covering.max_span": 0, "covering.naive_cells": 0, "covering.fast_digits": 0}
    for d in sorted(bundle.coverings):
        system = bundle.system(d)
        with tracer.span("covering.lcm_analysis", digit=d):
            lcm = lcm_analysis(system).lcm
        route = "naive" if lcm <= NAIVE_LCM else "fast"
        with tracer.span("covering.verify", digit=d, route=route):
            (is_covering_naive if route == "naive" else is_covering_fast)(system)
        if route == "naive":
            layer["covering.naive_cells"] += lcm
            continue
        layer["covering.fast_digits"] += 1
        with tracer.span("covering.reduction_profile", digit=d):
            profile = reduction_profile(system)
        layer["covering.classes"] += len(profile)
        layer["covering.kept"] += sum(len(r.congruences) for r in profile)
        layer["covering.cells_spanned"] += sum(r.span for r in profile)
        layer["covering.max_span"] = max(layer["covering.max_span"], *(r.span for r in profile))
    with tracer.span("bundle.reproduce_report"):
        report = reproduce_report(bundle)
    # The report above resolved every assignment, so this times only the
    # construction-layer consistency checks.
    with tracer.span("construction.shared_prime_checks"):
        shared = shared_prime_checks(bundle, report.resolve_limit)
    layer.update({
        "bundle.ingest_s": tracer.total("bundle.ingest_tables"),
        "covering.verify_s": tracer.total("covering.verify"),
        "covering.lcm_analysis_s": tracer.total("covering.lcm_analysis"),
        "construction.shared_s": tracer.total("construction.shared_prime_checks"),
        "construction.shared_keys": len(shared),
    })
    for d in sorted(bundle.coverings):
        layer[f"covering.verify_s.d{d}"] = tracer.total("covering.verify", digit=d)
    return report_outputs(report), layer


def band(limit: int):
    """Table rows (m, rho) with m <= limit, and their distinct moduli."""
    bundle = default_bundle()
    rows = [
        (row.congruence.modulus, row.rho)
        for d in sorted(bundle.coverings)
        for row in bundle.rows(d)
        if row.rho is not None and row.congruence.modulus <= limit
    ]
    return rows, sorted({m for m, _ in rows})


def budget_of(job) -> FactorBudget:
    iterations = job["rho_iterations"]
    return DEFAULT_BUDGET if iterations is None else FactorBudget(rho_iterations=iterations)


def orders_outputs(moduli, found, rows, resolved) -> dict:
    by_m = {m: [] for m in moduli}
    for (m, rho), p in zip(rows, resolved):
        by_m[m].append([rho, None if p is None else str(p)])
    return {
        "moduli": [
            [m, [str(p) for p in found[m].primes], found[m].complete, by_m[m]]
            for m in moduli
        ],
        "resolved": sum(p is not None for p in resolved),
        "complete": sum(found[m].complete for m in moduli),
    }


def phase_orders(job) -> dict:
    budget = budget_of(job)
    rows, moduli = band(job["limit"])
    calls = [functools.partial(primes_of_order, m, budget) for m in moduli]
    calls += [functools.partial(resolve_assignment, m, rho, budget) for m, rho in rows]
    results, seconds, raw = timed(calls)
    found = dict(zip(moduli, results))
    resolved = results[len(moduli):]
    return {"orders_s": sum(seconds), "raw_orders_s": sum(raw),
            **orders_outputs(moduli, found, rows, resolved)}


def traced_orders(job, tracer: Tracer) -> tuple[dict, dict]:
    budget = budget_of(job)
    trial_only = FactorBudget(trial_bound=budget.trial_bound, rho_iterations=0, rho_restarts=0)
    rows, moduli = band(job["limit"])
    values, route = {}, {}
    for m in moduli:
        with tracer.span("cyclotomic.cyclotomic_value", m=m):
            values[m] = cyclotomic_value(m, 10)
        route[m] = "rho" if values[m].bit_length() <= RHO_BITS else "trial"
    found = {}
    for m in moduli:
        with tracer.span("cyclotomic.primes_of_order", m=m, route=route[m]):
            found[m] = primes_of_order(m, budget)
    resolved = []
    for m, rho in rows:
        with tracer.span("bundle.resolve_assignment", m=m, rho=rho):
            resolved.append(resolve_assignment(m, rho, budget))
    outputs = orders_outputs(moduli, found, rows, resolved)
    # Layer calls on the same values, after the outputs: factor by the
    # route primes_of_order takes, then has_order on every prime found.
    for m in moduli:
        with tracer.span("arith.factor", m=m, route=route[m]):
            factor(values[m], budget if route[m] == "rho" else trial_only)
    for m in moduli:
        for p in found[m].primes:
            with tracer.span("arith.has_order", m=m):
                has_order(10, m, p)
    rho_moduli = sum(r == "rho" for r in route.values())
    layer = {
        "cyclotomic.value_s": tracer.total("cyclotomic.cyclotomic_value"),
        "cyclotomic.order_s": tracer.total("cyclotomic.primes_of_order"),
        "cyclotomic.order_s.rho": tracer.total("cyclotomic.primes_of_order", route="rho"),
        "cyclotomic.order_s.trial": tracer.total("cyclotomic.primes_of_order", route="trial"),
        "cyclotomic.moduli_rho": rho_moduli,
        "cyclotomic.moduli_trial": len(moduli) - rho_moduli,
        "bundle.resolve_s": tracer.total("bundle.resolve_assignment"),
        "bundle.resolved": outputs["resolved"],
        "arith.factor_s": tracer.total("arith.factor"),
        "arith.has_order_s": tracer.total("arith.has_order"),
    }
    return outputs, layer


def factor_outputs(fac) -> list:
    return [[[p, e] for p, e in fac.factors], fac.remainder]


def traced_factors(numbers: list[int], tracer: Tracer, kind: str) -> list:
    facs = []
    for n in numbers:
        with tracer.span(f"arith.factor.{kind}"):
            facs.append(factor_outputs(factor(n)))
    return facs


def phase_numbers(job) -> dict:
    out = {}
    for kind in ("uniform", "semiprimes"):
        facs, seconds, raw = timed(functools.partial(factor, n) for n in job[kind])
        out[kind] = [factor_outputs(f) for f in facs]
        out[f"{kind}_ms"] = [s * 1e3 for s in seconds]
        out[f"raw_{kind}_ms"] = [s * 1e3 for s in raw]
    (found,), (out["scan_s"],), (out["raw_scan_s"],) = timed(
        [functools.partial(find_first_digitally_delicate, job["scan_bound"])], LONG_CALL_LOOPS
    )
    out["scans"] = [found]
    return out


def traced_numbers(job, tracer: Tracer) -> tuple[dict, dict]:
    uniform = traced_factors(job["uniform"], tracer, "uniform64")
    semiprimes = traced_factors(job["semiprimes"], tracer, "semiprime64")
    # The same scan untraced and then as its traced layer calls, both
    # calibrated; the difference is the tracing overhead at ~26k spans.
    def traced_scan():
        with tracer.span("arith.primes_up_to"):
            primes = primes_up_to(job["scan_bound"])
        for checked, p in enumerate(primes, start=1):
            with tracer.span("delicate.is_digitally_delicate"):
                if is_digitally_delicate(p):
                    return p, checked
        return None, len(primes)

    untraced_call = functools.partial(find_first_digitally_delicate, job["scan_bound"])
    (untraced,), (untraced_s,), _ = timed([untraced_call], LONG_CALL_LOOPS)
    ((first, checked),), (traced_s,), _ = timed([traced_scan], LONG_CALL_LOOPS)
    layer = {
        "arith.primes_up_to_s": tracer.total("arith.primes_up_to"),
        "delicate.check_s": tracer.total("delicate.is_digitally_delicate"),
        "delicate.primes_checked": checked,
        "trace.overhead_s": traced_s - untraced_s,
    }
    outputs = {"uniform": uniform, "semiprimes": semiprimes, "scans": [untraced, first]}
    return outputs, layer


PHASES = {"report": phase_report, "orders": phase_orders, "numbers": phase_numbers}
TRACED = {"report": traced_report, "orders": traced_orders, "numbers": traced_numbers}


def main() -> None:
    job = json.loads(sys.stdin.read())
    default_bundle()
    raw_setup_s = time.time() - job["spawned"]
    result = {"setup_s": raw_setup_s * CAL_REF_S[False] / calibrate(LONG_CALL_LOOPS),
              "raw_setup_s": raw_setup_s}
    src = (Path.cwd() / "src").resolve()
    if src not in Path(digitcover.__file__).resolve().parents:
        sys.exit(f"digitcover was imported from {digitcover.__file__}, not {src}")
    if job["trace"]:
        tracer = Tracer()
        with tracer.span(f"phase.{job['phase']}"):
            result["out"], result["layer"] = TRACED[job["phase"]](job, tracer)
        result["spans"] = tracer.dump()
    else:
        result["out"] = PHASES[job["phase"]](job)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
