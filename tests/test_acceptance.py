"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest -s` to see them inline)."""

import math
import random
import time

import sympy

from digitcover.arith import (
    crt_combine,
    factor,
    has_order,
    is_prime,
    primes_up_to,
)
from digitcover.bundle import (
    EXPECTED_CONGRUENCE_COUNTS,
    EXPECTED_LCM,
    EXPECTED_MAX_PRIME,
    reproduce_report,
)
from digitcover.cli import main
from digitcover.covering import (
    CoveringSystem,
    is_covering_fast,
    is_covering_naive,
    reduction_profile,
)
from digitcover.cyclotomic import primes_of_order
from digitcover.delicate import Substitution, digit_at
from digitcover.construction import derive_b_residue, verify_property_star_sample
from digitcover.graham import GrahamInstance, recurrence_period, reduce_seeds, verify_cover

from conftest import build_mini_construction


def test_criterion_1_covering_report(bundle):
    start = time.perf_counter()
    report = reproduce_report(bundle)
    elapsed = time.perf_counter() - start
    by_digit = {r.digit: r for r in report.digits}
    for d in EXPECTED_LCM:
        row = by_digit[d]
        assert row.covering, f"d={d} did not verify as a covering"
        assert row.congruences == EXPECTED_CONGRUENCE_COUNTS[d], d
        assert row.lcm == EXPECTED_LCM[d], d
        assert row.max_prime == EXPECTED_MAX_PRIME[d], d
    for d in (-7, -4, -1, 2, 5, 8):
        assert by_digit[d].covering and by_digit[d].congruences == 1
    assert report.ok
    assert elapsed <= 1800, f"report took {elapsed:.1f}s"
    print(
        f"\nACCEPTANCE 1 PASS: 12 tabulated + 6 single-congruence digits "
        f"verified, counts/lcm/max-prime exact, {elapsed:.2f}s"
    )


def test_criterion_2_reduction_internals(system_d_minus_3):
    profile = reduction_profile(system_d_minus_3, w=1140)
    assert len(profile) == 1140
    at0 = profile[0]
    assert len(at0.congruences) == 19
    assert at0.lcm_prime == 12640320
    assert at0.delta == 1140
    assert at0.span == 11088
    max_span = max(r.span for r in profile)
    assert max_span == 14325696
    arg_max = sorted(r.u for r in profile if r.span == max_span)
    assert arg_max == [75, 303, 531, 759, 987]
    at75 = profile[75]
    assert len(at75.congruences) == 47
    assert all(r.covered for r in profile)
    print(
        "\nACCEPTANCE 2 PASS: u=0 gives |C'|=19, lcm'=12640320, delta=1140, "
        "span=11088; max span 14325696 exactly at u in {75,303,531,759,987} "
        "with |C'|=47 at u=75"
    )


def test_criterion_3_oracle_equivalence():
    rng = random.Random(20260811)
    systems = 0
    comparisons = 0
    disagreements = 0
    start = time.perf_counter()
    while systems < 10_000:
        master = rng.choice([60, 120, 360, 720, 2520, 27720, 30030])
        choices = [m for m in range(1, 37) if master % m == 0]
        pairs = [
            (rng.randrange(m), m)
            for m in (rng.choice(choices) for _ in range(rng.randint(1, 12)))
        ]
        system = CoveringSystem.from_pairs(pairs)
        systems += 1
        expected = is_covering_naive(system).covering
        ell = system.lcm
        candidates = [w for w in (1, 2, 6, 12) if ell % w == 0]
        if ell <= 1000:
            candidates.append(ell)
        for w in candidates:
            comparisons += 1
            if is_covering_fast(system, w=w).covering != expected:
                disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    print(
        f"\nACCEPTANCE 3 PASS: {systems} random systems, {comparisons} "
        f"fast-vs-naive comparisons, 0 disagreements, {elapsed:.1f}s"
    )


def test_criterion_4_delicate_reproductions(capsys):
    start = time.perf_counter()
    code = main(["delicate", "scan", "--bound", "300000"])
    scan_out = capsys.readouterr().out
    scan_time = time.perf_counter() - start
    assert code == 0
    assert scan_out.strip() == "294001"
    assert scan_time <= 60

    start = time.perf_counter()
    code = main(["delicate", "check", "294001", "--widely", "1"])
    check_out = capsys.readouterr().out
    check_time = time.perf_counter() - start
    assert code == 1
    assert "10294001" in check_out
    assert check_time <= 60

    start = time.perf_counter()
    code = main(["delicate", "stable", "212159"])
    stable_out = capsys.readouterr().out
    stable_time = time.perf_counter() - start
    assert code == 0
    assert "True" in stable_out
    assert stable_time <= 60
    print(
        f"\nACCEPTANCE 4 PASS: scan->294001 ({scan_time:.1f}s), widely-1 "
        f"witness 10294001 ({check_time:.1f}s), 212159 stable "
        f"({stable_time:.1f}s)"
    )


def test_criterion_5_mini_construction():
    checked_total = 0
    for swap in (False, True):
        construction = build_mini_construction(swap_order8=swap)
        assert math.gcd(construction.modulus, construction.offset) == 1
        residues = dict(construction.residue_constraints)
        if swap:
            assert residues[137] == 47 and residues[73] == 17
        else:
            assert residues[73] == 56 and residues[137] == 90
        report = verify_property_star_sample(
            construction, samples=100, k_max=200, seed=42
        )
        assert report.ok, report.failures[:1]
        assert report.checked == 100 * 7 * 201
        checked_total += report.checked
    print(
        f"\nACCEPTANCE 5 PASS: both prime orderings, gcd(A,B)=1, "
        f"{checked_total} substitution certificates, 0 failures"
    )


def test_criterion_6_order_table_spot_checks(bundle):
    assert primes_of_order(1).primes == (3,)
    assert primes_of_order(6).primes == (7, 13)
    assert primes_of_order(8).primes == (73, 137)
    counts = bundle.order_counts
    assert counts[5] == 2 and counts[13] == 3 and counts[29] == 5
    assert len(primes_of_order(5).primes) == 2
    assert len(primes_of_order(13).primes) == 3
    assert len(primes_of_order(29).primes) == 5
    complete = 0
    for m in sorted(counts):
        if m > 40:
            continue
        result = primes_of_order(m)
        if result.complete:
            complete += 1
            assert len(result.primes) >= counts[m], m
    assert complete >= 30
    print(
        f"\nACCEPTANCE 6 PASS: exact lists for orders 1, 6, 8; "
        f"{complete} complete factorizations with m <= 40, every count >= "
        f"the reference lower bound"
    )


def test_criterion_7_graham_cover():
    start = time.perf_counter()
    instance = GrahamInstance(
        a=106276436867,
        b=35256392432,
        primes=(2, 3, 5, 7, 11, 17, 19, 23, 31, 41, 47, 61, 107, 181, 541, 1103, 2521),
    )
    report = verify_cover(instance)
    assert report.covered
    assert instance.product == 1821895895860356790898731230
    red = reduce_seeds(instance)
    assert red.gcd_a == 31 and red.gcd_b == 2
    assert red.a_reduced == 3428272157
    assert red.a_modulus == 58770835350334090028991330
    assert red.b_reduced == 17628196216
    assert red.b_modulus == 910947947930178395449365615
    elapsed = time.perf_counter() - start
    assert elapsed <= 10
    print(
        f"\nACCEPTANCE 7 PASS: recurrence cover verified over lcm "
        f"{report.period_lcm}, product and seed reductions exact, {elapsed:.2f}s"
    )


def test_criterion_8_property_suite():
    cases_per_property = 10_000
    timing = {}

    # order correctness: has_order accepts sympy's order m of 10 mod p and
    # rejects every proper divisor of m
    start = time.perf_counter()
    rng = random.Random(101)
    primes = [p for p in primes_up_to(10 ** 6) if p not in (2, 5)]
    for _ in range(cases_per_property):
        p = rng.choice(primes)
        m = sympy.n_order(10, p)
        assert has_order(10, m, p)
        assert (p - 1) % m == 0
        for d in sympy.divisors(m)[:-1]:
            assert not has_order(10, d, p)
    timing["order"] = time.perf_counter() - start

    # primality agreement with a sieve, exhaustive below 10^6
    start = time.perf_counter()
    sieve = set(primes_up_to(10 ** 6))
    for n in range(10 ** 6):
        assert bool(is_prime(n)) == (n in sieve), n
    timing["primality"] = time.perf_counter() - start

    # factorization reconstructs random 64-bit inputs bit-exactly
    start = time.perf_counter()
    rng = random.Random(606)
    for _ in range(cases_per_property):
        n = rng.randrange(1, 2 ** 64)
        assert factor(n).product() == n
    timing["factor"] = time.perf_counter() - start

    # CRT round trips on random coprime moduli
    start = time.perf_counter()
    rng = random.Random(202)
    moduli_pool = [4, 9, 25, 49, 11, 13, 17, 19, 23, 27, 29, 31, 37, 8]
    for _ in range(cases_per_property):
        count = rng.randint(1, 6)
        chosen = rng.sample(moduli_pool, count)
        filtered = []
        for m in chosen:
            if all(math.gcd(m, other) == 1 for other in filtered):
                filtered.append(m)
        constraints = [(rng.randrange(m), m) for m in filtered]
        residue, modulus = crt_combine(constraints)
        assert modulus == math.prod(filtered)
        assert 0 <= residue < modulus
        for r, m in constraints:
            assert residue % m == r
    timing["crt"] = time.perf_counter() - start

    # witness soundness on random systems
    start = time.perf_counter()
    rng = random.Random(303)
    non_covering = 0
    for _ in range(cases_per_property):
        master = rng.choice([120, 360, 2520])
        choices = [m for m in range(2, 37) if master % m == 0]
        pairs = [
            (rng.randrange(m), m)
            for m in (rng.choice(choices) for _ in range(rng.randint(1, 8)))
        ]
        system = CoveringSystem.from_pairs(pairs)
        verdict = is_covering_fast(system)
        if not verdict.covering:
            non_covering += 1
            assert not system.matches(verdict.witness)
    assert non_covering > cases_per_property // 2
    timing["witness"] = time.perf_counter() - start

    # substitution involution, and arithmetic agrees with string editing
    start = time.perf_counter()
    rng = random.Random(404)
    for _ in range(cases_per_property):
        n = rng.randrange(1, 10 ** 12)
        k = rng.randrange(16)
        o = digit_at(n, k)
        r = rng.choice([x for x in range(10) if x != o])
        sub = Substitution(k, o, r)
        edited = sub.apply(n)
        assert Substitution(k, r, o).apply(edited) == n
        text = str(n).rjust(k + 1, "0")
        spot = len(text) - 1 - k
        assert edited == int(text[:spot] + str(r) + text[spot + 1 :])
    timing["involution"] = time.perf_counter() - start

    # offset residue identity, exhaustive over small digit/exponent/prime
    start = time.perf_counter()
    for p in primes_up_to(10 ** 4):
        for d in range(-9, 10):
            if d == 0:
                continue
            for a in range(64):
                assert (derive_b_residue(d, a, p) + d * pow(10, a, p)) % p == 0
    timing["residue"] = time.perf_counter() - start

    # recurrence period correctness: exact return, no earlier return,
    # zero set exact over one period
    start = time.perf_counter()
    rng = random.Random(505)
    small_primes = [p for p in primes_up_to(200) if p > 2] + [2]
    large_primes = [1103, 2521, 9973]
    for i in range(cases_per_property):
        p = rng.choice(large_primes if i % 100 == 0 else small_primes)
        a, b = rng.randrange(p), rng.randrange(p)
        rp = recurrence_period(p, a, b)
        state = first = (a, b)
        for j in range(rp.period):
            assert (state[0] == 0) == (j % rp.period in rp.zero_indices)
            state = (state[1], (state[0] + state[1]) % p)
            assert state != first or j == rp.period - 1
        assert state == first
    timing["period"] = time.perf_counter() - start

    summary = ", ".join(f"{k} {v:.1f}s" for k, v in timing.items())
    print(
        f"\nACCEPTANCE 8 PASS: {len(timing)} properties at >= "
        f"{cases_per_property} seeded cases each ({summary})"
    )
