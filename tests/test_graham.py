import math
import random
import time

import numpy as np
import pytest

from digitcover.arith import primes_up_to
from digitcover.graham import (
    PERIOD_PRIME_LIMIT,
    GrahamInstance,
    recurrence_period,
    reduce_seeds,
    verify_cover,
)

SEED_A = 106276436867
SEED_B = 35256392432
PRIME_SET = (2, 3, 5, 7, 11, 17, 19, 23, 31, 41, 47, 61, 107, 181, 541, 1103, 2521)
INSTANCE = GrahamInstance(a=SEED_A, b=SEED_B, primes=PRIME_SET)


def naive_period(p, a, b):
    """Direct state enumeration used as the reference."""
    start = (a % p, b % p)
    state = start
    steps = 0
    zeros = set()
    while True:
        if state[0] == 0:
            zeros.add(steps)
        state = (state[1], sum(state) % p)
        steps += 1
        if state == start:
            return steps, zeros


class TestRecurrencePeriod:
    def test_mod_two_with_unit_seeds(self):
        rp = recurrence_period(2, 1, 0)
        assert rp.period == 3
        assert rp.zero_indices == {1}

    def test_instance_seeds_mod_two(self):
        rp = recurrence_period(2, SEED_A, SEED_B)
        assert rp.zero_indices  # a odd, b even: zeros occur

    def test_all_zero_orbit(self):
        rp = recurrence_period(3, 0, 0)
        assert rp.period == 1
        assert rp.zero_indices == {0}

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            recurrence_period(10, 1, 1)

    def test_refuses_prime_above_limit(self):
        assert PERIOD_PRIME_LIMIT == 10 ** 7
        start = time.perf_counter()
        with pytest.raises(ValueError, match=str(PERIOD_PRIME_LIMIT)):
            recurrence_period(1_000_000_007, 1, 3)
        with pytest.raises(ValueError, match="limit"):
            verify_cover(GrahamInstance(1, 3, (2, 1_000_000_007)))
        assert time.perf_counter() - start < 1

    def test_matches_direct_enumeration(self):
        rng = random.Random(13)
        primes = [2, 3, 5, 7, 11, 13, 17, 101, 181, 541]
        for _ in range(60):
            p = rng.choice(primes)
            a, b = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
            rp = recurrence_period(p, a, b)
            period, zeros = naive_period(p, a, b)
            assert (rp.period, rp.zero_indices) == (period, zeros)

    def test_period_minimality_and_zero_set(self):
        # walk one full period: no earlier return, zeros exactly as listed
        rng = random.Random(31)
        for _ in range(40):
            p = rng.choice([3, 7, 23, 47, 1103])
            a, b = rng.randrange(p), rng.randrange(p)
            rp = recurrence_period(p, a, b)
            state = start = (a % p, b % p)
            for j in range(rp.period):
                assert (state[0] == 0) == (j in rp.zero_indices)
                state = (state[1], sum(state) % p)
                if j + 1 < rp.period:
                    assert state != start
            assert state == start


class TestVerifyCover:
    def test_published_instance_covers(self):
        report = verify_cover(INSTANCE)
        assert report.covered
        assert report.terms_exceed_primes
        assert INSTANCE.product == 1821895895860356790898731230

    def test_every_early_term_divisible(self):
        report = verify_cover(INSTANCE)
        assert report.covered
        x, y = SEED_A, SEED_B
        for _ in range(200):
            assert any(x % p == 0 for p in PRIME_SET)
            x, y = y, x + y

    def test_truthiness_is_the_full_verdict(self):
        # seeds 0, 0 put every index in the zero sets of 2 and 3, yet no
        # term exceeds 3, so divisibility proves nothing
        zeros = verify_cover(GrahamInstance(a=0, b=0, primes=(2, 3)))
        assert zeros.covered and not zeros.terms_exceed_primes
        assert not zeros
        assert verify_cover(INSTANCE)

    def test_fibonacci_and_two_fails(self):
        report = verify_cover(GrahamInstance(1, 1, (2,)))
        assert not report.covered
        assert report.uncovered_index == 0  # u(0) = 1 is odd

    def test_period_lcm_divisibility(self):
        report = verify_cover(INSTANCE)
        for rp in report.periods.values():
            assert report.period_lcm % rp.period == 0

    def test_coverage_stable_over_longer_ranges(self):
        report = verify_cover(INSTANCE)
        big_l = report.period_lcm
        rng = random.Random(3)
        for _ in range(300):
            j = rng.randrange(10 * big_l)
            assert any(
                j % rp.period in rp.zero_indices for rp in report.periods.values()
            )

    def test_shift_invariance(self):
        n = INSTANCE.product
        rng = random.Random(8)
        for _ in range(5):
            c1, c2 = rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 6)
            shifted = GrahamInstance(SEED_A + c1 * n, SEED_B + c2 * n, PRIME_SET)
            assert verify_cover(shifted).covered

    def test_empty_prime_set_rejected(self):
        with pytest.raises(ValueError):
            verify_cover(GrahamInstance(1, 1, ()))


# Five primes near 10^4 whose period lcm is 16,843,844,304: a boolean array
# over it would take 16.8 GB.
HOSTILE = GrahamInstance(1, 3, (10007, 10009, 10037, 10039, 10061))
# p = 2q + 1 with q prime > 2^16: Fibonacci has period 2q and zeros at
# multiples of 2q, so the even class has lcm q1*q2 with no prime to split on.
UNSPLITTABLE = GrahamInstance(0, 1, (132059, 133499))


def brute_scan(periods, big_l):
    """Mark every zero index over [0, big_l) and return the least unmarked."""
    covered = np.zeros(big_l, dtype=bool)
    for rp in periods.values():
        for z in rp.zero_indices:
            covered[z :: rp.period] = True
    return (True, None) if covered.all() else (False, int(np.argmin(covered)))


class TestVerifyCoverThroughCovering:
    def test_seeded_instances_match_brute_scan(self):
        rng = random.Random(5)
        small = list(primes_up_to(200))
        checked = covers = 0
        for _ in range(400):
            primes = tuple(rng.sample(small, rng.randint(1, 6)))
            instance = GrahamInstance(rng.randrange(10 ** 6), rng.randrange(10 ** 6), primes)
            report = verify_cover(instance)
            if report.period_lcm > 10 ** 7:
                continue
            expected = brute_scan(report.periods, report.period_lcm)
            assert (report.covered, report.uncovered_index) == expected, instance
            checked += 1
            covers += report.covered
        assert checked >= 300 and covers >= 5

    def test_hostile_lcm_decided_quickly(self):
        start = time.perf_counter()
        report = verify_cover(HOSTILE)
        assert time.perf_counter() - start < 1
        assert report.period_lcm == 16843844304
        assert not report.covered and report.uncovered_index == 0

    def test_prime_set_without_zeros(self):
        # the Lucas numbers 2, 1, 3, 4, 7, ... are never 0 mod 5
        report = verify_cover(GrahamInstance(2, 1, (5,)))
        assert not report.periods[5].zero_indices
        assert not report.covered and report.uncovered_index == 0

    def test_unsplittable_lcm_is_a_value_error(self):
        with pytest.raises(ValueError, match="no prime factor"):
            verify_cover(UNSPLITTABLE)


class TestReduceSeeds:
    def test_published_reductions(self):
        red = reduce_seeds(INSTANCE)
        assert red.gcd_a == 31
        assert red.gcd_b == 2
        assert red.a_reduced == 3428272157
        assert red.a_modulus == 58770835350334090028991330
        assert red.b_reduced == 17628196216
        assert red.b_modulus == 910947947930178395449365615

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            reduce_seeds(GrahamInstance(0, 1, (2, 3)))

    def test_reduction_consistency(self):
        red = reduce_seeds(INSTANCE)
        assert red.gcd_a * red.a_modulus == INSTANCE.product
        assert (red.gcd_a * red.a_reduced) % red.a_modulus == SEED_A % red.a_modulus


def test_published_progression_constants_are_coprime():
    # the arithmetic-progression constants quoted alongside the recurrence
    assert math.gcd(3770214739596601257962594704110, 3316923598096294713661) == 1
