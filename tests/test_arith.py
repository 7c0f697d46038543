import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitcover.arith as arith
from digitcover.arith import (
    FactorBudget,
    crt_combine,
    factor,
    has_order,
    iroot,
    is_perfect_power,
    is_prime,
    multiplicative_order,
    pm1_split,
    primes_up_to,
    _BASE_TIERS,
    _DETERMINISTIC_BOUND,
    _SMALL_PRIMES,
    _miller_rabin_witness,
)
from digitcover.covering import LEAF_CELLS


def brute_order(base: int, modulus: int) -> int:
    x = base % modulus
    m = 1
    while x != 1:
        x = x * base % modulus
        m += 1
    return m


class TestMultiplicativeOrder:
    def test_order_of_ten_small_primes(self):
        assert multiplicative_order(10, 3) == 1
        assert multiplicative_order(10, 11) == 2
        assert multiplicative_order(10, 101) == 4
        assert multiplicative_order(10, 73) == 8
        assert multiplicative_order(10, 137) == 8

    def test_order_mod_7_matches_brute_force(self):
        assert brute_order(10, 7) == 6
        assert multiplicative_order(10, 7) == 6

    def test_undefined_when_not_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(10, 2)
        with pytest.raises(ValueError):
            multiplicative_order(10, 35)  # gcd(10, 35) = 5
        with pytest.raises(ValueError):
            multiplicative_order(10, 1)

    def test_composite_modulus(self):
        # 10 mod 21: brute force gives the reference
        assert multiplicative_order(10, 21) == brute_order(10, 21)
        assert multiplicative_order(10, 9 * 11) == brute_order(10, 99)

    def test_matches_brute_force_on_random_primes(self):
        rng = random.Random(7)
        primes = [p for p in primes_up_to(3000) if p not in (2, 5)]
        for p in rng.sample(primes, 120):
            assert multiplicative_order(10, p) == brute_order(10, p)

    def test_order_divides_p_minus_1(self):
        for p in primes_up_to(2000):
            if p in (2, 5):
                continue
            assert (p - 1) % multiplicative_order(10, p) == 0

    def test_has_order_agrees_with_computed_order(self):
        rng = random.Random(19)
        primes = [p for p in primes_up_to(2000) if p not in (2, 5)]
        for p in rng.sample(primes, 60):
            m = multiplicative_order(10, p)
            assert has_order(10, m, p)
            assert not has_order(10, 2 * m, p)
            for d in range(1, m):
                assert has_order(10, d, p) == (d == m)

    def test_has_order_rejects_non_coprime(self):
        assert not has_order(10, 4, 20)
        assert not has_order(10, 1, 1)


class TestCrt:
    def test_two_constraints(self):
        # brute-force oracle over the combined modulus
        expected = next(x for x in range(33) if x % 3 == 1 and x % 11 == 2)
        assert expected == 13
        assert crt_combine([(1, 3), (2, 11)]) == (13, 33)

    def test_trivial(self):
        assert crt_combine([]) == (0, 1)
        assert crt_combine([(0, 1)]) == (0, 1)

    def test_five_constraint_build(self):
        constraints = [(1, 3), (2, 11), (90, 101), (56, 73), (90, 137)]
        residue, modulus = crt_combine(constraints)
        assert modulus == 3 * 11 * 101 * 73 * 137 == 33333333
        # structured brute-force scan of the full modulus range
        candidates = range(13, 33333333, 33)  # x = 13 (mod 33) from above
        oracle = next(
            x
            for x in candidates
            if x % 101 == 90 and x % 73 == 56 and x % 137 == 90
        )
        assert residue == oracle == 8523682
        for r, m in constraints:
            assert residue % m == r

    def test_inconsistent_pair_raises(self):
        with pytest.raises(ValueError):
            crt_combine([(1, 4), (3, 8)])

    def test_consistent_overlap_merges(self):
        assert crt_combine([(1, 4), (5, 8)]) == (5, 8)
        assert crt_combine([(3, 6), (3, 9)]) == (3, 18)

    @given(
        st.lists(
            st.sampled_from([(2, 0), (3, 1), (5, 3), (7, 2), (11, 5), (13, 9)]),
            unique_by=lambda t: t[0],
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_on_coprime_moduli(self, pairs):
        constraints = [(r, m) for m, r in pairs]
        residue, modulus = crt_combine(constraints)
        assert modulus == math.prod(m for _, m in constraints)
        assert 0 <= residue < modulus
        for r, m in constraints:
            assert residue % m == r


class TestIsPrime:
    def test_known_values(self):
        assert is_prime(294001).kind == "proven-prime"
        assert is_prime(10294001).kind == "proven-prime"
        assert is_prime(2) and is_prime(3) and not is_prime(4)

    def test_units_are_composite_verdicts(self):
        assert is_prime(0).kind == "composite"
        verdict = is_prime(1)
        assert verdict.kind == "composite" and verdict.witness is None
        assert not verdict

    def test_matches_trial_division_up_to_20000(self):
        sieve = set(primes_up_to(20000))
        for n in range(20000):
            assert bool(is_prime(n)) == (n in sieve), n

    def test_composite_witnesses_are_checkable(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randrange(4, 10 ** 12)
            verdict = is_prime(n)
            if verdict:
                continue
            if verdict.witness_kind == "divisor":
                assert n % verdict.witness == 0
                assert 1 < verdict.witness < n
            elif verdict.witness_kind == "mr-base":
                assert _miller_rabin_witness(n, verdict.witness)

    def test_beyond_deterministic_bound_is_labeled(self):
        mersenne_127 = 2 ** 127 - 1  # prime, but too large to prove here
        verdict = is_prime(mersenne_127)
        assert verdict.kind == "probable-prime"
        assert verdict.rounds == 64
        assert verdict and not verdict.proven

    def test_large_semiprime_detected(self):
        p = 10 ** 18 + 9
        q = 10 ** 18 + 31
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)

    # Strong pseudoprimes with the bases they pass: each tier's bound but
    # 2^64 is the least one its bases miss, 3825123056546413051 passes every
    # prime base up to 23 and 318665857834031151167461 every one up to 37;
    # the rest are base-2 strong pseudoprimes p*(2p - 1) either side of 2^64.
    STRONG_PSEUDOPRIMES = [tier for tier in _BASE_TIERS if tier[0] != 1 << 64] + [
        (3_825_123_056_546_413_051, _SMALL_PRIMES[:9]),
        (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
        (18_446_743_208_455_367_653, (2,)),
        (18_446_725_861_112_997_001, (2,)),
        (18_446_752_100_793_694_681, (2,)),
        (18_446_803_559_777_249_821, (2,)),
    ]

    def test_base_tiers_increase_and_need_no_reduction(self):
        # every base lies below the least n that reaches its tier, so none
        # is ever reduced mod n (is_prime decides n < 293^2 by trial division)
        lower = 0
        for bound, bases in _BASE_TIERS:
            assert bound > lower, bound
            assert max(bases) < max(lower, _SMALL_PRIMES[-1] ** 2), bound
            lower = bound
        assert lower == _DETERMINISTIC_BOUND
        assert (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)) in _BASE_TIERS

    def test_strong_pseudoprimes_near_tier_bounds(self):
        sympy = pytest.importorskip("sympy")
        for n, bases in self.STRONG_PSEUDOPRIMES:
            assert not any(_miller_rabin_witness(n, a) for a in bases), n
            assert not sympy.isprime(n), n
            verdict = is_prime(n)
            assert verdict.kind == "composite", n
            if verdict.witness_kind == "mr-base":
                assert _miller_rabin_witness(n, verdict.witness), n

    def test_matches_sympy_from_3e14_to_just_past_2_64(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(6464)
        for _ in range(3_000):
            n = rng.randrange(341_550_071_728_321, 2 ** 64 + 2 ** 20) | 1
            verdict = is_prime(n)
            assert bool(verdict) == sympy.isprime(n), n
            assert verdict.kind != "probable-prime", n
        for n in range(2 ** 64 - 2 ** 10 + 1, 2 ** 64 + 2 ** 10, 2):
            assert bool(is_prime(n)) == sympy.isprime(n), n


class TestPm1Budget:
    def test_spent_stays_within_cap_on_34_bit_semiprimes(self):
        # the budget `factor` gives the p - 1 pass on a cofactor above the
        # trial bound squared: both primes just above 10^5, cap about 80; a
        # prime power <= cap has at most cap.bit_length() bits
        rng = random.Random(34)
        primes = [p for p in primes_up_to(131_071) if p > 100_000]
        found = 0
        for _ in range(300):
            p, q = rng.choice(primes), rng.choice(primes)
            n = p * q
            cap = math.isqrt(math.isqrt(n)) // 4
            d, spent = pm1_split(n, 2, FactorBudget(rho_iterations=cap, rho_restarts=1))
            assert spent <= cap + cap.bit_length(), (n, cap, spent)
            if d is not None:
                assert 1 < d < n and n % d == 0
                found += 1
        assert found > 0

    @pytest.mark.parametrize("cap", [0, 1, 5, 20, 79, 1_000, 10_000])
    def test_spent_stays_within_small_caps(self, cap):
        n = 100_003 * 100_019
        d, spent = pm1_split(n, 2, FactorBudget(rho_iterations=cap, rho_restarts=4))
        assert spent <= cap + cap.bit_length(), (cap, spent)


class TestFactor:
    def test_small_examples(self):
        assert factor(91).factors == [(7, 1), (13, 1)]
        assert factor(10001).factors == [(73, 1), (137, 1)]
        assert factor(97).factors == [(97, 1)]
        assert factor(1).factors == []

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor(0)

    @given(st.integers(min_value=1, max_value=2 ** 64))
    @settings(max_examples=200, deadline=None)
    def test_product_reconstructs_input(self, n):
        result = factor(n)
        assert result.product() == n
        for p, _ in result.factors:
            assert is_prime(p)

    def test_budget_exhaustion_leaves_composite_remainder(self):
        p = 10 ** 18 + 9
        q = 10 ** 18 + 31
        tiny = FactorBudget(trial_bound=100, rho_iterations=10, rho_restarts=1)
        result = factor(p * q, tiny)
        assert not result.complete
        assert result.remainder == p * q
        assert result.product() == p * q

    def test_prime_table_is_sieved_once_for_factor_then_covering(self):
        # the first sieve reaches 2^16, which covering refinement reads next
        calls = []
        sieve = arith.primes_up_to
        with mock.patch.object(arith, "_table", (0, [], [])), mock.patch.object(
            arith, "primes_up_to", lambda n: calls.append(n) or sieve(n)
        ):
            factor(91)
            arith._prime_table(LEAF_CELLS)
        assert calls == [LEAF_CELLS]

    def test_perfect_power_shortcut(self):
        p = 1_000_003
        result = factor(p ** 3)
        assert result.factors == [(p, 3)]


class TestPerfectPower:
    def test_examples(self):
        assert is_perfect_power(1024) == (2, 10)
        assert is_perfect_power(36) == (6, 2)
        assert is_perfect_power(91) is None
        assert is_perfect_power(1) is None

    def test_oracle_full_range(self):
        # enumeration oracle: list every a**k below the bound and keep the
        # representation with the largest exponent
        bound = 10 ** 5
        expected = {}
        for a in range(2, 317):
            v = a * a
            k = 2
            while v < bound:
                if v not in expected or expected[v][1] < k:
                    expected[v] = (a, k)
                v *= a
                k += 1
        for n in range(1, bound):
            assert is_perfect_power(n) == expected.get(n), n

    def test_huge_power(self):
        base = 12345
        assert is_perfect_power(base ** 64) == (base, 64)

    @given(st.integers(min_value=0, max_value=10 ** 30), st.integers(2, 40))
    @settings(max_examples=300)
    def test_iroot_brackets(self, n, k):
        r = iroot(n, k)
        assert r ** k <= n < (r + 1) ** k
