import math
import random
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import digitcover.arith as arith
from digitcover.arith import (
    FactorBudget,
    PrimalityVerdict,
    crt_combine,
    factor,
    has_order,
    iroot,
    is_perfect_power,
    is_prime,
    pm1_split,
    prime_flags,
    primes_up_to,
    _DETERMINISTIC_BASES,
    _DETERMINISTIC_BOUND,
    _SMALL_PRIMES,
    _SMALL_PRODUCT,
    _miller_rabin_witness,
    _odd_part,
    _strong_lucas_prp,
)


def brute_order(base: int, modulus: int) -> int:
    x = base % modulus
    m = 1
    while x != 1:
        x = x * base % modulus
        m += 1
    return m


def assert_order(m: int, modulus: int) -> None:
    """has_order accepts m as the order of 10 mod modulus and rejects every
    proper divisor of m."""
    assert has_order(10, m, modulus)
    for d in sympy.divisors(m)[:-1]:
        assert not has_order(10, d, modulus), (d, modulus)


class TestMultiplicativeOrder:
    def test_order_of_ten_small_primes(self):
        for p, m in ((3, 1), (11, 2), (101, 4), (73, 8), (137, 8)):
            assert sympy.n_order(10, p) == m
            assert_order(m, p)

    def test_order_mod_7_matches_brute_force(self):
        assert brute_order(10, 7) == 6
        assert_order(6, 7)

    def test_undefined_when_not_coprime(self):
        for m in range(1, 13):
            assert not has_order(10, m, 2)
            assert not has_order(10, m, 35)  # gcd(10, 35) = 5
            assert not has_order(10, m, 1)

    def test_composite_modulus(self):
        # 10 mod 21 and mod 99: brute force gives the reference
        for modulus in (21, 9 * 11):
            m = brute_order(10, modulus)
            assert_order(m, modulus)
            assert not any(has_order(10, d, modulus) for d in range(m + 1, 3 * m))

    def test_matches_brute_force_on_random_primes(self):
        rng = random.Random(7)
        primes = [p for p in primes_up_to(3000) if p not in (2, 5)]
        for p in rng.sample(primes, 120):
            assert_order(brute_order(10, p), p)

    def test_order_divides_p_minus_1(self):
        # exactly one divisor of p - 1 is the order
        for p in primes_up_to(2000):
            if p in (2, 5):
                continue
            orders = [d for d in sympy.divisors(p - 1) if has_order(10, d, p)]
            assert orders == [sympy.n_order(10, p)], p

    def test_has_order_agrees_with_computed_order(self):
        rng = random.Random(19)
        primes = [p for p in primes_up_to(2000) if p not in (2, 5)]
        for p in rng.sample(primes, 60):
            m = sympy.n_order(10, p)
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


def assert_sound_verdict(n: int) -> None:
    """is_prime(n) agrees with sympy, is proven below _DETERMINISTIC_BOUND,
    and a composite verdict's witness, if any, checks out."""
    verdict = is_prime(n)
    assert bool(verdict) == sympy.isprime(n), n
    assert n >= _DETERMINISTIC_BOUND or verdict.kind != "probable-prime", n
    if verdict:
        assert verdict.witness is None and verdict.witness_kind is None, n
    elif verdict.witness_kind == "divisor":
        assert 1 < verdict.witness < n and n % verdict.witness == 0, n
    elif verdict.witness_kind == "mr-base":
        assert _miller_rabin_witness(n, verdict.witness, *_odd_part(n - 1)), n
    else:
        assert verdict.witness is None, n


def base2_pseudoprimes(count: int, seed: int) -> list[int]:
    """Base-2 strong pseudoprimes p(2p - 1) below 2^64 with 293 < p, so that
    trial division cannot decide them: p and 2p - 1 prime, and p
    log-uniform, so that every size from 2 * 293^2 up is drawn."""
    rng = random.Random(seed)
    found: set[int] = set()
    while len(found) < count:
        p = int(math.exp(rng.uniform(math.log(_SMALL_PRIMES[-1]), math.log(3_037_000_000))))
        n = p * (2 * p - 1)
        if (
            _SMALL_PRIMES[-1] < p
            and n < 2 ** 64
            and sympy.isprime(p)
            and sympy.isprime(2 * p - 1)
            and not _miller_rabin_witness(n, 2, *_odd_part(n - 1))
        ):
            found.add(n)
    return sorted(found)


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
            assert_sound_verdict(rng.randrange(4, 10 ** 12))

    def test_beyond_deterministic_bound_is_labeled(self):
        mersenne_127 = 2 ** 127 - 1  # prime, but too large to prove here
        verdict = is_prime(mersenne_127)
        assert verdict.kind == "probable-prime"
        assert verdict

    def test_large_semiprime_detected(self):
        p = 10 ** 18 + 9
        q = 10 ** 18 + 31
        assert is_prime(p) and is_prime(q)
        assert not is_prime(p * q)

    # Strong pseudoprimes with the bases they pass: the least that pass the
    # base sets of Jaeschke's tiers (2047 passes base 2, ..., 341550071728321
    # every prime base up to 17), 3825123056546413051 passes every prime
    # base up to 23 and 318665857834031151167461 every one up to 37; the
    # rest are base-2 strong pseudoprimes p*(2p - 1) either side of 2^64.
    STRONG_PSEUDOPRIMES = [
        (2_047, (2,)),
        (1_373_653, (2, 3)),
        (9_080_191, (31, 73)),
        (25_326_001, (2, 3, 5)),
        (3_215_031_751, (2, 3, 5, 7)),
        (4_759_123_141, (2, 7, 61)),
        (1_122_004_669_633, (2, 13, 23, 1662803)),
        (2_152_302_898_747, _SMALL_PRIMES[:5]),
        (3_474_749_660_383, _SMALL_PRIMES[:6]),
        (341_550_071_728_321, _SMALL_PRIMES[:7]),
        (3_825_123_056_546_413_051, _SMALL_PRIMES[:9]),
        (318_665_857_834_031_151_167_461, _SMALL_PRIMES[:12]),
        (18_446_743_208_455_367_653, (2,)),
        (18_446_725_861_112_997_001, (2,)),
        (18_446_752_100_793_694_681, (2,)),
        (18_446_803_559_777_249_821, (2,)),
    ]

    def test_strong_pseudoprimes_near_tier_bounds(self):
        for n, bases in self.STRONG_PSEUDOPRIMES:
            assert not any(_miller_rabin_witness(n, a, *_odd_part(n - 1)) for a in bases), n
            assert not sympy.isprime(n), n
            assert is_prime(n).kind == "composite", n
            assert_sound_verdict(n)

    def test_matches_sympy_from_3e14_to_just_past_2_64(self):
        rng = random.Random(6464)
        for _ in range(3_000):
            n = rng.randrange(341_550_071_728_321, 2 ** 64 + 2 ** 20) | 1
            verdict = is_prime(n)
            assert bool(verdict) == sympy.isprime(n), n
            assert verdict.kind != "probable-prime", n
        for n in range(2 ** 64 - 2 ** 10 + 1, 2 ** 64 + 2 ** 10, 2):
            assert bool(is_prime(n)) == sympy.isprime(n), n

    def test_bpsw_range_matches_sympy(self):
        # odd n from 293^2 to 2^64 with a uniformly drawn bit length
        rng = random.Random(1122)
        for _ in range(20_000):
            bits = rng.randrange(17, 65)
            n = rng.randrange(max(1 << bits - 1, _SMALL_PRIMES[-1] ** 2), 1 << bits) | 1
            assert_sound_verdict(n)

    def test_hard_composites_match_sympy(self):
        # pseudoprimes that pass base 2, so Lucas rejects them and the
        # verdict has no witness; and squares of primes, 1093^2 and 3511^2
        # among them base-2 strong pseudoprimes
        rng = random.Random(4)
        squares = [sympy.nextprime(rng.randrange(1_000_000, 2 ** 32)) ** 2 for _ in range(200)]
        squares += [1093 ** 2, 3511 ** 2, 1_000_003 ** 2, (2 ** 32 - 5) ** 2]
        pseudoprimes = base2_pseudoprimes(40, seed=4)
        assert min(pseudoprimes) < 10 ** 9
        for n in pseudoprimes + [1093 ** 2, 3511 ** 2]:
            assert is_prime(n) == PrimalityVerdict("composite"), n
        for n in [n for n, _ in self.STRONG_PSEUDOPRIMES] + pseudoprimes + squares:
            assert_sound_verdict(n)

    def test_bpsw_costs_one_miller_rabin_round(self):
        calls = []
        witness = arith._miller_rabin_witness

        def counted(*args):
            calls.append(args[1])
            return witness(*args)

        lows = (85_853, 10 ** 6, 10 ** 9, 10 ** 11, 1_122_004_669_633, 10 ** 14, 2 ** 63)
        primes = [sympy.nextprime(lo - 1) for lo in lows]
        assert primes[0] == 85_853  # the least prime past 293^2
        with mock.patch.object(arith, "_miller_rabin_witness", counted):
            for p in primes + [2 ** 64 - 59]:
                calls.clear()
                assert is_prime(p).kind == "proven-prime"
                assert calls == [2], p
            composites = (1_000_003 * 10_000_019, 2_147_483_659 * 4_294_967_311)
            for n in composites + ((10 ** 18 + 9) * (10 ** 18 + 31),):
                calls.clear()
                assert is_prime(n).witness == 2
                assert calls == [2], n
            calls.clear()
            assert is_prime(2 ** 64 + 13).kind == "proven-prime"
            assert tuple(calls) == _DETERMINISTIC_BASES
            calls.clear()
            assert is_prime(2 ** 127 - 1).kind == "probable-prime"
            assert calls == [2]

    def test_lucas_alone_rejects_cipolla_pseudoprimes_past_the_proven_range(self):
        # (4^p + 1)/5 for prime p > 5 is a base-2 pseudoprime (Cipolla
        # 1904), and a strong one for each p here; from p = 43 up it lies
        # past _DETERMINISTIC_BOUND, where base 2 and the strong Lucas test
        # are the whole test
        numbers = [(4 ** p + 1) // 5 for p in sympy.primerange(43, 400)]
        assert len(numbers) == 65 and min(numbers) > _DETERMINISTIC_BOUND
        calls = []
        witness = arith._miller_rabin_witness

        def counted(*args):
            calls.append(args[1])
            return witness(*args)

        trial_divided = []
        with mock.patch.object(arith, "_miller_rabin_witness", counted):
            for n in numbers:
                assert not witness(n, 2, *_odd_part(n - 1)) and not sympy.isprime(n), n
                calls.clear()
                verdict = is_prime(n)
                if verdict.witness_kind == "divisor":
                    trial_divided.append(verdict.witness)
                    assert calls == [], n
                else:
                    assert verdict == PrimalityVerdict("composite"), n
                    assert calls == [2], n
        # p = 43, 67 and 73 leave a prime factor up to 293
        assert trial_divided == [173, 269, 293]


class TestStrongLucas:
    def test_matches_sympy_on_odd_non_squares_below_2e5(self):
        from sympy.ntheory.primetest import is_strong_lucas_prp

        pseudoprimes = []
        for n in range(3, 200_000, 2):
            if math.isqrt(n) ** 2 != n:
                passed = _strong_lucas_prp(n)
                assert passed == is_strong_lucas_prp(n), n
                if passed and not sympy.isprime(n):
                    pseudoprimes.append(n)
        assert pseudoprimes[:3] == [5459, 5777, 10877]

    def test_matches_sympy_on_random_64_to_400_bits(self):
        from sympy.ntheory.primetest import is_strong_lucas_prp

        rng = random.Random(400)
        for _ in range(600):
            bits = rng.randrange(64, 401)
            n = rng.getrandbits(bits) | 1 << bits - 1 | 1
            if rng.random() < 0.3:
                n = sympy.nextprime(n)
            elif math.gcd(n, _SMALL_PRODUCT) > 1:
                continue  # exercise the ladder, not the D search
            assert _strong_lucas_prp(n) == is_strong_lucas_prp(n), n

    def test_squares_are_rejected_before_the_d_search(self):
        # (D/n) is never -1 for a square, so the D search would run until
        # |D| met a factor of the root
        calls = []
        jacobi = arith._jacobi

        def counted(a, n):
            calls.append(a)
            if len(calls) > 64:
                raise AssertionError(f"D search ran to {a}")
            return jacobi(a, n)

        with mock.patch.object(arith, "_jacobi", counted):
            assert not _strong_lucas_prp(1_000_003 ** 2)
            assert not _strong_lucas_prp((2 ** 61 - 1) ** 2)


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
            d, spent = pm1_split(n, 2, cap, 1)
            assert spent <= cap + cap.bit_length(), (n, cap, spent)
            if d is not None:
                assert 1 < d < n and n % d == 0
                found += 1
        assert found > 0

    @pytest.mark.parametrize("cap", [0, 1, 5, 20, 79, 1_000, 10_000])
    def test_spent_stays_within_small_caps(self, cap):
        n = 100_003 * 100_019
        d, spent = pm1_split(n, 2, cap, 4)
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

    def test_prime_table_is_sieved_once_for_factor_then_pm1(self):
        # factor's first sieve reaches 2^16, which p - 1's prime stream reads
        # next; 307 * 311 has no prime up to 293, so the sweep needs the table
        calls = []
        sieve = arith.primes_up_to
        with mock.patch.object(arith, "_table", arith._build_table(0)), mock.patch.object(
            arith, "primes_up_to", lambda n: calls.append(n) or sieve(n)
        ):
            assert factor(307 * 311).factors == [(307, 1), (311, 1)]
            next(arith._prime_stream())
        assert calls == [1 << 16]

    def test_smooth_inputs_never_sieve(self):
        # the gcd with the primes up to 293 leaves 1, so the table is not
        # built: the 12 shipped lcms are 37-smooth and every order row has
        # m <= 204, so neither ingest nor the report sieves
        from digitcover.bundle import DATA_ROOT, ingest_tables, reproduce_report

        calls = []
        sieve = arith.primes_up_to
        with mock.patch.object(arith, "_table", arith._build_table(0)), mock.patch.object(
            arith, "primes_up_to", lambda n: calls.append(n) or sieve(n)
        ):
            assert factor(91).factors == [(7, 1), (13, 1)]
            assert factor(2 ** 70 * 293 ** 3).factors == [(2, 70), (293, 3)]
            assert reproduce_report(ingest_tables(DATA_ROOT)).ok
            assert arith._table.bound == 0
        assert calls == []

    def test_prime_list_matches_the_sieve_flags(self):
        for n in (-1, 0, 1, 2, 3, 100, 1 << 16):
            assert primes_up_to(n) == [i for i, b in enumerate(prime_flags(n)) if b]
        assert primes_up_to(1 << 16) == list(sympy.primerange(1 << 16))

    def test_prime_flags_match_sympy(self):
        for n in range(-1, 6):
            flags = prime_flags(n)
            assert flags.dtype == np.uint8 and flags.shape == (max(n + 1, 0),)
            assert np.flatnonzero(flags).tolist() == list(sympy.primerange(n + 1))
        flags = prime_flags(10 ** 6)
        assert flags.shape == (10 ** 6 + 1,)
        assert np.flatnonzero(flags).tolist() == list(sympy.primerange(10 ** 6 + 1))

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
