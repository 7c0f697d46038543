"""Order-m primes by the scan of p = 1 (mod lcm(2, m)) and the p - 1 split
of what is left, against sympy as an independent oracle."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

from digitcover import arith, cyclotomic
from digitcover.arith import (
    FactorBudget,
    _prime_stream,
    pm1_split,
    primes_up_to,
)
from digitcover.bundle import default_bundle, resolve_assignment
from digitcover.cyclotomic import SCAN_BOUND, _pow10_mod, cyclotomic_value, primes_of_order
from digitcover.delicate import find_first_digitally_delicate, is_digitally_delicate

sympy = pytest.importorskip("sympy")

SMALL_BUDGET = FactorBudget(rho_iterations=10_000)


def sympy_order_primes(moduli, bound):
    """{m: primes p < bound with n_order(10, p) == m}, from sympy alone.
    Such p has m | p - 1 (Fermat), which only prefilters the candidates."""
    primes = [p for p in sympy.sieve.primerange(3, bound) if p != 5]
    return {
        m: [p for p in primes if (p - 1) % m == 0 and pow(10, m, p) == 1
            and sympy.n_order(10, p) == m]
        for m in moduli
    }


def test_scanned_prefix_matches_sympy():
    moduli = sorted(m for m in default_bundle().order_counts if m <= 300)
    expected = sympy_order_primes(moduli, SCAN_BOUND)
    incomplete = 0
    for m in moduli:
        result = primes_of_order(m, SMALL_BUDGET)
        if not result.complete:
            incomplete += 1
            assert result.exact_below >= SCAN_BOUND, m
            assert result.reason, m
        # complete lists hold every order-m prime, incomplete ones every
        # order-m prime below exact_below >= SCAN_BOUND
        assert [p for p in result.primes if p < SCAN_BOUND] == expected[m], m
        assert list(result.exact) == sorted(result.exact)
    assert len(moduli) >= 177 and incomplete > 0


def test_pow10_mod_matches_python_pow_up_to_2_32():
    # uint64 products of residues below 2**32 cannot wrap
    rng = random.Random(6)
    moduli = [2, 3, 7, 2 ** 32 - 5, 2 ** 32 - 1] + [rng.randrange(2, 2 ** 32) for _ in range(500)]
    p = np.array(moduli, dtype=np.uint64)
    for e in (0, 1, 2, 63, 64, 1000, 75_240, 2 ** 40 + 3):
        assert _pow10_mod(e, p).tolist() == [pow(10, e, q) for q in moduli], e


@pytest.mark.parametrize("m", [40, 54, 60])
def test_two_large_primes_split_completely(m):
    # the cofactor left by the scan is a product of primes above 10**6
    result = primes_of_order(m)
    value = cyclotomic_value(m, 10)
    expected = sorted(p for p in sympy.factorint(value) if m % p)
    assert result.complete and result.reason is None
    assert list(result.primes) == expected
    assert sum(p > SCAN_BOUND for p in expected) == 2


def test_large_modulus_is_an_exact_prefix():
    # Phi_5000(10) has 2000 digits: scanned like any other m, then left
    # whole with its reason, above the split size
    result = primes_of_order(5000, SMALL_BUDGET)
    assert not result.complete
    assert result.exact_below >= SCAN_BOUND
    assert "above the split limit" in result.reason
    assert list(result.primes) == sympy_order_primes([5000], SCAN_BOUND)[5000]
    assert result.scan_candidates == (SCAN_BOUND - 2) // 5000


def test_incomplete_modulus_resolves_its_prefix_only():
    result = primes_of_order(69, SMALL_BUDGET)
    assert not result.complete and result.primes == (277,)
    assert result.reason.startswith("p-1 spent ")
    assert resolve_assignment(69, 1, SMALL_BUDGET) == 277
    assert resolve_assignment(69, 2, SMALL_BUDGET) is None


def test_scan_counters():
    result = primes_of_order(8)
    assert result.primes == (73, 137) and result.complete
    # the cofactor is 1 after the first chunk, so the scan stops there
    assert result.scan_candidates == 64 and result.scan_survivors == 2
    assert result.exact_below == 1 + 65 * 8


def test_sweep_and_order_test_keep_the_same_primes(monkeypatch):
    # each kernel forced on moduli from both sides of the size rule: only
    # the count of candidates passed to is_prime may differ, and the sweep
    # passes no more than the order test
    scan = cyclotomic._primes_of_order_cached.__wrapped__
    moduli = [2, 6, 8, 43, 69, 140, 211, 331, 931, 5000]
    swept = [m for m in moduli
             if cyclotomic._order_cofactor(m).bit_length()
             <= cyclotomic._SWEEP_BITS * m.bit_length()]
    assert 3 <= len(swept) <= len(moduli) - 3
    survivors = {}
    for m in moduli:
        results = []
        for bits in (0, 10 ** 9):  # the order test always, the sweep always
            monkeypatch.setattr(cyclotomic, "_SWEEP_BITS", bits)
            results.append(scan(m, SMALL_BUDGET))
        order_test, sweep = results
        assert dataclasses.replace(sweep, scan_survivors=0) == dataclasses.replace(
            order_test, scan_survivors=0), m
        assert sweep.scan_survivors <= order_test.scan_survivors, m
        survivors[m] = (order_test.scan_survivors, sweep.scan_survivors)
    # the sweep drops composite candidates: 33 and 99 for m = 2
    assert survivors[2] == (3, 1) and survivors[6] == (4, 3)


def test_prime_stream_matches_sieve_across_segments():
    # the 100,000th prime is 1,299,709: the cached table, then segments
    assert list(itertools.islice(_prime_stream(), 100_000)) == primes_up_to(1_299_709)


class TestPm1Split:
    def test_stage_one_block_redone_prime_by_prime(self):
        # 210 = 2*3*5*7 and 858 = 2*3*11*13: the first block catches both
        # primes, so only the prime-by-prime redo separates them
        d, _ = pm1_split(211 * 859, 2, 10_000, 1)
        assert d in (211, 859)

    def test_stage_two_block_redone_prime_by_prime(self):
        # p - 1 = 2*13*10463 and 2*8*10477: both need one stage-2 prime,
        # and both primes fall in the same block of 64
        d, _ = pm1_split(272039 * 167633, 2, 10_000, 1)
        assert d in (272039, 167633)

    def test_collapse_moves_to_next_base(self):
        # base 3 catches 11 and 31 at the same prime even prime by prime
        assert pm1_split(11 * 31, 2, 10_000, 1)[0] is None
        assert pm1_split(11 * 31, 2, 10_000, 2)[0] in (11, 31)
        # from 10**6 up the collapse comes in the first pass, and the next
        # base runs its own first pass
        assert pm1_split(11 * 31, 2, 10 ** 6, 1) == (None, 588)
        assert pm1_split(11 * 31, 2, 10 ** 6, 2) == (31, 1176)

    def test_budget_is_spent_and_reported(self):
        # safe primes: p - 1 = 2 * (a prime above 10**9), out of reach
        n = 2000000579 * 2000001743
        d, spent = pm1_split(n, 2, 10_000, 4)
        assert d is None
        # a stage-1 block stops once its exponent reaches the budget left,
        # and stage 2 takes only the primes that fit, so spent ends within
        # the budget plus the 14 bits of one prime power q**e <= 10**4
        assert 10_000 <= spent <= 10_000 + (10_000).bit_length()
        assert pm1_split(n, 2, 0, 4) == (None, 0)

    # (n, rho_restarts) of the tests above, and (d, spent) at budgets 0, 100,
    # 10**4, 10**5 and 999,999: below 10**6 each budget runs its own
    # schedule alone, and a stage 1 that ends with a gcd other than 1
    # spends nothing on stage 2
    @pytest.mark.parametrize("n, restarts, expected", [
        (211 * 859, 1, [(None, 0), (211, 100), (211, 588), (211, 939), (211, 1046)]),
        (272039 * 167633, 1,
         [(None, 0), (None, 100), (272039, 4570), (272039, 9081), (272039, 17417)]),
        (11 * 31, 1, [(None, 0), (None, 100), (None, 588), (None, 939), (None, 1046)]),
        (11 * 31, 2, [(None, 0), (None, 100), (31, 1176), (31, 1878), (31, 2092)]),
        (2000000579 * 2000001743, 4,
         [(None, 0), (None, 100), (None, 10_000), (None, 100_000), (None, 999_999)]),
    ])
    def test_budgets_below_a_million_are_pinned(self, n, restarts, expected):
        budgets = (0, 100, 10_000, 100_000, 999_999)
        assert [
            pm1_split(n, 2, b, restarts)
            for b in budgets
        ] == expected

    def test_large_budget_finds_an_easy_factor_first(self):
        # what Phi_37(10) leaves after the scan; 2028119 - 1 = 2*37*27407.
        # The 10**4 schedule finds it after 6,318 multiplications, and the
        # default budget runs that schedule first instead of spending 25,000
        # on stage 1 (26,898 in all)
        n = 2028119 * 2212394296770203368013
        assert pm1_split(n, 74, 10_000, 4) == (2028119, 6318)
        assert pm1_split(n, 74, 10 ** 6, 4) == (2028119, 6318)

    def test_large_budget_still_separates_in_one_block(self):
        d, spent = pm1_split(272039 * 167633, 2, 10 ** 6, 4)
        assert d == 272039 and spent == 4570

    def test_large_budget_is_spent_and_reported(self, monkeypatch):
        # the first pass counts in spent, which still ends within the
        # budget plus one prime power; and the primes the two passes pull
        # (about 900,000) are let go block by block, not held until the end
        live = [0, 0]

        class Prime(int):
            def __del__(self):
                live[0] -= 1

        def counted(stream=arith._prime_stream):
            for q in stream():
                live[0] += 1
                live[1] = max(live)
                yield Prime(q)

        monkeypatch.setattr(arith, "_prime_stream", counted)
        n = 2000000579 * 2000001743
        d, spent = pm1_split(n, 2, 10 ** 6, 4)
        assert d is None
        assert 10 ** 6 <= spent <= 10 ** 6 + 128
        assert live[1] < 1_000


def test_first_delicate_scan_equals_predicate_loop():
    def reference(bound):
        return next((p for p in primes_up_to(bound) if is_digitally_delicate(p)), None)

    for bound in (0, 1, 2, 10, 101, 1000, 10_000):
        assert find_first_digitally_delicate(bound) == reference(bound)
    assert find_first_digitally_delicate(300_000) == 294001
