"""Trial division in `factor` against sympy as an independent oracle, at and
around the trial bound, plus the invariant that an incomplete factorization
still lists every prime below the bound.  Below 2^64 `factor` sweeps n
modulo the table's primes with numpy; the block-gcd walk it takes above is
checked against that route on both sides of 2^64.  (`resolve_assignment`
no longer relies on it: order-m primes come from the scan in
`primes_of_order`, whose exact prefix is tested in test_order_scan.py.)"""

import math
import random
from unittest import mock

import pytest

import digitcover.arith as arith
from digitcover.arith import MAX_TRIAL_BOUND, FactorBudget, factor, primes_up_to

sympy = pytest.importorskip("sympy")

BOUNDS = (2, 100, 293, 294, 100_000, 100_001)
NEAR_BOUND = [p for p in primes_up_to(101_000) if p >= 99_000]  # both sides of 10**5


def edge_inputs() -> list[int]:
    fixed = [1, 99991, 99991 ** 2, 100003, 100003 ** 2, 99991 * 100003,
             99989 * 99991 * 100003 * 100019, 2 ** 100, 3 ** 70, 293 ** 12,
             2 ** 20 * 3 ** 15 * 293 ** 5, 293 * 99991 ** 2 * 100003]
    rng = random.Random(2024)
    small = primes_up_to(400)
    drawn = []
    for _ in range(60):
        n = 1
        for _ in range(rng.randint(1, 4)):
            n *= rng.choice(NEAR_BOUND if rng.random() < 0.6 else small) ** rng.randint(1, 3)
        drawn.append(n)
    return fixed + drawn


@pytest.mark.parametrize("bound", BOUNDS)
def test_factor_matches_sympy(bound):
    budget = FactorBudget(trial_bound=bound)
    for n in edge_inputs():
        result = factor(n, budget)
        assert result.complete, n
        assert dict(result.factors) == sympy.factorint(n), (bound, n)
        assert result.product() == n


@pytest.mark.parametrize("bound", BOUNDS)
def test_incomplete_factorization_keeps_every_prime_below_bound(bound):
    # rho off: every prime <= trial_bound dividing n is still listed with
    # its full exponent, whatever composite cofactor is left over
    budget = FactorBudget(trial_bound=bound, rho_iterations=0)
    rng = random.Random(bound)
    big = [p for p in primes_up_to(120_000) if p > 100_001]
    small = primes_up_to(min(bound, 5000))
    top = primes_up_to(bound)[-1]  # the largest prime the bound admits
    inputs = [top ** 3 * 100_003 * 100_019]
    for _ in range(40):
        n = rng.choice(big) * rng.choice(big)
        for _ in range(rng.randint(0, 4)):
            n *= rng.choice(small + NEAR_BOUND) ** rng.randint(1, 4)
        inputs.append(n)
    incomplete = 0
    for n in inputs:
        result = factor(n, budget)
        incomplete += not result.complete
        expected = {p: e for p, e in sympy.factorint(n).items() if p <= bound}
        found = {p: e for p, e in result.factors if p <= bound}
        assert found == expected, (bound, n)
        assert result.product() == n
    assert incomplete > 20


def test_trial_bound_out_of_range_is_rejected():
    with pytest.raises(ValueError):
        FactorBudget(trial_bound=-1)
    with pytest.raises(ValueError):
        FactorBudget(trial_bound=MAX_TRIAL_BOUND + 1)


def test_trial_division_stops_at_bound():
    # 101 and 103 lie above the bound, so with rho off they stay in the
    # composite remainder instead of being divided out
    n = 101 * 103 * 100_003 * 100_019
    result = factor(n, FactorBudget(trial_bound=100, rho_iterations=0))
    assert result.factors == []
    assert result.remainder == n


def word_edge_inputs() -> list[int]:
    """2^64 - 1, 2^64, 2^64 + 1, and products of near-bound primes with a
    prime cofactor that puts them just below and just above 2^64."""
    inputs = [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1]
    rng = random.Random(64)
    for size in (1, 2, 3):
        for _ in range(4):
            near = math.prod(rng.choice(NEAR_BOUND) for _ in range(size))
            target = 2 ** 64 // near
            inputs.append(near * sympy.prevprime(target))
            inputs.append(near * sympy.nextprime(target))
    return inputs


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("rho_iterations", [0, 1_000_000])
def test_word_sweep_matches_block_walk_and_sympy(bound, rho_iterations):
    # _WORD = 0 sends every n down the block-gcd walk
    budget = FactorBudget(trial_bound=bound, rho_iterations=rho_iterations)
    inputs = edge_inputs() + word_edge_inputs()
    swept = [factor(n, budget) for n in inputs]
    with mock.patch.object(arith, "_WORD", 0):
        walked = [factor(n, budget) for n in inputs]
    for n, a, b in zip(inputs, swept, walked):
        assert (a.factors, a.remainder) == (b.factors, b.remainder), (bound, n)
        assert a.product() == n
        if a.complete:
            assert dict(a.factors) == sympy.factorint(n), (bound, n)
        else:
            found = {p: e for p, e in a.factors if p <= bound}
            assert found == {p: e for p, e in sympy.factorint(n).items() if p <= bound}
    if rho_iterations:
        assert all(a.complete for a in swept)


def test_partial_block_product_is_cached_with_the_table():
    # the default bound 10^5 falls inside block 18; above 2^64 its product is
    # taken once per table and kept under the prime count
    n = 99991 * 100003 * (2 ** 61 - 1)
    first = factor(n)
    table = arith._prime_table(100_000)
    count = len(primes_up_to(100_000))
    start = count - count % arith._BLOCK
    assert table.partials[count] == math.prod(table.primes[start:count])
    with mock.patch.object(arith.math, "prod", side_effect=AssertionError("rebuilt")):
        assert factor(n).factors == first.factors == [(99991, 1), (100003, 1), (2 ** 61 - 1, 1)]
