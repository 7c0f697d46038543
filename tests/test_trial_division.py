"""Trial division in `factor` against sympy as an independent oracle, at and
around the trial bound, plus the invariant that an incomplete factorization
still lists every prime below the bound.  Below 2^64 `factor` finds the
table primes that divide n by multiplying with their inverses mod 2^64;
that test is checked against `residues_mod` on seeded and edge inputs and
at every short prefix of the table, and the inverses on whole tables.
From 2^64 up `factor` sweeps n modulo the table's primes with
`residues_mod`, which folds in 32-bit limbs past n's top 64 bits; the
sweep is checked on both sides of 2^64, 2^96 and 2^128 and at the bit
lengths where a limb is added, and `residues_mod` alone against Python's
% for moduli up to 2^32 - 1.  From 2^64 up a gcd with the product of the
primes up to 293 comes first, so the sweep stops at the square root of
what is left; the factorization is checked against the full sweep's on
seeded smooth and rough n.  (`resolve_assignment`
no longer relies on it: order-m primes come from the scan in
`primes_of_order`, whose exact prefix is tested in test_order_scan.py.)"""

import functools
import math
import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from digitcover import arith
from digitcover.arith import (
    MAX_TRIAL_BOUND,
    FactorBudget,
    Factorization,
    factor,
    primes_up_to,
    residues_mod,
)

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
    with pytest.raises(ValueError, match="rho_iterations"):
        FactorBudget(rho_iterations=-1)
    with pytest.raises(ValueError, match="rho_restarts"):
        FactorBudget(rho_restarts=-2)


def test_trial_division_stops_at_bound():
    # 101 and 103 lie above the bound, so with rho off they stay in the
    # composite remainder instead of being divided out
    n = 101 * 103 * 100_003 * 100_019
    result = factor(n, FactorBudget(trial_bound=100, rho_iterations=0))
    assert result.factors == []
    assert result.remainder == n


# 2^128 + 1 = F7 is beyond rho at the default budget and slow for sympy
# too, so it runs with rho off only, against its known factorization.
F7 = 2 ** 128 + 1
F7_FACTORS = {59649589127497217: 1, 5704689200685129054721: 1}


@functools.lru_cache(maxsize=None)
def factorint(n: int) -> dict[int, int]:
    return F7_FACTORS if n == F7 else sympy.factorint(n)


def limb_edge_inputs() -> list[int]:
    """Inputs around the 32-bit limbs that the sweep folds in above 2^64:
    2^64 - 1, 2^64, 2^64 + 1, 2^96 +- 1 and 2^128 +- 1; n of bit length
    64 + 32k and 65 + 32k; and products of near-bound primes with a prime
    cofactor that puts them just below and just above 2^64, 2^96 and 2^128."""
    inputs = [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 96 - 1, 2 ** 96 + 1, 2 ** 128 - 1, F7]
    rng = random.Random(64)
    for edge in (64, 96, 128):
        for size in (1, 2, 3):
            for _ in range(4):
                near = math.prod(rng.choice(NEAR_BOUND) for _ in range(size))
                target = 2 ** edge // near
                inputs.append(near * sympy.prevprime(target))
                inputs.append(near * sympy.nextprime(target))
    small = primes_up_to(400)
    for k in range(4):
        for bits in (64 + 32 * k, 65 + 32 * k):
            for _ in range(3):
                smooth = rng.choice(small) ** rng.randint(1, 3) * rng.choice(NEAR_BOUND)
                low = 2 ** (bits - 1)
                n = smooth * sympy.nextprime(rng.randrange(low, low + low // 2) // smooth)
                assert n.bit_length() == bits
                inputs.append(n)
    return inputs


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("rho_iterations", [0, 1_000_000])
def test_word_sweep_matches_block_walk_and_sympy(bound, rho_iterations):
    # The sweep takes every n, so across the limb boundaries it must agree
    # with sympy: the whole factorization when complete, every prime <= the
    # bound when not.  (The name dates from the block-gcd walk that larger n
    # took before the sweep folded in limbs.)
    budget = FactorBudget(trial_bound=bound, rho_iterations=rho_iterations)
    inputs = edge_inputs() + limb_edge_inputs()
    if rho_iterations:
        inputs.remove(F7)
    for n in inputs:
        result = factor(n, budget)
        assert result.product() == n
        if result.complete:
            assert dict(result.factors) == factorint(n), (bound, n)
        else:
            found = {p: e for p, e in result.factors if p <= bound}
            assert found == {p: e for p, e in factorint(n).items() if p <= bound}, (bound, n)
        if rho_iterations:
            assert result.complete, (bound, n)


def test_residues_mod_matches_python_mod_up_to_2_32():
    # a residue below 2^32 shifted a limb up, plus the limb, stays below 2^64
    rng = random.Random(32)
    moduli = [1, 2, 3, 2 ** 31, 2 ** 32 - 5, 2 ** 32 - 1]
    moduli += [rng.randrange(2, 2 ** 32) for _ in range(300)]
    words = np.array(moduli, dtype=np.uint64)
    inputs = [0, 1, 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 64, 2 ** 96 - 1, 2 ** 96, 2 ** 128 + 1]
    for bits in (63, 64, 65, 95, 96, 97, 4000):
        inputs += [2 ** (bits - 1), 2 ** bits - 1, rng.getrandbits(bits) | 2 ** (bits - 1)]
    for n in inputs:
        assert residues_mod(n, words).tolist() == [n % q for q in moduli], n


WORD_EDGES = [1, 2, 2 ** 63, 2 ** 64 - 1, 3 * 2 ** 61, 99991 ** 2, 99991 * 99989,
              65521 * 65519 * 3]


def swept_primes(n, table, count):
    """The table primes among the first count that `residues_mod` says divide n."""
    residues = residues_mod(n, table.words[:count])
    return [table.primes[i] for i in np.flatnonzero(residues == 0).tolist()]


@pytest.mark.parametrize("trial_bound", [0, 2, 3, 100_000])
def test_inverse_test_flags_what_the_residue_sweep_flags(trial_bound):
    # prefixes of 0, 1, 2 and 9,592 primes; with 0 or 1 the odd prefix is
    # empty, which a slice to count - 1 would turn into nearly every prime
    table = arith._prime_table(100_000)
    count = len(primes_up_to(trial_bound))
    assert count == {0: 0, 2: 1, 3: 2, 100_000: 9592}[trial_bound]
    rng = random.Random(trial_bound)
    small = primes_up_to(1000)
    inputs = WORD_EDGES + [rng.getrandbits(64) for _ in range(16_000)]
    for _ in range(4_000):  # smooth ones, so that many primes divide
        n = math.prod(rng.choice(small) for _ in range(rng.randint(1, 6)))
        inputs.append(n * rng.randrange(1, 2 ** 64 // n))
    flagged = 0
    for n in inputs:
        assert n < 2 ** 64
        hits = arith._trial_primes(n, table, count)
        assert hits == swept_primes(n, table, count), (trial_bound, n)
        flagged += len(hits)
    assert (flagged > 0) == (count > 0)


def test_trial_bound_zero_leaves_n_whole():
    # with rho off, a composite that is no perfect power stays whole
    for n in (2 ** 64 - 1, 3 * 2 ** 61, 99991 * 99989, 65521 * 65519 * 3):
        assert factor(n, FactorBudget(trial_bound=0, rho_iterations=0)).remainder == n


@pytest.mark.parametrize("bound", [1 << 16, 10 ** 6])
def test_table_inverses_and_limits(bound):
    table = arith._build_table(bound)
    odd = table.words[1:]
    assert table.primes[0] == 2 and len(odd) == len(table.inverses) == len(table.limits)
    assert (odd * table.inverses == 1).all()
    assert table.limits.tolist() == [(2 ** 64 - 1) // p for p in table.primes[1:]]


def test_residue_sweep_only_from_2_64_up():
    sweep = mock.Mock(wraps=residues_mod)
    with mock.patch.object(arith, "residues_mod", sweep):
        for n in WORD_EDGES:
            factor(n)
        assert sweep.call_count == 0
        # 2^64 + 1 = 274177 * 67280421310721 and the prime 2^64 + 13 have no
        # prime up to 293, so they are swept; 2^64 and 3 * 2^70 are 293-smooth,
        # and the gcd with the primes up to 293 leaves nothing to sweep
        for n in (2 ** 64 + 1, 2 ** 64 + 13, 2 ** 64, 3 * 2 ** 70):
            factor(n)
        assert sweep.call_count == 2


@pytest.mark.parametrize("bound", [1000, 100_000])
@pytest.mark.parametrize("rho_iterations", [0, 10_000])
def test_above_2_64_the_factorization_is_the_full_sweeps(bound, rho_iterations):
    # From 2^64 up a gcd divides out the primes up to 293 and the sweep
    # stops at the square root of what is left.  On seeded n in [2^64,
    # 2^200), smooth (primes up to 293, or up to the bound) or not (one or
    # two primes above the bound), the factorization is the one a sweep to
    # min(bound, isqrt(n)) gives: every prime when at most one lies above
    # the bound, and with rho off the product of two such primes left whole
    rng = random.Random(bound + rho_iterations)
    pools = (primes_up_to(293), primes_up_to(bound))
    checked = Counter()
    while sum(checked.values()) < 90:
        big = sorted({
            sympy.nextprime(rng.randrange(bound, 2 ** rng.randint(20, 60)))
            for _ in range(rng.randrange(3))
        })
        if rho_iterations and len(big) == 2:
            continue  # rho may or may not split p * q
        pool = pools[rng.randrange(2)]
        counts = Counter()
        n = math.prod(big)
        while n < 2 ** 64 or rng.random() < 0.3:
            p = rng.choice(pool)
            counts[p] += 1
            n *= p
        if n >= 2 ** 200:
            continue
        if len(big) == 2:
            expected = Factorization(n, sorted(counts.items()), big[0] * big[1])
        else:
            expected = Factorization(n, sorted((counts + Counter(big)).items()))
        assert factor(n, FactorBudget(trial_bound=bound, rho_iterations=rho_iterations)) == expected
        checked[len(big)] += 1
    assert min(checked[k] for k in range(2 if rho_iterations else 3)) >= 20
