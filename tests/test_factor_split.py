"""`factor` splits a composite cofactor with a short Pollard p - 1 pass before
Brent rho.  Checked against sympy as an independent oracle on seeded 64-bit
inputs, and at budgets where the pass, not rho, decides the outcome."""

import random

import pytest

from digitcover.arith import FactorBudget, _brent_rho, factor

sympy = pytest.importorskip("sympy")

# p - 1 = 2^2 * 3^2 * 41 * 97 * 149 * 151, so stage 1 of the pass catches p;
# q - 1 = 2 * 5 * 19 * 22605091 is not smooth, so the pass isolates p.
SMOOTH_P = 3_221_226_829
ROUGH_Q = 4_294_967_291
RHO_SHORT = FactorBudget(rho_iterations=10_000, rho_restarts=1)


def prime32(rng: random.Random) -> int:
    while True:
        p = rng.getrandbits(32) | (1 << 31) | 1
        if sympy.isprime(p):
            return p


def balanced_semiprimes(seed: int, count: int) -> list[tuple[int, int]]:
    """Pairs p < q of distinct 32-bit primes (top bit set) that sympy proves."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p, q = sorted((prime32(rng), prime32(rng)))
        if p != q:
            out.append((p, q))
    return out


def test_balanced_semiprimes_match_sympy():
    # sympy proves both primes, so {p: 1, q: 1} is sympy.factorint(p*q); it
    # is taken from the construction because factorint itself spends about
    # 0.15 s on each of these inputs
    for p, q in balanced_semiprimes(2026, 200):
        result = factor(p * q)
        assert result.complete, (p, q)
        assert result.factors == [(p, 1), (q, 1)], (p, q)


def test_uniform_64_bit_inputs_match_sympy():
    rng = random.Random(64)
    for _ in range(2_000):
        n = rng.randrange(1, 2 ** 64)
        result = factor(n)
        assert result.complete, n
        assert dict(result.factors) == sympy.factorint(n), n


def test_smooth_factor_found_where_rho_alone_runs_out():
    assert max(sympy.factorint(SMOOTH_P - 1)) <= 151
    n = SMOOTH_P * ROUGH_Q
    assert _brent_rho(n, RHO_SHORT) is None
    result = factor(n, RHO_SHORT)
    assert result.complete
    assert result.factors == [(SMOOTH_P, 1), (ROUGH_Q, 1)]


def test_zero_rho_budget_is_trial_division_only():
    n = SMOOTH_P * ROUGH_Q
    result = factor(n, FactorBudget(rho_iterations=0, rho_restarts=0))
    assert not result.complete
    assert result.remainder == n
    assert result.factors == []
