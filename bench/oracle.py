"""Seeded inputs and output checks that do not use the code under test.

Nothing here imports `digitcover`: the expected covering data is the
paper's, orders are checked with plain `pow`, and primality comes from
sympy.
"""

from __future__ import annotations

import math
import random

from sympy import isprime

# Congruence count, moduli lcm and largest prime of that lcm, per digit
# offset d.  The six offsets d = 2 (mod 3) use the single congruence 0 (mod 1).
EXPECTED_DIGITS = {
    -9: (232, 14433138720, 31),
    -8: (441, 699847948800, 17),
    -6: (257, 1045044000, 29),
    -5: (268, 56216160, 13),
    -3: (739, 1486147703040, 19),
    -2: (289, 321253732800, 23),
    1: (37, 5040, 7),
    3: (203, 133333200, 37),
    4: (26, 1296, 3),
    6: (19, 360, 5),
    7: (137, 18295200, 11),
    9: (4, 8, 2),
}
for _d in (-7, -4, -1, 2, 5, 8):
    EXPECTED_DIGITS[_d] = (1, 1, 1)

SCAN_BOUND = 300_000
FIRST_DELICATE = 294_001
TRIAL_BOUND = 100_000  # factor()'s default trial-division bound


def uniform64(seed: int, count: int) -> list[int]:
    """Uniform integers in [1, 2**64), as the tier-1 property suite draws them."""
    rng = random.Random(f"uniform64-{seed}")
    return [rng.randrange(1, 2 ** 64) for _ in range(count)]


def _prime32(rng: random.Random) -> int:
    while True:
        p = rng.getrandbits(32) | (1 << 31) | 1
        if isprime(p):
            return p


def semiprimes64(seed: int, count: int) -> list[int]:
    """Products of two distinct uniform 32-bit primes (top bit set)."""
    rng = random.Random(f"semiprime64-{seed}")
    out = []
    while len(out) < count:
        p, q = _prime32(rng), _prime32(rng)
        if p != q:
            out.append(p * q)
    return out


def rho_share(factorizations: list[list[list[int]]]) -> float:
    """Share of inputs left with >= 2 prime factors (with multiplicity)
    above the trial bound, i.e. inputs whose cofactor needs splitting."""
    needy = sum(
        1
        for fac in factorizations
        if sum(e for p, e in fac if p > TRIAL_BOUND) >= 2
    )
    return needy / len(factorizations)


def check_report(digits: list[list]) -> list[str]:
    """One message per digit whose verdict or data differs from the paper."""
    errors = []
    seen = set()
    for d, covering, count, lcm, max_prime in digits:
        seen.add(d)
        expected = EXPECTED_DIGITS.get(d)
        got = (count, int(lcm), int(max_prime))
        if not covering:
            errors.append(f"d={d}: not a covering")
        elif got != expected:
            errors.append(f"d={d}: (count, lcm, max prime) {got} != {expected}")
    missing = sorted(set(EXPECTED_DIGITS) - seen)
    if missing:
        errors.append(f"digits missing from the report: {missing}")
    return errors


def _prime_divisors(m: int) -> list[int]:
    out, d = [], 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def check_modulus(m: int, primes: list[int], resolved: list[list]) -> list[str]:
    """Every listed prime has 10 of order exactly m, the list ascends, and
    each resolved (rho, prime) row names the rho-th listed prime."""
    errors = []
    if primes != sorted(set(primes)):
        errors.append(f"m={m}: primes not strictly ascending")
    qs = _prime_divisors(m)
    for p in primes:
        if pow(10, m, p) != 1 or any(pow(10, m // q, p) == 1 for q in qs):
            errors.append(f"m={m}: 10 does not have order {m} mod {p}")
        elif not isprime(p):
            errors.append(f"m={m}: {p} is not prime")
    for rho, p in resolved:
        if p is not None and (rho > len(primes) or primes[rho - 1] != p):
            errors.append(f"m={m}: row rho={rho} resolved to {p}")
    return errors


def check_factorization(n: int, fac: list[list[int]], remainder) -> list[str]:
    """The factorization is complete, reproduces n, and lists only primes."""
    if remainder is not None:
        return [f"{n}: incomplete, cofactor {remainder}"]
    if math.prod(p ** e for p, e in fac) != n:
        return [f"{n}: factors {fac} do not multiply back"]
    bad = [p for p, _ in fac if not isprime(p)]
    return [f"{n}: non-prime factors {bad}"] if bad else []
