"""Fibonacci-like recurrences whose every term is divisible by a prime from
a fixed finite set.

The sequence u(0) = a, u(1) = b, u(n+1) = u(n) + u(n-1) reduced mod a prime
p is purely periodic, because the state map (x, y) -> (y, x + y) is
invertible mod p.  Collecting, per prime, the period and the indices where
the term vanishes turns "every term is divisible by some prime in the set"
into the covering system j = z (mod period(p)), one congruence per zero
index z, which `covering.is_covering_fast` checks within its memory bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

from .arith import is_prime
from .covering import CoveringSystem, is_covering_fast
from .cyclotomic import quoted

__all__ = [
    "GrahamInstance",
    "RecurrencePeriod",
    "CoverReport",
    "SeedReduction",
    "recurrence_period",
    "verify_cover",
    "reduce_seeds",
    "PERIOD_PRIME_LIMIT",
    "EXPLICIT_TERMS",
]

# recurrence_period walks the orbit one state at a time, and a period can
# be about 2p long, so it refuses primes above this bound.
PERIOD_PRIME_LIMIT = 10 ** 7
# verify_cover checks that the terms u(2), ..., u(EXPLICIT_TERMS - 1)
# exceed every listed prime.
EXPLICIT_TERMS = 50


def _check_period_bound(p: int) -> None:
    if p > PERIOD_PRIME_LIMIT:
        raise ValueError(
            f"prime {p} exceeds the recurrence period limit {PERIOD_PRIME_LIMIT}"
        )


@dataclass(frozen=True)
class GrahamInstance:
    """Seeds and prime set for a compositeness cover of the recurrence.

    Raises ValueError unless the prime set is non-empty and its entries
    are distinct primes of at most PERIOD_PRIME_LIMIT.  The bound is
    checked before the primality test, so a huge entry costs no test.
    """

    a: int
    b: int
    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.primes:
            raise ValueError("prime set must be nonempty")
        for i, p in enumerate(self.primes):
            if p in self.primes[:i]:
                raise ValueError(f"prime set lists {quoted(str(p))} twice")
            _check_period_bound(p)
            if not is_prime(p):
                raise ValueError(f"prime set: {quoted(str(p))} is not prime")

    @property
    def product(self) -> int:
        """Product of the prime set; seeds may be shifted by any multiple."""
        return math.prod(self.primes)


@dataclass(frozen=True)
class RecurrencePeriod:
    """period: least T >= 1 returning the state (u(n), u(n+1)) mod p to its
    start; zero_indices: residues j mod period with u(j) = 0 (mod p)."""

    prime: int
    period: int
    zero_indices: frozenset[int]


def recurrence_period(p: int, a: int, b: int) -> RecurrencePeriod:
    """Walk the state orbit of (a, b) mod p until it closes.

    Raises ValueError unless p is a prime of at most PERIOD_PRIME_LIMIT.
    """
    _check_period_bound(p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    start = (a % p, b % p)
    zeros = set()
    state = start
    index = 0
    while True:
        if state[0] == 0:
            zeros.add(index)
        state = (state[1], (state[0] + state[1]) % p)
        index += 1
        if state == start:
            break
    return RecurrencePeriod(prime=p, period=index, zero_indices=frozenset(zeros))


@dataclass
class CoverReport:
    covered: bool
    period_lcm: int
    periods: dict[int, RecurrencePeriod] = field(default_factory=dict)
    uncovered_index: int | None = None
    terms_exceed_primes: bool = True

    def __bool__(self) -> bool:
        """The verdict: every index is covered, and the early terms exceed
        every listed prime, so the prime dividing each proves it composite."""
        return self.covered and self.terms_exceed_primes


def verify_cover(instance: GrahamInstance) -> CoverReport:
    """Check that every recurrence index is covered by some prime's zero set.

    Index j is covered iff u(j) = 0 mod p for some p, which only depends on
    j mod period(p), so is_covering_fast decides it on the zero-index
    congruences and uncovered_index is the least uncovered index (0 when no
    prime has a zero).  Raises ValueError for periods beyond the verifier's
    limits (the instance already bounds its primes by PERIOD_PRIME_LIMIT).
    Also checks that the terms u(2), ..., u(EXPLICIT_TERMS - 1) exceed
    max(primes), so the divisibility actually proves them composite.
    """
    periods = {
        p: recurrence_period(p, instance.a, instance.b) for p in instance.primes
    }
    big_l = reduce(math.lcm, (rp.period for rp in periods.values()))
    pairs = [(z, rp.period) for rp in periods.values() for z in rp.zero_indices]
    if pairs:
        verdict = is_covering_fast(CoveringSystem.from_pairs(pairs))
        covered, uncovered = verdict.covering, verdict.witness
    else:
        covered, uncovered = False, 0

    max_p = max(instance.primes)
    terms_ok = True
    x, y = instance.a, instance.b
    for _ in range(2, EXPLICIT_TERMS):
        x, y = y, x + y
        if y <= max_p:
            terms_ok = False
            break

    return CoverReport(
        covered=covered,
        period_lcm=big_l,
        periods=periods,
        uncovered_index=uncovered,
        terms_exceed_primes=terms_ok,
    )


@dataclass(frozen=True)
class SeedReduction:
    """Seed congruences mod the prime-set product N, with common factors
    pulled out: a = gcd_a * a_reduced with a_reduced free mod N / gcd_a,
    and likewise for b."""

    gcd_a: int
    gcd_b: int
    a_reduced: int
    a_modulus: int
    b_reduced: int
    b_modulus: int


def reduce_seeds(instance: GrahamInstance) -> SeedReduction:
    """Split each seed congruence mod N into gcd * (reduced congruence)."""
    if instance.a == 0 or instance.b == 0:
        raise ValueError("seeds must be nonzero")
    n = instance.product
    g_a = math.gcd(instance.a, n)
    g_b = math.gcd(instance.b, n)
    return SeedReduction(
        gcd_a=g_a,
        gcd_b=g_b,
        a_reduced=instance.a // g_a % (n // g_a),
        a_modulus=n // g_a,
        b_reduced=instance.b // g_b % (n // g_b),
        b_modulus=n // g_b,
    )
