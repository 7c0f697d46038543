"""Cyclotomic values at 10 and the order-m prime tables.

The primes p (coprime to 10) for which 10 has multiplicative order m are
exactly the primes dividing the m-th cyclotomic polynomial evaluated at 10,
excluding primes dividing m, and every one of them is 1 (mod lcm(2, m)).
This module evaluates those values exactly, as a Moebius product over the
squarefree divisors of m formed from the primes `factor` finds in m.  It
lists the order-m primes by scanning that progression below SCAN_BOUND and
splitting what is left with Pollard's p - 1 method.  For m = 20k with k odd
the leftover first splits for free at its Aurifeuillian factors (Brent,
Math. Comp. 61, 1993), and a part above _PRIMALITY_BIT_LIMIT bits is left
whole without a primality test.  `prove_order_primes` instead re-proves a
claimed complete list of the order-m primes, which costs far less than
finding them.  It also validates externally supplied
order tables: `load_order_table` reads one as a dict from each modulus to
its entries, where an unfactored composite placeholder may stand in for up
to two unknown primes, and `validate_order_table` returns the list of its
violations, empty when the table is valid.  Validation checks that each
entry divides Phi_m(10) freed of the primes of m, plus the placeholder
rules, and factors nothing.  `quoted` cuts the malformed text and entries
that errors and violations here and in `bundle` quote.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .arith import (
    COMPOSITE,
    DEFAULT_BUDGET,
    PROBABLE_PRIME,
    PROVEN_PRIME,
    FactorBudget,
    _miller_rabin_witness,
    _odd_part,
    factor,
    has_order,
    is_perfect_power,
    is_prime,
    pm1_split,
)

__all__ = [
    "cyclotomic_value",
    "primes_of_order",
    "prove_order_primes",
    "OrderPrimes",
    "load_order_table",
    "validate_order_table",
    "quoted",
]


def cyclotomic_value(m: int, x: int) -> int:
    """Exact value of the m-th cyclotomic polynomial at integer x >= 2.

    Uses the Moebius product over the squarefree divisors e of m, taken as
    subsets of the primes of m: the term for e is (x**(m/e) - 1), raised to
    -1 when e has an odd number of primes, and the division is performed
    exactly.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if x < 2:
        raise ValueError("x must be >= 2")
    numerator = 1
    denominator = 1
    qs = factor(m).primes()
    for size in range(len(qs) + 1):
        for subset in itertools.combinations(qs, size):
            term = x ** (m // math.prod(subset)) - 1
            if size % 2:
                denominator *= term
            else:
                numerator *= term
    value, rem = divmod(numerator, denominator)
    if rem:
        raise ArithmeticError(f"Moebius product for m={m}, x={x} did not divide exactly")
    return value


@dataclass(frozen=True)
class OrderPrimes:
    """Primes with 10 of order `modulus`, ascending, possibly incomplete.

    Every order-m prime below `exact_below` is listed.  `probable` holds the
    listed primes that rest on `is_prime`'s probable-prime verdict alone;
    every other listed prime is proven.  complete is True iff
    no composite cofactor is left, and then every order-m prime is listed;
    otherwise `remainder` is the product of the composite cofactors and
    `reason` says why each was not split.  scan_candidates and
    scan_survivors count the candidates the scan tested and those that
    passed its order filter.
    """

    modulus: int
    primes: tuple[int, ...]
    complete: bool
    exact_below: int
    probable: frozenset[int]
    remainder: Optional[int] = None
    reason: Optional[str] = None
    scan_candidates: int = 0
    scan_survivors: int = 0

    @property
    def exact(self) -> tuple[int, ...]:
        """The ascending prefix whose indices are exact: all primes when
        complete, else those below exact_below."""
        if self.complete:
            return self.primes
        return self.primes[: bisect.bisect_left(self.primes, self.exact_below)]

    def nth(self, rho: int) -> Optional[int]:
        """The rho-th listed prime (1-based) when it lies in the exact
        prefix, else None."""
        exact = self.exact
        return exact[rho - 1] if 1 <= rho <= len(exact) else None


# The scan tests p = 1 + k*lcm(2, m) below this bound.  It stays below 2**32,
# so products of uint64 residues cannot overflow.
SCAN_BOUND = 10 ** 6
# Candidates per scan chunk: the first chunk, and the cap the doubling stops at.
_CHUNK_FIRST = 1 << 6
_CHUNK_MAX = 1 << 14
# Composite cofactors above this size are not split.
_SPLIT_BIT_LIMIT = 512
# `is_prime` runs for minutes on a number past this size, so order-m
# cofactors above it are left untested and table entries above it are
# classified by a two-base Miller-Rabin probe.  It sits above the largest
# Phi_m(10) with m <= 1000 (2,512 bits, m = 931).
_PRIMALITY_BIT_LIMIT = 4096


def _pow10_mod(e: int, p: np.ndarray) -> np.ndarray:
    """10**e mod p, elementwise, for a uint64 array p of values < 2**32."""
    result = np.ones_like(p)
    base = np.uint64(10) % p
    while e:
        if e & 1:
            result = result * base % p
        e >>= 1
        if e:
            base = base * base % p
    return result


def _aurifeuillian_factor(m: int) -> int:
    """C(x) - 10**((k+1)/2) * D(x) at x = 10**k, for m = 20k with k odd.

    Phi_20(x) = C(x)**2 - 10x * D(x)**2 with C = x^4+5x^3+7x^2+5x+1 and
    D = x^3+2x^2+2x+1 (Brent, Math. Comp. 61, 1993).  For odd k, 10 * 10**k
    is the square of 10**((k+1)/2), so Phi_20(10**k) is this value times
    C + 10**((k+1)/2) * D, and Phi_m(10) divides Phi_20(10**k).
    """
    k = m // 20
    x = 10 ** k
    c = (((x + 5) * x + 7) * x + 5) * x + 1
    d = ((x + 2) * x + 2) * x + 1
    return c - 10 ** ((k + 1) // 2) * d


def _order_cofactor(m: int) -> tuple[int, list[int]]:
    """Phi_m(10) freed of the primes of m, whose prime factors are exactly
    the order-m primes, and those primes of m."""
    cofactor = cyclotomic_value(m, 10)  # rejects m < 1 before `factor` sees m
    qs = factor(m).primes()
    for q in qs:
        while cofactor % q == 0:
            cofactor //= q
    return cofactor, qs


@lru_cache(maxsize=None)
def _primes_of_order_cached(m: int, budget: FactorBudget) -> OrderPrimes:
    cofactor, qs = _order_cofactor(m)
    step = math.lcm(2, m)

    # Scan p = 1 + k*step in chunks.  After a chunk every order-m prime below
    # `limit` is divided out, so a cofactor below limit**2 is 1 or prime.
    found: set[int] = set()
    candidates = survivors = 0
    k, chunk, limit = 1, _CHUNK_FIRST, 2
    last = (SCAN_BOUND - 2) // step  # the largest k with 1 + k*step < SCAN_BOUND
    while cofactor >= limit * limit and k <= last:
        stop = min(k + chunk, last + 1)
        p = 1 + np.uint64(step) * np.arange(k, stop, dtype=np.uint64)
        p = p[_pow10_mod(m, p) == 1]
        for q in qs:
            p = p[_pow10_mod(m // q, p) != 1]
        candidates += stop - k
        survivors += len(p)
        for prime in map(int, p):
            if is_prime(prime) and has_order(10, m, prime):
                found.add(prime)
                while cofactor % prime == 0:
                    cofactor //= prime
        k, chunk, limit = stop, min(2 * chunk, _CHUNK_MAX), 1 + stop * step

    # Split what is left: every part below limit**2 is prime.  For
    # m = 20k with k odd, the Aurifeuillian gcd splits it first, for free.
    parts = [cofactor] if cofactor > 1 else []
    if m % 40 == 20 and cofactor >= limit * limit:
        half = math.gcd(cofactor, _aurifeuillian_factor(m))
        if 1 < half < cofactor:
            parts = [half, cofactor // half]
    rest: list[int] = []
    reasons: list[str] = []
    probable: set[int] = set()
    while parts:
        n = parts.pop()
        if n.bit_length() > _PRIMALITY_BIT_LIMIT:
            rest.append(n)
            reasons.append(
                f"{n.bit_length()}-bit cofactor above the split limit, "
                "primality not tested"
            )
            continue
        kind = PROVEN_PRIME if n < limit * limit else is_prime(n).kind
        if kind != COMPOSITE:
            if not has_order(10, m, n):
                raise ArithmeticError(
                    f"prime {n} divides the order-{m} cyclotomic value at 10 "
                    f"but 10 does not have order {m} mod {n}"
                )
            found.add(n)
            if kind == PROBABLE_PRIME:
                probable.add(n)
        elif n.bit_length() > _SPLIT_BIT_LIMIT:
            rest.append(n)
            reasons.append(
                f"{n.bit_length()}-bit cofactor above the split limit, not attempted"
            )
        else:
            d, spent = pm1_split(n, step, budget)
            if d is None:
                rest.append(n)
                reasons.append(
                    f"p-1 spent {spent} multiplications on a {len(str(n))}-digit cofactor"
                )
            else:
                parts += [d, n // d]
    return OrderPrimes(
        modulus=m,
        primes=tuple(sorted(found)),
        complete=not rest,
        exact_below=limit,
        probable=frozenset(probable),
        remainder=math.prod(rest) if rest else None,
        reason="; ".join(reasons) or None,
        scan_candidates=candidates,
        scan_survivors=survivors,
    )


def primes_of_order(m: int, budget: FactorBudget = DEFAULT_BUDGET) -> OrderPrimes:
    """Primes p with multiplicative order of 10 mod p equal to m, ascending.

    Every such prime is 1 (mod lcm(2, m)) and divides the cyclotomic value
    Phi_m(10), which is first freed of the primes of m.  The candidates
    p = 1 + k*lcm(2, m) below SCAN_BOUND are scanned in numpy chunks that
    start small and double up to _CHUNK_MAX; p is kept when 10**m = 1 and
    10**(m/q) != 1 (mod p) for every prime q | m, proven with `is_prime` and
    `has_order`, and divided out of Phi_m(10) with its multiplicity.  The
    scan stops once the cofactor is below the square of the scanned limit,
    where it is 1 or prime.  For m = 20k with k odd, Phi_m(10) divides
    Phi_20(10**k) = (C - 10**((k+1)/2) D)(C + 10**((k+1)/2) D) (Brent,
    Math. Comp. 61, 1993; see `_aurifeuillian_factor`), so one gcd with the
    first factor splits the cofactor in two without spending budget.  Each
    part above _PRIMALITY_BIT_LIMIT bits is left whole, its primality not
    tested, since `is_prime` runs for minutes there.  A composite part of at
    most _SPLIT_BIT_LIMIT bits is split with `pm1_split`, within budget, and
    each prime it yields is re-checked with `has_order`.  A part counts as
    prime below the limit squared or when `is_prime` says so, and lands in
    `probable` when `is_prime` only calls it a probable prime.

    The listed primes below `exact_below` are exactly the order-m primes
    there; the result is complete, and lists them all, iff no composite
    cofactor remains.
    """
    return _primes_of_order_cached(m, budget)


def prove_order_primes(m: int, primes: Sequence[int]) -> OrderPrimes:
    """The complete OrderPrimes for m from a claimed list of every order-m
    prime; ValueError names the first check that fails.

    The checks run in this order: the entries are above 1 and strictly
    ascend; each divides Phi_m(10) freed of the primes of m, tested before
    any primality test so that a huge entry costs one division; each passes
    `is_prime` (a probable prime lands in `probable`, as in
    `primes_of_order`); 10 has order m modulo each; and dividing every
    entry out with its multiplicity leaves 1, which proves that no order-m
    prime is missing.  No budget is spent.
    """
    if any(a >= b for a, b in zip([1, *primes], primes)):
        raise ValueError("entries are not above 1 in strictly ascending order")
    value, _ = _order_cofactor(m)
    for p in primes:
        if value % p:
            raise ValueError(
                f"entry {quoted(str(p))} does not divide Phi_{m}(10) freed of the primes of {m}"
            )
    probable: set[int] = set()
    cofactor = value
    for p in primes:
        if p.bit_length() > _PRIMALITY_BIT_LIMIT:
            raise ValueError(f"entry of {p.bit_length()} bits is past the primality test's limit")
        kind = is_prime(p).kind
        if kind == COMPOSITE:
            raise ValueError(f"entry {quoted(str(p))} is not prime")
        if not has_order(10, m, p):
            raise ValueError(f"10 does not have order {m} modulo entry {quoted(str(p))}")
        if kind == PROBABLE_PRIME:
            probable.add(p)
        while cofactor % p == 0:
            cofactor //= p
    if cofactor != 1:
        raise ValueError(
            f"the entries leave a {cofactor.bit_length()}-bit cofactor, so the list is incomplete"
        )
    return OrderPrimes(
        modulus=m,
        primes=tuple(primes),
        complete=True,
        exact_below=value + 1,
        probable=frozenset(probable),
    )


def quoted(text: str) -> str:
    """repr(text), cut to 40 characters and the length when longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def load_order_table(path: Union[str, Path]) -> dict[int, tuple[int, ...]]:
    """Parse an order-table file into its entries keyed by modulus.

    One record per line, `m: e1, e2, ..., eL`, each e a decimal integer; a
    trailing `*2` repeats that entry (a placeholder used twice).  Lines
    starting with `#` are comments.  A modulus below 1 is an error.
    """
    rows: dict[int, tuple[int, ...]] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'm: entries', got {quoted(raw)}")
        try:
            m = int(head)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad modulus {quoted(head)}") from None
        if m < 1:
            raise ValueError(f"{path}:{lineno}: modulus {m} must be positive")
        entries: list[int] = []
        for token in tail.split(","):
            token = token.strip()
            if not token:
                continue
            twice = token.endswith("*2")
            if twice:
                token = token[:-2].strip()
            try:
                value = int(token)
            except ValueError:
                limit = sys.get_int_max_str_digits()
                if limit and len(token) > limit and token.isdigit():
                    raise ValueError(
                        f"{path}:{lineno}: entry of {len(token)} digits exceeds Python's "
                        f"int-string limit of {limit} (sys.get_int_max_str_digits())"
                    ) from None
                raise ValueError(f"{path}:{lineno}: bad entry {quoted(token)}") from None
            entries.extend([value, value] if twice else [value])
        if m in rows:
            raise ValueError(f"{path}:{lineno}: duplicate modulus {m}")
        rows[m] = tuple(entries)
    return rows


def _is_placeholder(e: int) -> bool:
    """Whether a table entry is composite, so a placeholder for unknown
    prime factors rather than a prime.

    Entries can run to thousands of digits (load_order_table reads up to
    sys.get_int_max_str_digits(), 4300 by default); classification there
    only needs to separate composites from primes, so past
    _PRIMALITY_BIT_LIMIT bits a two-base Miller-Rabin probe replaces
    `is_prime`.
    """
    if e.bit_length() <= _PRIMALITY_BIT_LIMIT:
        return not is_prime(e)
    d, s = _odd_part(e - 1)
    return e % 2 == 0 or e % 3 == 0 or any(_miller_rabin_witness(e, a, d, s) for a in (2, 3))


def validate_order_table(table: dict[int, tuple[int, ...]]) -> list[str]:
    """Run the data-validation checklist on every row of an order table and
    return its violations, each as `m=<m>: ...`, rows in ascending m; the
    table is valid iff there are none.

    Per row with modulus m and entries [e1..eL]:
      1. every entry is an integer > 1 dividing Phi_m(10) freed of the
         primes of m, whose prime factors are exactly the order-m primes;
      2. at most one composite value Q, appearing at most twice; all other
         entries are distinct primes;
      3. gcd(Q, product of the prime entries) = 1;
      4. if Q appears twice, Q is not a perfect power.
    A composite appearing once or twice is accepted as a placeholder for
    that many unknown prime factors; anything else is a violation.

    Check 1 alone makes every prime factor of every entry an order-m prime,
    so no prime can sit under two moduli, and no factoring budget is spent.
    With checks 2-4 the row's length is a lower bound on the number of
    order-m primes: the prime entries are distinct order-m primes, and Q
    has a prime factor outside them, or two distinct ones when listed twice.
    """
    rows: list[str] = []
    for m in sorted(table):
        entries = table[m]
        violations: list[str] = []
        cofactor, _ = _order_cofactor(m)

        primes: list[int] = []
        composites: list[int] = []
        for e in entries:
            if e < 2:
                violations.append(f"entry {quoted(str(e))} is not a positive integer > 1")
                continue
            if cofactor % e != 0:
                violations.append(
                    f"entry {quoted(str(e))} does not divide Phi_{m}(10) freed of the primes of {m}"
                )
            (composites if _is_placeholder(e) else primes).append(e)

        if len(set(primes)) != len(primes):
            violations.append("repeated prime entry")
        distinct_q = set(composites)
        if len(distinct_q) > 1:
            violations.append(
                "more than one composite placeholder: "
                + ", ".join(quoted(str(q)) for q in sorted(distinct_q))
            )
        elif composites:
            q = composites[0]
            if len(composites) > 2:
                violations.append(
                    f"composite placeholder {quoted(str(q))} appears {len(composites)} times"
                )
            if math.gcd(q, math.prod(primes)) != 1:
                violations.append(
                    f"placeholder {quoted(str(q))} shares a factor with the prime entries"
                )
            if len(composites) == 2 and (power := is_perfect_power(q)) is not None:
                base, exp = power
                violations.append(
                    f"placeholder {quoted(str(q))} = {quoted(f'{base}**{exp}')} "
                    "cannot hold two distinct primes"
                )
        rows.extend(f"m={m}: {v}" for v in violations)
    return rows
