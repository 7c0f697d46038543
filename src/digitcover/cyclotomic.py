"""Cyclotomic values at 10 and the order-m prime tables.

The primes p (coprime to 10) for which 10 has multiplicative order m are
exactly the primes dividing the m-th cyclotomic polynomial evaluated at 10,
excluding primes dividing m, and every one of them is 1 (mod lcm(2, m)).
`cyclotomic_value` evaluates Phi_m(x) exactly for m up to _MODULUS_LIMIT,
and `primes_of_order` lists the order-m primes by scanning that
progression below SCAN_BOUND and splitting what is left with Pollard's
p - 1 method.

One rule, `order_divisor_violation`, says what may stand for an order-m
prime, in order tables and constructions alike: a divisor > 1 of Phi_m(10)
freed of the primes of m, decided by gcd and `pow` alone.  One row check,
`_row_check`, serves `validate_order_table` and `prove_order_primes`, which
re-proves a claimed complete list of the order-m primes far more cheaply
than finding them.  `LineReader` gives the covering, order-table and
construction loaders their lines and the field rules they share, with
`quoted` and `parse_int` for malformed text and integer fields.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .arith import (
    COMPOSITE,
    DEFAULT_BUDGET,
    PROBABLE_PRIME,
    PROVEN_PRIME,
    FactorBudget,
    factor,
    is_perfect_power,
    is_prime,
    pm1_split,
    residues_mod,
)

__all__ = [
    "cyclotomic_value",
    "order_divisor_violation",
    "primes_of_order",
    "prove_order_primes",
    "OrderPrimes",
    "load_order_table",
    "validate_order_table",
    "quoted",
    "parse_int",
    "LineReader",
    "MODULUS_BOUND",
]


@lru_cache(maxsize=1024)
def _primes_of(m: int) -> tuple[int, ...]:
    """The primes of m, ascending: one `factor(m)` serves the Moebius
    product, the order cofactor, the scan and every table entry under m."""
    return tuple(factor(m).primes())


def cyclotomic_value(m: int, x: int) -> int:
    """Exact value of the m-th cyclotomic polynomial at integer x >= 2.

    Uses the Moebius product over the squarefree divisors e of m, taken as
    subsets of the primes of m: the term for e is (x**(m/e) - 1), raised to
    -1 when e has an odd number of primes, and the division is performed
    exactly.  A modulus above _MODULUS_LIMIT is refused: each term's
    x**(m/e) grows with m, and no table needs one that large.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > _MODULUS_LIMIT:
        raise ValueError(f"m must be <= {_MODULUS_LIMIT}, got {quoted(str(m))}")
    if x < 2:
        raise ValueError("x must be >= 2")
    numerator = 1
    denominator = 1
    qs = _primes_of(m)
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
    `reason` says why each was not split.  scan_candidates counts the
    candidates the scan tested, and scan_survivors those it passed to
    `is_prime`: each order-m prime, plus, while the scan sweeps the
    cofactor, each composite candidate dividing it (m = 2 keeps 11 alone,
    where the order test also passes 33 and 99).  pm1_multiplications sums
    the multiplications `pm1_split` spent on the cofactor's parts, and is 0
    for a list proven by `prove_order_primes`.
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
    pm1_multiplications: int = 0

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


# The largest modulus `cyclotomic_value` accepts.  The largest table modulus
# is 75,240; Phi_m(10) took 0.23 s at m = 90,090 and 7.4 s at 10**6.
_MODULUS_LIMIT = 10 ** 5
# The scan tests p = 1 + k*lcm(2, m) below this bound.  It stays below 2**32,
# so products of uint64 residues cannot overflow.
SCAN_BOUND = 10 ** 6
# Candidates per scan chunk: the first chunk, and the cap the doubling stops at.
_CHUNK_FIRST = 1 << 6
_CHUNK_MAX = 1 << 14
# The scan keeps the candidates that divide the cofactor, by one limb
# sweep, while it has at most this many bits per bit of m; past that the
# sweep costs more than the order test, whose numpy products grow with
# log2(m) and the primes of m.  Scan time on the table moduli was flat for
# 48 to 64; the order test alone took 4.5x as long for m <= 64 and 1.35x
# for 65 <= m <= 1000, and the sweep alone 4.7x for m > 1000.
_SWEEP_BITS = 56
# Composite cofactors above this size are not split.
_SPLIT_BIT_LIMIT = 512
# `is_prime` runs for minutes past this size: order-m cofactors above it
# are left untested, a proof refuses entries above it, and a row check
# refuses a value listed twice above it.  It sits above the largest
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


def _order_cofactor(m: int) -> int:
    """Phi_m(10) freed of the primes of m, whose prime factors are exactly
    the order-m primes."""
    cofactor = cyclotomic_value(m, 10)  # rejects a bad m before `factor` sees it
    for q in _primes_of(m):
        while cofactor % q == 0:
            cofactor //= q
    return cofactor


def order_divisor_violation(q: int, m: int) -> Optional[str]:
    """Why q is not an order-m divisor, a divisor > 1 of Phi_m(10) freed of
    the primes of m; None when it is.

    q is one iff 10**m = 1 (mod q) and gcd(q, 10**(m/r) - 1) = 1 for every
    prime r | m: then every prime p of q has order m, so m divides p - 1
    and p does not divide m, and q divides 10**m - 1, whose primes of order
    m all sit in Phi_m(10) with their full multiplicity.  That costs a few
    modular powers and the primes of m, however large q is.  Such a q
    divides n + d * 10**k for every k = a (mod m) once n = -d * 10**a
    modulo q, prime or not."""
    if q < 2:
        return f"{quoted(str(q))} is not a positive integer > 1"
    if pow(10, m, q) != 1 or any(
        math.gcd(q, pow(10, m // r, q) - 1) != 1 for r in _primes_of(m)
    ):
        return f"{quoted(str(q))} does not divide Phi_{m}(10) freed of the primes of {m}"
    return None


@lru_cache(maxsize=None)
def _primes_of_order_cached(m: int, budget: FactorBudget) -> OrderPrimes:
    cofactor, qs = _order_cofactor(m), _primes_of(m)
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
        if cofactor.bit_length() <= _SWEEP_BITS * m.bit_length():
            p = p[residues_mod(cofactor, p) == 0]
        else:
            p = p[_pow10_mod(m, p) == 1]
            for q in qs:
                p = p[_pow10_mod(m // q, p) != 1]
        candidates += stop - k
        survivors += len(p)
        for prime in map(int, p):
            if is_prime(prime):
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
    multiplications = 0
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
            found.add(n)
            if kind == PROBABLE_PRIME:
                probable.add(n)
        elif n.bit_length() > _SPLIT_BIT_LIMIT:
            rest.append(n)
            reasons.append(
                f"{n.bit_length()}-bit cofactor above the split limit, not attempted"
            )
        else:
            d, spent = pm1_split(n, step, budget.rho_iterations, budget.rho_restarts)
            multiplications += spent
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
        pm1_multiplications=multiplications,
    )


def primes_of_order(m: int, budget: FactorBudget = DEFAULT_BUDGET) -> OrderPrimes:
    """Primes p with multiplicative order of 10 mod p equal to m, ascending.

    Every such prime is 1 (mod lcm(2, m)) and divides Phi_m(10) freed of
    the primes of m.  The candidates p = 1 + k*lcm(2, m) below SCAN_BOUND
    are scanned in numpy chunks that double from _CHUNK_FIRST up to
    _CHUNK_MAX.  While the cofactor has at most _SWEEP_BITS bits per bit of
    m, p is kept when `residues_mod` finds that it divides the cofactor;
    past that size, where the sweep costs more, p is kept when 10**m = 1
    and 10**(m/q) != 1 (mod p) for every prime q | m.  Both tests are exact
    in uint64 below SCAN_BOUND and keep the same primes, since a prime
    divides the cofactor iff 10 has order m mod it.  A kept p is
    proven with `is_prime` and divided out with its multiplicity, and the
    scan stops once the cofactor is below the square of the scanned limit,
    where it is 1 or prime.  For m = 20k with k odd, one gcd with
    `_aurifeuillian_factor(m)` (Brent, Math. Comp. 61, 1993) splits the
    cofactor in two without spending budget.  A part above
    _PRIMALITY_BIT_LIMIT bits is left whole and untested, since `is_prime`
    runs for minutes there.  A composite part of at most _SPLIT_BIT_LIMIT
    bits is split with `pm1_split` within budget (a budget of 10**6 or
    more, the default included, first runs the 10**4 schedule, which splits
    every table modulus m <= 64), and pm1_multiplications sums what the
    splits spent.  A part counts as prime below the limit squared or when
    `is_prime` says so, and lands in `probable` on a probable-prime verdict.

    The listed primes below `exact_below` are exactly the order-m primes
    there; the result is complete, and lists them all, iff no composite
    cofactor remains.
    """
    return _primes_of_order_cached(m, budget)


def quoted(text: str) -> str:
    """repr(text), cut to 40 characters and the length when longer."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_int(token: str, where: object, name: str) -> int:
    """The integer a decimal token spells, an optional `+` or `-` then ASCII
    digits 0-9; else ValueError `<where>: bad <name> <quoted token>`, or one
    naming Python's int-string limit.  str(where) is taken only to raise."""
    if not (token.isascii() and (token.isdigit() or token[1:].isdigit() and token[0] in "+-")):
        raise ValueError(f"{where}: bad {name} {quoted(token)}")
    try:
        return int(token)
    except ValueError:  # more digits than the int-string limit
        raise ValueError(
            f"{where}: {name} of {len(token.lstrip('+-'))} digits exceeds Python's int-string "
            f"limit of {sys.get_int_max_str_digits()} (sys.get_int_max_str_digits())"
        ) from None


# Order tables and constructions refuse a modulus from here on: below it
# `factor` finds the primes of m by trial division alone.
MODULUS_BOUND = DEFAULT_BUDGET.trial_bound ** 2


class LineReader:
    """The stripped non-blank lines of a text file, and the field rules
    that covering, order-table and construction files share, each raising
    ValueError at the reader's str(), `<file>:<line>`, built only then.

    Iterating yields each line and keeps its number in `lineno`.  A
    modulus is at least 1 and below modulus_bound (None sets no bound), an
    index is at least 1, and a header key claims one line only.
    """

    def __init__(self, path: Union[str, Path], modulus_bound: Optional[int] = MODULUS_BOUND):
        self.path = path
        self.modulus_bound = modulus_bound
        self.lineno = 0
        self.raw = ""
        self._headers: dict[str, int] = {}

    def __iter__(self) -> Iterator[str]:
        for self.lineno, self.raw in enumerate(Path(self.path).read_text().splitlines(), 1):
            line = self.raw.strip()
            if line:
                yield line

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}"

    def error(self, message: str) -> ValueError:
        return ValueError(f"{self}: {message}")

    def expected(self, form: str) -> ValueError:
        return self.error(f"expected {form!r}, got {quoted(self.raw)}")

    def number(self, token: str, name: str) -> int:
        return parse_int(token, self, name)

    def modulus(self, m: int) -> int:
        if m < 1:
            raise self.error(f"modulus {quoted(str(m))} must be positive")
        if self.modulus_bound is not None and m >= self.modulus_bound:
            raise self.error(f"modulus {quoted(str(m))} must be below {self.modulus_bound}")
        return m

    def index(self, rho: int, name: str = "index") -> int:
        if rho < 1:
            raise self.error(f"{name} {quoted(str(rho))} must be >= 1")
        return rho

    def header(self, key: str, token: str, name: str) -> int:
        """The value of a header line, which the first line with key claims."""
        first = self._headers.setdefault(key, self.lineno)
        if first != self.lineno:
            raise self.error(f"repeated {key!r} header, first on line {first}")
        return self.number(token, name)


def load_order_table(path: Union[str, Path]) -> dict[int, tuple[int, ...]]:
    """Parse an order-table file into its entries keyed by modulus.

    One record per line, `m: e1, e2, ..., eL`, each e a decimal integer; a
    trailing `*2` repeats that entry, marking a composite that holds two
    distinct order-m primes.  Lines starting with `#` are comments.  The
    modulus meets `LineReader`'s rule, below MODULUS_BOUND; a modulus
    listed twice is an error.
    """
    rows: dict[int, tuple[int, ...]] = {}
    lines = LineReader(path)
    for line in lines:
        if line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise lines.expected("m: entries")
        m = lines.modulus(lines.number(head.strip(), "modulus"))
        entries: list[int] = []
        for token in tail.split(","):
            token = token.strip()
            if token:
                value = lines.number(token.removesuffix("*2").strip(), "entry")
                entries += [value] * (2 if token.endswith("*2") else 1)
        if m in rows:
            raise lines.error(f"duplicate modulus {m}")
        rows[m] = tuple(entries)
    return rows


def _row_check(m: int, entries: Sequence[int]) -> list[str]:
    """One order-table row's violations.

    The checks, for modulus m and entries [e1..eL]:
      1. every entry is an order-m divisor (`order_divisor_violation`),
         whose prime factors are all order-m primes;
      2. each new value is coprime to the product of the earlier ones, so
         distinct entries are pairwise coprime and no value appears thrice;
      3. a value listed twice has at most _PRIMALITY_BIT_LIMIT bits, is
         composite by a base-2 Fermat witness and is not a perfect power, so
         it holds two distinct primes.
    An entry failing check 1 meets no other.  No entry is tested for
    primality, and a valid row's length is a lower bound on the order-m
    primes: each value holds one no other entry holds, or two if listed twice.
    """
    violations: list[str] = []
    seen: set[int] = set()
    marked: set[int] = set()
    product = 1
    for e in entries:
        why = order_divisor_violation(e, m)
        if why:
            violations.append(f"entry {why}")
        elif e in seen and e not in marked:
            marked.add(e)
            if e.bit_length() > _PRIMALITY_BIT_LIMIT:
                violations.append(
                    f"entry of {e.bit_length()} bits listed twice is past the "
                    f"{_PRIMALITY_BIT_LIMIT}-bit limit of the composite test"
                )
            elif pow(2, e - 1, e) == 1:
                violations.append(
                    f"entry {quoted(str(e))} listed twice is a base-2 probable prime"
                )
            elif is_perfect_power(e):
                violations.append(f"entry {quoted(str(e))} listed twice is a perfect power")
        else:
            if math.gcd(e, product) != 1:
                violations.append(f"entry {quoted(str(e))} shares a factor with an earlier entry")
            seen.add(e)
            product *= e
    return violations


def prove_order_primes(m: int, primes: Sequence[int]) -> OrderPrimes:
    """The complete OrderPrimes for m from a claimed list of every order-m
    prime; ValueError names the first check that fails.

    m must be at most _MODULUS_LIMIT, where `_order_cofactor` computes
    Phi_m(10) freed of the primes of m.  The entries must be above 1 and
    strictly ascend, and pass `_row_check`, which costs a few modular
    powers for a huge entry.  Each entry must then have at most
    _PRIMALITY_BIT_LIMIT bits and pass `is_prime` (a probable prime lands in
    `probable`), and dividing every entry out with its multiplicity must
    leave 1, which proves that no order-m prime is missing.  No budget is
    spent.
    """
    if any(a >= b for a, b in zip([1, *primes], primes)):
        raise ValueError("entries are not above 1 in strictly ascending order")
    value = _order_cofactor(m)
    violations = _row_check(m, primes)
    if violations:
        raise ValueError(violations[0])
    cofactor = value
    probable: set[int] = set()
    for p in primes:
        if p.bit_length() > _PRIMALITY_BIT_LIMIT:
            raise ValueError(f"entry of {p.bit_length()} bits is past the primality test's limit")
        kind = is_prime(p).kind
        if kind == COMPOSITE:
            raise ValueError(f"entry {quoted(str(p))} is not prime")
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


def validate_order_table(table: dict[int, tuple[int, ...]]) -> list[str]:
    """The violations of `_row_check` on every row of an order table, each
    as `m=<m>: ...`, rows in ascending m; the table is valid iff there are
    none.  Check 1 puts every prime of every entry in order m, so no prime
    can sit under two moduli; nothing is factored but m and no budget is
    spent."""
    return [f"m={m}: {v}" for m in sorted(table) for v in _row_check(m, table[m])]
