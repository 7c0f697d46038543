"""Exact integer primitives: multiplicative orders, CRT, primality, factoring.

Everything here is plain Python int arithmetic (arbitrary precision, exact).
All functions are pure and safe to call from multiple threads.

`factor` trial-divides by primes only, drawn from one sieved prime table
that is built on first use (never at import, and to at least 2^16) and
grows when a larger bound is asked for.  Below 2^64 one numpy sweep of n
modulo the table's primes, held as uint64, finds every prime that divides
n.  Larger n take the block-gcd walk: the table is cut into fixed blocks
whose products are precomputed, so one gcd of n with a block's product
decides whether any of its primes divides n; only blocks with a common
factor are walked prime by prime (batch trial division, after Bernstein's
"How to find small factors of integers").  `is_perfect_power` takes its
prime exponents from the same table.  A composite cofactor then gets a
short Pollard p - 1 pass sized by the cofactor, about a quarter of the
multiplications Brent rho expects to need, and rho only if that finds
nothing.

`pm1_split` is Pollard's p - 1 method (Pollard 1974) with a prime-by-prime
stage 2 (after Montgomery, Math. Comp. 48, 1987), for composites whose
prime factors p are known to have a given factor of p - 1: the order-m
primes of `cyclotomic` all have lcm(2, m) | p - 1, and every odd prime has
2 | p - 1.  Its primes come from the cached table and then a segmented
sieve, so no prime list grows past the table.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

__all__ = [
    "PrimalityVerdict",
    "FactorBudget",
    "Factorization",
    "is_prime",
    "factor",
    "multiplicative_order",
    "has_order",
    "crt_combine",
    "is_perfect_power",
    "iroot",
    "prime_flags",
    "primes_up_to",
    "pm1_split",
]

# Miller-Rabin with these bases is a proven primality test below this bound
# (Sorenson-Webster: first 13 prime bases).
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Smaller proven base sets for smaller inputs (Jaeschke; Sinclair).  Each
# tier's bases lie below its lower bound, so no base is reduced mod n.
# Sinclair's seven bases below 2^64 were proven by checking them against
# Feitsma's enumeration of the base-2 strong pseudoprimes below 2^64.
_BASE_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (9_080_191, (31, 73)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
    (_DETERMINISTIC_BOUND, _DETERMINISTIC_BASES),
)
# Random Miller-Rabin rounds behind a probable-prime verdict.
_RANDOM_ROUNDS = 64


def _proven_bases(n: int) -> tuple[int, ...]:
    for bound, bases in _BASE_TIERS:
        if n < bound:
            return bases
    return _DETERMINISTIC_BASES


_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
)

COMPOSITE = "composite"
PROBABLE_PRIME = "probable-prime"
PROVEN_PRIME = "proven-prime"


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test.

    kind is one of "composite", "probable-prime", "proven-prime".  A
    composite verdict carries an independently checkable witness when one
    exists: a nontrivial divisor, or a Miller-Rabin base that exposes n
    (witness_kind tells which).  n < 2 yields a composite verdict with no
    witness.  rounds counts the random Miller-Rabin rounds behind a
    probable-prime verdict.
    """

    kind: str
    witness: Optional[int] = None
    witness_kind: Optional[str] = None  # "divisor" | "mr-base"
    rounds: int = 0

    def __bool__(self) -> bool:
        return self.kind != COMPOSITE

    @property
    def proven(self) -> bool:
        return self.kind == PROVEN_PRIME


def prime_flags(n: int) -> bytearray:
    """Sieve of Eratosthenes over 0..n: byte i is 1 iff i is prime."""
    if n < 2:
        return bytearray(max(n + 1, 0))
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return sieve


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    return [i for i, b in enumerate(prime_flags(n)) if b]


# Trial division tests this many primes per gcd (Bernstein's batch idea).
_BLOCK = 512
# The least bound the prime table is sieved to, and the integers sieved per
# segment by _prime_stream.  Covering refinement and the p - 1 pass of
# `factor` read this far, so the first sieve already serves them.
_SEGMENT = 1 << 16
# `factor` sweeps n modulo the table's primes in one numpy pass below this.
_WORD = 1 << 64


class _PrimeTable(NamedTuple):
    bound: int
    primes: list[int]  # every prime <= bound, ascending
    products: list[int]  # product of each block of _BLOCK consecutive primes
    words: np.ndarray  # the primes as uint64, for the sweep below _WORD
    # by a count of primes that ends inside a block, the product of that
    # block's primes below the count: trial division's last, partial block
    partials: dict[int, int]


# Replaced whole when it grows, so concurrent readers always see one
# consistent table; only its cache of partial-block products gains entries.
_table = _PrimeTable(0, [], [], np.zeros(0, np.uint64), {})


def _prime_table(bound: int) -> _PrimeTable:
    """The table of every prime <= bound (possibly more).  Built on first use,
    to at least _SEGMENT, and grown by doubling."""
    global _table
    table = _table
    if table[0] < bound:
        top = max(bound, 2 * table[0], _SEGMENT)
        primes = primes_up_to(top)
        products = [math.prod(primes[i : i + _BLOCK]) for i in range(0, len(primes), _BLOCK)]
        table = _table = _PrimeTable(top, primes, products, np.array(primes, np.uint64), {})
    return table


def _odd_part(n: int) -> tuple[int, int]:
    """(d, s) with n = d * 2**s and d odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


def _miller_rabin_witness(n: int, a: int, d: int = 0, s: int = 0) -> bool:
    """True if base a proves n composite (n odd, n > 2, 1 < a < n).  A caller
    that tests several bases passes n - 1 = d * 2**s, split once."""
    if not d:
        d, s = _odd_part(n - 1)
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test, Selfridge parameter choice.

    Assumes n odd, n > 2, not a perfect square, with no small prime factors.
    """
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == 0:
            return False  # gcd(n, d) nontrivial
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
    p, q = 1, (1 - d) // 4

    k, s = _odd_part(n + 1)

    # Lucas sequences U_k, V_k by binary ladder.
    u, v, qk = 1, p, q % n
    for bit in bin(k)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (p * u + v) % n, (d * u + p * v) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> PrimalityVerdict:
    """Decide primality of n >= 0.

    Deterministic (kind "proven-prime"/"composite") for n below a fixed
    Miller-Rabin bound near 3.3e24: the first 13 prime bases
    (Sorenson-Webster), fewer below smaller bounds, and from 3.4e14 to 2^64
    Sinclair's seven bases 2, 325, 9375, 28178, 450775, 9780504 and
    1795265022, proven deterministic there against Feitsma's enumeration of
    the base-2 strong pseudoprimes below 2^64.  n - 1 = d * 2**s is split
    once for all bases.  Above the bound, a probable-prime verdict is backed
    by _RANDOM_ROUNDS Miller-Rabin rounds with deterministically
    derived bases plus a strong Lucas double check; such verdicts are
    labeled, never silently treated as proven.

    The verdict is truthy exactly when n is (probably) prime.
    """
    if n < 2:
        return PrimalityVerdict(COMPOSITE)
    for p in _SMALL_PRIMES:
        if n == p:
            return PrimalityVerdict(PROVEN_PRIME)
        if n % p == 0:
            return PrimalityVerdict(COMPOSITE, witness=p, witness_kind="divisor")
    if n < _SMALL_PRIMES[-1] ** 2:
        return PrimalityVerdict(PROVEN_PRIME)

    d, s = _odd_part(n - 1)
    for a in _proven_bases(n):
        if _miller_rabin_witness(n, a, d, s):
            return PrimalityVerdict(COMPOSITE, witness=a, witness_kind="mr-base")
    if n < _DETERMINISTIC_BOUND:
        return PrimalityVerdict(PROVEN_PRIME)

    root = math.isqrt(n)
    if root * root == n:
        return PrimalityVerdict(COMPOSITE, witness=root, witness_kind="divisor")
    if not _strong_lucas_prp(n):
        # No Miller-Rabin witness found above, so there is no simple
        # certificate to attach; the verdict is still composite.
        return PrimalityVerdict(COMPOSITE)
    rng = random.Random(n)
    for _ in range(_RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if _miller_rabin_witness(n, a, d, s):
            return PrimalityVerdict(COMPOSITE, witness=a, witness_kind="mr-base")
    return PrimalityVerdict(PROBABLE_PRIME, rounds=_RANDOM_ROUNDS)


MAX_TRIAL_BOUND = 10 ** 7


@dataclass(frozen=True)
class FactorBudget:
    """Effort bounds for `factor` and for the cofactor splitting of
    `cyclotomic.primes_of_order`.

    trial_bound: `factor` trial-divides by primes up to this bound first (at
        most MAX_TRIAL_BOUND, which keeps the prime table small).
        `primes_of_order` does not trial-divide and ignores it.
    rho_iterations: for `factor`, Pollard-rho (Brent) iterations per
        attempt, and also a cap on the modular multiplications of the
        p - 1 pass before rho; for `primes_of_order`, the modular
        multiplications that `pm1_split` may spend on each composite
        cofactor.
    rho_restarts: for `factor`, rho attempts with distinct polynomial
        constants per cofactor; for `primes_of_order`, the p - 1 bases tried
        on a cofactor whose gcd collapses to the whole cofactor.
    """

    trial_bound: int = 100_000
    rho_iterations: int = 1_000_000
    rho_restarts: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.trial_bound <= MAX_TRIAL_BOUND:
            raise ValueError(
                f"trial_bound must lie in [0, {MAX_TRIAL_BOUND}], got {self.trial_bound}"
            )


DEFAULT_BUDGET = FactorBudget()


@dataclass
class Factorization:
    """Partial factorization: n = prod(p**e) * remainder.

    Every p in `factors` passed is_prime; `remainder` is None for a
    complete factorization, else a composite cofactor the budget could not
    split.
    """

    n: int
    factors: list[tuple[int, int]]
    remainder: Optional[int] = None

    @property
    def complete(self) -> bool:
        return self.remainder is None

    def product(self) -> int:
        out = reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.factors, 1)
        return out * (self.remainder or 1)

    def primes(self) -> list[int]:
        return [p for p, _ in self.factors]


def _brent_rho(n: int, budget: FactorBudget) -> Optional[int]:
    """A nontrivial factor of odd composite n, or None within budget."""
    for attempt in range(budget.rho_restarts):
        c = attempt + 1
        y, r, q = 2, 1, 1
        g, x, ys = 1, 0, 0
        count = 0
        while g == 1 and count < budget.rho_iterations:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                count += min(128, r - k)
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    return None


# Primes per gcd in both stages of pm1_split.
_PM1_BLOCK = 64
# Giant step W of stage 2 in pm1_split.  W = 2*3*5*7, so for every prime
# q > 7 the baby step r = v*W - q is one of the 48 residues prime to W.
_PM1_GIANT = 210
# Baby steps r that stage 2 can meet: those 48, and one each for q <= 7.
_PM1_RESIDUES = 52


def _prime_stream() -> Iterator[int]:
    """Every prime, ascending: the cached table, then one segment of
    _SEGMENT integers at a time, sieved with base primes from the table."""
    primes = _prime_table(_SEGMENT).primes
    yield from primes
    lo = primes[-1] + 1
    while True:
        hi = lo + _SEGMENT
        sieve = bytearray([1]) * _SEGMENT
        root = math.isqrt(hi - 1)
        base = _prime_table(root).primes
        for p in base[: bisect.bisect_right(base, root)]:
            start = max(p * p, -(-lo // p) * p) - lo
            sieve[start::p] = bytes(len(range(start, _SEGMENT, p)))
        yield from itertools.compress(range(lo, hi), sieve)
        lo = hi


def _stage_two_fit(block: list[int], v: int, small: dict[int, int], room: int) -> int:
    """How many leading primes of a stage-2 block of `pm1_split` fit in room
    multiplications, from giant step v with the powers x**r in small."""
    seen = set(small)
    for i, q in enumerate(block):
        u = -(-q // _PM1_GIANT)
        r = u * _PM1_GIANT - q
        room -= u - v + 1 + (0 if r in seen else r.bit_length())
        if room < 0:
            return i
        v = u
        seen.add(r)
    return len(block)


def pm1_split(n: int, known: int, budget: FactorBudget) -> tuple[Optional[int], int]:
    """A proper factor of the composite n by Pollard's p - 1 method, or None,
    with the modular multiplications spent (a power with exponent e counts
    e.bit_length()).

    Every prime p | n must have known | p - 1, so each base b starts as
    b**known.  Stage 1 raises x to the prime powers q**e <= rho_iterations
    of ascending primes while it has spent less than min(rho_iterations/4,
    25*sqrt(rho_iterations)), so that a larger budget mostly buys a longer
    stage 2.  Stage 2 takes the next primes one at a time: for q = v*W - r
    with W = _PM1_GIANT and 0 <= r < W, x**q = 1 iff x**(v*W) = x**r, so it
    multiplies the x**(v*W) - x**r together, one multiplication per prime
    plus one per giant step.  Both stages take one gcd per block of
    _PM1_BLOCK primes.  A block whose gcd is all of n is redone prime by
    prime; if one prime still catches every factor, the next base is tried,
    up to rho_restarts bases.  The budget of rho_iterations multiplications
    covers all bases.  A stage-1 block takes prime powers only while its
    exponent's bit length fits the budget left, and stage 2 takes a prime
    only if its multiplications fit, so spent exceeds rho_iterations by at
    most the bits of one prime power.
    """
    limit = budget.rho_iterations
    stage_one = min(limit // 4, 25 * math.isqrt(limit))
    spent = 0
    for base in _SMALL_PRIMES[1 : 1 + budget.rho_restarts]:
        if spent + known.bit_length() > limit:
            break
        x = pow(base, known, n)
        spent += known.bit_length()
        primes = _prime_stream()
        # stage 1: x <- x**(q**e), gcd(x - 1, n) once per block; a block
        # takes prime powers while its exponent fits the budget left
        g = 1
        while g == 1 and spent < stage_one:
            powers, exponent = [], 1
            for q in primes:
                pe = q
                while pe * q <= limit:
                    pe *= q
                powers.append(pe)
                exponent *= pe
                if len(powers) == _PM1_BLOCK or spent + exponent.bit_length() >= limit:
                    break
            y = pow(x, exponent, n)
            spent += exponent.bit_length()
            g = math.gcd(y - 1, n)
            if g == n:
                for pe in powers:
                    x = pow(x, pe, n)
                    g = math.gcd(x - 1, n)
                    if g != 1:
                        break
            x = y
        # stage 2: x**(v*W) - x**r for each next prime q = v*W - r
        fits = spent + _PM1_GIANT.bit_length() < limit
        if fits:
            giant = pow(x, _PM1_GIANT, n)
            spent += _PM1_GIANT.bit_length()
        small: dict[int, int] = {}
        v, xv = 0, 1
        while g == 1 and fits:
            block = list(itertools.islice(primes, _PM1_BLOCK))
            # a prime costs its giant steps, one product and at most 8 for a
            # new x**r; the block that may not fit keeps the primes that do
            room = limit - spent
            fresh = min(len(block), _PM1_RESIDUES - len(small))
            if len(block) + 8 * fresh - v - (-block[-1] // _PM1_GIANT) > room:
                keep = _stage_two_fit(block, v, small, room)
                fits = keep == len(block)
                del block[keep:]
            start, acc = (v, xv), 1
            for q in block:
                while v * _PM1_GIANT < q:
                    v, xv = v + 1, xv * giant % n
                    spent += 1
                r = v * _PM1_GIANT - q
                if r not in small:
                    small[r] = pow(x, r, n)
                    spent += r.bit_length()
                acc = acc * (xv - small[r]) % n
            spent += len(block)
            g = math.gcd(acc, n)
            if g == n:
                v, xv = start
                for q in block:
                    while v * _PM1_GIANT < q:
                        v, xv = v + 1, xv * giant % n
                    g = math.gcd(xv - small[v * _PM1_GIANT - q], n)
                    if g != 1:
                        break
        if 1 < g < n:
            return g, spent
    return None, spent


def _divide_out(n: int, p: int, counts: dict[int, int]) -> int:
    """n freed of the prime p, which divides it; counts[p] is its exponent."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    counts[p] = e
    return n


def factor(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> Factorization:
    """Factor n >= 1 within budget: trial division, then Pollard p - 1 sized
    by the cofactor, then Pollard rho (Brent).

    Trial division divides out every prime up to min(trial_bound, isqrt(n)).
    Below 2^64 they are found by one numpy sweep of n modulo all of them at
    once; larger n take one gcd per block of _BLOCK primes, and walk only
    the blocks that share a factor with n.

    Each composite cofactor m that is not a perfect power first gets one
    base of `pm1_split(m, 2, ...)` with min(isqrt(isqrt(m)) // 4,
    rho_iterations) modular multiplications, about a quarter of what rho
    expects to spend on a balanced m; it catches a factor p with p - 1
    smooth.  If it finds nothing, rho runs with the full budget.  So
    rho_iterations = 0 still means trial division only.

    Never wrong, possibly incomplete: budget exhaustion leaves a composite
    remainder rather than guessing.  product() always reproduces n exactly.
    """
    if n < 1:
        raise ValueError("factor requires n >= 1")
    original = n
    counts: dict[int, int] = {}

    limit = budget.trial_bound
    top = min(limit, math.isqrt(n))
    table = _prime_table(top)
    primes = table.primes
    count = bisect.bisect_right(primes, top)
    if n < _WORD:
        for i in np.flatnonzero(np.uint64(n) % table.words[:count] == 0).tolist():
            n = _divide_out(n, primes[i], counts)
    else:
        # top = limit here, since isqrt(n) >= 2^32 > MAX_TRIAL_BOUND
        for start in range(0, count, _BLOCK):
            if primes[start] ** 2 > n:
                break
            stop = start + _BLOCK
            if stop <= count:
                product = table.products[start // _BLOCK]
            else:  # the bound falls inside this block
                stop = count
                product = table.partials.get(count)
                if product is None:
                    product = table.partials[count] = math.prod(primes[start:count])
            g = math.gcd(n, product)
            if g == 1:
                continue
            for p in primes[start:stop]:
                if g % p == 0:
                    n = _divide_out(n, p, counts)

    unresolved: list[int] = []
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < limit * limit or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        power = is_perfect_power(m)
        if power is not None:
            base, exp = power
            stack.extend([base] * exp)
            continue
        cap = min(math.isqrt(math.isqrt(m)) // 4, budget.rho_iterations)
        d, _ = pm1_split(m, 2, FactorBudget(rho_iterations=cap, rho_restarts=1))
        if d is None:
            d = _brent_rho(m, budget)
        if d is None:
            unresolved.append(m)
        else:
            stack.append(d)
            stack.append(m // d)

    remainder = reduce(lambda a, b: a * b, unresolved, 1) if unresolved else None
    result = Factorization(n=original, factors=sorted(counts.items()), remainder=remainder)
    if result.product() != original:
        raise ArithmeticError(f"factorization of {original} does not multiply back")
    return result


def crt_combine(
    constraints: Iterable[tuple[int, int]],
) -> tuple[int, int]:
    """Combine congruences x = r (mod m) into a single one.

    Returns (residue, modulus) with 0 <= residue < modulus = lcm of the
    inputs.  Non-coprime moduli are merged when consistent; inconsistent
    pairs raise ValueError.  No constraints means (0, 1).
    """
    residue, modulus = 0, 1
    for r, m in constraints:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        g = math.gcd(modulus, m)
        if (r - residue) % g:
            raise ValueError(
                f"inconsistent congruences: x = {residue} (mod {modulus}) "
                f"vs x = {r} (mod {m})"
            )
        m_g = m // g
        combined = modulus // g * m
        t = (r - residue) // g * pow(modulus // g, -1, m_g) % m_g
        residue = (residue + modulus * t) % combined
        modulus = combined
    return residue, modulus


def multiplicative_order(base: int, modulus: int) -> int:
    """Least m >= 1 with base**m = 1 (mod modulus).

    Computed by factoring the group exponent and stripping prime factors,
    never by linear scan.  Requires gcd(base, modulus) = 1 and modulus >= 2;
    raises ValueError otherwise, or if the needed factorizations exceed the
    default budget (composite moduli are supported as a convenience only).
    """
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if math.gcd(base, modulus) != 1:
        raise ValueError(f"order undefined: gcd({base}, {modulus}) != 1")

    if is_prime(modulus):
        exponent = modulus - 1
    else:
        mf = factor(modulus)
        if not mf.complete:
            raise ValueError(
                f"cannot factor modulus {modulus} within the default budget; "
                "order computation would need a linear scan"
            )
        lam = 1
        for p, e in mf.factors:
            if p == 2 and e >= 3:
                part = 2 ** (e - 2)
            else:
                part = p ** (e - 1) * (p - 1)
            lam = math.lcm(lam, part)
        exponent = lam

    ef = factor(exponent)
    if not ef.complete:
        raise ValueError(
            f"cannot factor group exponent {exponent} within the default budget"
        )
    if pow(base, exponent, modulus) != 1:
        # Carmichael bound is always a valid exponent; reaching here means a
        # probable-prime modulus was actually composite.
        raise ValueError(f"modulus {modulus} misclassified as prime")
    order = exponent
    for p, _ in ef.factors:
        while order % p == 0 and pow(base, order // p, modulus) == 1:
            order //= p
    return order


def has_order(base: int, m: int, modulus: int) -> bool:
    """Whether base has multiplicative order exactly m mod modulus.

    Needs only the factorization of m (the order is m iff base**m = 1 and
    base**(m/q) != 1 for every prime q dividing m), so it stays cheap even
    when modulus - 1 would be hopeless to factor.
    """
    if m < 1 or modulus < 2 or math.gcd(base, modulus) != 1:
        return False
    if pow(base, m, modulus) != 1:
        return False
    mf = factor(m)
    if not mf.complete:
        raise ValueError(f"cannot factor the candidate order {m}")
    return all(pow(base, m // q, modulus) != 1 for q in mf.primes())


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, exact integer arithmetic only."""
    if n < 0 or k < 1:
        raise ValueError("iroot requires n >= 0 and k >= 1")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    bits = n.bit_length()
    if k >= bits:
        return 1
    x = 1 << (bits + k - 1) // k  # upper start for Newton
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x


def is_perfect_power(n: int) -> Optional[tuple[int, int]]:
    """(base, exp) with base**exp = n and exp >= 2 maximal, else None.

    Exponents are searched through prime values up to log2(n) only, since
    any k-th power is a q-th power for each prime q dividing k.
    """
    if n < 4:
        return None
    base, exp = n, 1
    progress = True
    while progress:
        progress = False
        max_k = base.bit_length()
        primes = _prime_table(max_k).primes
        for q in primes[: bisect.bisect_right(primes, max_k)]:
            r = iroot(base, q)
            if r ** q == base:
                base, exp = r, exp * q
                progress = True
                break
    return (base, exp) if exp >= 2 else None

