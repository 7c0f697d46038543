"""Exact integer primitives: order tests, CRT, primality, factoring.

Everything here is plain Python int arithmetic (arbitrary precision, exact).
All functions are pure and safe to call from multiple threads.

`factor` trial-divides by primes only, drawn from one sieved prime table
that is built on first use (never sieved at import, and to at least 2^16)
and grows when a larger bound is asked for.  One gcd with the product of
the primes up to 293 divides those out first, so a 293-smooth n never
reaches the table.  One numpy pass over the table's primes, held as
uint64, finds every prime that divides what is left.  Below 2^64 it
divides nothing: the table also holds each odd prime's inverse mod
2^64 and (2^64 - 1) // p, and p | n iff n times that inverse, wrapped to 64
bits, is at most that limit (Granlund & Montgomery 1994).  From 2^64 up it
reduces n's top 64 bits modulo the primes, then folds in its lower 32-bit
limbs one at a time.  `is_perfect_power` takes its prime exponents from
the same table.
A composite cofactor then gets a short Pollard p - 1 pass sized by the
cofactor, about a quarter of the multiplications Brent rho expects to
need, and rho only if that finds nothing.

`is_prime` has one route below 2^64: past trial division by the primes up
to 293, one base-2 strong test and one strong Lucas test (Baillie-PSW,
Pomerance, Selfridge & Wagstaff 1980) are a proof, since Feitsma's
enumeration of the base-2 strong pseudoprimes below 2^64, checked against
the Lucas test, leaves none that passes both.  The Lucas test computes only
V, by a ladder on (V_k, V_k+1, Q^k).  Above 2^64 Miller-Rabin on the first
13 prime bases proves primality up to about 3.3e24 (Sorenson-Webster), and
past that the same base-2 and Lucas pair is the whole test: a pass is
labeled probable, since no composite passing both is known, but none is
ruled out either.

`pm1_split` is Pollard's p - 1 method (Pollard 1974) with a prime-by-prime
stage 2 (after Montgomery, Math. Comp. 48, 1987), for composites whose
prime factors p are known to have a given factor of p - 1: the order-m
primes of `cyclotomic` all have lcm(2, m) | p - 1, and every odd prime has
2 | p - 1.  Its primes come from the cached table and then a segmented
sieve, so no prime list grows past the table.  A budget of 10**6
multiplications or more first runs the schedule of a 10**4 budget and
runs its own schedule only if that finds nothing, so a factor within
easy reach costs what it costs at 10**4.
"""

from __future__ import annotations

import bisect
import itertools
import math
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
    "has_order",
    "crt_combine",
    "is_perfect_power",
    "iroot",
    "prime_flags",
    "primes_up_to",
    "pm1_split",
    "residues_mod",
]

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
    233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293,
)
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

# Below _BPSW_BOUND a base-2 strong test and a strong Lucas test
# (Baillie-PSW) prove primality: Feitsma's enumeration lists every base-2
# strong pseudoprime below 2^64, and none of them passes the strong Lucas
# test.
_BPSW_BOUND = 1 << 64
# Miller-Rabin with these bases is a proven primality test below this bound
# (Sorenson-Webster: first 13 prime bases).
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_DETERMINISTIC_BASES = _SMALL_PRIMES[:13]

COMPOSITE = "composite"
PROBABLE_PRIME = "probable-prime"
PROVEN_PRIME = "proven-prime"


@dataclass(frozen=True)
class PrimalityVerdict:
    """Outcome of a primality test.

    kind is one of "composite", "probable-prime", "proven-prime".  A
    composite verdict carries the witness of the test that rejected n when
    that test has one: a prime divisor up to 293, or a Miller-Rabin base
    that exposes n (witness_kind tells which, and so how to check it).  A
    strong Lucas rejection, and n < 2, carry no witness.
    """

    kind: str
    witness: Optional[int] = None
    witness_kind: Optional[str] = None  # "divisor" | "mr-base"

    def __bool__(self) -> bool:
        return self.kind != COMPOSITE


def prime_flags(n: int) -> np.ndarray:
    """Sieve of Eratosthenes over 0..n: a uint8 array whose entry i is 1 iff
    i is prime (empty for n < 0).  Only odd numbers are sieved, in an array
    whose entry i stands for 2i + 1, so each prime p > 2 strikes its odd
    multiples from p*p with one strided write."""
    flags = np.zeros(max(n + 1, 0), np.uint8)
    if n < 2:
        return flags
    odd = np.ones((n + 1) // 2, np.uint8)
    odd[0] = 0
    for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
        if odd[i]:
            odd[2 * i * (i + 1) :: 2 * i + 1] = 0  # (2i + 1)**2 onward
    flags[1::2] = odd
    flags[2] = 1
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve."""
    return np.flatnonzero(prime_flags(n)).tolist()


# The least bound the prime table is sieved to, and the integers sieved per
# segment by _prime_stream.  The p - 1 pass of `factor` reads this far, so
# the first sieve already serves it.
_SEGMENT = 1 << 16


# n below this bound is one uint64 word, and `factor` finds its table primes
# by multiplying with their inverses mod 2^64 instead of dividing.
_WORD_BOUND = 1 << 64


class _PrimeTable(NamedTuple):
    bound: int
    primes: list[int]  # every prime <= bound, ascending
    words: np.ndarray  # the primes as uint64, for `residues_mod` when n >= 2^64
    inverses: np.ndarray  # 1/p mod 2^64 for the odd primes, primes[1:], as uint64
    limits: np.ndarray  # (2^64 - 1) // p for the same odd primes


def _build_table(bound: int) -> _PrimeTable:
    """The table of every prime <= bound.  Each inverse takes five wrapping
    Newton steps x <- x * (2 - p*x) from x = p, exact since p*p = 1 (mod 8)
    and each step doubles the correct low bits, 3 to 96."""
    primes = primes_up_to(bound)
    words = np.array(primes, np.uint64)
    odd = words[1:]
    inverses = odd.copy()
    for _ in range(5):
        inverses *= np.uint64(2) - odd * inverses
    return _PrimeTable(bound, primes, words, inverses, np.uint64(_WORD_BOUND - 1) // odd)


# Replaced whole when it grows, so concurrent readers always see one
# consistent table.
_table = _build_table(0)


def _prime_table(bound: int) -> _PrimeTable:
    """The table of every prime <= bound (possibly more).  Built on first use,
    to at least _SEGMENT, and grown by doubling."""
    global _table
    table = _table
    if table[0] < bound:
        top = max(bound, 2 * table[0], _SEGMENT)
        table = _table = _build_table(top)
    return table


def _odd_part(n: int) -> tuple[int, int]:
    """(d, s) with n = d * 2**s and d odd, for n > 0."""
    s = (n & -n).bit_length() - 1
    return n >> s, s


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if base a proves n composite (n odd, n > 2, 1 < a < n), given
    n - 1 = d * 2**s from `_odd_part`, split once for all bases."""
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
    """Strong Lucas probable-prime test with Selfridge's parameters: the
    first D in 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  For odd n > 2; a perfect square is rejected at once.

    n + 1 = k * 2**s with k odd; n passes if U_k = 0 or V_(k * 2**r) = 0
    (mod n) for some 0 <= r < s.  Only V is computed, by a ladder on
    (V_j, V_(j+1), Q**j): V_2j = V_j**2 - 2Q**j and V_(2j+1) = V_j V_(j+1) - Q**j.
    Since D * U_k = 2V_(k+1) - V_k and gcd(D, n) = 1, U_k = 0 iff
    2V_(k+1) = V_k (mod n).
    """
    root = math.isqrt(n)
    if root * root == n:
        return False  # no D has (D/n) = -1; the search would not end
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and d % n:
            return False  # gcd(n, d) is a proper factor of n
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4

    k, s = _odd_part(n + 1)
    v, w, qj = 1, (1 - 2 * q) % n, q % n  # j = 1
    for bit in bin(k)[3:]:
        if bit == "1":
            v, w, qj = (v * w - qj) % n, (w * w - 2 * q * qj) % n, qj * qj * q % n
        else:
            v, w, qj = (v * v - 2 * qj) % n, (v * w - qj) % n, qj * qj % n
    if v == 0 or (2 * w - v) % n == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qj) % n
        if v == 0:
            return True
        qj = qj * qj % n
    return False


def is_prime(n: int) -> PrimalityVerdict:
    """Decide primality of n >= 0.

    Small prime factors are found by one gcd with the product of the primes
    up to 293, which also decides every n < 293^2.  Every larger n first
    meets a base-2 strong test.  Below 2^64 one strong Lucas test with
    Selfridge's parameters follows, and passing both (Baillie-PSW) proves n
    prime: that pair has no pseudoprime below 2^64, verified against
    Feitsma's enumeration of the base-2 strong pseudoprimes there.  From
    2^64 to a fixed bound near 3.3e24 the first 13 prime bases decide
    (Sorenson-Webster).  Above it, base 2 and strong Lucas alone decide,
    as below 2^64, but a pass is labeled probable-prime, never silently
    treated as proven.  n - 1 = d * 2**s is split once for all bases.

    The verdict is truthy exactly when n is (probably) prime.
    """
    if n < 2:
        return PrimalityVerdict(COMPOSITE)
    if math.gcd(n, _SMALL_PRODUCT) > 1:
        for p in _SMALL_PRIMES:
            if n == p:
                return PrimalityVerdict(PROVEN_PRIME)
            if n % p == 0:
                return PrimalityVerdict(COMPOSITE, witness=p, witness_kind="divisor")
    if n < _SMALL_PRIMES[-1] ** 2:
        return PrimalityVerdict(PROVEN_PRIME)

    d, s = _odd_part(n - 1)
    sorenson_webster = _BPSW_BOUND <= n < _DETERMINISTIC_BOUND
    for a in _DETERMINISTIC_BASES if sorenson_webster else (2,):
        if _miller_rabin_witness(n, a, d, s):
            return PrimalityVerdict(COMPOSITE, witness=a, witness_kind="mr-base")
    if sorenson_webster:
        return PrimalityVerdict(PROVEN_PRIME)
    if not _strong_lucas_prp(n):
        return PrimalityVerdict(COMPOSITE)
    return PrimalityVerdict(PROVEN_PRIME if n < _BPSW_BOUND else PROBABLE_PRIME)


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
        cofactor.  From 10**6 up, `pm1_split` spends the first 10**4 of
        them on each base as a budget of 10**4 would.
    rho_restarts: for `factor`, rho attempts with distinct polynomial
        constants per cofactor; for `primes_of_order`, the p - 1 bases tried
        on a cofactor whose gcd collapses to the whole cofactor.

    `pm1_split` reads no budget: `primes_of_order` passes it these two
    numbers as its multiplications and bases, and `factor` its cap and 1.
    """

    trial_bound: int = 100_000
    rho_iterations: int = 1_000_000
    rho_restarts: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.trial_bound <= MAX_TRIAL_BOUND:
            raise ValueError(
                f"trial_bound must lie in [0, {MAX_TRIAL_BOUND}], got {self.trial_bound}"
            )
        for name in ("rho_iterations", "rho_restarts"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")


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
# The budget of the first pass of pm1_split, run on each base when the
# budget is at least 100 times as large, so the pass costs at most 1%.  Its
# stage 1 stops at min(10**4 / 4, 25 * sqrt(10**4)) = 2,500.
_PM1_PROBE = 10_000


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


def _pm1_pass(
    n: int, base: int, known: int, spent: int, bound: int, stop: int, limit: int
) -> tuple[int, int]:
    """One pass of `pm1_split` on base: (g, spent) from x = base**known.
    Stage 1 raises x to the prime powers q**e <= bound while spent < stop,
    and stage 2 takes the primes that follow while spent stays within
    limit, until gcd g != 1."""
    x = pow(base, known, n)
    spent += known.bit_length()
    primes = _prime_stream()
    # stage 1: x <- x**(q**e), gcd(x - 1, n) once per block; a block
    # takes prime powers while its exponent fits the budget left
    g = 1
    while g == 1 and spent < stop:
        powers, exponent = [], 1
        for q in primes:
            pe = q
            while pe * q <= bound:
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
    # stage 2, only when stage 1 found nothing: x**(v*W) - x**r for each
    # next prime q = v*W - r
    fits = g == 1 and spent + _PM1_GIANT.bit_length() < limit
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
    return g, spent


def pm1_split(n: int, known: int, multiplications: int, bases: int) -> tuple[Optional[int], int]:
    """A proper factor of the composite n by Pollard's p - 1 method, or None,
    with the modular multiplications spent (a power with exponent e counts
    e.bit_length()).

    Every prime p | n must have known | p - 1, so each base b starts as
    b**known.  Stage 1 raises x to the prime powers q**e <= multiplications
    of ascending primes while it has spent less than min(multiplications/4,
    25*sqrt(multiplications)), so that a larger budget mostly buys a longer
    stage 2.  Stage 2 takes the next primes one at a time: for q = v*W - r
    with W = _PM1_GIANT and 0 <= r < W, x**q = 1 iff x**(v*W) = x**r, so it
    multiplies the x**(v*W) - x**r together, one multiplication per prime
    plus one per giant step.  Both stages take one gcd per block of
    _PM1_BLOCK primes.  A block whose gcd is all of n is redone prime by
    prime; if one prime still catches every factor, the next base is tried,
    up to `bases` bases (3, 5, 7, ...).  The budget of `multiplications`
    covers all bases.  A stage-1 block takes prime powers only while its
    exponent's bit length fits the budget left, and stage 2 takes a prime
    only if its multiplications fit, so spent exceeds `multiplications` by
    at most the bits of one prime power.

    A budget of at least 100 * _PM1_PROBE = 10**6 first runs, on each base,
    the schedule of a _PM1_PROBE budget: stage 1 to 2,500 multiplications,
    then stage 2 until _PM1_PROBE are spent.  So a factor within easy reach
    costs what it costs at 10**4, not a 25,000-multiplication stage 1
    first.  If that first pass finds nothing, the full pass starts over
    from b**known; its stage 1 stops where it would have stopped without
    the first passes, which count in spent, so its stage 2 reaches up to
    _PM1_PROBE multiplications fewer primes.  A smaller budget runs its own
    schedule alone.
    """
    limit = multiplications
    stage_one = min(limit // 4, 25 * math.isqrt(limit))
    probe = limit >= 100 * _PM1_PROBE
    spent = probed = 0
    for base in _SMALL_PRIMES[1 : 1 + bases]:
        if spent + known.bit_length() > limit:
            break
        if probe:
            start = spent
            g, spent = _pm1_pass(
                n, base, known, spent, _PM1_PROBE, start + _PM1_PROBE // 4,
                min(start + _PM1_PROBE, limit),
            )
            probed += spent - start
            if g == n:
                continue
            if g != 1:
                return g, spent
            if spent + known.bit_length() > limit:
                break
        g, spent = _pm1_pass(n, base, known, spent, limit, stage_one + probed, limit)
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


def residues_mod(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod each of `moduli`, a uint64 array of values below 2^32, for
    n >= 0: n's top bits down to a 32-bit limb boundary (at most 64) are
    reduced first, then each lower limb is folded in.  A residue r < 2^32
    keeps (r << 32) | limb below 2^64, so no step wraps."""
    shift = max(n.bit_length() - 64, 0)
    shift += -shift % 32
    residues = np.uint64(n >> shift) % moduli
    for low in range(shift - 32, -1, -32):
        residues = ((residues << np.uint64(32)) | np.uint64(n >> low & 0xFFFFFFFF)) % moduli
    return residues


def _trial_primes(n: int, table: _PrimeTable, count: int) -> list[int]:
    """The primes among the first `count` of the table that divide n >= 0,
    ascending.  Below 2^64, 2 by n % 2 and each odd p by the exact test
    n * (1/p) mod 2^64 <= (2^64 - 1) // p (Granlund & Montgomery 1994), one
    wrapping uint64 multiply and compare; from 2^64 up, one `residues_mod`
    sweep, whose moduli are below 2^32 since MAX_TRIAL_BOUND is."""
    if n >= _WORD_BOUND:
        residues = residues_mod(n, table.words[:count])
        return [table.primes[i] for i in np.flatnonzero(residues == 0).tolist()]
    odd = max(count - 1, 0)  # not count - 1, which slices [:-1] when count is 0
    flags = np.uint64(n) * table.inverses[:odd] <= table.limits[:odd]
    hits = [2] if count and n % 2 == 0 else []
    return hits + [table.primes[i + 1] for i in np.flatnonzero(flags).tolist()]


def factor(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> Factorization:
    """Factor n >= 1 within budget: trial division, then Pollard p - 1 sized
    by the cofactor, then Pollard rho (Brent).

    Trial division divides out every prime up to min(trial_bound, isqrt(n)),
    found by `_trial_primes` in one numpy pass over all of them: below 2^64
    a multiply by each prime's inverse mod 2^64 and a compare, no division;
    from 2^64 up one `residues_mod` sweep.  With trial_bound >= 293, one
    gcd with the product of the primes up to 293 divides those out first,
    and the pass then runs only to min(trial_bound, isqrt(m)), m the part
    left: what it leaves has no prime up to isqrt(m), so it is 1 or a
    prime, and the factorization is the one a pass to isqrt(n) gives.  A
    293-smooth n leaves m = 1 and never touches the prime table.

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
    if limit >= _SMALL_PRIMES[-1]:
        g = math.gcd(n, _SMALL_PRODUCT)
        for p in _SMALL_PRIMES:
            if g == 1:
                break
            if g % p == 0:
                n = _divide_out(n, p, counts)
                g //= p
    top = min(limit, math.isqrt(n))
    if n > 1:
        table = _prime_table(top)
        for p in _trial_primes(n, table, bisect.bisect_right(table.primes, top)):
            n = _divide_out(n, p, counts)

    unresolved: list[int] = []
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < limit * limit or is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        power = is_perfect_power(m)
        if power is not None:
            base, exp = power
            stack.extend([base] * exp)
            continue
        cap = min(math.isqrt(math.isqrt(m)) // 4, budget.rho_iterations)
        d, _ = pm1_split(m, 2, cap, 1)
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
    any k-th power is a q-th power for each prime q dividing k.  One
    ascending pass takes each exact q-th root while one exists: a q'-th
    power for q' < q that appears after a q-th root was taken means n
    itself was already a q'-th power, found at q'.
    """
    if n < 4:
        return None
    base, exp = n, 1
    max_k = n.bit_length()
    primes = _prime_table(max_k).primes
    for q in primes[: bisect.bisect_right(primes, max_k)]:
        r = iroot(base, q)
        while r ** q == base:
            base, exp = r, exp * q
            r = iroot(base, q)
    return (base, exp) if exp >= 2 else None

