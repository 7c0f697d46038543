"""Digit-substitution predicates on concrete base-10 numbers.

A substitution replaces one decimal digit (possibly one of the infinitely
many leading zeros) with a different digit; arithmetically it adds
(replacement - original) * 10**position.  `first_failure` is the single
walker over the substitutions: `is_digitally_delicate` is its input check
plus one call to it, the CLI's leading-zero window and composite-stability
checks call it after their own input checks, and `substitution_report` is
the itemized reference it is tested against.

`find_first_digitally_delicate` does not walk substitutions per prime.  It
sieves one width at a time and rejects a prime by counting the
non-composites on its digit lines (see `_delicate_mask`), counting the
lines below the leading digit only up to the bound; the prime it returns
is confirmed by `first_failure`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .arith import is_prime, prime_flags

__all__ = [
    "Substitution",
    "digit_count",
    "digit_at",
    "substitutions",
    "substitution_report",
    "first_failure",
    "require_stable_candidate",
    "is_digitally_delicate",
    "find_first_digitally_delicate",
]


@dataclass(frozen=True)
class Substitution:
    """Replace the digit at 10**position (original) with replacement."""

    position: int
    original: int
    replacement: int

    def __post_init__(self):
        if self.position < 0:
            raise ValueError("position must be >= 0")
        if not (0 <= self.original <= 9 and 0 <= self.replacement <= 9):
            raise ValueError("digits must be in 0..9")
        if self.original == self.replacement:
            raise ValueError("replacement must differ from the original digit")

    @property
    def delta(self) -> int:
        """The digit offset d = replacement - original, in [-9..-1, 1..9]."""
        return self.replacement - self.original

    def apply(self, n: int) -> int:
        """n with the digit swapped; requires the stated original digit to
        actually sit at the position (leading zeros included)."""
        if digit_at(n, self.position) != self.original:
            raise ValueError(
                f"digit of {n} at position {self.position} is "
                f"{digit_at(n, self.position)}, not {self.original}"
            )
        result = n + self.delta * 10 ** self.position
        if result < 0:
            raise ArithmeticError(f"substitution made {n} negative: {result}")
        return result


def digit_count(n: int) -> int:
    """Number of decimal digits of |n| (0 has one digit).

    Counted from the bit length, without `str`, so it holds past Python's
    int-to-string limit: 0.3 < log10(2) makes the first guess a lower bound.
    """
    n = abs(n)
    width = 1 + max(n.bit_length() - 1, 0) * 3 // 10
    while n >= 10 ** width:
        width += 1
    return width


def digit_at(n: int, position: int) -> int:
    """Decimal digit of n at 10**position; 0 beyond the leading digit."""
    return n // 10 ** position % 10


def substitutions(n: int, leading_zeros: int = 0) -> Iterator[Substitution]:
    """All single-digit substitutions of n: every written position, plus
    `leading_zeros` positions of leading zeros (replacements 1..9 there)."""
    width = digit_count(n)
    for k in range(width):
        original = digit_at(n, k)
        for r in range(10):
            if r != original:
                yield Substitution(k, original, r)
    for k in range(width, width + leading_zeros):
        for r in range(1, 10):
            yield Substitution(k, 0, r)


def substitution_report(
    n: int, leading_zeros: int = 0
) -> list[tuple[Substitution, int, bool]]:
    """Itemized (substitution, value, value_is_prime) rows for n."""
    out = []
    for sub in substitutions(n, leading_zeros):
        value = sub.apply(n)
        out.append((sub, value, bool(is_prime(value))))
    return out


def first_failure(
    n: int, leading_zeros: int = 0
) -> Optional[tuple[Substitution, int]]:
    """The first substitution of n, in `substitutions` order, whose value is
    < 2 or prime, with that value; None when every value is composite.  (A
    leading-zero substitution gives at least 10, never 0 or 1.)"""
    for sub in substitutions(n, leading_zeros):
        value = sub.apply(n)
        if value < 2 or is_prime(value):
            return sub, value
    return None


def is_digitally_delicate(p: int) -> bool:
    """Whether changing any single written digit of the prime p always gives
    a composite number.

    Replacing the leading digit by 0 evaluates the shorter number.  Values
    0 and 1 count as failures (they are not composite).  Raises ValueError
    if p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return first_failure(p) is None


def _delicate_mask(width: int, stop: int) -> np.ndarray:
    """Boolean mask over [0, min(stop, 10**width)), true exactly at the
    digitally delicate primes with `width` digits.

    The ten numbers that agree with x outside position k are x's digit line
    at k; replacing the leading digit by 0 stays on the line, as the shorter
    number.  A prime is delicate iff it is the only non-composite (prime, 0
    or 1) on each of its `width` lines.  Write x = d * 10**(width-1) + y:
    only the leading-digit line, the ten x that share y, spans all ten
    blocks of 10**(width-1), so the sieve covers [0, 10**width).  Every
    lower line stays inside x's own block, so those lines are counted only
    over the blocks of width-digit numbers that reach below stop.  Reshaping
    those blocks to (-1, 10, 10**k) puts every line at k on the middle axis,
    and ten strided adds along it count the non-composites on all of them.
    """
    block = 10 ** (width - 1)
    stop = min(stop, 10 * block)
    blocks = -(-stop // block)
    flags = prime_flags(10 * block - 1)
    mask = flags[: blocks * block].astype(bool)
    mask[:block] = False
    flags[:2] = 1  # values below 2 fail like primes do in `first_failure`
    leading = flags.reshape(10, block).sum(axis=0, dtype=np.uint8)
    mask.reshape(blocks, block)[...] &= leading == 1
    for k in range(width - 1):
        lines = flags[block : blocks * block].reshape(-1, 10, 10 ** k)
        count = lines[:, 0].copy()
        for d in range(1, 10):
            count += lines[:, d]
        mask[block:].reshape(lines.shape)[...] &= (count == 1)[:, None, :]
    return mask[:stop]


def find_first_digitally_delicate(bound: int) -> Optional[int]:
    """Least digitally delicate prime <= bound, or None.

    Widths 1, 2, ... are decided by `_delicate_mask`, one sieve each, up to
    the bound, until one holds a flagged prime; `first_failure` then
    confirms that prime.  The first such prime, 294001, has six digits, so
    no array exceeds 10**6 entries whatever the bound.
    """
    width = 1
    while 10 ** (width - 1) <= bound:
        hits = np.flatnonzero(_delicate_mask(width, bound + 1))
        if hits.size:
            p = int(hits[0])
            failure = first_failure(p)
            if failure is not None:
                raise ArithmeticError(
                    f"the digit-line counts call {p} digitally delicate, "
                    f"but {failure[0]} gives the non-composite {failure[1]}"
                )
            return p
        width += 1
    return None


def require_stable_candidate(n: int) -> None:
    """Raise ValueError unless n is composite and coprime to 10."""
    if is_prime(n) or n < 4:
        raise ValueError(f"{n} is not composite")
    if math.gcd(n, 10) != 1:
        raise ValueError(f"{n} is not coprime to 10")
