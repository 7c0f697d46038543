"""Covering systems of congruences and their verification.

One verifier, is_covering_fast, splits the integers into residue classes
u mod w, keeps only the congruences consistent with each class, and checks
a span of lcm'/delta representatives per class, where lcm' is the lcm of
the surviving moduli and delta = gcd(w, lcm').  Unless w is given, systems
with lcm up to FULL_SCAN_LCM = 10**6 use w = 1: one class that keeps every
congruence and scans all of [0, lcm), giving the least uncovered integer as
witness.  Larger systems use default_w.  The naive scan over [0, lcm),
is_covering_naive, is kept as the reference the verifier is tested against.
Both mark coverage through numpy arithmetic progressions, so the inner loop
is vectorized rather than a per-integer membership scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .arith import factor

__all__ = [
    "Congruence",
    "CoveringSystem",
    "CoverVerdict",
    "LcmAnalysis",
    "ResidueClassReduction",
    "lcm_analysis",
    "is_covering_naive",
    "is_covering_fast",
    "reduction_profile",
    "default_w",
    "FULL_SCAN_LCM",
    "NAIVE_LIMIT",
    "SPAN_LIMIT",
]

FULL_SCAN_LCM = 10 ** 6  # without a given w, lcm up to this is one class, w = 1
NAIVE_LIMIT = 10 ** 8   # naive scan refuses larger lcm values
SPAN_LIMIT = 10 ** 9    # per-class span guard for the class route


@dataclass(frozen=True, order=True)
class Congruence:
    """x = residue (mod modulus), with 0 <= residue < modulus."""

    residue: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        if not 0 <= self.residue < self.modulus:
            raise ValueError(
                f"residue {self.residue} out of range for modulus {self.modulus}"
            )

    @classmethod
    def reduced(cls, residue: int, modulus: int) -> "Congruence":
        """Build with the residue normalized into [0, modulus)."""
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        return cls(residue % modulus, modulus)

    def matches(self, x: int) -> bool:
        return (x - self.residue) % self.modulus == 0

    def __str__(self) -> str:
        return f"{self.residue} (mod {self.modulus})"


@dataclass(frozen=True)
class CoveringSystem:
    """A finite list of congruences; repeats and repeated moduli allowed."""

    congruences: tuple[Congruence, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "CoveringSystem":
        return cls(tuple(Congruence.reduced(a, m) for a, m in pairs))

    def __len__(self) -> int:
        return len(self.congruences)

    def __iter__(self):
        return iter(self.congruences)

    @property
    def lcm(self) -> int:
        if not self.congruences:
            raise ValueError("empty system has no lcm")
        return reduce(math.lcm, (c.modulus for c in self.congruences))

    def matches(self, x: int) -> bool:
        return any(c.matches(x) for c in self.congruences)


@dataclass(frozen=True)
class CoverVerdict:
    """covering is True iff every integer satisfies some congruence; when
    False, witness is a concrete uncovered integer."""

    covering: bool
    witness: Optional[int] = None

    def __bool__(self) -> bool:
        return self.covering


@dataclass(frozen=True)
class LcmAnalysis:
    lcm: int
    max_prime: int
    count: int


def lcm_analysis(system: CoveringSystem) -> LcmAnalysis:
    """lcm of the moduli, its largest prime factor, and the congruence count."""
    ell = system.lcm
    if ell == 1:
        max_prime = 1
    else:
        fac = factor(ell)
        if not fac.complete:
            raise ValueError(
                f"cannot factor the moduli lcm {ell} within the default budget"
            )
        max_prime = max(fac.primes())
    return LcmAnalysis(lcm=ell, max_prime=max_prime, count=len(system))


def _mark_progressions(
    length: int, progressions: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Boolean array over [0, length) marked True along each (start, step)."""
    covered = np.zeros(length, dtype=bool)
    for start, step in progressions:
        covered[start::step] = True
    return covered


def is_covering_naive(
    system: CoveringSystem, limit: int = NAIVE_LIMIT
) -> CoverVerdict:
    """Scan the full interval [0, lcm); witness is the least uncovered integer.

    Memory is about one byte per residue, so the scan refuses lcm > limit;
    use is_covering_fast past that.
    """
    if not len(system):
        raise ValueError("cannot verify an empty system")
    ell = system.lcm
    if ell > limit:
        raise ValueError(
            f"lcm {ell} exceeds the naive scan limit {limit}; "
            "use is_covering_fast"
        )
    covered = _mark_progressions(
        ell, ((c.residue, c.modulus) for c in system)
    )
    if covered.all():
        return CoverVerdict(True)
    return CoverVerdict(False, witness=int(np.argmin(covered)))


@dataclass(frozen=True)
class ResidueClassReduction:
    """The surviving subproblem for one residue class u mod w.

    congruences holds the consistent sub-list C'; lcm_prime its lcm;
    delta = gcd(w, lcm_prime); span = lcm_prime // delta is the number of
    representatives v = w*t + u, 0 <= t < span, whose coverage decides the
    whole class.  witness is the least uncovered representative, or None
    when the class is covered.  An empty C' is recorded with lcm_prime = 1
    and span 1 (the single representative u itself, necessarily uncovered).
    """

    u: int
    w: int
    congruences: tuple[Congruence, ...]
    lcm_prime: int
    delta: int
    span: int
    witness: Optional[int]

    @property
    def covered(self) -> bool:
        return self.witness is None


def _valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def default_w(system: CoveringSystem) -> int:
    """The class modulus used when none is supplied: 60*q for q the largest
    prime factor of the lcm, when that divides the lcm; otherwise the
    largest divisor of the lcm of the form 2^a * 3^b * 5^c * q that is at
    most 10**4 * q."""
    ell = system.lcm
    if ell == 1:
        return 1
    q = lcm_analysis(system).max_prime
    if ell % (60 * q) == 0:
        return 60 * q
    rest = ell // q
    cap = 10 ** 4 * q
    best = q
    p2 = 1
    for _ in range(_valuation(rest, 2) + 1):
        p3 = 1
        for _ in range(_valuation(rest, 3) + 1):
            p5 = 1
            for _ in range(_valuation(rest, 5) + 1):
                cand = q * p2 * p3 * p5
                if best < cand <= cap:
                    best = cand
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return best


def _class_witness(
    u: int, w: int, kept: Sequence[Congruence], span: int, span_limit: int
) -> Optional[int]:
    """Least uncovered v = w*t + u with 0 <= t < span, or None."""
    if not kept:
        return u
    if span > span_limit:
        raise ValueError(
            f"class u={u} needs a span of {span} > limit {span_limit}"
        )
    progressions = []
    for c in kept:
        g = math.gcd(c.modulus, w)
        step = c.modulus // g
        if step == 1:
            # the congruence holds on the entire class
            return None
        start = (c.residue - u) // g * pow(w // g, -1, step) % step
        progressions.append((start, step))
    covered = _mark_progressions(span, progressions)
    if covered.all():
        return None
    return w * int(np.argmin(covered)) + u


def _reductions(
    system: CoveringSystem, w: Optional[int], span_limit: int
) -> Iterator[ResidueClassReduction]:
    """Reduce and check the classes u = 0, 1, ..., w - 1 in turn.

    Without a w, systems with lcm <= FULL_SCAN_LCM form the single class
    w = 1 (every congruence kept, span = lcm: the full interval scan), and
    larger ones use default_w.
    """
    if not len(system):
        raise ValueError("cannot verify an empty system")
    ell = system.lcm
    if w is None:
        w = 1 if ell <= FULL_SCAN_LCM else default_w(system)
    elif w < 1 or ell % w != 0:
        raise ValueError(f"w={w} does not divide the moduli lcm {ell}")
    gcds = [(c, math.gcd(c.modulus, w)) for c in system]
    for u in range(w):
        kept = tuple(c for c, g in gcds if (c.residue - u) % g == 0)
        lcm_prime = reduce(math.lcm, (c.modulus for c in kept), 1)
        delta = math.gcd(w, lcm_prime)
        span = lcm_prime // delta
        yield ResidueClassReduction(
            u=u,
            w=w,
            congruences=kept,
            lcm_prime=lcm_prime,
            delta=delta,
            span=span,
            witness=_class_witness(u, w, kept, span, span_limit),
        )


def is_covering_fast(
    system: CoveringSystem,
    w: Optional[int] = None,
    span_limit: int = SPAN_LIMIT,
) -> CoverVerdict:
    """Residue-class verification: the same verdict as the naive scan.

    For each class u in [0, w), only the congruences consistent with
    u mod w matter, and only lcm'/delta representatives of the class need
    checking.  Stops at the first uncovered class; its witness is the
    uncovered integer from the smallest u (ties broken by the smallest
    representative), so with w = 1 it is the least uncovered integer.
    """
    for r in _reductions(system, w, span_limit):
        if not r.covered:
            return CoverVerdict(False, witness=r.witness)
    return CoverVerdict(True)


def reduction_profile(
    system: CoveringSystem,
    w: Optional[int] = None,
    span_limit: int = SPAN_LIMIT,
) -> list[ResidueClassReduction]:
    """Per-class reductions for every u in [0, w), without early exit; the
    classes is_covering_fast would visit for the same w."""
    return list(_reductions(system, w, span_limit))
