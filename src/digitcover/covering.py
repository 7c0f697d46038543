"""Covering systems of congruences and their verification.

One verifier, is_covering_fast, decides coverage by recursive prime
splitting, the prime-by-prime verification used for coverings with huge
lcm (Nielsen, J. Number Theory 129, 2009).  A node is a set of arithmetic
progressions (start, step) on Z/L, L the lcm of its steps.  A node with a
step-1 progression is covered; one with L <= LEAF_CELLS is marked in one
numpy array; a larger one splits on a prime p <= LEAF_CELLS of L into its
p subclasses t = p*s + j, choosing the p whose children have the least
total lcm.  A node with no such prime is marked whole up to NAIVE_LIMIT
and rejected beyond, so no array exceeds LEAF_CELLS cells otherwise.

Without a w the whole system is the single class w = 1.  With a class
modulus w, each residue class u mod w keeps only the congruences
consistent with it, needs lcm'/delta representatives (lcm' the lcm of the
survivors, delta = gcd(w, lcm')), and is refined on its own; the paper's
reduction is w = 60q, q the largest prime of the lcm.  reduction_profile
lists the classes of the same w, so without one the single class that
is_covering_fast refines.  For every w a failing system's witness is
the least uncovered integer.  The naive scan over [0, lcm),
is_covering_naive, is kept as the reference the verifier is tested
against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Optional

import numpy as np

from .arith import _prime_table, factor

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
    "profile_verdict",
    "LEAF_CELLS",
    "NAIVE_LIMIT",
]

NAIVE_LIMIT = 10 ** 8   # largest array marked in one piece: naive scan, unsplittable node
LEAF_CELLS = 1 << 16    # refinement marks nodes of lcm up to this, splits larger ones


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
    cells_marked counts the cells refinement marked for the class, against
    span for marking the class whole.
    """

    u: int
    w: int
    congruences: tuple[Congruence, ...]
    lcm_prime: int
    delta: int
    span: int
    witness: Optional[int]
    cells_marked: int

    @property
    def covered(self) -> bool:
        return self.witness is None


def _split_cost(progressions: dict[int, list[int]], p: int) -> int:
    """Total lcm of the p children of a split on p, without building them.

    A step prime to p reaches every child; a step divisible by p reaches
    only the child start mod p, with step / p.  A child that gets step 1 is
    covered and costs nothing.
    """
    shared = 1
    own: dict[int, int] = {}
    covered: set[int] = set()
    for step, starts in progressions.items():
        if step % p:
            shared = math.lcm(shared, step)
        elif step == p:
            covered.update(starts)
        else:
            sub = step // p
            for j in {a % p for a in starts}:
                own[j] = math.lcm(own.get(j, 1), sub)
    reached = covered.union(own)
    return (p - len(reached)) * shared + sum(
        math.lcm(shared, m) for j, m in own.items() if j not in covered
    )


def _split(progressions: dict[int, list[int]], p: int) -> list[dict[int, list[int]]]:
    """The p children of a split on p: child j holds t = p*s + j."""
    children: list[dict[int, list[int]]] = [{} for _ in range(p)]
    for step, starts in progressions.items():
        if step % p:
            inv = pow(p, -1, step)
            for j, child in enumerate(children):
                shifted = [(a - j) * inv % step for a in starts]
                if step in child:
                    child[step] += shifted
                else:
                    child[step] = shifted
        else:
            sub = step // p
            for a in starts:
                children[a % p].setdefault(sub, []).append(a // p)
    return children


def _least_uncovered(
    progressions: dict[int, list[int]], length: int
) -> tuple[Optional[int], int]:
    """Least t in [0, length) on none of the progressions, and cells marked.

    progressions maps each step (a divisor of length) to its starts.  A node
    with a step-1 progression is covered; one of lcm at most LEAF_CELLS is
    marked in one array.  Larger nodes split on the prime p <= LEAF_CELLS
    of their lcm whose p children t = p*s + j have the least total lcm; a
    node with no such prime is marked whole up to NAIVE_LIMIT.  A covering
    visits every node; otherwise only nodes that may hold a t below the
    least witness found so far are visited.
    """
    best: Optional[int] = None
    cells = 0
    primes: Optional[list[int]] = None
    # (progressions, lcm, offset, scale): the node's s is t = offset + scale*s
    stack = [(progressions, length, 0, 1)]
    while stack:
        node, ell, offset, scale = stack.pop()
        if 1 in node or (best is not None and offset >= best):
            continue  # covered, or no t here is below the best witness
        if not node:
            t = offset
        else:
            candidates = []
            if ell > LEAF_CELLS:
                if primes is None:  # the primes <= LEAF_CELLS that divide length
                    table = _prime_table(LEAF_CELLS).primes
                    split = table[: bisect.bisect_right(table, LEAF_CELLS)]
                    primes = [p for p in split if length % p == 0]
                candidates = [p for p in primes if ell % p == 0]
            if candidates:
                p = min(candidates, key=lambda q: _split_cost(node, q))
                children = _split(node, p)
                for j in range(p - 1, -1, -1):  # child 0 is popped first
                    child = children[j]
                    stack.append((child, math.lcm(*child), offset + scale * j, scale * p))
                continue
            if ell > NAIVE_LIMIT:
                raise ValueError(
                    f"a class needs {ell} cells with no prime factor <= "
                    f"{LEAF_CELLS} to split on (limit {NAIVE_LIMIT})"
                )
            covered = _mark_progressions(
                ell, ((a, step) for step, starts in node.items() for a in starts)
            )
            cells += ell
            if covered.all():
                continue
            t = offset + scale * int(np.argmin(covered))
        if best is None or t < best:
            best = t
    return best, cells


def _reductions(system: CoveringSystem, w: int) -> Iterator[ResidueClassReduction]:
    """Reduce and refine the classes u = 0, 1, ..., w - 1 in turn."""
    if not len(system):
        raise ValueError("cannot verify an empty system")
    ell = system.lcm
    if w < 1 or ell % w != 0:
        raise ValueError(f"w={w} does not divide the moduli lcm {ell}")
    # v = w*t + u meets c = r (mod m) iff g = gcd(m, w) divides r - u and
    # t = (r - u)/g * (w/g)^-1 (mod m/g)
    terms = []
    for c in system:
        g = math.gcd(c.modulus, w)
        step = c.modulus // g
        terms.append((c.residue, g, step, pow(w // g, -1, step), c))
    for u in range(w):
        kept = [term for term in terms if (term[0] - u) % term[1] == 0]
        congruences = tuple([term[4] for term in kept])
        lcm_prime = math.lcm(*[c.modulus for c in congruences])
        delta = math.gcd(w, lcm_prime)
        span = lcm_prime // delta
        progressions: dict[int, list[int]] = {}
        for r, g, step, inv, _ in kept:
            if step == 1:
                progressions = {1: [0]}  # the congruence holds on the whole class
                break
            progressions.setdefault(step, []).append((r - u) // g * inv % step)
        t, cells = _least_uncovered(progressions, span)
        yield ResidueClassReduction(
            u=u,
            w=w,
            congruences=congruences,
            lcm_prime=lcm_prime,
            delta=delta,
            span=span,
            witness=None if t is None else w * t + u,
            cells_marked=cells,
        )


def profile_verdict(profile: Iterable[ResidueClassReduction]) -> CoverVerdict:
    """Covering iff every class is covered; otherwise the least class
    witness, which is the least uncovered integer."""
    best: Optional[int] = None
    for r in profile:
        if r.witness is not None and (best is None or r.witness < best):
            best = r.witness
        if best is not None and best <= r.u + 1:
            break  # a later class u' > r.u has no witness below u'
    return CoverVerdict(True) if best is None else CoverVerdict(False, witness=best)


def is_covering_fast(
    system: CoveringSystem, w: Optional[int] = None
) -> CoverVerdict:
    """Refinement verification: the naive scan's verdict and witness.

    Without a w the whole system is the single class w = 1; with one, each
    class u mod w keeps only its consistent congruences and is refined on
    its own.  A failing system's witness is the least uncovered integer
    for every w.
    """
    return profile_verdict(_reductions(system, 1 if w is None else w))


def reduction_profile(
    system: CoveringSystem, w: Optional[int] = None
) -> list[ResidueClassReduction]:
    """Per-class reductions for every u in [0, w), each refined: the
    classes is_covering_fast(system, w) decides, so without a w the single
    class w = 1."""
    return list(_reductions(system, 1 if w is None else w))
