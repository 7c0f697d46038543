"""Covering systems of congruences and their verification.

One verifier, is_covering_fast, decides coverage by recursive prime
splitting, the prime-by-prime verification used for coverings with huge
lcm (Nielsen, J. Number Theory 129, 2009).  A node is a set of arithmetic
progressions (start, step) on Z/L, L the lcm of its steps.  A node with a
step-1 progression is covered; one with L <= LEAF_CELLS is marked in one
numpy array; a larger one splits on a prime p <= LEAF_CELLS of L into its
p subclasses t = p*s + j, choosing the p whose children have the least
total cost, where a child of lcm L' costs L' if it is a leaf and
L'^(2/5) * LEAF_CELLS^(3/5) if it will split again.  That exponent was
measured on the shipped digits: the geometric mean sqrt(L' * LEAF_CELLS)
over-prices huge children, and so prefers the prime that shrinks L' most
to small primes whose children are covered or decided by their parts.
A node with no such prime is marked whole up to NAIVE_LIMIT and rejected
beyond, so no array exceeds LEAF_CELLS cells otherwise.

Each split is priced once.  Every child's lcm is a multiple of the lcm of
the steps prime to p, so that lcm bounds the cost of p from below, and
candidates are costed in ascending order of the bound only until it passes
the best cost found: the choice is the least p of least cost, as over every
candidate.  The costing yields each child's lcm, which the child is handed
instead of recomputing it, and a child that a step-p start covers is never
built.

Before a node above LEAF_CELLS is split or marked, its steps are grouped
into parts by shared prime (a bitmask over the split primes per step, every
factor above LEAF_CELLS one more bit), so the parts' lcms L_i are pairwise
coprime.  By the Chinese remainder theorem Z/L is the product of the
Z/L_i, and t is uncovered iff its image in every Z/L_i is uncovered by
that part, so the node is covered iff some part covers Z/L_i on its own.
Each part of density (sum of |starts|/step) at least 1, the only ones that
can cover, and with no factor above LEAF_CELLS, is refined alone, least
L_i first, and the first that covers decides the node; if none does, the
node splits as above, which finds the least witness.  Verdicts and
witnesses are those of splitting alone.  A node of lcm at most LEAF_CELLS
is marked whole without trying parts: marking it needs no split, and a
part that does not cover would only add its cells to the node's.

With the default w = 1 the whole system is one class.  With a class
modulus w > 1, each residue class u mod w keeps only the congruences
consistent with it, needs lcm'/delta representatives (lcm' the lcm of the
survivors, delta = gcd(w, lcm')), and is refined on its own; the paper's
reduction is w = 60q, q the largest prime of the lcm.  reduction_profile
lists the classes of the same w, up to PROFILE_CLASSES of them.  The
split primes come once per system from the factorization of its lcm.
For every w a failing system's witness is the least uncovered integer.
The naive scan over [0, lcm), is_covering_naive, is kept as the
reference the verifier is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Optional

import numpy as np

from .arith import FactorBudget, Factorization, factor

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
    "PROFILE_CLASSES",
]

NAIVE_LIMIT = 10 ** 8   # largest array marked in one piece: naive scan, unsplittable node
LEAF_CELLS = 1 << 16    # refinement marks nodes of lcm up to this, splits larger ones
PROFILE_CLASSES = 1 << 16  # most classes reduction_profile keeps; is_covering_fast streams any w
# The budget of CoveringSystem.lcm_factorization: the verdict never reads the
# largest prime, so an lcm is not worth seconds of rho.  Rho needs about
# sqrt(p) iterations to find a prime p, so every lcm whose second-largest
# prime is below about 10^8 still resolves.  Its trial division runs to
# min(10^5, isqrt(lcm)) whatever rho does, so every split prime (<=
# LEAF_CELLS) is found even when the factorization is incomplete.
LCM_BUDGET = FactorBudget(rho_iterations=10 ** 4)


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

    @cached_property
    def lcm_factorization(self) -> Factorization:
        """`factor(lcm, LCM_BUDGET)`, computed once per system: lcm_analysis
        reads its largest prime, refinement its split primes."""
        return factor(self.lcm, LCM_BUDGET)

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
    max_prime: Optional[int]
    count: int


def lcm_analysis(system: CoveringSystem) -> LcmAnalysis:
    """lcm of the moduli, its largest prime factor, and the congruence count.

    max_prime is None when `factor` cannot finish the lcm within LCM_BUDGET;
    the verdict does not depend on it.
    """
    fac = system.lcm_factorization
    max_prime = max(fac.primes(), default=1) if fac.complete else None
    return LcmAnalysis(lcm=fac.n, max_prime=max_prime, count=len(system))


def _mark_progressions(
    length: int, progressions: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Boolean array over [0, length) marked True along each (start, step)."""
    covered = np.zeros(length, dtype=bool)
    for start, step in progressions:
        covered[start::step] = True
    return covered


def is_covering_naive(system: CoveringSystem) -> CoverVerdict:
    """Scan the full interval [0, lcm); witness is the least uncovered integer.

    Memory is about one byte per residue, so the scan refuses lcm >
    NAIVE_LIMIT; use is_covering_fast past that.
    """
    if not len(system):
        raise ValueError("cannot verify an empty system")
    ell = system.lcm
    if ell > NAIVE_LIMIT:
        raise ValueError(
            f"lcm {ell} exceeds the naive scan limit {NAIVE_LIMIT}; "
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
    span for marking the class whole, splits the nodes it split, parts
    the nodes one of their coprime parts decided without a split, and
    costed the full _split_cost evaluations that chose the split primes.
    """

    u: int
    w: int
    congruences: tuple[Congruence, ...]
    lcm_prime: int
    delta: int
    span: int
    witness: Optional[int]
    cells_marked: int
    splits: int
    parts: int
    costed: int

    @property
    def covered(self) -> bool:
        return self.witness is None


def _node_cost(ell: int) -> int:
    """Estimated cells to refine a node of lcm ell.  A leaf is marked whole,
    so it costs ell.  A larger node splits again, and costs ell^(2/5) *
    LEAF_CELLS^(3/5), the exponent measured on the shipped digits (see the
    module docstring).

    The power is 2^x, x its log2 (math.log2 takes any int), built from a
    53-bit mantissa shifted by floor(x), so it is an int for every ell,
    where ell ** 0.4 overflows from 2^1024 up.  It never decreases as ell
    grows, which the lower bound of _choose_split needs."""
    if ell <= LEAF_CELLS:
        return ell
    x = (2 * math.log2(ell) + 3 * math.log2(LEAF_CELLS)) / 5
    e = math.floor(x)
    return math.floor(2.0 ** (x - e + 52)) << e >> 52


def _split_cost(
    progressions: dict[int, list[int]], p: int, shared: int
) -> tuple[int, dict[int, int]]:
    """Total _node_cost of the p children of a split on p, without building
    them, and the lcm of each child that a step divisible by p reaches and
    that is not covered.

    shared is the lcm of the steps prime to p: such a step reaches every
    child, so every child's lcm is a multiple of shared, and a child that no
    other step reaches has lcm shared.  A step divisible by p reaches only
    the child start mod p, with step / p, and a child that gets step 1 (a
    start of step p) is covered and costs nothing.
    """
    covered = set(progressions.get(p, ()))
    subs: dict[int, list[int]] = {}
    for step, starts in progressions.items():
        if step % p == 0 and step != p:
            sub = step // p
            for j in {a % p for a in starts}:
                subs.setdefault(j, []).append(sub)
    lcms = {j: math.lcm(shared, *steps) for j, steps in subs.items() if j not in covered}
    return (p - len(covered) - len(lcms)) * _node_cost(shared) + sum(
        _node_cost(ell) for ell in lcms.values()
    ), lcms


def _choose_split(
    progressions: dict[int, list[int]], candidates: list[int], run: _Refinement
) -> tuple[int, int, dict[int, int]]:
    """The candidate p of least _split_cost, the least such p on a tie, with
    the shared lcm and child lcms that _split_cost gave for it.

    LB(p) = (p - |starts of step p|) * _node_cost(shared(p)) is a lower
    bound on the cost of p, since _node_cost never decreases and every
    uncovered child's lcm is a multiple of shared(p).  Candidates are costed
    in ascending (LB, p) order until (LB, p) passes the best (cost, p), so
    the choice is that of min over every candidate, with fewer costed.
    """
    bounds = []
    for p in candidates:
        shared = math.lcm(*[step for step in progressions if step % p])
        covered = len(set(progressions.get(p, ())))
        bounds.append(((p - covered) * _node_cost(shared), p, shared))
    bounds.sort()
    best: Optional[tuple[int, int, int, dict[int, int]]] = None
    for bound, p, shared in bounds:
        if best is not None and (bound, p) > best[:2]:
            break
        cost, lcms = _split_cost(progressions, p, shared)
        run.costed += 1
        if best is None or (cost, p) < best[:2]:
            best = (cost, p, shared, lcms)
    _, p, shared, lcms = best
    return p, shared, lcms


def _split(
    progressions: dict[int, list[int]], p: int
) -> list[Optional[dict[int, list[int]]]]:
    """The p children of a split on p: child j holds t = p*s + j, and is
    None, not built, when a start of step p covers it."""
    covered = set(progressions.get(p, ()))
    children: list[Optional[dict[int, list[int]]]] = [
        None if j in covered else {} for j in range(p)
    ]
    for step, starts in progressions.items():
        if step % p:
            # child j gets (a - j) * inv = b - j * inv, b = a * inv (mod step)
            inv = pow(p, -1, step)
            base = [a * inv % step for a in starts]
            for j, child in enumerate(children):
                if child is None:
                    continue
                shift = j * inv % step
                shifted = [(b - shift) % step for b in base]
                if step in child:
                    child[step] += shifted
                else:
                    child[step] = shifted
        elif step != p:
            sub = step // p
            for a in starts:
                child = children[a % p]
                if child is not None:
                    child.setdefault(sub, []).append(a // p)
    return children


def _step_mask(step: int, primes: list[int]) -> int:
    """Bit i for each primes[i] that divides step, and bit len(primes) when
    a factor outside primes (so above LEAF_CELLS) is left over."""
    mask = 0
    for i, p in enumerate(primes):
        if step % p == 0:
            mask |= 1 << i
            while step % p == 0:
                step //= p
    return mask | (step > 1) << len(primes)


@dataclass
class _Refinement:
    """What the nodes of one class share: the split primes, each step's
    _step_mask (kept for the whole system), and the counters of
    ResidueClassReduction."""

    primes: list[int]
    masks: dict[int, int]
    cells: int = 0
    splits: int = 0
    parts: int = 0
    costed: int = 0


def _dense_parts(
    node: dict[int, list[int]], run: _Refinement
) -> list[tuple[int, dict[int, list[int]]]]:
    """(lcm, part) for each coprime part of node that may cover on its own,
    least lcm first; none when node is one part.

    Steps that share a split prime, or that both have a factor above
    LEAF_CELLS, fall in one part, so the parts' lcms are pairwise coprime.
    A part may cover only if its density, the sum of |starts|/step, is at
    least 1.  A part with a factor above LEAF_CELLS is not tried: one of its
    nodes may have no split prime and an lcm past NAIVE_LIMIT, and refining
    the part alone would raise where the whole node need not.
    """
    masks = run.masks
    groups: list[tuple[int, list[int]]] = []  # (mask, steps), masks disjoint
    for step in node:
        mask = masks.get(step)
        if mask is None:
            mask = masks[step] = _step_mask(step, run.primes)
        steps = [step]
        apart = []
        for other, other_steps in groups:
            if other & mask:
                mask |= other
                steps += other_steps
            else:
                apart.append((other, other_steps))
        apart.append((mask, steps))
        groups = apart
    if len(groups) < 2:
        return []
    parts = []
    for mask, steps in groups:
        if mask >> len(run.primes):
            continue
        ell = math.lcm(*steps)
        if sum(len(node[step]) * (ell // step) for step in steps) >= ell:
            parts.append((ell, {step: node[step] for step in steps}))
    parts.sort(key=lambda part: part[0])
    return parts


def _least_uncovered(
    progressions: dict[int, list[int]], length: int, run: _Refinement
) -> Optional[int]:
    """Least t in [0, length) on none of the progressions; run counts the
    cells marked, the nodes split and the nodes a coprime part decided.

    progressions maps each step (a divisor of length) to its starts;
    run.primes holds, ascending, every prime <= LEAF_CELLS of length
    (possibly more).  A node with a step-1 progression is covered; one of
    lcm at most LEAF_CELLS is marked in one array.  A larger node first
    tries its coprime parts (_dense_parts): by the Chinese remainder
    theorem Z/L is the product of the parts' Z/L_i, and a t is uncovered
    iff its image in every Z/L_i is, so the node is covered iff one part
    covers its own Z/L_i.  Each part is refined alone by this routine, and
    the first that covers decides the node.  If none does, the node is not
    covered and splits, so that the least witness is found: on the prime
    of run.primes dividing its lcm whose p children t = p*s + j have the
    least total _split_cost (_choose_split), each child pushed with the lcm
    that costing gave and none that a step-p start covers; a node with no
    such prime is marked whole up to NAIVE_LIMIT.  A covering visits every
    node; otherwise only nodes that may hold a t below the least witness
    found so far are visited.
    """
    best: Optional[int] = None
    # (progressions, lcm, offset, scale): the node's s is t = offset + scale*s
    stack = [(progressions, length, 0, 1)]
    while stack:
        node, ell, offset, scale = stack.pop()
        if 1 in node or (best is not None and offset >= best):
            continue  # covered, or no t here is below the best witness
        if not node:
            t = offset
        else:
            if ell > LEAF_CELLS and any(
                _least_uncovered(part, part_ell, run) is None
                for part_ell, part in _dense_parts(node, run)
            ):
                run.parts += 1
                continue
            candidates = [p for p in run.primes if ell % p == 0] if ell > LEAF_CELLS else []
            if candidates:
                p, shared, lcms = _choose_split(node, candidates, run)
                children = _split(node, p)
                run.splits += 1
                for j in range(p - 1, -1, -1):  # child 0 is popped first
                    child = children[j]
                    if child is not None:
                        stack.append((child, lcms.get(j, shared), offset + scale * j, scale * p))
                continue
            if ell > NAIVE_LIMIT:
                raise ValueError(
                    f"a class needs {ell} cells with no prime factor <= "
                    f"{LEAF_CELLS} to split on (limit {NAIVE_LIMIT})"
                )
            covered = _mark_progressions(
                ell, ((a, step) for step, starts in node.items() for a in starts)
            )
            run.cells += ell
            if covered.all():
                continue
            t = offset + scale * int(np.argmin(covered))
        if best is None or t < best:
            best = t
    return best


def _reductions(system: CoveringSystem, w: int) -> Iterator[ResidueClassReduction]:
    """Reduce and refine the classes u = 0, 1, ..., w - 1 in turn."""
    if not len(system):
        raise ValueError("cannot verify an empty system")
    ell = system.lcm
    if w < 1:
        raise ValueError(f"the class count w must be at least 1, got {w}")
    if ell % w != 0:
        raise ValueError(f"w={w} does not divide the moduli lcm {ell}")
    # every class span divides ell, so its split primes are ell's
    primes = [p for p in system.lcm_factorization.primes() if p <= LEAF_CELLS]
    masks: dict[int, int] = {}
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
        run = _Refinement(primes, masks)
        t = _least_uncovered(progressions, span, run)
        yield ResidueClassReduction(
            u=u,
            w=w,
            congruences=congruences,
            lcm_prime=lcm_prime,
            delta=delta,
            span=span,
            witness=None if t is None else w * t + u,
            cells_marked=run.cells,
            splits=run.splits,
            parts=run.parts,
            costed=run.costed,
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


def is_covering_fast(system: CoveringSystem, w: int = 1) -> CoverVerdict:
    """Refinement verification: the naive scan's verdict and witness.

    With w = 1 the whole system is the single class; otherwise each class
    u mod w keeps only its consistent congruences and is refined on its
    own.  A failing system's witness is the least uncovered integer for
    every w.
    """
    return profile_verdict(_reductions(system, w))


def reduction_profile(system: CoveringSystem, w: int = 1) -> list[ResidueClassReduction]:
    """Per-class reductions for every u in [0, w), each refined: the
    classes is_covering_fast(system, w) decides.  Raises ValueError for w
    above PROFILE_CLASSES before building any class."""
    if w > PROFILE_CLASSES:
        raise ValueError(
            f"w={w} exceeds the profile limit of {PROFILE_CLASSES} classes, "
            "since a profile keeps every class"
        )
    return list(_reductions(system, w))
