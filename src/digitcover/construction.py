"""Binding covering systems to divisor assignments, per substituted digit,
and assembling the arithmetic progression whose every element stays
composite under each substitution.

For a digit offset d and a congruence k = a (mod m) assigned an order-m
divisor q (`cyclotomic.order_divisor_violation`, decided by gcd and `pow`
from the primes of m, with no Phi_m(10); prime or not), forcing
the progression offset into the residue -d * 10**a mod q makes q divide
n + d * 10**k for every progression element n and every exponent k in the
congruence class.  A covering system per digit extends this to every k,
and the CRT glues all the per-divisor residues into a single progression,
refusing divisors that share a prime but pin different residues.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .arith import crt_combine, is_prime
from .covering import Congruence, CoveringSystem, is_covering_fast
from .cyclotomic import LineReader, order_divisor_violation

__all__ = [
    "Assignment",
    "DigitCovering",
    "Construction",
    "DivisorCertificate",
    "SampleReport",
    "derive_b_residue",
    "cross_digit_consistency",
    "prime_uses",
    "assemble",
    "substitution_divisor",
    "verify_property_star_sample",
    "write_construction",
    "load_construction",
]

DIGIT_OFFSETS = tuple(d for d in range(-9, 10) if d != 0)
# Sampled values verify_property_star_sample also tests with is_prime.
SPOT_CHECKS = 24


def derive_b_residue(d: int, a: int, p: int) -> int:
    """Residue class of the progression offset mod p that forces p to divide
    n + d * 10**k whenever k = a (mod order of 10 mod p): (-d * 10**a) mod p."""
    return -d * pow(10, a, p) % p


def cross_digit_consistency(p: int, uses: Iterable[tuple[int, int]]) -> bool:
    """Whether one prime can serve several digits: all (d, a) pairs must
    pin the same offset residue mod p."""
    residues = {derive_b_residue(d, a, p) for d, a in uses}
    return len(residues) <= 1


def prime_uses(uses: Iterable[tuple[int, int, int]]) -> dict[int, list[tuple[int, int]]]:
    """Group (digit, residue, prime) triples by prime, in input order."""
    grouped: dict[int, list[tuple[int, int]]] = {}
    for d, a, p in uses:
        grouped.setdefault(p, []).append((d, a))
    return grouped


@dataclass(frozen=True)
class Assignment:
    """One covering congruence with its assigned order-m divisor, m its
    modulus, in `prime` (a prime when it came from an ordered table, whose
    index there is `rho`)."""

    congruence: Congruence
    prime: int
    rho: Optional[int] = None


@dataclass(frozen=True)
class DigitCovering:
    """A covering system for one digit offset with a divisor per congruence."""

    digit: int
    entries: tuple[Assignment, ...]

    def __post_init__(self):
        if self.digit not in DIGIT_OFFSETS:
            raise ValueError(f"digit offset must be in [-9..-1, 1..9], got {self.digit}")
        if not self.entries:
            raise ValueError(f"digit {self.digit}: no assignments")

    @property
    def system(self) -> CoveringSystem:
        return CoveringSystem(tuple(e.congruence for e in self.entries))

    def validate(self) -> None:
        """Raise ValueError unless the divisors are distinct, each is an
        order-m divisor of its modulus m (`order_divisor_violation`: a few
        modular powers and `factor(m)` per divisor), and the congruences
        cover."""
        divisors = [e.prime for e in self.entries]
        if len(set(divisors)) != len(divisors):
            raise ValueError(f"digit {self.digit}: repeated prime assignment")
        for e in self.entries:
            m = e.congruence.modulus
            why = order_divisor_violation(e.prime, m)
            if why:
                raise ValueError(
                    f"digit {self.digit}: {e.congruence} needs a divisor of order {m}: {why}"
                )
        verdict = is_covering_fast(self.system)
        if not verdict:
            raise ValueError(
                f"digit {self.digit}: congruences do not cover "
                f"(witness {verdict.witness})"
            )


@dataclass(frozen=True)
class Construction:
    """An assembled progression: every element n = offset (mod modulus) has
    n + d * 10**k divisible by an assigned divisor, for every covered digit
    d and every k >= 0.

    modulus is the lcm of the assigned divisors (their product when they
    are distinct primes); offset is the least CRT solution exceeding every
    assigned divisor, coprime to modulus.
    """

    digits: dict[int, DigitCovering]
    modulus: int  # the A of the progression A*n + B
    offset: int   # the B
    residue_constraints: tuple[tuple[int, int], ...]  # (divisor, offset mod divisor)

    def element(self, index: int) -> int:
        """The index-th progression element modulus*index + offset."""
        return self.modulus * index + self.offset


def assemble(coverings: Sequence[DigitCovering]) -> Construction:
    """Glue per-digit coverings into one Construction.

    Validates every covering, derives each divisor's offset residue, solves
    the CRT system, and picks the least offset exceeding the largest
    assigned divisor.  No divisor is tested for primality.  Raises
    ValueError on an empty digit set, an invalid covering, a residue
    sharing a factor with its divisor (which would then divide every
    offset), or two divisors sharing a prime with different residues.
    """
    if not coverings:
        raise ValueError("nothing to cover: empty digit set")
    by_digit: dict[int, DigitCovering] = {}
    for cov in coverings:
        if cov.digit in by_digit:
            raise ValueError(f"digit {cov.digit} supplied twice")
        cov.validate()
        by_digit[cov.digit] = cov

    constraints: dict[int, int] = {}
    residue, modulus = 0, 1
    for d, cov in by_digit.items():
        for e in cov.entries:
            q, a = e.prime, e.congruence.residue
            r = derive_b_residue(d, a, q)
            if math.gcd(r, q) != 1:
                raise ValueError(
                    f"divisor {q} would share a factor with the offset (d={d}, a={a}); "
                    "the progression could contain no primes"
                )
            try:
                residue, modulus = crt_combine([(residue, modulus), (r, q)])
            except ValueError:
                raise ValueError(
                    f"divisor {q} (d={d}, a={a}) pins the offset to {r} mod {q}, "
                    "inconsistent with the divisors before it"
                ) from None
            constraints.setdefault(q, r)

    # the least value = residue (mod modulus) above every divisor
    offset = residue + modulus * ((max(constraints) - residue) // modulus + 1)
    return Construction(
        digits=by_digit,
        modulus=modulus,
        offset=offset,
        residue_constraints=tuple(sorted(constraints.items())),
    )


@dataclass(frozen=True)
class DivisorCertificate:
    """Why n + d * 10**k is composite: the assigned divisor `prime`,
    prime or not, divides it.

    `check` is the one test of that claim: the divisor divides the value,
    the value exceeds it in magnitude, and the congruence matches k.
    """

    prime: int
    congruence: Congruence
    digit: int
    exponent: int
    value: int

    def check(self) -> bool:
        return (
            self.value % self.prime == 0
            and abs(self.value) > self.prime
            and self.congruence.matches(self.exponent)
        )


def substitution_divisor(
    construction: Construction, n: int, d: int, k: int
) -> DivisorCertificate:
    """The certificate of the congruence that matches k for digit d: its
    divisor should divide n + d * 10**k, which `DivisorCertificate.check`
    tests.

    Requires n in the progression (n = offset mod modulus), d among the
    construction's digits, and k >= 0.  The covering property guarantees a
    matching congruence exists.
    """
    if d not in construction.digits:
        raise ValueError(f"digit {d} is not covered by this construction")
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    if (n - construction.offset) % construction.modulus != 0:
        raise ValueError("n is not an element of the progression")
    for entry in construction.digits[d].entries:
        if entry.congruence.matches(k):
            return DivisorCertificate(
                prime=entry.prime,
                congruence=entry.congruence,
                digit=d,
                exponent=k,
                value=n + d * 10 ** k,
            )
    raise AssertionError(
        f"no congruence matches k={k} for digit {d}; covering verification "
        "should have made this impossible"
    )


@dataclass
class SampleReport:
    checked: int
    digits: tuple[int, ...]
    failures: list[str] = field(default_factory=list)
    spot_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_property_star_sample(
    construction: Construction,
    samples: int = 100,
    k_max: int = 200,
    seed: int = 0,
) -> SampleReport:
    """Randomized check of the composite-substitution property.

    Draws `samples` progression elements, and for every covered digit d and
    exponent k <= k_max checks the certificate of `substitution_divisor`:
    its divisor divides n + d * 10**k and the magnitude exceeds the divisor
    (so divisibility proves compositeness).  Up to SPOT_CHECKS values, drawn at
    random, are additionally checked to be composite with the primality
    test.  Stops at the first failure.
    """
    rng = random.Random(seed)
    digits = tuple(sorted(construction.digits))
    report = SampleReport(checked=0, digits=digits)
    for _ in range(samples):
        n = construction.element(rng.randrange(1, 10 ** 18))
        for d in digits:
            for k in range(k_max + 1):
                cert = substitution_divisor(construction, n, d, k)
                report.checked += 1
                if not cert.check():
                    report.failures.append(
                        f"n={n} d={d} k={k}: prime {cert.prime} does not "
                        f"certify {cert.value}"
                    )
                    return report
                if report.spot_checked < SPOT_CHECKS and rng.random() < 1e-4:
                    report.spot_checked += 1
                    if is_prime(abs(cert.value)):
                        report.failures.append(
                            f"n={n} d={d} k={k}: value is prime despite "
                            f"certificate {cert.prime}"
                        )
                        return report
    return report


def write_construction(construction: Construction, path: Union[str, Path]) -> None:
    """Text export: A= and B= lines, then one `p a m d rho` line per
    assignment, p its divisor."""
    lines = [f"A={construction.modulus}", f"B={construction.offset}"]
    for d in sorted(construction.digits):
        for e in construction.digits[d].entries:
            lines.append(
                f"{e.prime} {e.congruence.residue} {e.congruence.modulus} {d} {e.rho or 0}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def load_construction(path: Union[str, Path]) -> Construction:
    """Parse the write_construction format and re-assemble, verifying the
    stored A and B against the recomputed ones.  Lines are read by
    `LineReader`: each modulus is below MODULUS_BOUND, rho is 0 (no index)
    or at least 1, and `A=` and `B=` appear once each.  An error from
    assembling names the file, and a stored value that disagrees names
    its line."""
    stored: dict[str, tuple[int, str]] = {}  # key -> (value, its line)
    per_digit: dict[int, list[Assignment]] = {}
    lines = LineReader(path)
    for line in lines:
        if line.startswith("#"):
            continue
        if line.startswith(("A=", "B=")):
            stored[line[0]] = (lines.header(line[:2], line[2:].strip(), line[0]), str(lines))
            continue
        parts = line.split()
        if len(parts) != 5:
            raise lines.expected("p a m d rho")
        p, a, m, d, rho = map(lines.number, parts, ("p", "a", "m", "d", "rho"))
        per_digit.setdefault(d, []).append(
            Assignment(
                congruence=Congruence.reduced(a, lines.modulus(m)),
                prime=p,
                rho=lines.index(rho, "rho") if rho else None,
            )
        )
    try:
        construction = assemble([
            DigitCovering(digit=d, entries=tuple(entries))
            for d, entries in sorted(per_digit.items())
        ])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for key, value in (("A", construction.modulus), ("B", construction.offset)):
        found, where = stored.get(key, (value, ""))
        if found != value:
            raise ValueError(f"{where}: stored {key}={found} disagrees with recomputed {value}")
    return construction
