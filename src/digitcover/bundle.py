"""Shipped covering tables, their ingestion, and the verification report.

The package ships one covering file per digit offset d with d not congruent
to 2 mod 3 (the remaining six digits, `MOD3_DIGITS`, are handled by the
single congruence 0 mod 1 assigned to the prime 3), `ORDER_PRIMES_FILE`
with the complete list of order-m primes for each table modulus
m <= RESOLVE_LIMIT, and a manifest of their sha256 digests.  How many
primes of each order the construction needs is read off the covering
rows.  `reproduce_report` re-verifies all of it: every covering and,
whatever the resolve limit, every order-m row.  A modulus without a row
gets its list from `primes_of_order` within the bundle's one budget,
`TableBundle.budget`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from .arith import FactorBudget, DEFAULT_BUDGET
from .covering import Congruence, CoveringSystem, is_covering_fast, lcm_analysis
from .construction import DIGIT_OFFSETS, cross_digit_consistency, prime_uses
from .cyclotomic import (
    LineReader,
    OrderPrimes,
    load_order_table,
    primes_of_order,
    prove_order_primes,
    quoted,
)

__all__ = [
    "TableBundle",
    "ingest_tables",
    "default_bundle",
    "parse_covering_file",
    "reproduce_report",
    "resolve_assignment",
    "VerificationReport",
    "EXPECTED_CONGRUENCE_COUNTS",
    "EXPECTED_LCM",
    "EXPECTED_MAX_PRIME",
    "MOD3_DIGITS",
    "REPEATED_PRIME_DIGITS",
    "DATA_ROOT",
    "ORDER_PRIMES_FILE",
    "RESOLVE_LIMIT",
]

DATA_ROOT = Path(__file__).parent / "data"

# The report resolves prime assignments for moduli up to this bound.
RESOLVE_LIMIT = 64

# The optional file beside the covering files that lists, in
# `load_order_table`'s `m: p1, p2, ...` format, every prime of order m for
# some moduli m; the shipped one covers each table modulus m <= RESOLVE_LIMIT.
ORDER_PRIMES_FILE = "order_primes.txt"

MOD3_DIGITS = frozenset({-7, -4, -1, 2, 5, 8})

# Expected congruence counts per digit offset.
EXPECTED_CONGRUENCE_COUNTS = {
    -9: 232, -8: 441, -7: 1, -6: 257, -5: 268, -4: 1, -3: 739, -2: 289,
    -1: 1, 1: 37, 2: 1, 3: 203, 4: 26, 5: 1, 6: 19, 7: 137, 8: 1, 9: 4,
}

# Expected lcm of the moduli per tabulated digit.
EXPECTED_LCM = {
    -9: 14433138720, -8: 699847948800, -6: 1045044000, -5: 56216160,
    -3: 1486147703040, -2: 321253732800, 1: 5040, 3: 133333200,
    4: 1296, 6: 360, 7: 18295200, 9: 8,
}

# Expected largest prime factor of that lcm.
EXPECTED_MAX_PRIME = {
    -9: 31, -8: 17, -6: 29, -5: 13, -3: 19, -2: 23,
    1: 7, 3: 37, 4: 3, 6: 5, 7: 11, 9: 2,
}

# Primes serving more than one digit offset: prime -> (digits, table index).
REPEATED_PRIME_DIGITS = {
    3: ((-7, -4, -1, 2, 5, 8), 1),
    7: ((-9, -8, -6, -5, -3, 3, 4), 1),
    11: ((-9, -2, 9), 1),
    13: ((-9, -3, 3, 4), 2),
    17: ((-8, -6, -3, -2, 7), 1),
    19: ((-6, 4), 1),
    23: ((-9, -8, -6, -3, 3, 7), 1),
    29: ((-9, -8, -6, 1, 3), 1),
    31: ((-8, -2, 6), 1),
    37: ((3, 4), 1),
    43: ((-8, -3, 1), 1),
    53: ((-8, -5, 3), 1),
    61: ((-6, 3, 6), 1),
    67: ((-9, 7), 1),
    79: ((-9, -5), 2),
    89: ((-6, -3, 7), 1),
    103: ((-9, -8, -3), 1),
    199: ((-6, -3, 7), 1),
    211: ((-6, 6), 1),
    241: ((-6, 6), 2),
    331: ((-8, 7), 1),
    353: ((-6, 7), 1),
    409: ((-8, -3), 1),
    449: ((-9, 7), 2),
    2161: ((-6, 6), 3),
    3541: ((-6, 6), 1),
    9091: ((-6, 6), 1),
    27961: ((-6, 6), 2),
    1676321: ((-6, 6), 1),
    3762091: ((-6, 6), 2),
    4188901: ((-6, 6), 2),
    39526741: ((-6, 6), 3),
    5964848081: ((-6, 6), 2),
}


@dataclass(frozen=True)
class CoveringRow:
    congruence: Congruence
    rho: Optional[int] = None


@dataclass
class ParsedCovering:
    digit: Optional[int]
    rows: list[CoveringRow]
    warnings: list[str] = field(default_factory=list)


def parse_covering_file(path: Union[str, Path]) -> ParsedCovering:
    """Parse a covering file: optional `# digit <d>` header, then one
    `a m [rho]` line per congruence, read by `LineReader` with no modulus
    bound.  A comment whose first word is `digit` must be exactly that
    header, appear once and name one of DIGIT_OFFSETS.  Residues outside
    [0, m) are normalized with a warning; anything else malformed raises
    ValueError with the offending location."""
    lines = LineReader(path, modulus_bound=None)
    digit: Optional[int] = None
    rows: list[CoveringRow] = []
    warnings: list[str] = []
    for line in lines:
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["digit"]:
                if len(parts) != 2:
                    raise lines.expected("# digit <d>")
                digit = lines.header("# digit", parts[1], "digit")
                if digit not in DIGIT_OFFSETS:
                    raise lines.error(
                        f"digit {quoted(parts[1])} is not a digit offset (-9..-1, 1..9)"
                    )
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise lines.expected("a m [rho]")
        a, m, *rest = map(lines.number, parts, ("residue", "modulus", "index"))
        m = lines.modulus(m)
        rho = lines.index(rest[0]) if rest else None
        if not 0 <= a < m:
            warnings.append(f"{lines.where}: residue {a} normalized to {a % m} (mod {m})")
        rows.append(CoveringRow(Congruence.reduced(a, m), rho))
    return ParsedCovering(digit=digit, rows=rows, warnings=warnings)


@dataclass
class TableBundle:
    """All shipped or ingested table data for the 18 digit offsets.

    order_rows holds the rows of `order_file` (an ORDER_PRIMES_FILE) as
    read, unproved; `order_primes` proves each row on first use and keeps
    the result in _proven, per bundle.  budget is the one budget within
    which `order_primes` computes the list of a modulus without a row.
    """

    coverings: dict[int, tuple[CoveringRow, ...]]
    warnings: list[str] = field(default_factory=list)
    order_rows: dict[int, tuple[int, ...]] = field(default_factory=dict)
    order_file: Optional[Path] = None
    budget: FactorBudget = DEFAULT_BUDGET
    _proven: dict[int, OrderPrimes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def system(self, digit: int) -> CoveringSystem:
        return CoveringSystem(tuple(r.congruence for r in self.rows(digit)))

    def rows(self, digit: int) -> tuple[CoveringRow, ...]:
        if digit in MOD3_DIGITS:
            return (CoveringRow(Congruence(0, 1), 1),)
        if digit not in self.coverings:
            raise ValueError(f"no covering table for digit {digit}")
        return self.coverings[digit]

    @cached_property
    def order_counts(self) -> dict[int, int]:
        """How many primes of order m the rows need, per modulus m: the
        largest index any digit offset's rows assign with modulus m."""
        counts: dict[int, int] = {}
        for digit in DIGIT_OFFSETS:
            for row in self.rows(digit):
                if row.rho is not None and row.rho > counts.get(row.congruence.modulus, 0):
                    counts[row.congruence.modulus] = row.rho
        return counts

    def order_primes(self, m: int) -> OrderPrimes:
        """The primes of order m that the rows index: the bundle's row for
        m, proved by `prove_order_primes` the first time it is asked for,
        or `primes_of_order(m, self.budget)` when there is no row.  A row that
        fails its proof is a ValueError naming the file, m and the check."""
        if m not in self.order_rows:
            return primes_of_order(m, self.budget)
        if m not in self._proven:
            try:
                self._proven[m] = prove_order_primes(m, self.order_rows[m])
            except ValueError as exc:
                raise ValueError(f"{self.order_file}: m={m}: {exc}") from None
        return self._proven[m]

    def is_probable(self, m: int, prime: int) -> bool:
        """Whether `order_primes(m)` labels prime a probable prime."""
        return prime in self.order_primes(m).probable

    def order_check(self, m: int, needed: int) -> OrderCountCheck:
        """`order_primes(m)` against needed primes: "enough" when it lists
        that many, else "short" when the list is complete (a failure) or
        "unresolved" when it is not."""
        known = self.order_primes(m)
        found = len(known.primes)
        status = "enough" if found >= needed else "short" if known.complete else "unresolved"
        return OrderCountCheck(m, needed, found, status, known.reason)

    def resolved_rows(
        self, digit: int, resolve_limit: Optional[int] = None
    ) -> Iterator[tuple[CoveringRow, Optional[int]]]:
        """Each row of `rows(digit)` with its prime, lazily and in order: the
        rho-th prime of `order_primes(m)`, or None when the row has no
        index, its modulus exceeds resolve_limit (None sets no limit), or
        the index lies beyond the list's exact prefix."""
        for row in self.rows(digit):
            m = row.congruence.modulus
            if row.rho is None or (resolve_limit is not None and m > resolve_limit):
                yield row, None
            else:
                yield row, self.order_primes(m).nth(row.rho)


def _check_manifest(path: Path, files: list[Path]) -> None:
    """Check the optional `{"sha256": {file name: hex digest}}` manifest:
    it must name exactly the given files, each with its digest."""
    if not path.exists():
        return
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    digests = manifest.get("sha256") if isinstance(manifest, dict) else None
    if not isinstance(digests, dict):
        raise ValueError(f"{path}: expected an object with a 'sha256' table")
    names = {p.name for p in files}
    if set(digests) != names:
        raise ValueError(
            f"{path}: names absent files {sorted(set(digests) - names)} "
            f"and omits present ones {sorted(names - set(digests))}"
        )
    for p in files:
        if hashlib.sha256(p.read_bytes()).hexdigest() != digests[p.name]:
            raise ValueError(f"{p.name}: checksum mismatch")


def ingest_tables(directory: Union[str, Path]) -> TableBundle:
    """Load a bundle directory.

    Reads every `d*.txt` file in `coverings/`, or in the directory itself
    when it has no `coverings/`.  A file's digit is its `# digit <d>`
    header, or else the integer after the `d` of its name.  An
    ORDER_PRIMES_FILE beside them is optional; it is parsed here, with
    `load_order_table`, and each row is proved only when the bundle's
    `order_primes` first asks for its modulus.  A `manifest.json` beside
    the files is optional; when present it is a checksum list,
    `{"sha256": {"d9.txt": "<hex>", ...}}`, that must name exactly the
    files read, each with its digest.

    Raises ValueError on a parse error in any file, a header that
    disagrees with its file name, a digit that is not a digit offset with
    a table (`MOD3_DIGITS` take the single congruence 0 mod 1) or that two
    files supply, a tabulated digit with no file, or a bad manifest.
    """
    root = Path(directory)
    if not root.is_dir():
        raise ValueError(f"{root} is not a directory")
    cov_dir = root / "coverings" if (root / "coverings").is_dir() else root
    paths = sorted(cov_dir.glob("d*.txt"))
    order_file: Optional[Path] = cov_dir / ORDER_PRIMES_FILE
    if not order_file.is_file():
        order_file = None
    _check_manifest(cov_dir / "manifest.json", paths + ([order_file] if order_file else []))
    order_rows = load_order_table(order_file) if order_file else {}

    coverings: dict[int, tuple[CoveringRow, ...]] = {}
    files: dict[int, str] = {}  # the file that supplied each digit
    warnings: list[str] = []
    for path in paths:
        parsed = parse_covering_file(path)
        warnings.extend(parsed.warnings)
        try:
            named: Optional[int] = int(path.stem[1:])
        except ValueError:
            named = None
        digit = named if parsed.digit is None else parsed.digit
        if digit is None:
            raise ValueError(f"{path}: no digit header and unrecognized name")
        if named is not None and named != digit:
            raise ValueError(
                f"{path.name}: header digit {digit} disagrees with the name's digit {named}"
            )
        if digit not in DIGIT_OFFSETS or digit in MOD3_DIGITS:
            raise ValueError(
                f"{path.name}: digit {digit} is not a digit offset with a table "
                "(-9..-1, 1..9, not 2 mod 3)"
            )
        if digit in files:
            raise ValueError(
                f"{path.name}: digit {digit} is already supplied by {files[digit]}"
            )
        files[digit] = path.name
        coverings[digit] = tuple(parsed.rows)

    missing = [
        d for d in DIGIT_OFFSETS if d not in coverings and d not in MOD3_DIGITS
    ]
    if missing:
        raise ValueError(f"digit coverage gap: no covering table for {missing}")
    return TableBundle(
        coverings=coverings,
        warnings=warnings,
        order_rows=order_rows,
        order_file=order_file,
    )


@lru_cache(maxsize=1)
def default_bundle() -> TableBundle:
    """The bundle shipped with the package."""
    return ingest_tables(DATA_ROOT)


def resolve_assignment(
    m: int, rho: int, budget: FactorBudget = DEFAULT_BUDGET
) -> Optional[int]:
    """The rho-th smallest prime with 10 of order m, from
    `primes_of_order(m, budget)` alone, with no bundle; None when rho lies
    beyond the list's exact prefix (`OrderPrimes.nth`)."""
    return primes_of_order(m, budget).nth(rho)


@dataclass
class DigitReport:
    digit: int
    source: str  # "table" or "mod3"
    congruences: int
    lcm: int
    max_prime: Optional[int]  # None when the lcm could not be factored
    covering: bool
    witness: Optional[int]
    seconds: float
    matches_expected: bool
    rows: list[tuple[CoveringRow, Optional[int]]]  # each row with its prime or None
    probable: list[tuple[CoveringRow, int]]  # rows resolved to a probable prime

    @property
    def resolved(self) -> int:
        return sum(prime is not None for _, prime in self.rows)

    @property
    def ok(self) -> bool:
        return self.covering and self.matches_expected


@dataclass
class SharedPrimeCheck:
    prime: int
    uses: tuple[tuple[int, int], ...]  # (digit, residue a)
    consistent: bool


@dataclass(frozen=True)
class OrderCountCheck:
    """The `found` primes of order m against `needed`, with the status that
    `TableBundle.order_check` gives them; reason says why the list is
    incomplete."""

    m: int
    needed: int
    found: int
    status: str
    reason: Optional[str]


@dataclass
class VerificationReport:
    digits: list[DigitReport]
    shared: list[SharedPrimeCheck]
    order_counts: list[OrderCountCheck]  # one per modulus <= resolve_limit
    seconds: float
    resolve_limit: int

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.digits) and all(
            s.consistent for s in self.shared
        ) and all(c.status != "short" for c in self.order_counts)

    def lines(self) -> list[str]:
        out = [
            f"{'d':>3} {'cong':>5} {'lcm':>14} {'max p':>6} "
            f"{'covering':>9} {'expected':>9} {'assigned':>9} {'time':>8}"
        ]
        for r in self.digits:
            assigned = f"{r.resolved}/{len(r.rows)}"
            max_prime = "?" if r.max_prime is None else r.max_prime
            out.append(
                f"{r.digit:>3} {r.congruences:>5} {r.lcm:>14} {max_prime:>6} "
                f"{str(r.covering):>9} {str(r.matches_expected):>9} "
                f"{assigned:>9} {r.seconds:>7.2f}s"
            )
            if not r.covering:
                out.append(f"    uncovered witness: {r.witness}")
        shared_ok = sum(1 for s in self.shared if s.consistent)
        out.append(
            f"shared primes consistent: {shared_ok}/{len(self.shared)} "
            f"(assignments resolved for moduli <= {self.resolve_limit})"
        )
        for s in self.shared:
            if not s.consistent:
                out.append(f"    INCONSISTENT prime {s.prime}: uses {s.uses}")
        probable = [
            f"d={r.digit} m={row.congruence.modulus} rho={row.rho}"
            for r in self.digits
            for row, _ in r.probable
        ]
        if probable:
            out.append(
                f"resolved to probable primes: {len(probable)} "
                f"({', '.join(probable)})"
            )
        out.extend(
            f"m={c.m}: rows need {c.needed} primes of order {c.m}, "
            f"exactly {c.found} exist{'s' if c.found == 1 else ''}"
            for c in self.order_counts
            if c.status == "short"
        )
        unresolved = [
            f"m={c.m} needs {c.needed}, {c.found} found ({c.reason})"
            for c in self.order_counts
            if c.status == "unresolved"
        ]
        if unresolved:
            out.append(f"order counts unresolved: {'; '.join(unresolved)}")
        closing = f"total {self.seconds:.2f}s; overall {'OK' if self.ok else 'FAIL'}"
        total = sum(len(r.rows) for r in self.digits)
        unchecked = total - sum(r.resolved for r in self.digits)
        if unchecked:
            closing += (
                f"; {unchecked} of {total} prime assignments not checked "
                f"(resolve limit {self.resolve_limit})"
            )
        out.append(closing)
        return out

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "seconds": self.seconds,
            "digits": [
                {
                    "digit": r.digit,
                    "source": r.source,
                    "congruences": r.congruences,
                    "lcm": str(r.lcm),
                    "max_prime": None if r.max_prime is None else str(r.max_prime),
                    "covering": r.covering,
                    "witness": None if r.witness is None else str(r.witness),
                    "matches_expected": r.matches_expected,
                    "resolved_assignments": r.resolved,
                    "total_assignments": len(r.rows),
                    "probable_assignments": [
                        {
                            "modulus": row.congruence.modulus,
                            "rho": row.rho,
                            "prime": str(prime),
                        }
                        for row, prime in r.probable
                    ],
                    "seconds": r.seconds,
                }
                for r in self.digits
            ],
            "shared_primes": [
                {
                    "prime": str(s.prime),
                    "uses": [list(u) for u in s.uses],
                    "consistent": s.consistent,
                }
                for s in self.shared
            ],
            "order_counts": [asdict(c) for c in self.order_counts],
        }


def _verify_digit(bundle: TableBundle, digit: int, resolve_limit: int) -> DigitReport:
    start = time.perf_counter()
    system = bundle.system(digit)
    analysis = lcm_analysis(system)
    verdict = is_covering_fast(system)
    # resolved after lcm_analysis: its `factor` sieves arith's shared prime
    # table to the 10^5 trial bound in one step, where resolving first would
    # sieve 2^16 for p - 1 and then regrow the table
    resolved = list(bundle.resolved_rows(digit, resolve_limit))
    actual = (analysis.count, analysis.lcm, analysis.max_prime)
    tables = (EXPECTED_CONGRUENCE_COUNTS, EXPECTED_LCM, EXPECTED_MAX_PRIME)
    return DigitReport(
        digit=digit,
        source="mod3" if digit in MOD3_DIGITS else "table",
        congruences=analysis.count,
        lcm=analysis.lcm,
        max_prime=analysis.max_prime,
        covering=verdict.covering,
        witness=verdict.witness,
        seconds=time.perf_counter() - start,
        matches_expected=analysis.max_prime is not None
        and all(t.get(digit) in (None, a) for t, a in zip(tables, actual)),
        rows=resolved,
        probable=[
            (row, prime)
            for row, prime in resolved
            if prime is not None and bundle.is_probable(row.congruence.modulus, prime)
        ],
    )


def _shared_checks(
    resolved: dict[int, Iterable[tuple[CoveringRow, Optional[int]]]]
) -> list[SharedPrimeCheck]:
    uses = prime_uses(
        (digit, row.congruence.residue, prime)
        for digit, rows in resolved.items()
        for row, prime in rows
        if prime is not None
    )
    return [
        SharedPrimeCheck(prime, tuple(pairs), cross_digit_consistency(prime, pairs))
        for prime, pairs in sorted(uses.items())
        if len(pairs) > 1
    ]


def shared_prime_checks(bundle: TableBundle, resolve_limit: int) -> list[SharedPrimeCheck]:
    """Resolve assignments up to the modulus limit and check every prime
    used by more than one digit for offset-residue consistency."""
    return _shared_checks({d: bundle.resolved_rows(d, resolve_limit) for d in DIGIT_OFFSETS})


def reproduce_report(
    bundle: Optional[TableBundle] = None, resolve_limit: int = RESOLVE_LIMIT
) -> VerificationReport:
    """Re-verify every shipped covering and compare with the expected data.

    Per digit: congruence count, moduli lcm, largest prime factor, covering
    verdict and wall time, each checked against the embedded expected
    values.  Digits are reported in order of value, and shared-prime
    consistency is checked at the end.  Each prime assignment is resolved
    once, for moduli up to resolve_limit, from the bundle's order-m lists
    (`TableBundle.order_primes`: a shipped row is proved, any other modulus
    is computed within the bundle's budget); every count and check reads
    those rows.  Each modulus up to resolve_limit gets an OrderCountCheck
    from the same list; a "short" one fails the report.  Every row of the
    bundle's ORDER_PRIMES_FILE is proved, whatever resolve_limit is, and a
    row that fails its proof raises ValueError.
    """
    if resolve_limit < 0:
        raise ValueError(f"resolve_limit must be >= 0, got {resolve_limit}")
    if bundle is None:
        bundle = default_bundle()
    start = time.perf_counter()
    reports = [_verify_digit(bundle, d, resolve_limit) for d in DIGIT_OFFSETS]
    shared = _shared_checks({r.digit: r.rows for r in reports})
    order_counts = [
        bundle.order_check(m, needed)
        for m, needed in sorted(bundle.order_counts.items())
        if m <= resolve_limit
    ]
    for m in bundle.order_rows:
        bundle.order_primes(m)
    return VerificationReport(
        digits=reports,
        shared=shared,
        order_counts=order_counts,
        seconds=time.perf_counter() - start,
        resolve_limit=resolve_limit,
    )
