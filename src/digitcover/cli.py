"""Command-line front end.

Subcommands: cover, construct, delicate, graham, order, report.
Numeric input is decimal, read by `cyclotomic.parse_int`.  JSON output
prints counts, digit offsets, indices and moduli below 10^10 as numbers,
and every other integer as a decimal string.  Exit codes: 0 success,
1 verification failure (a witness is printed when one exists), 2 data or
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Union

from . import __version__
from .arith import DEFAULT_BUDGET, FactorBudget, is_prime
from .bundle import (
    TableBundle,
    default_bundle,
    ingest_tables,
    parse_covering_file,
    reproduce_report,
)
from .construction import (
    Assignment,
    DigitCovering,
    assemble,
    load_construction,
    substitution_divisor,
    write_construction,
)
from .covering import (
    CoveringSystem,
    is_covering_fast,
    lcm_analysis,
    profile_verdict,
    reduction_profile,
)
from .cyclotomic import load_order_table, parse_int, primes_of_order, validate_order_table
from .delicate import (
    digit_count,
    find_first_digitally_delicate,
    first_failure,
    require_stable_candidate,
)
from .graham import EXPLICIT_TERMS, GrahamInstance, reduce_seeds, verify_cover

OK, FAIL, ERROR = 0, 1, 2


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _int(token: Union[str, int], flag: str) -> int:
    """A flag's int default, or its text read by `parse_int` under its name."""
    return token if isinstance(token, int) else parse_int(token, flag, "integer")


def _ints(text: str, flag: str) -> list[int]:
    """A comma-separated list of numeric arguments, read as `_int` reads one."""
    return [_int(s.strip(), flag) for s in text.split(",") if s.strip()]


def _bundle(args) -> TableBundle:
    bundle = ingest_tables(args.tables) if args.tables else default_bundle()
    for w in bundle.warnings:
        print(w, file=sys.stderr)
    return bundle


def _load_system(path: str) -> tuple[CoveringSystem, Optional[int]]:
    parsed = parse_covering_file(path)
    for w in parsed.warnings:
        print(w, file=sys.stderr)
    system = CoveringSystem(tuple(r.congruence for r in parsed.rows))
    return system, parsed.digit


def cmd_cover_verify(args) -> int:
    w = _int(args.w, "--w")
    system, digit = _load_system(args.file)
    analysis = lcm_analysis(system)
    profile = reduction_profile(system, w=w) if args.profile else None
    if profile is not None:
        verdict = profile_verdict(profile)
    else:
        verdict = is_covering_fast(system, w=w)
    max_prime = analysis.max_prime

    payload = {
        "file": args.file,
        "digit": digit,
        "congruences": analysis.count,
        "lcm": str(analysis.lcm),
        "max_prime": None if max_prime is None else str(max_prime),
        "covering": verdict.covering,
        "witness": None if verdict.witness is None else str(verdict.witness),
    }
    lines = [
        f"congruences: {analysis.count}",
        f"lcm: {analysis.lcm}",
        f"max prime: {'unresolved' if max_prime is None else max_prime}",
        f"covering: {verdict.covering}"
        + ("" if verdict.covering else f" (uncovered: {verdict.witness})"),
    ]

    if profile is not None:
        w = profile[0].w
        max_span = max(r.span for r in profile)
        top = [r.u for r in profile if r.span == max_span]
        spanned = sum(r.span for r in profile)
        marked = sum(r.cells_marked for r in profile)
        splits = sum(r.splits for r in profile)
        parts = sum(r.parts for r in profile)
        costed = sum(r.costed for r in profile)
        payload["profile"] = {
            "w": w,
            "max_span": str(max_span),
            "max_span_classes": top,
            "cells_spanned": str(spanned),
            "cells_marked": str(marked),
            "splits": splits,
            "parts": parts,
            "costed": costed,
            "classes": [
                {
                    "u": r.u,
                    "kept": len(r.congruences),
                    "lcm": str(r.lcm_prime),
                    "delta": str(r.delta),
                    "span": str(r.span),
                    "cells_marked": str(r.cells_marked),
                    "splits": r.splits,
                    "parts": r.parts,
                    "costed": r.costed,
                    "covered": r.covered,
                }
                for r in profile
            ],
        }
        lines.append(f"profile: w={w}, max span {max_span} at u in {top}")
        lines.append(f"cells marked: {marked} of {spanned} spanned")
        lines.append(f"splits: {splits}")
        lines.append(f"parts: {parts}")
        lines.append(f"costed: {costed}")
        if w <= 100:
            for r in profile:
                lines.append(
                    f"  u={r.u:>4}  kept={len(r.congruences):>4}  "
                    f"lcm'={r.lcm_prime}  delta={r.delta}  span={r.span}  "
                    f"marked={r.cells_marked}  splits={r.splits}  parts={r.parts}  "
                    f"costed={r.costed}  covered={r.covered}"
                )
    _emit(args, payload, lines)
    return OK if verdict.covering else FAIL


def _build_digit_covering(bundle: TableBundle, digit: int) -> DigitCovering:
    entries = []
    for row, prime in bundle.resolved_rows(digit):
        if row.rho is None:
            raise ValueError(
                f"digit {digit}: congruence {row.congruence} has no prime index"
            )
        if prime is None:
            m = row.congruence.modulus
            why = (
                f"only {len(bundle.orders[m].primes)} primes have order {m}"
                if m in bundle.orders
                else f"the bundle has no order-{m} row"
            )
            raise ValueError(
                f"digit {digit}: cannot resolve the prime for "
                f"{row.congruence} (index {row.rho}); {why}"
            )
        entries.append(Assignment(row.congruence, prime, rho=row.rho))
    return DigitCovering(digit=digit, entries=tuple(entries))


def cmd_construct_assemble(args) -> int:
    digits = _ints(args.digits, "--digits")
    bundle = _bundle(args)
    coverings = [_build_digit_covering(bundle, d) for d in digits]
    construction = assemble(coverings)
    if args.out:
        write_construction(construction, args.out)
    payload = {
        "digits": sorted(construction.digits),
        "A": str(construction.modulus),
        "B": str(construction.offset),
        "constraints": [
            {"prime": str(p), "residue": str(r)}
            for p, r in construction.residue_constraints
        ],
        "probable_primes": sorted({  # as labelled by the bundle's proved rows
            str(e.prime) for cov in coverings for e in cov.entries
            if e.prime in bundle.orders[e.congruence.modulus].probable
        }),
    }
    lines = [
        f"A={construction.modulus}",
        f"B={construction.offset}",
        f"digits: {sorted(construction.digits)}",
        f"constraints: "
        + ", ".join(f"B={r} (mod {p})" for p, r in construction.residue_constraints),
    ]
    if args.out:
        lines.append(f"written to {args.out}")
    _emit(args, payload, lines)
    return OK


def cmd_construct_certify(args) -> int:
    n, d, k = _int(args.n, "--n"), _int(args.d, "--d"), _int(args.k, "--k")
    construction = load_construction(args.construction)
    # the value printed below has about k + 1 digits: refuse, before 10**k
    # is built, a k whose value str() could not print
    limit = sys.get_int_max_str_digits()
    if limit and k >= limit:
        raise ValueError(
            f"exponent k = {k} must be below {limit}, the number of digits "
            "Python prints (sys.get_int_max_str_digits())"
        )
    cert = substitution_divisor(construction, n, d, k)
    ok = cert.check()
    payload = {
        "n": str(n),
        "d": d,
        "k": k,
        "prime": str(cert.prime),
        "congruence": {"residue": cert.congruence.residue, "modulus": cert.congruence.modulus},
        "value": str(cert.value),
        "valid": ok,
    }
    lines = [
        f"value n + ({d})*10^{k} = {cert.value}",
        f"divisible by {cert.prime} via k = {cert.congruence}",
        f"certificate valid: {ok}",
    ]
    _emit(args, payload, lines)
    return OK if ok else FAIL


def _witness(payload: dict, lines: list[str], failure) -> None:
    sub, value = failure
    payload["witness"] = str(value)
    lines.append(
        f"witness: position {sub.position}, "
        f"{sub.original} -> {sub.replacement} gives {value}"
    )


def cmd_delicate_check(args) -> int:
    n = _int(args.n, "n")
    widely = None if args.widely is None else _int(args.widely, "--widely")
    if widely is not None and widely < 1:
        raise ValueError("window must be >= 1")
    if not is_prime(n):
        raise ValueError(f"{n} is not prime")
    # one walk: the written digits first, then the leading zeros of --widely
    leading_zeros = 0 if widely is None else widely + 1
    failure = first_failure(n, leading_zeros)
    delicate = failure is None or failure[0].position >= digit_count(n)
    payload = {"n": str(n), "digitally_delicate": delicate}
    lines = [f"digitally delicate: {delicate}"]
    code = OK if delicate else FAIL
    if not delicate:
        _witness(payload, lines, failure)
    if widely is not None and delicate:
        payload["window"] = widely
        payload["window_passed"] = failure is None
        if failure is None:
            lines.append(
                f"no prime under any substitution through "
                f"{widely + 1} leading zeros (not a proof)"
            )
        else:
            payload["witness"] = str(failure[1])
            lines.append(f"leading-zero window fails: {failure[1]} is prime")
            code = FAIL
    _emit(args, payload, lines)
    return code


def cmd_delicate_scan(args) -> int:
    bound = _int(args.bound, "--bound")
    found = find_first_digitally_delicate(bound)
    payload = {"bound": str(bound), "first": None if found is None else str(found)}
    lines = [str(found) if found is not None else "none"]
    _emit(args, payload, lines)
    return OK


def cmd_delicate_stable(args) -> int:
    n = _int(args.n, "n")
    require_stable_candidate(n)
    failure = first_failure(n)
    stable = failure is None
    payload = {"n": str(n), "composite_digit_stable": stable}
    lines = [f"composite digit stable: {stable}"]
    if not stable:
        _witness(payload, lines, failure)
    _emit(args, payload, lines)
    return OK if stable else FAIL


def _parse_instance(args) -> GrahamInstance:
    primes = tuple(_ints(args.primes, "--primes"))
    return GrahamInstance(a=_int(args.a, "--a"), b=_int(args.b, "--b"), primes=primes)


def cmd_graham_verify(args) -> int:
    instance = _parse_instance(args)
    report = verify_cover(instance)
    payload = {
        "a": str(instance.a),
        "b": str(instance.b),
        "primes": [str(p) for p in instance.primes],
        "product": str(instance.product),
        "period_lcm": str(report.period_lcm),
        "covered": report.covered,
        "uncovered_index": (
            None if report.uncovered_index is None else str(report.uncovered_index)
        ),
        "terms_exceed_primes": report.terms_exceed_primes,
        "periods": {
            str(p): {"period": rp.period, "zeros": sorted(rp.zero_indices)}
            for p, rp in report.periods.items()
        },
    }
    lines = [
        f"N = {instance.product}",
        f"period lcm: {report.period_lcm}",
        f"every index divisible by a listed prime: {report.covered}"
        + (
            ""
            if report.covered
            else f" (uncovered index {report.uncovered_index})"
        ),
        f"terms u(2) to u({EXPLICIT_TERMS - 1}) exceed every listed prime: "
        f"{report.terms_exceed_primes}",
    ]
    _emit(args, payload, lines)
    return OK if report else FAIL


def cmd_graham_reduce(args) -> int:
    instance = _parse_instance(args)
    red = reduce_seeds(instance)
    payload = {
        "gcd_a": str(red.gcd_a),
        "gcd_b": str(red.gcd_b),
        "a_reduced": str(red.a_reduced),
        "a_modulus": str(red.a_modulus),
        "b_reduced": str(red.b_reduced),
        "b_modulus": str(red.b_modulus),
    }
    lines = [
        f"gcd(a, N) = {red.gcd_a}; a' = {red.a_reduced} (mod {red.a_modulus})",
        f"gcd(b, N) = {red.gcd_b}; b' = {red.b_reduced} (mod {red.b_modulus})",
    ]
    _emit(args, payload, lines)
    return OK


def cmd_order_primes(args) -> int:
    budget = FactorBudget(rho_iterations=_int(args.rho_iterations, "--rho-iterations"))
    result = primes_of_order(_int(args.m, "m"), budget)
    payload = {
        "m": result.modulus,
        "primes": [str(p) for p in result.primes],
        "probable": [str(p) for p in result.primes if p in result.probable],
        "complete": result.complete,
        "exact_below": result.exact_below,
        "reason": result.reason,
        "scan_candidates": result.scan_candidates,
        "scan_survivors": result.scan_survivors,
        "pm1_multiplications": result.pm1_multiplications,
        "remainder_digits": (
            None if result.remainder is None else digit_count(result.remainder)
        ),
    }
    lines = [
        f"primes with 10 of order {result.modulus}: "
        + ", ".join(
            f"{p} (probable-prime)" if p in result.probable else str(p)
            for p in result.primes
        ),
        f"complete: {result.complete}"
        + ("" if result.complete else f" ({result.reason})"),
        f"every order-{result.modulus} prime below {result.exact_below} is listed",
        f"scan candidates: {result.scan_candidates}; "
        f"p-1 multiplications: {result.pm1_multiplications}",
    ]
    _emit(args, payload, lines)
    return OK


def cmd_order_validate(args) -> int:
    table = load_order_table(args.file)
    if not table:
        raise ValueError(f"{args.file}: no order-table rows to validate")
    violations = validate_order_table(table)
    valid = not violations
    payload = {
        "file": args.file,
        "rows": len(table),
        "valid": valid,
        "violations": violations,
    }
    lines = [f"rows: {len(table)}", f"valid: {valid}"]
    lines.extend(f"  {v}" for v in violations)
    _emit(args, payload, lines)
    return OK if valid else FAIL


def cmd_report(args) -> int:
    report = reproduce_report(_bundle(args))
    _emit(args, report.to_dict(), report.lines())
    return OK if report.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digitcover",
        description=(
            "Verify covering systems, their prime tables, and the "
            "digit-substitution compositeness constructions built on them."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="covering-system verification")
    cover_sub = cover.add_subparsers(dest="subcommand", required=True)
    verify = cover_sub.add_parser("verify", help="verify a covering file")
    verify.add_argument("file")
    verify.add_argument("--w", default=1, help="class modulus (default %(default)s)")
    verify.add_argument("--profile", action="store_true", help="per-class reductions")
    verify.set_defaults(func=cmd_cover_verify)

    construct = sub.add_parser("construct", help="progression assembly")
    construct_sub = construct.add_subparsers(dest="subcommand", required=True)
    asm = construct_sub.add_parser("assemble", help="assemble a construction")
    asm.add_argument("--digits", required=True, help="comma-separated digit offsets")
    asm.add_argument("--tables", default=None, help="bundle directory (default: shipped)")
    asm.add_argument("--out", default=None, help="write the construction to a file")
    asm.set_defaults(func=cmd_construct_assemble)
    certify = construct_sub.add_parser("certify", help="divisor certificate for one substitution")
    certify.add_argument("--construction", required=True, help="file from assemble --out")
    certify.add_argument("--n", required=True, help="progression element (decimal)")
    certify.add_argument("--d", required=True, help="digit offset")
    certify.add_argument("--k", required=True, help="substitution exponent")
    certify.set_defaults(func=cmd_construct_certify)

    delicate = sub.add_parser("delicate", help="digit-substitution predicates")
    delicate_sub = delicate.add_subparsers(dest="subcommand", required=True)
    check = delicate_sub.add_parser("check", help="digital delicacy of a prime")
    check.add_argument("n")
    check.add_argument(
        "--widely",
        metavar="K",
        help="also test K+1 leading-zero positions",
    )
    check.set_defaults(func=cmd_delicate_check)
    scan = delicate_sub.add_parser("scan", help="first digitally delicate prime")
    scan.add_argument("--bound", required=True)
    scan.set_defaults(func=cmd_delicate_scan)
    stable = delicate_sub.add_parser("stable", help="composite digit stability")
    stable.add_argument("n")
    stable.set_defaults(func=cmd_delicate_stable)

    graham = sub.add_parser("graham", help="composite recurrence covers")
    graham_sub = graham.add_subparsers(dest="subcommand", required=True)
    gverify = graham_sub.add_parser("verify", help="verify the compositeness cover")
    gverify.add_argument("--a", required=True)
    gverify.add_argument("--b", required=True)
    gverify.add_argument("--primes", required=True, help="comma-separated primes")
    gverify.set_defaults(func=cmd_graham_verify)
    greduce = graham_sub.add_parser("reduce", help="factor the seed congruences")
    greduce.add_argument("--a", required=True)
    greduce.add_argument("--b", required=True)
    greduce.add_argument("--primes", required=True)
    greduce.set_defaults(func=cmd_graham_reduce)

    order = sub.add_parser("order", help="order-m prime tables")
    order_sub = order.add_subparsers(dest="subcommand", required=True)
    oprimes = order_sub.add_parser("primes", help="primes with 10 of a given order")
    oprimes.add_argument("m")
    oprimes.add_argument(
        "--rho-iterations",
        default=DEFAULT_BUDGET.rho_iterations,
        metavar="N",
        help="modular multiplications Pollard's p-1 may spend on each "
        "composite cofactor (default %(default)s)",
    )
    oprimes.set_defaults(func=cmd_order_primes)
    ovalidate = order_sub.add_parser("validate", help="validate an order-table file")
    ovalidate.add_argument("file")
    ovalidate.set_defaults(func=cmd_order_validate)

    report = sub.add_parser("report", help="full verification report")
    report.add_argument("--tables", default=None, help="bundle directory")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR


if __name__ == "__main__":
    sys.exit(main())
