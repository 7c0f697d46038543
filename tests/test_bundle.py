import json
import shutil
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
import sympy

import digitcover.bundle as bundle_module
import digitcover.cyclotomic as cyclotomic
from digitcover.arith import DEFAULT_BUDGET, factor
from digitcover.bundle import (
    DATA_ROOT,
    EXPECTED_CONGRUENCE_COUNTS,
    EXPECTED_LCM,
    EXPECTED_MAX_PRIME,
    MOD3_DIGITS,
    ORDER_PRIMES_FILE,
    REPEATED_PRIME_DIGITS,
    CoveringRow,
    TableBundle,
    ingest_tables,
    parse_covering_file,
    reproduce_report,
    resolve_assignment,
    shared_prime_checks,
)
from digitcover.construction import DIGIT_OFFSETS, cross_digit_consistency
from digitcover.covering import Congruence, CoveringSystem
from digitcover.cyclotomic import OrderPrimes, cyclotomic_value, primes_of_order

# Rows of the default report that rest on a probable prime: (digit, m, rho).
PROBABLE_ROWS = [(-9, 62, 1), (-8, 204, 6), (-6, 58, 2), (-3, 57, 3), (7, 99, 4)]


def copy_tables(tmp_path):
    """The shipped coverings without their manifest, so files can change."""
    cov = tmp_path / "coverings"
    shutil.copytree(DATA_ROOT / "coverings", cov)
    (cov / "manifest.json").unlink()
    return cov


class TestParseCoveringFile:
    def test_basic(self, tmp_path):
        path = tmp_path / "d9.txt"
        path.write_text("# digit 9\n0 2 1\n3 4 1\n1 8 1\n5 8 2\n")
        parsed = parse_covering_file(path)
        assert parsed.digit == 9
        assert [r.congruence for r in parsed.rows] == [
            Congruence(0, 2), Congruence(3, 4), Congruence(1, 8), Congruence(5, 8),
        ]
        assert [r.rho for r in parsed.rows] == [1, 1, 1, 2]
        assert not parsed.warnings

    def test_out_of_range_residue_normalized_with_warning(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("5 4 1\n")
        parsed = parse_covering_file(path)
        assert parsed.rows[0].congruence == Congruence(1, 4)
        assert len(parsed.warnings) == 1
        assert "normalized" in parsed.warnings[0]

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 2\nbroken line here\n")
        with pytest.raises(ValueError, match="x.txt:2"):
            parse_covering_file(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 two\n")
        with pytest.raises(ValueError, match="x.txt:1: bad modulus 'two'"):
            parse_covering_file(path)

    def test_rho_optional(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 2\n")
        assert parse_covering_file(path).rows[0].rho is None


class TestIngest:
    def test_shipped_bundle(self, bundle):
        assert set(bundle.coverings) == set(EXPECTED_LCM)
        assert not bundle.warnings
        for d, rows in bundle.coverings.items():
            assert len(rows) == EXPECTED_CONGRUENCE_COUNTS[d]
        assert len(bundle.order_counts) == 673
        assert bundle.order_counts[1] == 1  # the mod-3 digits' prime 3

    def test_shipped_manifest_names_the_shipped_files(self):
        digests = json.loads((DATA_ROOT / "coverings" / "manifest.json").read_text())
        assert sorted(digests["sha256"]) == sorted(
            [f"d{d}.txt" for d in EXPECTED_LCM] + [ORDER_PRIMES_FILE]
        )

    def test_empty_directory_is_gap_error(self, tmp_path):
        with pytest.raises(ValueError, match="coverage gap"):
            ingest_tables(tmp_path)

    def test_round_trip(self, tmp_path, bundle):
        out = tmp_path / "coverings"
        out.mkdir()
        for d, rows in bundle.coverings.items():
            lines = [f"# digit {d}"] + [
                f"{r.congruence.residue} {r.congruence.modulus} {r.rho}" for r in rows
            ]
            (out / f"d{d}.txt").write_text("\n".join(lines) + "\n")
        assert ingest_tables(tmp_path).coverings == bundle.coverings

    def test_checksum_mismatch_detected(self, tmp_path):
        cov = copy_tables(tmp_path)
        digests = {p.name: "0" * 64 for p in cov.glob("*.txt")}
        (cov / "manifest.json").write_text(json.dumps({"sha256": digests}))
        with pytest.raises(ValueError, match="d-2.txt: checksum mismatch"):
            ingest_tables(tmp_path)

    def test_manifest_naming_a_missing_file(self, tmp_path):
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        (cov / "d9.txt").unlink()
        with pytest.raises(ValueError, match=r"names absent files \['d9.txt'\] and omits present ones \[\]"):
            ingest_tables(tmp_path)

    def test_manifest_omitting_a_present_file(self, tmp_path):
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        shutil.copy(cov / "d9.txt", cov / "d09.txt")
        with pytest.raises(ValueError, match=r"names absent files \[\] and omits present ones \['d09.txt'\]"):
            ingest_tables(tmp_path)

    def test_manifest_without_checksums(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "manifest.json").write_text(json.dumps({"mod3_digits": []}))
        with pytest.raises(ValueError, match="expected an object with a 'sha256' table"):
            ingest_tables(tmp_path)

    def test_header_disagreeing_with_file_name(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "d9.txt").write_text("# digit 8\n0 1 1\n")
        with pytest.raises(ValueError, match="d9.txt: header digit 8 disagrees with the name's digit 9"):
            ingest_tables(tmp_path)

    def test_malformed_digit_header(self, tmp_path):
        # read as a comment, it would let the name's digit stand in for it
        cov = copy_tables(tmp_path)
        (cov / "d9.txt").write_text("# digit 9 x\n0 1 1\n")
        with pytest.raises(ValueError, match=r"d9.txt:1: expected '# digit <d>', got '# digit 9 x'$"):
            ingest_tables(tmp_path)

    def test_file_for_a_mod3_digit(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "d2.txt").write_text("# digit 2\n0 2 1\n1 2 1\n")
        with pytest.raises(ValueError, match="d2.txt: digit 2 is not a digit offset with a table"):
            ingest_tables(tmp_path)

    def test_order_counts_follow_the_rows(self, tmp_path, bundle):
        cov = copy_tables(tmp_path)
        with open(cov / "d9.txt", "a") as f:
            f.write("1 3 2\n")
        assert bundle.order_counts[3] == 1
        assert ingest_tables(tmp_path).order_counts == {**bundle.order_counts, 3: 2}

    def test_glob_digit_from_file_name(self, tmp_path, bundle):
        cov = copy_tables(tmp_path)
        (cov / "d9.txt").write_text("0 2 1\n3 4 1\n1 8 1\n5 8 2\n")
        assert ingest_tables(tmp_path).coverings[9] == bundle.coverings[9]

    def test_glob_unrecognized_name(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "dx.txt").write_text("0 1 1\n")
        with pytest.raises(ValueError, match="dx.txt: no digit header and unrecognized name"):
            ingest_tables(tmp_path)

    def test_manifest_and_glob_routes_agree(self, tmp_path, bundle):
        copy_tables(tmp_path)
        again = ingest_tables(tmp_path)
        assert again.coverings == bundle.coverings
        assert again.order_counts == bundle.order_counts

    def test_warnings_collected(self, tmp_path, bundle):
        cov = copy_tables(tmp_path)
        (cov / "d9.txt").write_text("# digit 9\n0 2 1\n7 4 1\n1 8 1\n5 8 2\n")
        again = ingest_tables(tmp_path)
        assert again.coverings[9] == bundle.coverings[9]
        assert len(again.warnings) == 1
        assert "residue 7 normalized to 3 (mod 4)" in again.warnings[0]

    def test_glob_digit_outside_offsets(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "d12.txt").write_text("0 1 1\n")
        with pytest.raises(ValueError, match="d12.txt: digit 12 is not a digit offset"):
            ingest_tables(tmp_path)

    def test_glob_digit_supplied_twice(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "d09.txt").write_text("0 2 1\n1 2 1\n")
        with pytest.raises(ValueError, match="d9.txt: digit 9 is already supplied by d09.txt"):
            ingest_tables(tmp_path)

    def test_bad_manifest_json(self, tmp_path):
        cov = tmp_path / "coverings"
        cov.mkdir()
        (cov / "manifest.json").write_text("{")
        with pytest.raises(ValueError, match="invalid JSON"):
            ingest_tables(tmp_path)


class TestResolvedRows:
    def test_mod3_digit_is_one_row_resolving_to_3(self, bundle):
        assert list(bundle.resolved_rows(2)) == [
            (CoveringRow(Congruence(0, 1), 1), 3)
        ]
        assert bundle.system(2) == CoveringSystem((Congruence(0, 1),))

    def test_system_is_the_rows(self, bundle):
        for d in DIGIT_OFFSETS:
            assert bundle.system(d).congruences == tuple(
                r.congruence for r in bundle.rows(d)
            )

    def test_unknown_digit_is_bundle_error(self, bundle):
        with pytest.raises(ValueError, match="no covering table for digit 0"):
            bundle.rows(0)

    def test_limit_and_missing_index_give_none(self, bundle):
        # the order rows limit what resolves: d9.txt's moduli are 2, 4, 8, 8
        up_to_4 = {m: row for m, row in bundle.order_rows.items() if m <= 4}
        rows = list(replace(bundle, order_rows=up_to_4).resolved_rows(9))
        assert [p for _, p in rows] == [11, 101, None, None]
        assert [p for _, p in bundle.resolved_rows(9)] == [11, 101, 73, 137]
        unindexed = TableBundle(
            coverings={9: (CoveringRow(Congruence(0, 2)), CoveringRow(Congruence(1, 2), 1))},
            order_rows={2: (11,)},
        )
        assert [p for _, p in unindexed.resolved_rows(9)] == [None, 11]

    def test_lazy(self, bundle):
        # d = -3 lists moduli up to 75,240; taking the first rows must not
        # resolve the rest
        calls = []
        with mock.patch.object(
            bundle, "order_primes", lambda *a: calls.append(a) or primes_of_order(1)
        ):
            rows = bundle.resolved_rows(-3)
            next(rows), next(rows)
        assert len(calls) == 2

    def test_report_resolves_each_row_once(self):
        calls = []
        nth = OrderPrimes.nth
        with mock.patch.object(
            OrderPrimes, "nth", lambda self, rho: calls.append(rho) or nth(self, rho)
        ):
            report = reproduce_report()
        assert len(calls) == 197
        assert sum(r.resolved for r in report.digits) == 197


class TestResolveAssignment:
    def test_small_orders(self):
        assert resolve_assignment(1, 1) == 3
        assert resolve_assignment(2, 1) == 11
        assert resolve_assignment(6, 1) == 7
        assert resolve_assignment(6, 2) == 13
        assert resolve_assignment(8, 1) == 73
        assert resolve_assignment(8, 2) == 137

    def test_unknown_index_returns_none(self):
        assert resolve_assignment(6, 3) is None  # only two primes of order 6


def with_order_row(tmp_path, row: str) -> TableBundle:
    """The shipped tables, without their manifest, with the order_primes.txt
    row for row's modulus replaced by row."""
    path = copy_tables(tmp_path) / ORDER_PRIMES_FILE
    m = row.split(":")[0]
    lines = [row if line.split(":")[0] == m else line for line in path.read_text().splitlines()]
    path.write_text("\n".join(lines) + "\n")
    return ingest_tables(tmp_path)


class TestShippedOrderPrimes:
    def test_rows_are_the_computed_lists(self, bundle):
        # the file lists exactly the table moduli up to 64 and 90, 99 and
        # 204, each with every prime of its order, labelled as
        # primes_of_order does
        moduli = [m for m in sorted(bundle.order_counts) if m <= 64] + [90, 99, 204]
        assert sorted(bundle.order_rows) == moduli
        for m in moduli:
            known = primes_of_order(m)
            assert known.complete, m
            assert bundle.order_rows[m] == known.primes, m
            proven = bundle.order_primes(m)
            assert proven.complete and proven.primes == known.primes, m
            assert proven.probable == known.probable, m
        assert sum(len(bundle.order_rows[m]) for m in moduli) == 143
        assert max(max(bundle.order_rows[m]) for m in moduli).bit_length() == 168

    def test_ingest_proves_nothing(self, tmp_path):
        copy_tables(tmp_path)
        with mock.patch.object(bundle_module, "prove_order_primes", side_effect=AssertionError):
            again = ingest_tables(tmp_path)
        assert again.order_file == tmp_path / "coverings" / ORDER_PRIMES_FILE
        assert again.order_rows[8] == (73, 137)

    def test_each_row_is_proved_once_per_bundle(self, tmp_path):
        copy_tables(tmp_path)
        again = ingest_tables(tmp_path)
        calls = []
        prove = bundle_module.prove_order_primes
        with mock.patch.object(
            bundle_module, "prove_order_primes", lambda *a: calls.append(a) or prove(*a)
        ):
            first = again.order_primes(8)
            assert again.order_primes(8) is first
        assert calls == [(8, (73, 137))]

    def test_a_modulus_without_a_row_has_no_primes(self, bundle):
        # nothing is computed: d7.txt's `16 66 2` resolves to no prime
        assert 66 not in bundle.order_rows
        with pytest.raises(ValueError, match="^the bundle has no order-66 row$"):
            bundle.order_primes(66)
        rows = [(row.rho, p) for row, p in bundle.resolved_rows(7) if row.congruence.modulus == 66]
        assert rows and all(p is None for _, p in rows)

    def test_without_the_file_no_row_resolves(self, tmp_path):
        (copy_tables(tmp_path) / ORDER_PRIMES_FILE).unlink()
        again = ingest_tables(tmp_path)
        assert again.order_rows == {} and again.order_file is None
        report = reproduce_report(again)
        assert report.ok and report.order_counts == [] and report.shared == []
        assert sum(r.resolved for r in report.digits) == 0
        assert report.lines()[-1].endswith(
            "; 2658 of 2658 prime assignments not checked (their modulus has no order row)"
        )


class TestHostileOrderRows:
    # Phi_6(10) = 91 = 7 * 13
    @pytest.mark.parametrize(
        "row, check",
        [
            ("6: 91", "entry '91' is not prime"),
            # 11 has order 2; no prime of another order divides Phi_6(10)
            ("6: 7, 11, 13", "entry '11' does not divide Phi_6(10)"),
            ("6: 7", "the entries leave a 4-bit cofactor, so the list is incomplete"),
            ("6: 7, 7, 13", "not above 1 in strictly ascending order"),
            ("6: 13, 7", "not above 1 in strictly ascending order"),
            ("6: 0, 7, 13", "not above 1 in strictly ascending order"),
        ],
    )
    def test_row_fails_its_proof(self, tmp_path, row, check):
        tables = with_order_row(tmp_path, row)
        with pytest.raises(ValueError) as info:
            tables.order_primes(6)
        assert str(info.value).startswith(f"{tables.order_file}: m=6: ")
        assert check in str(info.value)

    def test_huge_entry_costs_one_division(self, tmp_path):
        tables = with_order_row(tmp_path, f"6: 7, 13, {10 ** 3999 + 1}")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"m=6: entry '1000.*\(4000 characters\) does not divide"):
            tables.order_primes(6)
        assert time.perf_counter() - start < 1

    def test_entry_past_the_primality_limit(self):
        # Phi_1237(10) = (10^1237 - 1) / 9 has 4,107 bits, past the 4,096
        # where is_prime would run for minutes
        value = cyclotomic_value(1237, 10)
        tables = TableBundle(coverings={}, order_rows={1237: (value,)}, order_file=Path("x.txt"))
        with pytest.raises(ValueError, match=r"^x.txt: m=1237: entry of 4107 bits is past"):
            tables.order_primes(1237)
        # no primality probe runs first: it took 7.5 s on this 4,297-digit value
        value = cyclotomic_value(4297, 10)
        tables = TableBundle(coverings={}, order_rows={4297: (value,)}, order_file=Path("x.txt"))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^x.txt: m=4297: entry of 14272 bits is past"):
            tables.order_primes(4297)
        assert time.perf_counter() - start < 1

    def test_modulus_above_the_limit(self, tmp_path):
        cov = copy_tables(tmp_path)
        with (cov / ORDER_PRIMES_FILE).open("a") as f:
            f.write("100001: 7\n")
        tables = ingest_tables(tmp_path)
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            tables.order_primes(100001)
        assert time.perf_counter() - start < 1
        assert str(info.value) == (
            f"{tables.order_file}: m=100001: m must be <= 100000, got '100001'"
        )

    def test_report_raises_on_a_bad_row(self, tmp_path):
        tables = with_order_row(tmp_path, "8: 73")
        with pytest.raises(ValueError, match=r"order_primes.txt: m=8: the entries leave"):
            reproduce_report(tables)

    def test_manifest_omitting_the_file(self, tmp_path):
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        manifest = json.loads((cov / "manifest.json").read_text())
        del manifest["sha256"][ORDER_PRIMES_FILE]
        (cov / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=r"omits present ones \['order_primes.txt'\]"):
            ingest_tables(tmp_path)

    def test_unparseable_file_is_bundle_error(self, tmp_path):
        (copy_tables(tmp_path) / ORDER_PRIMES_FILE).write_text("6 7 13\n")
        with pytest.raises(ValueError, match=r"order_primes.txt:1: expected 'm: entries'"):
            ingest_tables(tmp_path)


class TestReport:
    def test_full_report_matches_expected(self, bundle):
        report = reproduce_report(bundle)
        assert report.ok
        by_digit = {r.digit: r for r in report.digits}
        assert len(by_digit) == 18
        for d, r in by_digit.items():
            assert r.covering, d
            assert r.congruences == EXPECTED_CONGRUENCE_COUNTS[d]
            if d in EXPECTED_LCM:
                assert r.lcm == EXPECTED_LCM[d]
                assert r.max_prime == EXPECTED_MAX_PRIME[d]
            else:
                assert d in MOD3_DIGITS and r.lcm == 1
        assert [r.digit for r in report.digits] == sorted(by_digit)

    def test_each_modulus_is_factored_once(self):
        # the Moebius product, the order cofactor and every order row's
        # entries read one factorization of m: a cold report factors each of
        # the 60 moduli with an order row once
        factored = []

        def counted(n, budget=DEFAULT_BUDGET):
            factored.append(n)
            return factor(n, budget)

        cyclotomic._primes_of.cache_clear()
        cyclotomic._primes_of_order_cached.cache_clear()
        with mock.patch("digitcover.cyclotomic.factor", side_effect=counted):
            assert reproduce_report(ingest_tables(DATA_ROOT)).ok
        assert len(factored) == len(set(factored)) == 60

    def test_shared_primes_consistent(self, bundle):
        checks = shared_prime_checks(bundle, resolve_limit=64)
        assert checks
        assert all(c.consistent for c in checks)
        by_prime = {c.prime: c for c in checks}
        # the report checks the shared primes of every resolved row, and
        # its resolve limit, the largest table modulus with an order row,
        # gives the same checks
        report = reproduce_report(bundle)
        assert report.resolve_limit == 204
        assert shared_prime_checks(bundle, report.resolve_limit) == report.shared
        # 32 of the 33 repeated primes; 331 has order 110, which has no row
        shared = {c.prime for c in report.shared}
        assert shared == set(REPEATED_PRIME_DIGITS) - {331}
        assert set(by_prime[3].uses) == {(d, 0) for d in MOD3_DIGITS}
        assert sorted(d for d, _ in by_prime[11].uses) == [-9, -2, 9]


class TestReportProbableAssignments:
    def test_names_the_probable_rows(self, bundle):
        report = reproduce_report(bundle)
        named = [
            (r.digit, row.congruence.modulus, row.rho)
            for r in report.digits
            for row, _ in r.probable
        ]
        assert named == PROBABLE_ROWS
        for r in report.digits:
            for row, prime in r.probable:
                assert prime in primes_of_order(row.congruence.modulus).probable
        lines = report.lines()
        shared = next(i for i, line in enumerate(lines) if line.startswith("shared primes"))
        assert lines[shared + 1] == (
            "resolved to probable primes: 5 (d=-9 m=62 rho=1, d=-8 m=204 rho=6, "
            "d=-6 m=58 rho=2, d=-3 m=57 rho=3, d=7 m=99 rho=4)"
        )
        assert report.ok

    def test_json_lists_them_per_digit(self, bundle):
        digits = {r["digit"]: r for r in reproduce_report(bundle).to_dict()["digits"]}
        assert digits[-9]["probable_assignments"] == [
            {"modulus": 62, "rho": 1, "prime": "909090909090909090909090909091"}
        ]
        with_probable = sorted(d for d, r in digits.items() if r["probable_assignments"])
        assert with_probable == [-9, -8, -6, -3, 7]

    def test_no_line_when_none_resolved(self, bundle):
        up_to_8 = {m: row for m, row in bundle.order_rows.items() if m <= 8}
        report = reproduce_report(replace(bundle, order_rows=up_to_8))
        assert not any(r.probable for r in report.digits)
        assert not any(line.startswith("resolved to probable") for line in report.lines())


class TestMatchesExpected:
    def test_changed_table_fails_the_expected_counts(self, tmp_path):
        cov = copy_tables(tmp_path)
        (cov / "d9.txt").write_text("# digit 9\n0 2 1\n1 2\n")
        report = reproduce_report(ingest_tables(tmp_path))
        d9 = next(r for r in report.digits if r.digit == 9)
        assert d9.covering and not d9.matches_expected
        assert not report.ok

    def test_lines_name_the_witness_and_the_inconsistent_prime(self, tmp_path):
        # 1 mod 2 leaves 0 uncovered, and pins 11 to the offset residue 9,
        # where digits -9 and -2 pin it to 2
        (copy_tables(tmp_path) / "d9.txt").write_text("# digit 9\n1 2 1\n")
        report = reproduce_report(ingest_tables(tmp_path))
        lines = report.lines()
        assert lines[lines.index("    uncovered witness: 0") - 1].split()[:5] == [
            "9", "1", "2", "2", "False"
        ]
        assert "    INCONSISTENT prime 11: uses ((-9, 1), (-2, 0), (9, 1))" in lines
        assert not report.ok

    def test_unfactored_lcm_is_not_a_match(self, bundle):
        # an lcm that factor cannot finish leaves the largest prime unknown:
        # "?" in the table, null in JSON, and no match with the expected row;
        # the budget runs out only after trial division, which still finds
        # every split prime, so the verdicts stand
        def stuck(n, budget):
            done = factor(n, budget)
            return replace(done, remainder=2 ** 128 + 1) if n > 1 else done

        with mock.patch("digitcover.covering.factor", side_effect=stuck):
            report = reproduce_report(bundle)
        d9 = next(r for r in report.digits if r.digit == 9)
        assert d9.covering and d9.max_prime is None and not d9.matches_expected
        assert report.lines()[1].split()[:4] == ["-9", "232", "14433138720", "?"]
        digits = report.to_dict()["digits"]
        assert digits[0]["max_prime"] is None and not report.ok
        # the mod-3 digits have lcm 1, which always factors
        assert all(r.matches_expected for r in report.digits if r.lcm == 1)


class TestRepeatedPrimeTable:
    def test_full_reference_reproduction(self, bundle):
        # resolve every repeated prime through its order and table index,
        # then confirm the digit sets and the residue consistency
        for prime, (digits, rho) in REPEATED_PRIME_DIGITS.items():
            m = sympy.n_order(10, prime)
            resolved = resolve_assignment(m, rho)
            assert resolved == prime, (prime, m, rho, resolved)
            uses = []
            for d in digits:
                if d in MOD3_DIGITS:
                    assert prime == 3
                    uses.append((d, 0))
                    continue
                hits = [
                    row.congruence.residue
                    for row in bundle.coverings[d]
                    if row.congruence.modulus == m and row.rho == rho
                ]
                assert len(hits) == 1, (prime, d, m, rho)
                uses.append((d, hits[0]))
            assert cross_digit_consistency(prime, uses), prime

    def test_reference_digits_are_exhaustive(self, bundle):
        # no other digit's table uses the same (order, index) pair
        for prime, (digits, rho) in REPEATED_PRIME_DIGITS.items():
            if prime == 3:
                continue
            m = sympy.n_order(10, prime)
            users = [
                d
                for d, rows in bundle.coverings.items()
                if any(
                    row.congruence.modulus == m and row.rho == rho for row in rows
                )
            ]
            assert sorted(users) == sorted(digits), prime
