import json

import pytest

from digitcover.arith import multiplicative_order
from digitcover.bundle import (
    EXPECTED_CONGRUENCE_COUNTS,
    EXPECTED_LCM,
    EXPECTED_MAX_PRIME,
    MOD3_DIGITS,
    REPEATED_PRIME_DIGITS,
    BundleError,
    CoveringRow,
    ingest_tables,
    parse_covering_file,
    reproduce_report,
    resolve_assignment,
    shared_prime_checks,
    write_covering_file,
)
from digitcover.construction import cross_digit_consistency
from digitcover.covering import Congruence


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
        with pytest.raises(BundleError, match="x.txt:2"):
            parse_covering_file(path)

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 two\n")
        with pytest.raises(BundleError, match="non-integer"):
            parse_covering_file(path)

    def test_rho_optional(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("0 2\n")
        assert parse_covering_file(path).rows[0].rho is None


class TestIngest:
    def test_shipped_bundle(self, bundle):
        assert set(bundle.coverings) == set(EXPECTED_LCM)
        assert bundle.mod3_digits == MOD3_DIGITS
        assert not bundle.warnings
        for d, rows in bundle.coverings.items():
            assert len(rows) == EXPECTED_CONGRUENCE_COUNTS[d]
        assert bundle.order_counts is not None
        assert len(bundle.order_counts) == 673
        assert sum(1 for d in bundle.digits()) == 18

    def test_empty_directory_is_gap_error(self, tmp_path):
        with pytest.raises(BundleError, match="coverage gap"):
            ingest_tables(tmp_path)

    def test_round_trip(self, tmp_path, bundle):
        out = tmp_path / "coverings"
        out.mkdir()
        for d, rows in bundle.coverings.items():
            write_covering_file(out / f"d{d}.txt", d, rows)
        again = ingest_tables(tmp_path)
        assert again.coverings == bundle.coverings
        assert again.mod3_digits == bundle.mod3_digits

    def test_manifest_count_mismatch_detected(self, tmp_path):
        cov = tmp_path / "coverings"
        cov.mkdir()
        write_covering_file(
            cov / "d9.txt", 9, [CoveringRow(Congruence(0, 1), 1)]
        )
        manifest = {
            "digits": {"9": {"file": "d9.txt", "congruences": 4}},
            "mod3_digits": sorted(MOD3_DIGITS | {-9, -8, -6, -5, -3, -2, 1, 3, 4, 6, 7}),
        }
        (cov / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="manifest says 4"):
            ingest_tables(tmp_path)

    def test_checksum_mismatch_detected(self, tmp_path):
        cov = tmp_path / "coverings"
        cov.mkdir()
        write_covering_file(
            cov / "d9.txt", 9, [CoveringRow(Congruence(0, 1), 1)]
        )
        manifest = {
            "digits": {"9": {"file": "d9.txt", "sha256": "0" * 64}},
            "mod3_digits": sorted(MOD3_DIGITS | {-9, -8, -6, -5, -3, -2, 1, 3, 4, 6, 7}),
        }
        (cov / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="checksum"):
            ingest_tables(tmp_path)

    def test_bad_manifest_json(self, tmp_path):
        cov = tmp_path / "coverings"
        cov.mkdir()
        (cov / "manifest.json").write_text("{")
        with pytest.raises(BundleError, match="invalid JSON"):
            ingest_tables(tmp_path)


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

    def test_shared_primes_consistent(self, bundle):
        checks = shared_prime_checks(bundle, resolve_limit=64)
        assert checks
        assert all(c.consistent for c in checks)
        by_prime = {c.prime: c for c in checks}
        assert set(by_prime[3].uses) == {(d, 0) for d in MOD3_DIGITS}
        assert sorted(d for d, _ in by_prime[11].uses) == [-9, -2, 9]


class TestRepeatedPrimeTable:
    def test_full_reference_reproduction(self, bundle):
        # resolve every repeated prime through its order and table index,
        # then confirm the digit sets and the residue consistency
        for prime, (digits, rho) in REPEATED_PRIME_DIGITS.items():
            m = multiplicative_order(10, prime)
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
            m = multiplicative_order(10, prime)
            users = [
                d
                for d, rows in bundle.coverings.items()
                if any(
                    row.congruence.modulus == m and row.rho == rho for row in rows
                )
            ]
            assert sorted(users) == sorted(digits), prime
