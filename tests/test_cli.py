import argparse
import hashlib
import json
import re
import shlex
import shutil
import time
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

import digitcover.delicate as delicate_module
from digitcover.arith import DEFAULT_BUDGET, FactorBudget, Factorization
from digitcover.bundle import (
    DATA_ROOT,
    ORDER_PRIMES_FILE,
    RESOLVE_LIMIT,
    default_bundle,
    ingest_tables,
)
from digitcover.cli import build_parser, main
from digitcover.construction import load_construction
from digitcover.cyclotomic import cyclotomic_value

D9_FILE = str(DATA_ROOT / "coverings" / "d9.txt")
D_MINUS_3_FILE = str(DATA_ROOT / "coverings" / "d-3.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tables_asking_for_a_third_order_8_prime(tmp_path) -> str:
    """The shipped tables with d9.txt's row `5 8 2` changed to `5 8 3`."""
    cov = tmp_path / "coverings"
    shutil.copytree(DATA_ROOT / "coverings", cov)
    (cov / "manifest.json").unlink()
    d9 = cov / "d9.txt"
    d9.write_text(d9.read_text().replace("\n5 8 2\n", "\n5 8 3\n"))
    return str(tmp_path)


def tables_without_order_primes(tmp_path) -> str:
    """The shipped tables without order_primes.txt, so that every order-m
    list is computed within the budget."""
    cov = tmp_path / "coverings"
    shutil.copytree(DATA_ROOT / "coverings", cov)
    (cov / "manifest.json").unlink()
    (cov / ORDER_PRIMES_FILE).unlink()
    return str(tmp_path)


class TestCoverCli:
    def test_verify_shipped_d9(self, capsys):
        code, out, _ = run(capsys, "cover", "verify", D9_FILE)
        assert code == 0
        assert "covering: True" in out

    def test_verify_naive_and_fast_routes(self, capsys):
        # the reference scan is no route of cover verify; --w picks the class
        with pytest.raises(SystemExit) as exc:
            main(["cover", "verify", D9_FILE, "--naive"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --naive" in capsys.readouterr().err
        code, out, _ = run(capsys, "cover", "verify", D9_FILE, "--w", "2")
        assert code == 0
        assert "covering: True" in out

    def test_non_covering_exits_1_with_witness(self, tmp_path, capsys):
        path = tmp_path / "half.txt"
        path.write_text("0 2 1\n")
        code, out, _ = run(capsys, "cover", "verify", str(path))
        assert code == 1
        assert "uncovered: 1" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0 2 1 9 9\n")
        code, _, err = run(capsys, "cover", "verify", str(path))
        assert code == 2
        assert "bad.txt:1" in err

    def test_profile_output(self, capsys):
        code, out, _ = run(capsys, "cover", "verify", D9_FILE, "--profile", "--w", "2")
        assert code == 0
        assert "max span" in out
        assert "u=   1" in out

    def test_profile_reports_cells_marked(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "cover", "verify", D9_FILE, "--profile", "--w", "2"
        )
        assert code == 0
        profile = json.loads(out)["profile"]
        assert profile["cells_spanned"] == str(sum(int(c["span"]) for c in profile["classes"]))
        assert profile["cells_marked"] == str(
            sum(int(c["cells_marked"]) for c in profile["classes"])
        )
        code, out, _ = run(capsys, "cover", "verify", D9_FILE, "--profile")
        assert "cells marked: 8 of 8 spanned" in out

    def test_profile_prints_max_span_as_a_string(self, tmp_path, capsys):
        # a span can pass 2^53, where a JSON number loses digits
        path = tmp_path / "wide.txt"
        path.write_text("0 2\n1 1152921504606846976\n")
        code, out, _ = run(capsys, "--format", "json", "cover", "verify", str(path), "--profile")
        payload = json.loads(out)
        assert payload["lcm"] == "1152921504606846976"
        assert payload["profile"]["max_span"] == "1152921504606846976"

    def test_verify_prints_the_normalized_residue_warning(self, tmp_path, capsys):
        path = tmp_path / "wrapped.txt"
        path.write_text("0 2\n3 2\n")
        code, out, err = run(capsys, "cover", "verify", str(path))
        assert code == 0 and "covering: True" in out
        assert err == f"{path}:2: residue 3 normalized to 1 (mod 2)\n"

    def test_profile_counts_splits(self, capsys):
        # d = -3 split 623 nodes when each child was charged its full lcm
        code, out, _ = run(
            capsys, "--format", "json", "cover", "verify", D_MINUS_3_FILE, "--profile"
        )
        assert code == 0
        profile = json.loads(out)["profile"]
        assert 0 < profile["splits"] <= 623
        assert profile["splits"] == sum(c["splits"] for c in profile["classes"])
        code, out, _ = run(capsys, "cover", "verify", D9_FILE, "--profile")
        assert code == 0
        assert "splits: 0" in out.splitlines()
        assert "splits=0" in out

    def test_profile_verdict_matches_plain_verdict(self, tmp_path, capsys):
        # leaves 5 and 6 (mod 12) uncovered; with w = 2 or 3 the class
        # holding 6 comes first, but the witness is the least, 5
        path = tmp_path / "gaps.txt"
        path.write_text("0 4\n3 4\n1 12\n2 12\n9 12\n10 12\n")
        plain = run(capsys, "--format", "json", "cover", "verify", str(path))
        for w in ([], ["--w", "2"], ["--w", "3"], ["--w", "6"]):
            code, out, _ = run(
                capsys, "--format", "json", "cover", "verify", str(path), "--profile", *w
            )
            assert code == plain[0] == 1
            assert json.loads(out)["witness"] == json.loads(plain[1])["witness"] == "5"

    def test_profile_lists_the_classes_of_w(self, capsys):
        # without --w the profile is the single class the verdict refined,
        # even for an lcm above 10**6; the paper's classes are --w 60q
        code, out, _ = run(capsys, "cover", "verify", D_MINUS_3_FILE, "--profile")
        assert code == 0
        assert "profile: w=1," in out
        assert "cells marked: 8620329 of 1486147703040 spanned" in out
        code, out, _ = run(
            capsys, "cover", "verify", D_MINUS_3_FILE, "--w", "1140", "--profile"
        )
        assert code == 0
        assert "max span 14325696 at u in [75, 303, 531, 759, 987]" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cover", "verify", D9_FILE)
        assert code == 0
        payload = json.loads(out)
        assert payload["covering"] is True
        assert payload["lcm"] == "8"

    def test_verify_prime_lcm_above_2_64(self, tmp_path, capsys):
        # lcm_analysis factors the lcm, a prime the residue sweep takes in
        # 32-bit limbs past its top 64 bits
        prime = 18446744073709551629  # the least prime above 2^64
        path = tmp_path / "big.txt"
        path.write_text(f"0 1\n0 {prime}\n")
        code, out, _ = run(capsys, "--format", "json", "cover", "verify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["covering"] is True
        assert payload["lcm"] == payload["max_prime"] == str(prime)

    def test_unfactorable_lcm_still_gets_a_verdict(self, tmp_path, capsys):
        # 2^128 + 1 costs seconds of p - 1 and rho; an incomplete
        # factorization stands in for a budget that runs out
        lcm = 2 ** 128 + 1
        path = tmp_path / "big.txt"
        path.write_text(f"0 1\n0 {lcm}\n")
        stuck = Factorization(n=lcm, factors=[], remainder=lcm)
        with mock.patch("digitcover.covering.factor", return_value=stuck):
            code, out, _ = run(capsys, "cover", "verify", str(path))
            assert code == 0
            assert out.splitlines()[2:] == ["max prime: unresolved", "covering: True"]
            code, out, _ = run(capsys, "--format", "json", "cover", "verify", str(path))
        payload = json.loads(out)
        assert payload["max_prime"] is None and payload["covering"] is True

    @pytest.mark.parametrize("header", ["# digit 1x 2", "# digit", "#digit 1 2"])
    def test_verify_rejects_a_malformed_digit_header(self, tmp_path, capsys, header):
        # a comment whose first word is `digit` is the header or an error,
        # never a plain comment that leaves the digit unset
        path = tmp_path / "header.txt"
        path.write_text(header + "\n0 1\n")
        code, out, err = run(capsys, "--format", "json", "cover", "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:1: expected '# digit <d>', got {header!r}\n"

    @pytest.mark.parametrize("digit", ["99999999999999999999", "0"])
    def test_verify_rejects_a_header_digit_that_is_no_offset(self, tmp_path, capsys, digit):
        # the header's digit is printed as a JSON number, so it must be one
        # of the 18 offsets, checked where the header is read
        path = tmp_path / "header.txt"
        path.write_text(f"# digit {digit}\n0 1\n")
        code, out, err = run(capsys, "--format", "json", "cover", "verify", str(path))
        assert code == 2 and out == ""
        assert err == (
            f"error: {path}:1: digit '{digit}' is not a digit offset (-9..-1, 1..9)\n"
        )

    def test_verify_refuses_a_second_digit_header(self, tmp_path, capsys):
        # a second header is an error, not a new digit for the rows after it
        path = tmp_path / "header.txt"
        path.write_text("# digit 9\n0 2\n# digit 4\n1 2\n")
        code, out, err = run(capsys, "--format", "json", "cover", "verify", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:3: repeated '# digit' header, first on line 1\n"

    def test_unfactorable_lcm_gives_up_quickly(self, tmp_path, capsys):
        # lcm_analysis factors at a small rho budget, so the default one
        # (seconds on 2^128 + 1) is never spent on the largest prime
        path = tmp_path / "big.txt"
        path.write_text(f"0 1\n0 {2 ** 128 + 1}\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "cover", "verify", str(path))
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert out.splitlines()[2:] == ["max prime: unresolved", "covering: True"]

    @pytest.mark.parametrize(
        "line, quoted, length",
        [
            ("# digit " + "x" * 3000, "bad digit 'xxxx", 3000),
            ("0 2 " + "x" * 3000, "bad index 'xxxx", 3000),
            ("0 2" + " 1" * 1500, "expected 'a m [rho]', got '0 2 1 1", 3003),
        ],
        ids=["header", "field", "fields"],
    )
    def test_verify_quotes_a_prefix_of_a_malformed_line(
        self, tmp_path, capsys, line, quoted, length
    ):
        path = tmp_path / "hostile.txt"
        path.write_text(line + "\n0 1\n")
        code, out, err = run(capsys, "cover", "verify", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:1: {quoted}" in err
        assert err.endswith(f"... ({length} characters)\n") and len(err) < 200

    def test_verify_names_a_field_past_the_int_string_limit(self, tmp_path, capsys):
        path = tmp_path / "long.txt"
        path.write_text("0 1\n0 " + "7" * 5000 + "\n")
        code, out, err = run(capsys, "cover", "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}:2: modulus of 5000 digits exceeds Python's ")
        assert "int-string limit" in err and len(err) < 200 and "7" * 50 not in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 -" + "7" * 3000, "modulus '-7777"),
            ("0 2 -" + "7" * 3000, "index '-7777"),
        ],
        ids=["modulus", "index"],
    )
    def test_verify_quotes_a_hostile_number(self, tmp_path, capsys, line, message):
        path = tmp_path / "hostile.txt"
        path.write_text(line + "\n0 1\n")
        code, out, err = run(capsys, "cover", "verify", str(path))
        assert code == 2 and out == ""
        assert f"{path}:1: {message}" in err and "(3001 characters)" in err
        assert len(err) < 300


class TestConstructCli:
    def test_assemble_and_certify_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "mini.txt"
        code, out, _ = run(
            capsys,
            "construct", "assemble",
            "--digits", "9,2,5,8,-1,-4,-7",
            "--out", str(out_file),
        )
        assert code == 0
        assert "A=33333333" in out
        assert "B=8523682" in out

        code, out, _ = run(
            capsys,
            "construct", "certify",
            "--construction", str(out_file),
            "--n", "8523682", "--d", "9", "--k", "3",
        )
        assert code == 0
        assert "101" in out and "certificate valid: True" in out

    @pytest.mark.parametrize(
        "line, message",
        [
            ("7" * 3000, "expected 'p a m d rho', got '7777"),
            ("7 0 -" + "7" * 3000 + " 9 1", "modulus '-7777"),
        ],
        ids=["line", "modulus"],
    )
    def test_certify_quotes_a_hostile_line(self, tmp_path, capsys, line, message):
        path = tmp_path / "hostile.txt"
        path.write_text(line + "\n")
        argv = ["--construction", str(path), "--n", "1", "--d", "9", "--k", "1"]
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert code == 2 and out == ""
        assert f"{path}:1: {message}" in err and "characters)" in err
        assert len(err) < 300

    @pytest.mark.parametrize(
        "edit, message",
        [
            (("11 0 2 9 1\n", "11 0 2 9 -3\n"), "9: rho '-3' must be >= 1"),
            (("A=", "A=12345\nA=", 1), "2: repeated 'A=' header, first on line 1"),
            (("A=33333333", "A=12345"), "1: stored A=12345 disagrees with recomputed 33333333"),
            (("B=8523682", "B=8523683"), "2: stored B=8523683 disagrees with recomputed 8523682"),
        ],
        ids=["rho", "A", "stored-A", "stored-B"],
    )
    def test_certify_refuses_an_edited_assembly(self, tmp_path, capsys, edit, message):
        # a negative index, a second A= line and a stored value that the
        # rows do not give are errors, not data, named by their line
        path = tmp_path / "mini.txt"
        argv = ["--digits", "9,2,5,8,-1,-4,-7", "--out", str(path)]
        assert run(capsys, "construct", "assemble", *argv)[0] == 0
        path.write_text(path.read_text().replace(*edit))
        argv = ["--construction", str(path), "--n", "8523682", "--d", "9", "--k", "3"]
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {path}:{message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("A=1\nB=2\n", "nothing to cover: empty digit set"),
            ("11 0 2 10 1\n", "digit offset must be in [-9..-1, 1..9], got 10"),
        ],
        ids=["empty", "digit"],
    )
    def test_certify_names_the_file_that_fails_to_assemble(
        self, tmp_path, capsys, text, message
    ):
        path = tmp_path / "c.txt"
        path.write_text(text)
        argv = ["--construction", str(path), "--n", "1", "--d", "9", "--k", "1"]
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {path}: {message}\n"

    def test_certify_checks_a_modulus_past_the_primes_limit(self, tmp_path, capsys):
        # 400001 does not have order 200000, and no Phi_200000(10) is computed
        path = tmp_path / "c.txt"
        path.write_text("400001 0 200000 9 1\n")
        argv = ["--construction", str(path), "--n", "1", "--d", "9", "--k", "1"]
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: digit 9: ") and err.endswith(
            "needs a divisor of order 200000: '400001' does not divide "
            "Phi_200000(10) freed of the primes of 200000\n"
        )

    def test_certify_refuses_a_modulus_from_ten_to_the_ten(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("# header\n7 0 10000000000 9 1\n")
        argv = ["--construction", str(path), "--n", "1", "--d", "9", "--k", "1"]
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err == f"error: {path}:2: modulus '10000000000' must be below 10000000000\n"

    @pytest.mark.parametrize(
        "line, message",
        [("x 0 7 9 1", "bad p 'x'"), ("7 0 7 9 y", "bad rho 'y'"), ("A=x", "bad A 'x'")],
        ids=["p", "rho", "A"],
    )
    def test_certify_names_the_line_of_a_bad_integer(self, tmp_path, capsys, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + line + "\n")
        argv = ["--construction", str(path), "--n", "1", "--d", "9", "--k", "1"]
        code, out, err = run(capsys, "construct", "certify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {path}:2: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["construct", "certify", "--construction", "c.txt",
              "--n", "x", "--d", "9", "--k", "1"], "--n: bad integer 'x'"),
            (["construct", "certify", "--construction", "c.txt",
              "--n", "1", "--d", "9", "--k", "1.5"], "--k: bad integer '1.5'"),
            (["construct", "assemble", "--digits", "9,x"], "--digits: bad integer 'x'"),
            (["delicate", "check", "x"], "n: bad integer 'x'"),
            (["delicate", "stable", "x"], "n: bad integer 'x'"),
            (["delicate", "scan", "--bound", "1e6"], "--bound: bad integer '1e6'"),
            (["graham", "verify", "--a", "x", "--b", "1", "--primes", "2"],
             "--a: bad integer 'x'"),
            (["graham", "reduce", "--a", "1", "--b", "1", "--primes", "2,y"],
             "--primes: bad integer 'y'"),
            (["order", "primes", "x"], "m: bad integer 'x'"),
        ],
        ids=["n", "k", "digits", "check", "stable", "bound", "a", "primes", "m"],
    )
    def test_numeric_argument_errors_name_the_argument(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_certify_rejects_off_progression(self, tmp_path, capsys):
        out_file = tmp_path / "mini.txt"
        run(capsys, "construct", "assemble", "--digits", "9", "--out", str(out_file))
        code, _, err = run(
            capsys,
            "construct", "certify",
            "--construction", str(out_file),
            "--n", "12345", "--d", "9", "--k", "0",
        )
        assert code == 2
        assert "not an element" in err

    def test_certify_refuses_k_beyond_the_printable_digits(self, tmp_path, capsys):
        out_file = tmp_path / "mini.txt"
        run(capsys, "construct", "assemble", "--digits", "9", "--out", str(out_file))
        argv = ["construct", "certify", "--construction", str(out_file),
                "--n", "8523682", "--d", "9"]
        code, out, _ = run(capsys, *argv, "--k", "4299")
        assert code == 0
        assert out.splitlines()[1:] == [
            "divisible by 101 via k = 3 (mod 4)", "certificate valid: True"
        ]
        with mock.patch("digitcover.cli.substitution_divisor") as built:
            code, out, err = run(capsys, *argv, "--k", "4400")
        assert code == 2 and out == ""
        assert err == (
            "error: exponent k = 4400 must be below 4300, the number of digits "
            "Python prints (sys.get_int_max_str_digits())\n"
        )
        built.assert_not_called()

    def test_unresolvable_digit_is_data_error(self, capsys):
        code, _, err = run(capsys, "construct", "assemble", "--digits", "-3")
        assert code == 2
        assert "cannot resolve" in err

    def test_unresolvable_digit_stops_at_the_first_unresolved_row(self, capsys):
        start = time.perf_counter()
        code, _, err = run(capsys, "construct", "assemble", "--digits", "-3")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert "cannot resolve the prime for 25 (mod 210)" in err

    def test_index_past_a_complete_list_names_the_count(self, tmp_path, capsys):
        # Phi_8(10) = 10001 = 73 * 137, so d9.txt's `5 8 3` asks for a third
        # order-8 prime that does not exist
        code, _, err = run(
            capsys, "construct", "assemble", "--digits", "9", "--tables",
            tables_asking_for_a_third_order_8_prime(tmp_path),
        )
        assert code == 2
        assert err == (
            "error: digit 9: cannot resolve the prime for 5 (mod 8) "
            "(index 3); only 2 primes have order 8\n"
        )

    @pytest.mark.parametrize(
        "tables, budget, digit, m, status, reason, why",
        [
            (tables_asking_for_a_third_order_8_prime, (), "9", 8, "short", None,
             "only 2 primes have order 8"),
            # without order_primes.txt and p - 1, Phi_40(10) keeps a 16-digit
            # cofactor, so the second order-40 prime of d6.txt's `8 40 2` is unknown
            (tables_without_order_primes, ("--rho-iterations", "0"), "6", 40, "unresolved",
             "p-1 spent 0 multiplications on a 16-digit cofactor",
             "the order-40 prime list is incomplete "
             "(p-1 spent 0 multiplications on a 16-digit cofactor)"),
        ],
        ids=["short", "unresolved"],
    )
    def test_assemble_gives_the_reports_verdict(
        self, tmp_path, capsys, tables, budget, digit, m, status, reason, why
    ):
        tables = tables(tmp_path)
        _, out, _ = run(capsys, "--format", "json", *budget, "report", "--tables", tables)
        check = next(c for c in json.loads(out)["order_counts"] if c["m"] == m)
        assert (check["status"], check["reason"]) == (status, reason)
        code, _, err = run(
            capsys, *budget, "construct", "assemble", "--digits", digit, "--tables", tables
        )
        assert code == 2 and err.endswith(f"; {why}\n")

    def test_row_without_index_is_data_error(self, tmp_path, capsys):
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        (cov / "manifest.json").unlink()
        (cov / "d9.txt").write_text("# digit 9\n0 2 1\n3 4\n1 8 1\n5 8 2\n")
        code, _, err = run(
            capsys, "construct", "assemble", "--digits", "9", "--tables", str(tmp_path)
        )
        assert code == 2
        assert "digit 9: congruence 3 (mod 4) has no prime index" in err

    def test_unknown_digit_is_data_error(self, capsys):
        code, _, err = run(capsys, "construct", "assemble", "--digits", "0")
        assert code == 2
        assert "no covering table for digit 0" in err

    def test_shipped_progression_is_pinned(self, capsys):
        # the 8-digit progression of the shipped tables, byte for byte
        code, out, _ = run(
            capsys, "--format", "json", "construct", "assemble",
            "--digits", "9,6,2,5,8,-1,-4,-7",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["A"]) == 107
        assert payload["B"] == (
            "219861401505648497895856082652372726397494890076768305244712173253"
            "12329227055223284206920175063137115323981"
        )
        assert len(payload["constraints"]) == 24
        assert payload["probable_primes"] == []
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a7e11ae17b77e749ca41eb026496d09fd1febcc00a67c4032b7ae05984b73e31"
        )

    def test_assembled_primes_are_the_report_rows(self, tmp_path, capsys):
        out_file = tmp_path / "mini.txt"
        digits = (9, 2, 5, 8, -1, -4, -7)
        code, _, _ = run(
            capsys, "construct", "assemble",
            "--digits", ",".join(map(str, digits)), "--out", str(out_file),
        )
        assert code == 0
        construction = load_construction(out_file)
        bundle = default_bundle()
        for d in digits:
            assigned = [
                (e.congruence, e.rho, e.prime) for e in construction.digits[d].entries
            ]
            reported = [
                (row.congruence, row.rho, prime)
                for row, prime in bundle.resolved_rows(d, RESOLVE_LIMIT)
            ]
            assert assigned == reported, d


class TestDelicateCli:
    def test_check_delicate_prime(self, capsys):
        code, out, _ = run(capsys, "delicate", "check", "294001")
        assert code == 0
        assert "digitally delicate: True" in out

    def test_check_widely_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "delicate", "check", "294001", "--widely", "1")
        assert code == 1
        assert "10294001" in out

    def test_check_composite_input_is_error(self, capsys):
        code, out, err = run(capsys, "delicate", "check", "294002")
        assert code == 2 and out == ""
        assert err == "error: 294002 is not prime\n"

    def test_check_non_delicate_prints_witness(self, capsys):
        code, out, _ = run(capsys, "delicate", "check", "101")
        assert code == 1
        assert "witness" in out

    def test_scan(self, capsys):
        code, out, _ = run(capsys, "delicate", "scan", "--bound", "300000")
        assert code == 0
        assert out.strip() == "294001"

    def test_scan_none(self, capsys):
        code, out, _ = run(capsys, "delicate", "scan", "--bound", "1000")
        assert code == 0
        assert out.strip() == "none"

    def test_stable(self, capsys):
        code, out, _ = run(capsys, "delicate", "stable", "212159")
        assert code == 0
        assert "True" in out

    def test_stable_false_exits_1(self, capsys):
        code, out, _ = run(capsys, "delicate", "stable", "9")
        assert code == 1
        assert "witness" in out

    def test_witness_is_the_first_failing_substitution(self, capsys):
        code, out, _ = run(capsys, "delicate", "check", "101")
        assert "witness: position 0, 1 -> 3 gives 103" in out
        code, out, _ = run(capsys, "--format", "json", "delicate", "stable", "121")
        assert code == 1 and json.loads(out)["witness"] == "127"

    def test_stable_rejects_a_prime(self, capsys):
        code, _, err = run(capsys, "delicate", "stable", "13")
        assert code == 2
        assert "13 is not composite" in err


class TestDelicateWindowCli:
    def test_one_walk(self, capsys):
        calls = []
        is_prime = delicate_module.is_prime
        with mock.patch.object(
            delicate_module, "is_prime", lambda n: calls.append(n) or is_prime(n)
        ):
            code, out, _ = run(capsys, "delicate", "check", "294001", "--widely", "1")
        assert code == 1
        assert out.splitlines()[-1] == "leading-zero window fails: 10294001 is prime"
        assert len(calls) <= 64
        assert len(calls) == len(set(calls))

    def test_window_passed(self, capsys):
        code, out, _ = run(capsys, "delicate", "check", "604171", "--widely", "1")
        assert code == 0
        assert out.splitlines() == [
            "digitally delicate: True",
            "no prime under any substitution through 2 leading zeros (not a proof)",
        ]
        code, out, _ = run(
            capsys, "--format", "json", "delicate", "check", "604171", "--widely", "1"
        )
        assert json.loads(out) == {
            "n": "604171", "digitally_delicate": True, "window": 1, "window_passed": True,
        }

    @pytest.mark.parametrize("n", ["101", "294001"])
    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_is_usage_error(self, capsys, n, window):
        # rejected before any substitution walk, delicate or not
        with mock.patch.object(delicate_module, "is_prime") as is_prime:
            code, out, err = run(capsys, "delicate", "check", n, "--widely", window)
        assert not is_prime.called
        assert code == 2
        assert out == ""
        assert "window must be >= 1" in err

    def test_written_digit_witness_wins_over_the_window(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "delicate", "check", "101", "--widely", "3"
        )
        assert code == 1
        assert json.loads(out) == {
            "n": "101", "digitally_delicate": False, "witness": "103",
        }


class TestTablesWarnings:
    @pytest.fixture
    def tables(self, tmp_path):
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        (cov / "manifest.json").unlink()
        (cov / "d9.txt").write_text("# digit 9\n0 2 1\n7 4 1\n1 8 1\n5 8 2\n")
        return str(tmp_path)

    @pytest.mark.parametrize(
        "argv",
        [
            ("report", "--resolve-limit", "8"),
            ("report", "--resolve-limit", "0"),
            ("construct", "assemble", "--digits", "9"),
        ],
    )
    def test_warnings_go_to_stderr(self, capsys, tables, argv):
        code, out, err = run(capsys, *argv)
        code_t, out_t, err_t = run(capsys, *argv, "--tables", tables)
        assert err == ""
        assert err_t.splitlines() == [
            f"{tables}/coverings/d9.txt:3: residue 7 normalized to 3 (mod 4)"
        ]
        assert code_t == code
        seconds = re.compile(r"\d+\.\d\ds")  # the report's timings
        assert seconds.sub("", out_t) == seconds.sub("", out)


class TestGrahamCli:
    PRIMES = "2,3,5,7,11,17,19,23,31,41,47,61,107,181,541,1103,2521"

    def test_verify(self, capsys):
        code, out, _ = run(
            capsys,
            "graham", "verify",
            "--a", "106276436867", "--b", "35256392432", "--primes", self.PRIMES,
        )
        assert code == 0
        assert "N = 1821895895860356790898731230" in out
        assert "terms u(2) to u(49) exceed every listed prime: True" in out

    def test_verify_zero_terms_fail(self, capsys):
        # every term is 0, so every index is "covered" yet nothing is composite
        argv = ("graham", "verify", "--a", "0", "--b", "0", "--primes", "2,3")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "every index divisible by a listed prime: True" in out
        assert "terms u(2) to u(49) exceed every listed prime: False" in out
        code, out, _ = run(capsys, "--format", "json", *argv)
        payload = json.loads(out)
        assert code == 1
        assert payload["covered"] is True and payload["terms_exceed_primes"] is False

    def test_verify_failure(self, capsys):
        code, out, _ = run(
            capsys, "graham", "verify", "--a", "1", "--b", "1", "--primes", "2"
        )
        assert code == 1
        assert "uncovered index 0" in out

    def test_json_prints_the_period_lcm_and_index_as_strings(self, capsys):
        argv = ("graham", "verify", "--a", "106276436867", "--b", "35256392432")
        code, out, _ = run(capsys, "--format", "json", *argv, "--primes", self.PRIMES)
        payload = json.loads(out)
        assert code == 0 and isinstance(payload["period_lcm"], str)
        assert payload["uncovered_index"] is None
        code, out, _ = run(capsys, "--format", "json", *argv, "--primes", "2,3")
        payload = json.loads(out)
        assert code == 1 and isinstance(payload["uncovered_index"], str)

    def test_verify_huge_period_lcm(self, capsys):
        # period lcm 16,843,844,304: decided without an array that large
        primes = "10007,10009,10037,10039,10061"
        start = time.perf_counter()
        code, out, _ = run(
            capsys, "--format", "json",
            "graham", "verify", "--a", "1", "--b", "3", "--primes", primes,
        )
        assert time.perf_counter() - start < 1
        payload = json.loads(out)
        assert code == 1 and payload["period_lcm"] == "16843844304"
        assert payload["covered"] is False and payload["uncovered_index"] == "0"

    def test_verify_beyond_verifier_limit_exits_2(self, capsys):
        code, _, err = run(
            capsys, "graham", "verify", "--a", "0", "--b", "1", "--primes", "132059,133499"
        )
        assert code == 2
        assert err.startswith("error: ") and "no prime factor" in err

    def test_verify_prime_above_period_limit_exits_2(self, capsys):
        start = time.perf_counter()
        code, _, err = run(
            capsys, "graham", "verify", "--a", "1", "--b", "3", "--primes", "2,1000000007"
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err.startswith("error: ") and "10000000" in err

    def test_reduce(self, capsys):
        code, out, _ = run(
            capsys,
            "graham", "reduce",
            "--a", "106276436867", "--b", "35256392432", "--primes", self.PRIMES,
        )
        assert code == 0
        assert "gcd(a, N) = 31" in out
        assert "3428272157 (mod 58770835350334090028991330)" in out
        assert "17628196216 (mod 910947947930178395449365615)" in out


class TestOrderCli:
    def test_primes(self, capsys):
        code, out, _ = run(capsys, "order", "primes", "8")
        assert code == 0
        assert "73, 137" in out

    def test_primes_labels_probable_primes(self, capsys):
        big = "201763709900322803748657942361"  # 30 digits, above 3.3e24
        code, out, _ = run(capsys, "order", "primes", "41")
        assert code == 0
        assert f"83, 1231, 538987, {big} (probable-prime)" in out
        code, out, _ = run(capsys, "--format", "json", "order", "primes", "41")
        payload = json.loads(out)
        assert payload["primes"][-1] == big and payload["probable"] == [big]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_largest_table_modulus_answers(self, capsys, fmt):
        # Phi_75240(10) has 17,281 digits, past Python's int-to-string limit
        start = time.perf_counter()
        code, out, err = run(capsys, "--format", fmt, "order", "primes", "75240")
        assert time.perf_counter() - start < 5
        assert code == 0 and err == ""
        reason = "57385-bit cofactor above the split limit, primality not tested"
        if fmt == "text":
            assert f"complete: False ({reason})" in out
            return
        payload = json.loads(out)
        assert payload["primes"] == ["451441"] and payload["reason"] == reason
        remainder = cyclotomic_value(75240, 10) // 451441
        digits = payload["remainder_digits"]
        assert 10 ** (digits - 1) <= remainder < 10 ** digits

    def test_validate(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("6: 7, 13\n")
        code, out, _ = run(capsys, "order", "validate", str(good))
        assert code == 0

        bad = tmp_path / "bad.txt"
        bad.write_text("2: 11, 121*2\n")
        code, out, _ = run(capsys, "order", "validate", str(bad))
        assert code == 1
        assert "121" in out

    @pytest.mark.parametrize("text", ["", "# m: entries\n# none yet\n"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_validate_refuses_a_table_without_rows(self, tmp_path, capsys, text, fmt):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        code, out, err = run(capsys, "--format", fmt, "order", "validate", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path}: no order-table rows to validate\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_validate_names_an_entry_past_the_int_string_limit(self, tmp_path, capsys, fmt):
        path = tmp_path / "long.txt"
        path.write_text("3: " + "7" * 5000 + "\n")
        code, out, err = run(capsys, "--format", fmt, "order", "validate", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path}:1: entry of 5000 digits exceeds Python's ")
        assert len(err) < 200 and "7" * 50 not in err

    @pytest.mark.parametrize(
        "line, quoted",
        [
            ("3: 7, " + "x" * 3000, "bad entry 'xxxx"),
            ("x" * 3000 + ": 7", "bad modulus 'xxxx"),
            ("x" * 3000, "expected 'm: entries', got 'xxxx"),
        ],
        ids=["entry", "modulus", "line"],
    )
    def test_validate_quotes_a_prefix_of_a_malformed_token(self, tmp_path, capsys, line, quoted):
        path = tmp_path / "hostile.txt"
        path.write_text(line + "\n")
        code, out, err = run(capsys, "order", "validate", str(path))
        assert code == 2
        assert out == ""
        assert f"{path}:1: {quoted}" in err
        assert err.endswith("... (3000 characters)\n") and len(err) < 200

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_validate_quotes_a_prefix_of_a_failing_entry(self, tmp_path, capsys, fmt):
        path = tmp_path / "long.txt"
        path.write_text("3: " + "7" * 4000 + "\n")
        code, out, _ = run(capsys, "--format", fmt, "order", "validate", str(path))
        assert code == 1
        assert "... (4000 characters)" in out and len(out) < 300

    @pytest.mark.parametrize(
        "m, shown",
        [("0", "'0'"), ("-3", "'-3'"), ("-" + "7" * 3000, f"'-{'7' * 39}'... (3001 characters)")],
        ids=["0", "-3", "hostile"],
    )
    def test_validate_names_the_line_of_a_nonpositive_modulus(self, tmp_path, capsys, m, shown):
        path = tmp_path / "orders.txt"
        path.write_text(f"6: 7, 13\n{m}: 7\n")
        code, out, err = run(capsys, "order", "validate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}:2: modulus {shown} must be positive\n" and len(err) < 300

    @pytest.mark.parametrize("command", ["primes", "validate"])
    def test_modulus_above_the_limit_is_refused(self, tmp_path, capsys, command):
        # `order primes` needs 10**m, gigabytes for a modulus of a few more
        # digits; `order validate` needs the primes of m, which trial
        # division alone finds below 10**10
        path = tmp_path / "orders.txt"
        path.write_text("10000000000: 7\n")
        arg = "1000001" if command == "primes" else str(path)
        start = time.perf_counter()
        code, out, err = run(capsys, "order", command, arg)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        if command == "primes":
            assert err.startswith("error: m must be <= 100000, got '1000")
        else:
            assert err == f"error: {path}:1: modulus '10000000000' must be below 10000000000\n"

    def test_validate_checks_a_modulus_past_the_primes_limit(self, tmp_path, capsys):
        # membership needs no Phi_m(10): 2800001 has order 200000, 7 has order 6
        path = tmp_path / "orders.txt"
        path.write_text("200000: 2800001\n1000000: 7\n")
        start = time.perf_counter()
        code, out, _ = run(capsys, "order", "validate", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out.splitlines() == [
            "rows: 2",
            "valid: False",
            "  m=1000000: entry '7' does not divide Phi_1000000(10) freed of the primes of 1000000",
        ]

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_primes_of_a_nonpositive_order_is_usage_error(self, capsys, m):
        code, out, err = run(capsys, "order", "primes", m)
        assert code == 2
        assert out == ""
        assert err == "error: m must be >= 1\n"

    def test_validate_prints_row_violations_in_ascending_m(self, tmp_path, capsys):
        path = tmp_path / "mixed.txt"
        path.write_text("6: 7, 13\n3: 37, 7\n30: 50851, 520801\n11: 11111111111*2\n")
        violations = [
            "m=3: entry '7' does not divide Phi_3(10) freed of the primes of 3",
            "m=30: entry '520801' shares a factor with an earlier entry",
        ]
        code, out, _ = run(capsys, "order", "validate", str(path))
        assert code == 1
        assert out.splitlines() == ["rows: 4", "valid: False"] + [f"  {v}" for v in violations]
        code, out, _ = run(capsys, "--format", "json", "order", "validate", str(path))
        assert code == 1
        assert json.loads(out) == {
            "file": str(path), "rows": 4, "valid": False, "violations": violations
        }

    def test_counts(self, capsys):
        code, out, _ = run(capsys, "report", "--resolve-limit", "13")
        assert code == 0
        assert not any(line.startswith(("m=", "order counts")) for line in out.splitlines())
        code, out, _ = run(capsys, "--format", "json", "report", "--resolve-limit", "13")
        counts = json.loads(out)["order_counts"]
        assert [c["m"] for c in counts] == list(range(1, 14))
        assert {c["status"] for c in counts} == {"enough"}

    def test_counts_with_no_modulus_in_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "report", "--resolve-limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: resolve_limit must be >= 0, got -1\n"
        code, out, _ = run(capsys, "--format", "json", "report", "--resolve-limit", "1")
        assert code == 0
        assert json.loads(out)["order_counts"] == [
            {"m": 1, "needed": 1, "found": 1, "status": "enough", "reason": None}
        ]

    @pytest.fixture
    def needs_two_of_order_3(self, tmp_path):
        """The shipped tables with a row `1 3 2` added to d9.txt: m = 3 then
        needs 2 primes, and only 37 exists.  The shipped m = 69 needs 3,
        and 10k rho iterations find 1, with the factorization incomplete."""
        cov = tmp_path / "coverings"
        shutil.copytree(DATA_ROOT / "coverings", cov)
        (cov / "manifest.json").unlink()
        with open(cov / "d9.txt", "a") as f:
            f.write("1 3 2\n")
        return ["--rho-iterations", "10000", "report", "--resolve-limit", "70",
                "--tables", str(tmp_path)]

    def test_counts_incomplete_row_is_unresolved(self, needs_two_of_order_3, capsys):
        argv = needs_two_of_order_3
        code, out, _ = run(capsys, *argv)
        assert code == 1
        lines = out.splitlines()
        assert "m=3: rows need 2 primes of order 3, exactly 1 exists" in lines
        assert [line for line in lines if line.startswith("order counts unresolved")] == [
            next(line for line in lines if line.startswith("order counts unresolved: m=69 "))
        ]
        assert "; overall FAIL; " in lines[-1]
        code, out, _ = run(capsys, "--format", "json", *argv)
        payload = json.loads(out)
        status = {c["m"]: c["status"] for c in payload["order_counts"]}
        assert status.pop(3) == "short" and status.pop(69) == "unresolved"
        assert len(status) == 60 and set(status.values()) == {"enough"}
        assert payload["ok"] is False

    def test_primes_prints_exact_prefix_and_reason(self, capsys):
        argv = ["--rho-iterations", "10000", "order", "primes", "69"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "complete: False (p-1 spent " in out
        assert "every order-69 prime below 1000087 is listed" in out
        assert f"scan candidates: {(10 ** 6 - 2) // 138}; p-1 multiplications: " in out
        code, out, _ = run(capsys, "--format", "json", *argv)
        payload = json.loads(out)
        assert payload["primes"] == ["277"] and payload["exact_below"] == 1000087
        assert payload["reason"].endswith("multiplications on a 42-digit cofactor")
        assert payload["scan_candidates"] == (10 ** 6 - 2) // 138
        assert payload["scan_survivors"] >= 1
        assert payload["reason"] == (
            f"p-1 spent {payload['pm1_multiplications']} multiplications on a 42-digit cofactor"
        )

    def test_primes_counts_pm1_multiplications(self, capsys):
        # Phi_37(10) leaves 2028119 * 247629013 * 2212394296770203368013:
        # two splits, found within the default budget's 10**4 first pass
        code, out, _ = run(capsys, "order", "primes", "37")
        assert code == 0
        assert out.splitlines()[-1] == "scan candidates: 13513; p-1 multiplications: 6911"
        code, out, _ = run(capsys, "--format", "json", "order", "primes", "37")
        assert json.loads(out)["pm1_multiplications"] == 6911

    def test_counts_unresolved_row_shows_reason(self, needs_two_of_order_3, capsys):
        argv = needs_two_of_order_3
        code, out, _ = run(capsys, *argv)
        line = next(line for line in out.splitlines() if line.startswith("order counts"))
        assert line.startswith("order counts unresolved: m=69 needs 3, 1 found (p-1 spent ")
        code, out, _ = run(capsys, "--format", "json", *argv)
        counts = {c["m"]: c for c in json.loads(out)["order_counts"]}
        assert counts[3]["reason"] is None
        assert counts[69]["reason"].startswith("p-1 spent ")
        assert (counts[69]["needed"], counts[69]["found"]) == (3, 1)


class TestReportCli:
    def test_report_ok(self, capsys):
        code, out, _ = run(capsys, "report", "--resolve-limit", "8")
        assert code == 0
        assert "overall OK" in out

    def test_report_names_unchecked_assignments(self, capsys):
        code, out, _ = run(capsys, "report")
        assert code == 0
        closing = out.splitlines()[-1]
        assert closing.endswith(
            "; overall OK; 2477 of 2658 prime assignments not checked (resolve limit 64)"
        )

    def test_report_fails_a_row_past_a_complete_list(self, tmp_path, capsys):
        tables = tables_asking_for_a_third_order_8_prime(tmp_path)
        code, out, _ = run(capsys, "report", "--tables", tables)
        assert code == 1
        lines = out.splitlines()
        assert lines[-2] == "m=8: rows need 3 primes of order 8, exactly 2 exist"
        assert "; overall FAIL; 2478 of 2658 prime assignments not checked" in lines[-1]
        code, out, _ = run(capsys, "--format", "json", "report", "--tables", tables)
        payload = json.loads(out)
        short = [c for c in payload["order_counts"] if c["status"] != "enough"]
        assert short == [
            {"m": 8, "needed": 3, "found": 2, "status": "short", "reason": None}
        ]
        assert payload["ok"] is False

    def test_shipped_order_counts_are_all_enough(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "report")
        assert code == 0
        counts = json.loads(out)["order_counts"]
        assert len(counts) == 57 and {c["status"] for c in counts} == {"enough"}
        assert all(c["reason"] is None for c in counts)  # every list is complete

    def test_report_json(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "report", "--resolve-limit", "8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["digits"]) == 18
        d3 = next(r for r in payload["digits"] if r["digit"] == -3)
        assert d3["lcm"] == "1486147703040"
        assert d3["congruences"] == 739

    def test_report_honours_rho_iterations(self, capsys, tmp_path):
        tables = tables_without_order_primes(tmp_path)
        resolved = []
        for budget in ([], ["--rho-iterations", "0"]):
            code, out, _ = run(
                capsys, "--format", "json", *budget, "report", "--tables", tables
            )
            assert code == 0
            digits = json.loads(out)["digits"]
            resolved.append(sum(r["resolved_assignments"] for r in digits))
        # without p - 1, m = 60 still completes: the Aurifeuillian gcd
        # splits its 15-digit cofactor into 4188901 and 39526741
        assert resolved == [181, 159]
        # the count check is per modulus: m = 63's list is incomplete, yet
        # holds the 3 primes its rows index, all below its exact bound
        # 1,000,063, so those rows resolve
        counts = {c["m"]: c for c in json.loads(out)["order_counts"]}
        assert counts[63]["status"] == "enough"
        assert counts[63]["reason"].startswith("p-1 spent 0 multiplications")
        assert counts[64]["status"] == "unresolved"
        bundle = replace(ingest_tables(tables), budget=FactorBudget(rho_iterations=0))
        rows = bundle.resolved_rows(1)
        assert [(row.rho, prime) for row, prime in rows if row.congruence.modulus == 63] == [
            (1, 10837), (2, 23311), (3, 45613)
        ]

    def test_shipped_order_primes_spend_no_budget(self, capsys):
        # proving a shipped order-m list spends no budget, so every row up to
        # m = 64 resolves, and every count is enough, at --rho-iterations 0
        code, out, _ = run(capsys, "--format", "json", "--rho-iterations", "0", "report")
        assert code == 0
        payload = json.loads(out)
        assert sum(r["resolved_assignments"] for r in payload["digits"]) == 181
        assert {c["status"] for c in payload["order_counts"]} == {"enough"}

    def test_order_row_failing_its_proof_exits_2(self, capsys, tmp_path):
        tables = tables_without_order_primes(tmp_path)
        order_file = Path(tables) / "coverings" / ORDER_PRIMES_FILE
        order_file.write_text("8: 73, 137, 1000001\n")
        code, out, err = run(capsys, "report", "--tables", tables)
        assert code == 2 and out == ""
        assert err == (
            f"error: {order_file}: m=8: entry '1000001' does not divide "
            "Phi_8(10) freed of the primes of 8\n"
        )

    @pytest.mark.parametrize("limit", [[], ["--resolve-limit", "8"]])
    def test_every_order_row_is_proved_whatever_the_limit(self, capsys, tmp_path, limit):
        # m = 60 lies above resolve limit 8, and its row is proved all the same
        tables = tables_without_order_primes(tmp_path)
        order_file = Path(tables) / "coverings" / ORDER_PRIMES_FILE
        shipped = (DATA_ROOT / "coverings" / ORDER_PRIMES_FILE).read_text()
        order_file.write_text(re.sub(r"(?m)^60:.*$", "60: 61", shipped))
        code, out, err = run(capsys, "report", "--tables", tables, *limit)
        assert code == 2 and out == ""
        assert err == (
            f"error: {order_file}: m=60: the entries leave a 48-bit cofactor, "
            "so the list is incomplete\n"
        )

    def test_order_row_with_a_nonpositive_modulus_exits_2(self, capsys, tmp_path):
        tables = tables_without_order_primes(tmp_path)
        order_file = Path(tables) / "coverings" / ORDER_PRIMES_FILE
        order_file.write_text("8: 73, 137\n0: 7\n")
        code, out, err = run(capsys, "report", "--tables", tables)
        assert code == 2 and out == ""
        assert err == f"error: {order_file}:2: modulus '0' must be positive\n"

    def test_shipped_order_primes_validate(self, capsys):
        shipped = DATA_ROOT / "coverings" / ORDER_PRIMES_FILE
        code, out, _ = run(capsys, "order", "validate", str(shipped))
        assert code == 0
        assert out.splitlines() == ["rows: 57", "valid: True"]

    @pytest.mark.parametrize(
        "argv", [["report"], ["order", "primes", "69"], ["order", "primes", "8"]]
    )
    def test_negative_rho_iterations_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "--rho-iterations", "-1", *argv)
        assert code == 2
        assert out == ""
        assert "rho_iterations must be >= 0, got -1" in err

    def test_missing_tables_dir_is_error(self, capsys):
        code, _, err = run(capsys, "report", "--tables", "/nonexistent-path")
        assert code == 2


def test_parser_defaults_are_the_library_constants():
    args = build_parser().parse_args(["report"])
    assert args.resolve_limit == RESOLVE_LIMIT
    assert args.rho_iterations == DEFAULT_BUDGET.rho_iterations


def test_readme_cli_block_matches_the_parser():
    # every `digitcover ...` line of README's CLI block parses (brackets mark
    # optional arguments), and every (command, subcommand) of the parser
    # appears there, so a deleted or added subcommand cannot leave it stale
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n")[1]
    parser = build_parser()
    shown = set()
    for line in block.splitlines():
        argv = shlex.split(line.split("#", 1)[0].replace("[", "").replace("]", ""))
        assert argv[0] == "digitcover", line
        args = parser.parse_args(argv[1:])
        shown.add((args.command, getattr(args, "subcommand", None)))

    def subcommands(p):
        (action,) = [a for a in p._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    pairs = set()
    for command, sub in subcommands(parser).items():
        nested = [a for a in sub._actions if isinstance(a, argparse._SubParsersAction)]
        pairs |= {(command, s) for s in subcommands(sub)} if nested else {(command, None)}
    assert shown == pairs
