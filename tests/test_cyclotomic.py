import math

import pytest
import sympy

from digitcover.arith import primes_up_to
from digitcover.cyclotomic import (
    cyclotomic_value,
    load_order_table,
    primes_of_order,
    validate_order_table,
)


class TestCyclotomicValue:
    def test_small_values(self):
        assert cyclotomic_value(1, 10) == 9
        assert cyclotomic_value(2, 10) == 11
        assert cyclotomic_value(6, 10) == 100 - 10 + 1 == 91
        assert cyclotomic_value(8, 10) == 10 ** 4 + 1 == 10001

    def test_telescoping_identity(self):
        # product of the cyclotomic values over divisors of m gives 10^m - 1
        for m in range(1, 65):
            product = math.prod(cyclotomic_value(d, 10) for d in sympy.divisors(m))
            assert product == 10 ** m - 1, m

    def test_matches_sympy_on_table_moduli(self, bundle):
        moduli = [m for m in bundle.order_counts if m <= 1000]
        assert len(moduli) == 354
        for m in moduli:
            assert cyclotomic_value(m, 10) == sympy.cyclotomic_poly(m, 10), m

    def test_other_base(self):
        assert cyclotomic_value(6, 2) == 3
        assert cyclotomic_value(4, 3) == 10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            cyclotomic_value(0, 10)
        with pytest.raises(ValueError):
            cyclotomic_value(3, 1)


class TestPrimesOfOrder:
    def test_spot_values(self):
        assert primes_of_order(1).primes == (3,)
        assert primes_of_order(6).primes == (7, 13)
        assert primes_of_order(8).primes == (73, 137)
        assert primes_of_order(2).primes == (11,)
        assert primes_of_order(4).primes == (101,)

    def test_probable_cofactor_is_labelled(self):
        # the 30-digit cofactor of m = 41 is above is_prime's deterministic
        # bound; the scanned primes below it are proven
        result = primes_of_order(41)
        assert result.primes == (83, 1231, 538987, 201763709900322803748657942361)
        assert result.probable == {201763709900322803748657942361}
        assert primes_of_order(8).probable == frozenset()

    def test_results_are_complete_and_increasing(self):
        for m in (1, 2, 3, 4, 5, 6, 8, 13, 29):
            result = primes_of_order(m)
            assert result.complete
            assert list(result.primes) == sorted(result.primes)

    def test_order_cyclotomic_equivalence(self):
        # two-sided check: for p < 10**6 coprime to 10 and m <= 64,
        # p divides the order-m cyclotomic value at 10 iff 10 has order m
        values = {m: cyclotomic_value(m, 10) for m in range(1, 65)}
        for p in primes_up_to(10 ** 6):
            if p in (2, 5):
                continue
            x, order = 10 % p, 1
            while x != 1 and order <= 64:
                x = x * 10 % p
                order += 1
            for m, value in values.items():
                if m % p == 0:
                    # the largest prime of m may divide the value without
                    # having order m; these are the excluded entries
                    continue
                assert (value % p == 0) == (order == m), (p, m)


class TestOrderTableFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "orders.txt"
        # a placeholder used twice is written once, with *2
        path.write_text(
            "6: 7, 13\n11: 21649, 513239\n2888: 717897987691852588770249*2\n"
        )
        assert load_order_table(path) == {
            6: (7, 13), 11: (21649, 513239), 2888: (3 ** 50, 3 ** 50)
        }

    def test_parse_errors_carry_location(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("6: 7, 13\nnot-a-line\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_order_table(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "orders.txt"
        path.write_text("# header\n\n6: 7, 13\n")
        assert load_order_table(path) == {6: (7, 13)}

    def test_duplicate_modulus_rejected(self, tmp_path):
        path = tmp_path / "orders.txt"
        path.write_text("6: 7\n6: 13\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_order_table(path)


class TestValidateOrderTable:
    def test_valid_plain_row(self):
        assert validate_order_table({6: (7, 13)}) == []

    def test_composite_without_placeholder_status_fails(self):
        # 14 = 2 * 7 is read as a placeholder and fails checks 1, 2 and 4
        assert validate_order_table({6: (7, 14)}) == [
            "m=6: entry 14 does not divide the cyclotomic value",
            "m=6: entry 14 shares a factor with 6",
            "m=6: placeholder 14 shares a factor with the prime entries",
        ]

    def test_square_placeholder_fails_bullets_4_and_5(self):
        violations = validate_order_table({2: (11, 121, 121)})
        assert "m=2: placeholder 121 shares a factor with the prime entries" in violations
        assert "m=2: placeholder 121 = 11**2 cannot hold two distinct primes" in violations

    def test_placeholder_for_unfactored_part_is_accepted(self):
        # order-11 value is 21649 * 513239; pretend it resisted factoring.
        # Read as a prime, q twice would be a repeated prime entry.
        q = 21649 * 513239
        assert validate_order_table({11: (q, q)}) == []

    def test_repeated_prime_entry(self):
        assert "m=6: repeated prime entry" in validate_order_table({6: (7, 7, 13)})

    def test_two_distinct_placeholders(self):
        # the order-30 value is 211 * 241 * 2161
        assert validate_order_table({30: (211 * 241, 241 * 2161)}) == [
            f"m=30: more than one composite placeholder: {[211 * 241, 241 * 2161]}"
        ]

    def test_placeholder_listed_three_times(self):
        q = 21649 * 513239
        violations = validate_order_table({11: (q, q, q)})
        assert f"m=11: composite placeholder {q} appears 3 times" in violations

    def test_wrong_order_prime_caught_by_divisibility(self):
        # 11 has order 2, so it does not divide the order-6 value
        violations = validate_order_table({6: (7, 11)})
        assert "m=6: entry 11 does not divide the cyclotomic value" in violations

    def test_prime_under_two_moduli_is_global_violation(self):
        # cross-row violations come first, then the rows in ascending m
        violations = validate_order_table({6: (7, 13), 3: (37, 7)})
        assert violations[0] == "prime 7 listed under both m=3 and m=6"
        assert all(v.startswith("m=3: ") for v in violations[1:])

    def test_cross_check_count_bound(self):
        # claiming three entries for order 2 overruns the computed list [11]
        q = 11 * 9090911
        violations = validate_order_table({2: (11, q, q)})
        assert "m=2: row lists 3 entries but only 1 primes have order 2" in violations

    def test_thousand_digit_placeholder(self, tmp_path):
        # the modulus-2888 value itself: a 1368-digit composite standing in
        # for two unknown prime factors; validation must stay fast at that
        # size (trial division only, quick compositeness probe)
        import time

        value = cyclotomic_value(2888, 10)
        assert len(str(value)) == 1368
        path = tmp_path / "orders.txt"
        path.write_text(f"2888: {value}*2\n")
        table = load_order_table(path)
        assert table == {2888: (value, value)}

        start = time.perf_counter()
        violations = validate_order_table(table)
        elapsed = time.perf_counter() - start
        # read as a prime, the value twice would be a repeated prime entry
        assert violations == []
        assert elapsed < 60

    def test_large_primes_are_read_as_primes(self):
        # 2**4423 - 1 (a Mersenne prime, 4423 bits) takes the two-base
        # probe used past 4096 bits, and 2**89 - 1 lies above the
        # deterministic Miller-Rabin bound, where is_prime calls it probable.
        # Listed twice, each is a repeated prime entry; a composite reading
        # would make it a placeholder instead.
        big = 2 ** 4423 - 1
        mid = 2 ** 89 - 1
        for prime in (mid, big):
            violations = validate_order_table({6: (prime, prime)})
            assert "m=6: repeated prime entry" in violations
            assert f"m=6: entry {prime} does not divide the cyclotomic value" in violations
            assert not any("placeholder" in v for v in violations)
