import dataclasses
import math
import random
import time

import pytest

from digitcover.arith import is_prime, primes_up_to
from digitcover.construction import (
    Assignment,
    DigitCovering,
    assemble,
    cross_digit_consistency,
    derive_b_residue,
    load_construction,
    substitution_divisor,
    verify_property_star_sample,
    write_construction,
)
from digitcover.covering import Congruence

from conftest import build_mini_construction

# (m, p) with p an order-m prime, for moduli just below 10**5, where
# computing Phi_m(10) takes about 0.07 s each
ORDER_PRIMES_NEAR_1E5 = [
    (99006, 198013),
    (99010, 891091),
    (99014, 1188169),
    (99016, 99017),
    (99018, 693127),
    (99022, 99023),
    (99031, 3565117),
    (99041, 198083),
    (99045, 1584721),
    (99047, 594283),
    (99049, 396197),
    (99060, 495301),
    (99065, 792521),
    (99073, 396293),
    (99080, 1387121),
    (99092, 495461),
    (99093, 1585489),
    (99096, 990961),
    (99100, 693701),
    (99102, 99103),
]


class TestDeriveResidue:
    def test_digit_nine_residues(self):
        assert derive_b_residue(9, 3, 101) == 90
        assert derive_b_residue(9, 1, 73) == 56
        assert derive_b_residue(9, 5, 137) == 90
        assert derive_b_residue(9, 0, 11) == 2

    def test_swapped_order8_residues(self):
        assert derive_b_residue(9, 1, 137) == 47
        assert derive_b_residue(9, 5, 73) == 17

    def test_definitional_identity_sampled(self):
        primes = [p for p in primes_up_to(300) if p not in (2, 5)]
        for p in primes:
            for d in range(-9, 10):
                if d == 0:
                    continue
                for a in range(0, 20):
                    r = derive_b_residue(d, a, p)
                    assert (r + d * 10 ** a) % p == 0
                    assert 0 <= r < p


class TestCrossDigitConsistency:
    def test_prime_eleven_quadruple(self):
        uses = [(-9, 1), (-2, 0), (2, 1), (9, 0)]
        assert cross_digit_consistency(11, uses)
        assert {derive_b_residue(d, a, 11) for d, a in uses} == {2}

    def test_prime_three_for_mod3_digits(self):
        uses = [(2, 0), (5, 0), (8, 0), (-1, 0), (-4, 0), (-7, 0)]
        assert cross_digit_consistency(3, uses)

    def test_inconsistent_pair(self):
        assert not cross_digit_consistency(11, [(9, 0), (4, 0)])


class TestAssemble:
    def test_mini_build_values(self, mini_construction):
        c = mini_construction
        assert c.modulus == 3 * 11 * 101 * 73 * 137 == 33333333
        assert c.offset == 8523682
        assert math.gcd(c.modulus, c.offset) == 1
        assert c.offset > max(p for p, _ in c.residue_constraints)
        assert dict(c.residue_constraints) == {
            3: 1, 11: 2, 101: 90, 73: 56, 137: 90,
        }

    def test_swapped_primes_still_assemble(self):
        c = build_mini_construction(swap_order8=True)
        assert dict(c.residue_constraints)[137] == 47
        assert dict(c.residue_constraints)[73] == 17
        assert math.gcd(c.modulus, c.offset) == 1
        report = verify_property_star_sample(c, samples=5, k_max=40)
        assert report.ok

    def test_single_digit_build(self):
        c = assemble(
            [DigitCovering(5, (Assignment(Congruence(0, 1), 3),))]
        )
        assert c.modulus == 3
        assert c.offset == 4  # least value exceeding the prime 3 with B = 1 (mod 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            assemble([])

    def test_covering_needs_a_digit_offset_and_an_assignment(self):
        three = (Assignment(Congruence(0, 1), 3),)
        with pytest.raises(ValueError, match=r"^digit offset must be in \[-9..-1, 1..9\], got 0$"):
            DigitCovering(0, three)
        with pytest.raises(ValueError, match="^digit 5: no assignments$"):
            DigitCovering(5, ())

    def test_digit_supplied_twice_rejected(self):
        five = DigitCovering(5, (Assignment(Congruence(0, 1), 3),))
        with pytest.raises(ValueError, match="^digit 5 supplied twice$"):
            assemble([five, five])

    def test_composite_order_divisor_assembles(self):
        # Phi_1(10) = 9 = 3**2 divides n + 5 * 10**k for every k once
        # n = -5 (mod 9), though 9 is not prime
        c = assemble([DigitCovering(5, (Assignment(Congruence(0, 1), 9),))])
        assert (c.modulus, c.offset) == (9, 13)
        assert verify_property_star_sample(c, samples=5, k_max=40).ok

    def test_non_member_rejected(self):
        # 33 = 3 * 11 does not divide Phi_2(10) = 11
        bad = DigitCovering(9, (Assignment(Congruence(0, 2), 33),))
        with pytest.raises(ValueError, match="order"):
            assemble([bad])

    def test_divisor_sharing_a_factor_with_its_residue_rejected(self):
        # Phi_6(10) = 91 = 7 * 13, and 7 divides 7 * 10**k: B would have
        # to be 0 mod 7
        cov = DigitCovering(
            7, (Assignment(Congruence(0, 1), 3), Assignment(Congruence(0, 6), 91))
        )
        with pytest.raises(ValueError, match="divisor 91 would share a factor"):
            assemble([cov])

    def test_divisors_sharing_a_prime_inconsistently_rejected(self):
        # 9 for d = 5 pins B = 4 (mod 9), so B = 1 (mod 3); 3 for d = 4
        # pins B = 2 (mod 3)
        five = DigitCovering(5, (Assignment(Congruence(0, 1), 9),))
        four = DigitCovering(4, (Assignment(Congruence(0, 1), 3),))
        with pytest.raises(ValueError, match="inconsistent"):
            assemble([five, four])

    def test_wrong_order_rejected(self):
        bad = DigitCovering(9, (Assignment(Congruence(0, 2), 7),))
        with pytest.raises(ValueError, match="order"):
            assemble([bad])

    def test_uncovering_congruences_rejected(self):
        partial = DigitCovering(9, (Assignment(Congruence(0, 2), 11),))
        with pytest.raises(ValueError, match="do not cover"):
            assemble([partial])

    def test_repeated_prime_within_digit_rejected(self):
        cov = DigitCovering(
            9,
            (
                Assignment(Congruence(0, 2), 11),
                Assignment(Congruence(1, 2), 11),
            ),
        )
        with pytest.raises(ValueError, match="repeated prime"):
            assemble([cov])

    def test_inconsistent_shared_prime_rejected(self):
        nine = DigitCovering(9, (Assignment(Congruence(0, 1), 3),))
        with pytest.raises(ValueError):
            assemble([nine])  # -9 * 10^0 = 0 (mod 3): prime would divide offset

    def test_shared_prime_inconsistency_message(self):
        # 11 with (9, 0) wants B = 2; with (-9, 0) wants B = 9
        nine = DigitCovering(
            9,
            (
                Assignment(Congruence(0, 2), 11),
                Assignment(Congruence(3, 4), 101),
                Assignment(Congruence(1, 8), 73),
                Assignment(Congruence(5, 8), 137),
            ),
        )
        minus_nine = DigitCovering(
            -9,
            (
                Assignment(Congruence(0, 2), 11),
                Assignment(Congruence(3, 4), 101),
                Assignment(Congruence(1, 8), 73),
                Assignment(Congruence(5, 8), 137),
            ),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            assemble([nine, minus_nine])


class TestSubstitutionDivisor:
    def test_units_and_thousands(self, mini_construction):
        c = mini_construction
        cert0 = substitution_divisor(c, c.offset, 9, 0)
        assert cert0.prime == 11
        assert cert0.congruence == Congruence(0, 2)
        cert3 = substitution_divisor(c, c.offset, 9, 3)
        assert cert3.prime == 101
        assert cert3.congruence == Congruence(3, 4)

    def test_mod3_digit(self, mini_construction):
        c = mini_construction
        n = c.offset + c.modulus
        cert = substitution_divisor(c, n, 5, 7)
        assert cert.prime == 3
        assert (n + 5 * 10 ** 7) % 3 == 0

    def test_certificates_check_and_prove_compositeness(self, mini_construction):
        c = mini_construction
        rng = random.Random(1)
        for _ in range(50):
            n = c.element(rng.randrange(1, 10 ** 9))
            d = rng.choice(sorted(c.digits))
            k = rng.randrange(0, 30)
            cert = substitution_divisor(c, n, d, k)
            assert cert.check()
            value = abs(n + d * 10 ** k)
            assert value % cert.prime == 0 and value > cert.prime
            assert value // cert.prime > 1

    def test_uncovered_digit_rejected(self, mini_construction):
        with pytest.raises(ValueError, match="not covered"):
            substitution_divisor(
                mini_construction, mini_construction.offset, 4, 0
            )

    def test_negative_exponent_rejected(self, mini_construction):
        with pytest.raises(ValueError, match="^exponent k must be >= 0$"):
            substitution_divisor(mini_construction, mini_construction.offset, 9, -1)

    def test_off_progression_rejected(self, mini_construction):
        with pytest.raises(ValueError, match="not an element"):
            substitution_divisor(mini_construction, 12345, 9, 0)

    def test_wrong_offset_gives_a_failing_certificate(self, mini_construction):
        # the certificate is returned for its check() to judge, not raised
        broken = dataclasses.replace(mini_construction, offset=mini_construction.offset + 1)
        cert = substitution_divisor(broken, broken.offset, 9, 0)
        assert (cert.prime, cert.value) == (11, 8523682 + 1 + 9)
        assert not cert.check()


class TestSampleVerification:
    def test_small_run_passes(self, mini_construction):
        report = verify_property_star_sample(
            mini_construction, samples=10, k_max=60
        )
        assert report.ok
        assert report.checked == 10 * 7 * 61

    def test_units_digit_only(self, mini_construction):
        report = verify_property_star_sample(mini_construction, samples=5, k_max=0)
        assert report.ok
        assert report.checked == 5 * 7

    def test_wrong_offset_fails_the_sample(self, mini_construction):
        broken = dataclasses.replace(mini_construction, offset=mini_construction.offset + 1)
        report = verify_property_star_sample(broken, samples=5, k_max=20)
        assert report.ok is False
        assert report.checked == 1
        [failure] = report.failures
        n = broken.element(random.Random(0).randrange(1, 10 ** 18))
        d = min(broken.digits)
        assert failure.startswith(f"n={n} d={d} k=0: prime 3 does not certify ")

    def test_sampled_values_composite_by_primality(self, mini_construction):
        c = mini_construction
        rng = random.Random(9)
        for _ in range(25):
            n = c.element(rng.randrange(1, 10 ** 6))
            d = rng.choice(sorted(c.digits))
            k = rng.randrange(0, 10)
            value = abs(n + d * 10 ** k)
            if value > 1:
                assert not is_prime(value)


class TestExportFormat:
    def test_round_trip(self, tmp_path, mini_construction):
        path = tmp_path / "construction.txt"
        write_construction(mini_construction, path)
        text = path.read_text()
        assert text.startswith("A=33333333\nB=8523682\n")
        again = load_construction(path)
        assert again.modulus == mini_construction.modulus
        assert again.offset == mini_construction.offset
        assert again.residue_constraints == mini_construction.residue_constraints

    def test_tampered_offset_rejected(self, tmp_path, mini_construction):
        path = tmp_path / "construction.txt"
        write_construction(mini_construction, path)
        tampered = path.read_text().replace("B=8523682", "B=8523683")
        path.write_text(tampered)
        with pytest.raises(ValueError, match="disagrees"):
            load_construction(path)

    def test_moduli_near_ten_to_the_five_load_fast(self, tmp_path):
        # the order rule computes no Phi_m(10), so 20 moduli near 10**5 cost
        # milliseconds; 3 has order 1 and covers digit 5 alone
        path = tmp_path / "construction.txt"
        lines = ["3 0 1 5 0"] + [f"{p} 0 {m} 5 0" for m, p in ORDER_PRIMES_NEAR_1E5]
        path.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        construction = load_construction(path)
        assert time.perf_counter() - start < 0.5
        assert construction.modulus == 3 * math.prod(p for _, p in ORDER_PRIMES_NEAR_1E5)
