import random
import time
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from digitcover.arith import is_prime, prime_flags, primes_up_to
from digitcover import delicate
from digitcover.cli import main
from digitcover.construction import substitution_divisor
from digitcover.delicate import (
    Substitution,
    _delicate_mask,
    digit_at,
    digit_count,
    find_first_digitally_delicate,
    first_failure,
    is_digitally_delicate,
    require_stable_candidate,
    substitution_report,
    substitutions,
)


class TestSubstitution:
    def test_apply_and_inverse(self):
        sub = Substitution(2, 4, 7)
        n = 294401
        assert sub.apply(n) == 294701
        assert Substitution(sub.position, sub.replacement, sub.original).apply(294701) == n

    def test_validation(self):
        with pytest.raises(ValueError):
            Substitution(0, 3, 3)
        with pytest.raises(ValueError):
            Substitution(-1, 0, 1)
        with pytest.raises(ValueError):
            Substitution(0, 10, 1)

    def test_wrong_original_digit_rejected(self):
        with pytest.raises(ValueError, match="position"):
            Substitution(0, 5, 1).apply(294001)

    def test_leading_zero_positions(self):
        sub = Substitution(6, 0, 1)
        assert sub.apply(294001) == 1294001

    @given(
        st.integers(min_value=0, max_value=10 ** 18),
        st.integers(min_value=0, max_value=24),
        st.integers(min_value=0, max_value=9),
    )
    @settings(max_examples=500)
    def test_involution(self, n, k, r):
        o = digit_at(n, k)
        if r == o:
            return
        sub = Substitution(k, o, r)
        back = Substitution(sub.position, sub.replacement, sub.original)
        assert back.apply(sub.apply(n)) == n

    @given(st.integers(min_value=1, max_value=10 ** 18))
    @settings(max_examples=500)
    def test_string_edit_equivalence(self, n):
        rng = random.Random(n)
        width = digit_count(n)
        k = rng.randrange(width)
        text = str(n)
        o = int(text[width - 1 - k])
        r = rng.choice([x for x in range(10) if x != o])
        edited = text[: width - 1 - k] + str(r) + text[width - k :]
        assert Substitution(k, o, r).apply(n) == int(edited)

    def test_substitution_count(self):
        assert sum(1 for _ in substitutions(294001)) == 54
        assert sum(1 for _ in substitutions(294001, leading_zeros=2)) == 54 + 18


class TestDigitallyDelicate:
    def test_294001_is_delicate(self):
        assert is_digitally_delicate(294001)

    def test_294001_report_all_composite_or_equal(self):
        rows = substitution_report(294001)
        assert len(rows) == 54
        for sub, value, prime in rows:
            assert value != 294001
            assert not prime, (sub, value)
        # the display set includes the shortened number from the leading digit
        values = {v for _, v, _ in rows}
        assert 94001 in values and 194001 in values and 994001 in values

    def test_two_is_not(self):
        assert not is_digitally_delicate(2)  # 3 is prime

    def test_rejects_composites(self):
        with pytest.raises(ValueError, match="not prime"):
            is_digitally_delicate(294002)

    def test_smaller_primes_are_not_delicate(self):
        for p in (2, 3, 5, 7, 11, 101, 293999):
            if is_prime(p):
                assert not is_digitally_delicate(p)


class TestFirstFailure:
    @staticmethod
    def reference(n, leading_zeros=0):
        for sub, value, prime in substitution_report(n, leading_zeros):
            if prime or value < 2:
                return sub, value
        return None

    def test_matches_report_below_ten_thousand(self):
        for p in primes_up_to(10 ** 4):
            assert first_failure(p) == self.reference(p), p

    def test_matches_report_on_the_paper_numbers(self):
        for n, zeros in ((212159, 0), (294001, 0), (294001, 1), (294001, 2)):
            assert first_failure(n, zeros) == self.reference(n, zeros)
        assert first_failure(212159) is None and first_failure(294001) is None
        assert first_failure(294001, 2) == (Substitution(7, 0, 1), 10294001)

    def test_single_digit_failures(self):
        assert first_failure(2) == (Substitution(0, 2, 0), 0)
        assert first_failure(7, leading_zeros=3)[1] == 0


class TestWidelyWindow:
    # A window of K tests K + 1 leading-zero positions, as `delicate check
    # --widely K` does.

    def test_294001_fails_with_10294001(self):
        window = 1
        sub, value = first_failure(294001, window + 1)
        assert value == 10294001
        assert sub.position == digit_count(294001) + window

    def test_first_leading_zero_position_alone_is_quiet(self):
        # all single-step leading-zero changes of 294001 are composite; the
        # failure needs the second position, so the window spans both
        for d in range(1, 10):
            assert not is_prime(d * 10 ** 6 + 294001)
        assert is_prime(1 * 10 ** 7 + 294001)

    def test_non_delicate_prime_fails_inside(self):
        window = 3
        sub, value = first_failure(101, window + 1)
        assert sub.position < digit_count(101) and is_prime(value)

    def test_progression_primes_certified_on_covered_digits(self, mini_construction):
        # cross-module check: window-substituted values on covered digits
        # carry divisor certificates and the primality test agrees
        c = mini_construction
        n = c.offset
        while not is_prime(n):
            n += c.modulus
        width = digit_count(n)
        for d in sorted(c.digits):
            if d < 0:
                continue  # leading-zero replacements only add positive digits
            for k in range(width, width + 40):
                cert = substitution_divisor(c, n, d, k)
                value = n + d * 10 ** k
                assert value % cert.prime == 0 and value > cert.prime
                assert not is_prime(value)


class TestScan:
    def test_first_is_294001(self):
        assert find_first_digitally_delicate(300000) == 294001

    def test_none_below_small_bounds(self):
        assert find_first_digitally_delicate(10) is None
        assert find_first_digitally_delicate(1000) is None

    def test_monotone_in_bound(self):
        first = find_first_digitally_delicate(294001)
        later = find_first_digitally_delicate(296000)
        assert first == later == 294001

    @pytest.mark.parametrize(
        "bound, found",
        [(0, None), (9, None), (10, None), (1000, None), (294000, None),
         (294001, 294001), (300000, 294001), (999999, 294001), (10 ** 18, 294001)],
    )
    def test_answers_at_the_block_edges(self, bound, found):
        assert find_first_digitally_delicate(bound) == found


class TestDelicateMask:
    def test_equals_first_failure_below_ten_to_the_five(self):
        primes = primes_up_to(10 ** 5)
        for width in range(1, 6):
            mask = _delicate_mask(width, 10 ** width)
            assert mask.shape == (10 ** width,)
            of_width = [p for p in primes if digit_count(p) == width]
            for p in of_width:
                assert mask[p] == (first_failure(p) is None), p
            assert set(np.flatnonzero(mask)) <= set(of_width)

    def test_flags_the_five_delicate_primes_below_a_million(self):
        # OEIS A050249
        for width in range(1, 6):
            assert not _delicate_mask(width, 10 ** width).any()
        assert np.flatnonzero(_delicate_mask(6, 10 ** 6)).tolist() == [
            294001, 505447, 584141, 604171, 971767
        ]

    @pytest.mark.parametrize("lone, control", [(11, 13), (10, 23)])
    def test_zero_and_one_are_non_composite(self, monkeypatch, lone, control):
        # With a sieve that calls only `lone` prime, its line at the tens
        # holds 1 (for 11) or 0 (for 10) beside it; the control's does not.
        def only(prime):
            return lambda n: (np.arange(n + 1) == prime).astype(np.uint8)

        monkeypatch.setattr(delicate, "prime_flags", only(lone))
        assert not _delicate_mask(2, 100)[lone]
        monkeypatch.setattr(delicate, "prime_flags", only(control))
        assert _delicate_mask(2, 100)[control]

    @pytest.mark.parametrize("width", range(1, 7))
    def test_prefix_equals_the_full_width_counts(self, width):
        # The full-width route: every line at every position counted over
        # all of [0, 10**width) by one sum along the middle axis.
        flags = np.zeros(10 ** width, np.uint8)
        flags[list(sympy.primerange(10 ** width))] = 1
        full = flags.astype(bool)
        full[: 10 ** (width - 1)] = False
        flags[:2] = 1
        for k in range(width):
            lines = flags.reshape(10 ** (width - k - 1), 10, 10 ** k)
            full.reshape(lines.shape)[...] &= (lines.sum(axis=1) == 1)[:, None, :]
        block = 10 ** (width - 1)
        for stop in (1, block, block + 1, 3 * block - 1, 3 * block + 1, 10 * block):
            assert np.array_equal(_delicate_mask(width, stop), full[:stop]), stop

    def test_scan_sieves_once_per_width(self, monkeypatch):
        sieved = []

        def counting(n):
            sieved.append(n)
            return prime_flags(n)

        monkeypatch.setattr(delicate, "prime_flags", counting)
        for bound in (300000, 10 ** 18):
            sieved.clear()
            assert find_first_digitally_delicate(bound) == 294001
            assert sieved == [10 ** w - 1 for w in range(1, 7)]

    def test_huge_bound_is_fast_and_small(self):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            found = find_first_digitally_delicate(10 ** 18)
            seconds = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == 294001
        assert seconds < 1.0
        assert peak < 16 * 2 ** 20

    def test_cli_scan_with_huge_bound(self, capsys):
        assert main(["delicate", "scan", "--bound", "1000000000000"]) == 0
        assert capsys.readouterr().out.strip() == "294001"

    def test_scan_walks_substitutions_of_the_answer_only(self, monkeypatch):
        # No timing: a per-prime walk would call first_failure once per
        # prime below 294001 and is_prime far more than 54 times.
        calls = {"first_failure": 0, "is_prime": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(delicate, "first_failure", counting("first_failure", first_failure))
        monkeypatch.setattr(delicate, "is_prime", counting("is_prime", is_prime))
        assert find_first_digitally_delicate(300000) == 294001
        assert calls["first_failure"] == 1
        assert calls["is_prime"] <= 54

    def test_disagreement_with_first_failure_is_an_error(self, monkeypatch):
        monkeypatch.setattr(delicate, "first_failure", lambda p: (Substitution(0, 1, 0), 294000))
        with pytest.raises(ArithmeticError, match="294001"):
            find_first_digitally_delicate(300000)


class TestCompositeStable:
    def test_212159_is_stable(self):
        require_stable_candidate(212159)
        assert first_failure(212159) is None

    def test_212159_all_54_composite(self):
        rows = substitution_report(212159)
        assert len(rows) == 54
        for _, value, prime in rows:
            assert not prime

    def test_nine_is_not_stable(self):
        require_stable_candidate(9)
        # 0 is the first non-composite substitution; 2, 3, 5 and 7 follow
        assert first_failure(9) == (Substitution(0, 9, 0), 0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="not composite"):
            require_stable_candidate(13)
        with pytest.raises(ValueError, match="coprime"):
            require_stable_candidate(15)
        with pytest.raises(ValueError, match="coprime"):
            require_stable_candidate(16)
