import math
import random
import time

import pytest
import sympy

import digitcover.cyclotomic as cyclotomic
from digitcover.arith import FactorBudget, factor, primes_up_to
from digitcover.bundle import DATA_ROOT, ORDER_PRIMES_FILE
from digitcover.cyclotomic import (
    _PRIMALITY_BIT_LIMIT,
    _aurifeuillian_factor,
    cyclotomic_value,
    load_order_table,
    primes_of_order,
    prove_order_primes,
    quoted,
    validate_order_table,
)

# the bench's `orders` band: table moduli m <= 1000 at 10**4 p - 1 multiplications
BAND_BUDGET = FactorBudget(rho_iterations=10_000)


def order_primes_by_sympy(m):
    """The order-m primes: the primes of Phi_m(10) that do not divide m."""
    return sorted(p for p in sympy.factorint(int(sympy.cyclotomic_poly(m, 10))) if m % p)


def random_order_table(rng, order_primes):
    """A table of one to three rows over the moduli of `order_primes` (a dict
    from each modulus to its order-m primes).  Each row mixes order-m primes,
    primes of other orders, products of two order-m primes (distinct where
    there are two) listed once or twice, two coprime composites, an order-m
    prime or a power of one listed twice, multiples and squares."""
    table = {}
    for m in rng.sample(sorted(order_primes), rng.randint(1, 3)):
        own = order_primes[m]
        entries = []
        for _ in range(rng.randint(1, 4)):
            kind = rng.choice(
                ("own", "own", "other", "pair", "pair", "pair", "coprime", "twice", "power",
                 "multiple", "square")
            )
            p = rng.choice(own)
            if kind == "own":
                entries.append(p)
            elif kind == "other":
                other = rng.choice([k for k in order_primes if k != m])
                entries.append(rng.choice(order_primes[other]))
            elif kind == "pair":
                q = rng.choice([q for q in own if q != p] or own)
                entries += [p * q] * rng.randint(1, 2)
            elif kind == "coprime" and len(own) > 1:
                # the order-m primes cut in two, a lone prime squared
                shuffled = rng.sample(own, len(own))
                cut = rng.randint(1, len(own) - 1)
                for part in (shuffled[:cut], shuffled[cut:]):
                    entries.append(math.prod(part) if len(part) > 1 else part[0] ** 2)
            elif kind == "twice":
                entries += [p, p]
            elif kind == "power":
                entries += [p ** rng.randint(2, 3)] * 2
            elif kind == "multiple":
                entries.append(p * rng.randint(2, 12))
            else:
                entries.append(p * p)
        table[m] = tuple(entries)
    return table


def c_and_d(x):
    """C and D of Phi_20(x) = C(x)**2 - 10x * D(x)**2 (Brent, Math. Comp. 61, 1993)."""
    return x ** 4 + 5 * x ** 3 + 7 * x ** 2 + 5 * x + 1, x ** 3 + 2 * x ** 2 + 2 * x + 1


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
        # 10**m alone would need gigabytes for a modulus of a few more digits
        with pytest.raises(ValueError, match=r"^m must be <= 100000, got '100001'$"):
            cyclotomic_value(100_001, 10)
        with pytest.raises(ValueError, match=r"got '1000.*\(4001 characters\)$"):
            cyclotomic_value(10 ** 4000, 10)


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

    def test_pm1_multiplications_on_the_table_moduli(self, bundle):
        # the 12 splits of the table moduli m <= 64 each end within the
        # 10**4 first pass of the default budget (121,883 without it); the
        # band m <= 1000 at 10**4 runs that schedule alone
        low = [m for m in bundle.order_counts if m <= 64]
        assert sum(primes_of_order(m).pm1_multiplications for m in low) == 34_188
        band = [m for m in bundle.order_counts if m <= 1000]
        spent = sum(primes_of_order(m, BAND_BUDGET).pm1_multiplications for m in band)
        assert spent == 1_355_806
        assert prove_order_primes(8, [73, 137]).pm1_multiplications == 0


def perturbed_row(rng, m, order_primes):
    """The order-m primes of `order_primes` (a dict from each modulus to its
    order-m primes), left alone or perturbed once or twice: an entry
    dropped or duplicated, the row reversed, a prime of another order added,
    two primes merged into their product, an entry multiplied or squared,
    or 0 prefixed.  Entries are re-sorted except after a reversal."""
    row = list(order_primes[m])
    for _ in range(rng.choice((0, 1, 1, 2))):
        kind = rng.choice(
            ("drop", "duplicate", "reverse", "other", "merge", "multiply", "square", "zero")
        )
        i = rng.randrange(len(row)) if row else None
        if kind == "reverse":
            row.reverse()
            continue
        if kind == "zero":
            row.insert(0, 0)
            continue
        if i is None:
            continue
        if kind == "drop":
            del row[i]
        elif kind == "duplicate":
            row.append(row[i])
        elif kind == "other":
            other = rng.choice([k for k in order_primes if k != m])
            row.append(rng.choice(order_primes[other]))
        elif kind == "merge" and len(row) > 1:
            j = rng.choice([j for j in range(len(row)) if j != i])
            row = [e for k, e in enumerate(row) if k not in (i, j)] + [row[i] * row[j]]
        elif kind == "multiply":
            row[i] *= rng.randint(2, 12)
        elif kind == "square":
            row[i] *= row[i]
        row.sort()
    return row


class TestProveOrderPrimes:
    def test_proof_accepts_exactly_the_true_rows(self):
        # oracle: a row is proved iff it is the ascending list of sympy's
        # prime factors of Phi_m(10) freed of the primes of m
        order_primes = {m: order_primes_by_sympy(m) for m in range(1, 31)}
        rng = random.Random(20261025)
        accepted = rejected = 0
        for _ in range(3000):
            m = rng.randint(1, 30)
            row = perturbed_row(rng, m, order_primes)
            try:
                result = prove_order_primes(m, row)
            except ValueError:
                assert row != order_primes[m], (m, row)
                rejected += 1
                continue
            assert row == order_primes[m], (m, row)
            assert result.primes == tuple(row) and result.complete
            assert result.probable == primes_of_order(m).probable
            accepted += 1
        assert accepted >= 500 and rejected >= 1500, (accepted, rejected)


class TestOrderDivisorRule:
    def test_membership_matches_the_cyclotomic_value(self):
        # oracle: q is an order-m divisor iff q > 1 divides Phi_m(10) freed
        # of the primes of m, which the rule decides without computing it
        rng = random.Random(20261031)
        kinds = dict.fromkeys(("member", "composite", "prime of m", "random"), 0)
        members = 0
        for _ in range(6000):
            m = rng.randint(1, 120)
            cofactor = cyclotomic._order_cofactor(m)
            # a divisor of the cofactor: some listed primes divided out of it
            q = cofactor
            for p in primes_of_order(m, BAND_BUDGET).primes:
                if rng.random() < 0.5:
                    while q % p == 0:
                        q //= p
            kind = rng.choice(list(kinds))
            if kind == "composite":
                q *= rng.choice((rng.randint(2, 12), q))
            elif kind == "prime of m":
                q *= rng.choice(factor(m).primes() or [1]) ** rng.randint(1, 2)
            elif kind == "random":
                q = rng.randint(-2, 10 ** rng.randint(1, 30))
            kinds[kind] += 1
            member = q > 1 and cofactor % q == 0
            members += member
            assert (cyclotomic.order_divisor_violation(q, m) is None) == member, (m, q)
        assert min(kinds.values()) >= 1400 and 1000 <= members <= 5000, (kinds, members)

    def test_base_10_wieferich_square(self):
        # 10**486 = 1 (mod 487**2), so 487**2 divides Phi_486(10) and 487**3 does not
        cofactor = cyclotomic._order_cofactor(486)
        assert cofactor % 487 ** 2 == 0 and cofactor % 487 ** 3
        assert cyclotomic.order_divisor_violation(487 ** 2, 486) is None
        assert cyclotomic.order_divisor_violation(487 ** 3, 486) == (
            "'115501303' does not divide Phi_486(10) freed of the primes of 486"
        )


class TestAurifeuillianSplit:
    def test_factors_of_phi_20(self):
        c, d = c_and_d(10)
        assert (c - 10 * d, c + 10 * d) == (3541, 27961)
        assert 3541 * 27961 == cyclotomic_value(20, 10) == 99009901
        assert _aurifeuillian_factor(20) == 3541

    def test_band_primes_have_order_m(self, bundle):
        moduli = sorted(m for m in bundle.order_counts if m <= 1000 and m % 40 == 20)
        assert len(moduli) == 16
        for m in moduli:
            result = primes_of_order(m, BAND_BUDGET)
            qs = sympy.primefactors(m)
            for p in result.primes:
                assert sympy.isprime(p), (m, p)
                # sympy.n_order factors p - 1, which took 45 s on one
                # 61-digit prime of order 340; past 10**20 the order is
                # checked from its definition
                if p < 10 ** 20:
                    assert sympy.n_order(10, p) == m, (m, p)
                else:
                    assert pow(10, m, p) == 1, (m, p)
                    assert all(pow(10, m // q, p) != 1 for q in qs), (m, p)
            # the listed primes and the remainder multiply back to Phi_m(10)
            # freed of the primes of m
            cofactor = int(sympy.cyclotomic_poly(m, 10))
            for q in qs:
                cofactor //= q ** sympy.multiplicity(q, cofactor)
            listed = math.prod(p ** sympy.multiplicity(p, cofactor) for p in result.primes)
            assert listed * (result.remainder or 1) == cofactor, m

    @pytest.mark.parametrize("m", [100, 140, 180, 220])
    def test_split_lists_match_sympy(self, m):
        # sympy.factorint on the whole of Phi_m(10) took 0.8 s (m = 100),
        # 0.3 s (140) and 86 s (180), and had not finished after 5 minutes
        # on the 80 digits of m = 220, whose largest primes have 28 and 32
        # digits; on the two Aurifeuillian halves it takes under 0.02 s
        value = int(sympy.cyclotomic_poly(m, 10))
        k = m // 20
        c, d = c_and_d(10 ** k)
        half = math.gcd(value, c - 10 ** ((k + 1) // 2) * d)
        assert 1 < half < value
        factors = set(sympy.factorint(half)) | set(sympy.factorint(value // half))
        result = primes_of_order(m, BAND_BUDGET)
        assert result.complete and result.reason is None
        assert list(result.primes) == sorted(p for p in factors if m % p)

    def test_order_140_is_complete(self):
        result = primes_of_order(140)
        assert result.complete and len(result.primes) == 5

    def test_is_prime_is_never_called_above_the_bound(self, monkeypatch):
        sizes = []
        is_prime = cyclotomic.is_prime

        def counting_is_prime(n):
            sizes.append(n.bit_length())
            return is_prime(n)

        monkeypatch.setattr(cyclotomic, "is_prime", counting_is_prime)
        for m in (5000, 75240):
            # bypass the cache, which may already hold these results
            result = cyclotomic._primes_of_order_cached.__wrapped__(m, BAND_BUDGET)
            bits = result.remainder.bit_length()
            assert bits > _PRIMALITY_BIT_LIMIT
            assert result.reason == (
                f"{bits}-bit cofactor above the split limit, primality not tested"
            )
        assert sizes and max(sizes) <= _PRIMALITY_BIT_LIMIT


class TestOrderTableFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "orders.txt"
        # a value listed twice (a composite mark) is written once, with *2
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
        # 14 = 2 * 7 fails check 1, and an entry failing it meets no other check
        assert validate_order_table({6: (7, 14)}) == [
            "m=6: entry '14' does not divide Phi_6(10) freed of the primes of 6",
        ]
        # 91 = 7 * 13 = Phi_6(10) divides, and fails check 2 against 7
        assert validate_order_table({6: (7, 91)}) == [
            "m=6: entry '91' shares a factor with an earlier entry",
        ]

    def test_square_placeholder_fails_bullets_4_and_5(self):
        # Phi_1(10) = 9: 9 twice divides, shares 3 and is 3**2
        assert validate_order_table({1: (3, 9, 9)}) == [
            "m=1: entry '9' shares a factor with an earlier entry",
            "m=1: entry '9' listed twice is a perfect power",
        ]
        assert len(validate_order_table({2: (11, 121, 121)})) == 2  # 121 does not divide 11

    def test_placeholder_for_unfactored_part_is_accepted(self):
        # order-11 value is 21649 * 513239; pretend it resisted factoring.
        # Listed twice, it needs a base-2 Fermat witness, which it has.
        q = 21649 * 513239
        assert validate_order_table({11: (q, q)}) == []

    def test_repeated_prime_entry(self):
        assert validate_order_table({6: (7, 7, 13)}) == [
            "m=6: entry '7' listed twice is a base-2 probable prime"
        ]

    def test_two_distinct_placeholders(self):
        # the order-30 value is 211 * 241 * 2161: the pair shares 241
        assert validate_order_table({30: (211 * 241, 241 * 2161)}) == [
            "m=30: entry '520801' shares a factor with an earlier entry"
        ]
        # coprime composites are valid, each listed once or twice
        assert validate_order_table({29: (3191 * 16763, 43037 * 62003, 43037 * 62003)}) == []

    def test_placeholder_listed_three_times(self):
        q = 21649 * 513239
        violations = validate_order_table({11: (q, q, q)})
        assert violations == [f"m=11: entry '{q}' shares a factor with an earlier entry"]

    def test_wrong_order_prime_caught_by_divisibility(self):
        # 11 has order 2, so it does not divide the order-6 value
        violations = validate_order_table({6: (7, 11)})
        assert "m=6: entry '11' does not divide Phi_6(10) freed of the primes of 6" in violations

    def test_prime_under_two_moduli_fails_the_wrong_row(self):
        # 7 has order 6, so only the m=3 row fails, and it fails check 1
        violations = validate_order_table({6: (7, 13), 3: (37, 7)})
        assert violations == ["m=3: entry '7' does not divide Phi_3(10) freed of the primes of 3"]

    def test_cross_check_count_bound(self):
        # three entries for order 6, where only 7 and 13 exist: 91 twice
        # must hold two primes besides 7, and it shares 7
        assert validate_order_table({6: (7, 91, 91)}) == [
            "m=6: entry '91' shares a factor with an earlier entry"
        ]
        # three entries for order 2, where only 11 exists
        q = 11 * 9090911
        assert validate_order_table({2: (11, q, q)}) == [
            f"m=2: entry '{q}' does not divide Phi_2(10) freed of the primes of 2"
        ] * 2

    def test_accepted_rows_hold_only_order_m_primes(self):
        # soundness against sympy: in every accepted row each prime factor of
        # each entry has order m, and the row's length, a value listed twice
        # counted twice, never outnumbers the order-m primes
        order_primes = {m: order_primes_by_sympy(m) for m in range(1, 31)}
        rng = random.Random(20261019)
        accepted = with_mark = 0
        for _ in range(8000):
            table = random_order_table(rng, order_primes)
            if validate_order_table(table):
                continue
            for m, entries in table.items():
                for e in entries:
                    assert all(sympy.n_order(10, q) == m for q in sympy.factorint(e)), (m, e)
                accepted += 1
                with_mark += len(set(entries)) < len(entries)
                assert len(entries) <= len(order_primes[m]), (m, entries)
        assert accepted >= 100 and with_mark >= 50, (accepted, with_mark)

    def test_every_planted_fault_is_rejected(self):
        # a valid row (distinct order-m primes, then one product of two more
        # listed twice) gains one fault: a prime listed twice, a perfect
        # power listed twice, an entry sharing a prime with another, or a
        # non-divisor; the row check must reject every one
        order_primes = {m: order_primes_by_sympy(m) for m in range(1, 31)}
        rng = random.Random(20261026)
        faults = dict.fromkeys(("prime twice", "power twice", "shared", "non-divisor"), 0)
        # sharing a prime between two distinct entries needs two primes
        two_or_more = [m for m, primes in order_primes.items() if len(primes) > 1]
        for _ in range(2000):
            fault = rng.choice(list(faults))
            m = rng.choice(two_or_more if fault == "shared" else list(order_primes))
            own = rng.sample(order_primes[m], len(order_primes[m]))
            row = own[: rng.randint(0, len(own))]
            if len(own) - len(row) > 1 and rng.random() < 0.5:
                row += [own[-1] * own[-2]] * 2
            p, q = own[0], own[-1]
            if fault == "shared":
                row = [e for e in row if math.gcd(e, p * q) == 1] + [p * q]
            assert validate_order_table({m: tuple(row)}) == [], (m, row)
            if fault == "prime twice":
                bad = [p, p]
            elif fault == "power twice":
                bad = [p ** rng.randint(2, 3)] * 2
            elif fault == "shared":
                bad = [rng.choice((p, q))]
            else:
                other = rng.choice([k for k in order_primes if k != m])
                bad = [rng.choice([p * rng.choice((2, 5, 10)), *order_primes[other]])]
            faults[fault] += 1
            row += bad
            rng.shuffle(row)
            assert validate_order_table({m: tuple(row)}), (fault, m, row)
        assert min(faults.values()) >= 400, faults

    def test_validation_lists_no_order_m_primes(self, monkeypatch):
        # the order rule's gcds and modular powers and the Fermat witnesses
        # decide every row without computing Phi_m(10), factoring an entry
        # or testing one for primality
        def refuse(*args):
            raise RuntimeError("validation listed order-m primes, computed Phi_m(10) "
                               "or tested primality")

        value, large = cyclotomic_value(2584, 10), cyclotomic_value(2888, 10)
        monkeypatch.setattr(cyclotomic, "primes_of_order", refuse)
        monkeypatch.setattr(cyclotomic, "_primes_of_order_cached", refuse)
        monkeypatch.setattr(cyclotomic, "is_prime", refuse)
        monkeypatch.setattr(cyclotomic, "cyclotomic_value", refuse)
        shipped = load_order_table(DATA_ROOT / "coverings" / ORDER_PRIMES_FILE)
        assert validate_order_table(shipped) == []
        q = 21649 * 513239
        assert validate_order_table({11: (q, q), 2584: (value, value)}) == []
        assert len(validate_order_table({2888: (large, large)})) == 1
        assert len(validate_order_table({11: (q, q, q), 30: (211 * 241, 241 * 2161)})) == 2

    def test_thousand_digit_placeholder(self, tmp_path):
        # the modulus-2584 value itself: a 1153-digit composite standing in
        # for two unknown prime factors; validation must stay fast at that
        # size (a few modular powers, one gcd, one base-2 Fermat witness)
        value = cyclotomic_value(2584, 10)
        assert len(str(value)) == 1153 and value.bit_length() <= _PRIMALITY_BIT_LIMIT
        path = tmp_path / "orders.txt"
        path.write_text(f"2584: {value}*2\n")
        table = load_order_table(path)
        assert table == {2584: (value, value)}

        start = time.perf_counter()
        violations = validate_order_table(table)
        elapsed = time.perf_counter() - start
        assert violations == []
        assert elapsed < 60

    @pytest.mark.parametrize("m", [2888, 4297])
    def test_mark_past_the_primality_limit_is_refused_by_size(self, m):
        # the whole value listed twice: 4,544 and 14,272 bits, where the
        # Fermat witness and the perfect-power test took 1-10 s
        value = cyclotomic_value(m, 10)
        assert value.bit_length() > _PRIMALITY_BIT_LIMIT
        start = time.perf_counter()
        violations = validate_order_table({m: (value, value)})
        assert time.perf_counter() - start < 1
        assert violations == [
            f"m={m}: entry of {value.bit_length()} bits listed twice is past the "
            f"{_PRIMALITY_BIT_LIMIT}-bit limit of the composite test"
        ]

    def test_large_primes_are_read_as_primes(self):
        # the order-41 prime lies above the deterministic Miller-Rabin bound,
        # where is_prime calls it probable; listed twice it has no base-2
        # Fermat witness, so it cannot stand for two primes
        prime = 201763709900322803748657942361
        assert validate_order_table({41: (prime, prime)}) == [
            f"m=41: entry '{prime}' listed twice is a base-2 probable prime"
        ]
        # 2**4423 - 1 (a Mersenne prime, 4423 bits), where is_prime would run
        # for minutes: neither Mersenne prime divides Phi_6(10), so each row
        # fails check 1 twice
        for other in (2 ** 89 - 1, 2 ** 4423 - 1):
            assert len(validate_order_table({6: (other, other)})) == 2

    def test_huge_entry_that_does_not_divide_is_not_classified(self):
        # an entry failing check 1 meets no other check, so 4,000 sevens
        # cost one modular power
        start = time.perf_counter()
        violations = validate_order_table({3: (int("7" * 4000),)})
        assert time.perf_counter() - start < 1
        assert violations == [
            f"m=3: entry {quoted('7' * 4000)} does not divide Phi_3(10) freed of the primes of 3"
        ]
