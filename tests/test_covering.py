import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitcover.covering as covering_module
from digitcover.arith import factor, primes_up_to
from digitcover.bundle import MOD3_DIGITS, default_bundle
from digitcover.construction import DIGIT_OFFSETS
from digitcover.covering import (
    LEAF_CELLS,
    NAIVE_LIMIT,
    Congruence,
    CoverVerdict,
    CoveringSystem,
    is_covering_fast,
    is_covering_naive,
    lcm_analysis,
    profile_verdict,
    reduction_profile,
)


def scan_oracle(system: CoveringSystem) -> tuple[bool, int | None]:
    """Pure-python reference: test every residue in [0, lcm) one by one."""
    for r in range(system.lcm):
        if not any((r - c.residue) % c.modulus == 0 for c in system):
            return False, r
    return True, None


def class_w(system: CoveringSystem) -> int:
    """The largest divisor of the lcm up to 720, a class modulus w."""
    return max(d for d in range(1, 721) if system.lcm % d == 0)


def random_system(rng: random.Random) -> CoveringSystem:
    """Random small system whose lcm stays tractable for the naive route."""
    master = rng.choice([60, 120, 360, 720, 2520, 27720, 30030])
    choices = [m for m in range(1, 37) if master % m == 0]
    count = rng.randint(1, 12)
    pairs = []
    for _ in range(count):
        m = rng.choice(choices)
        pairs.append((rng.randrange(m), m))
    return CoveringSystem.from_pairs(pairs)


D9 = CoveringSystem.from_pairs([(0, 2), (3, 4), (1, 8), (5, 8)])


class TestBasics:
    def test_congruence_validation(self):
        with pytest.raises(ValueError):
            Congruence(3, 2)
        with pytest.raises(ValueError):
            Congruence(0, 0)
        assert Congruence.reduced(-1, 4) == Congruence(3, 4)
        assert Congruence.reduced(5, 4) == Congruence(1, 4)

    def test_matches_handles_negatives(self):
        c = Congruence(2, 5)
        assert c.matches(-3) and c.matches(7) and not c.matches(-1)

    def test_lcm_analysis_trivial(self):
        system = CoveringSystem.from_pairs([(0, 2), (1, 2)])
        analysis = lcm_analysis(system)
        assert (analysis.lcm, analysis.max_prime, analysis.count) == (2, 2, 2)

    def test_lcm_analysis_modulus_one(self):
        system = CoveringSystem.from_pairs([(0, 1)])
        assert lcm_analysis(system).max_prime == 1


class TestNaive:
    def test_four_congruence_cover(self):
        assert is_covering_naive(D9).covering

    def test_half_cover_witness(self):
        verdict = is_covering_naive(CoveringSystem.from_pairs([(0, 2)]))
        assert not verdict.covering and verdict.witness == 1

    def test_modulus_one_covers(self):
        assert is_covering_naive(CoveringSystem.from_pairs([(0, 1)])).covering

    def test_witness_is_least(self):
        system = CoveringSystem.from_pairs([(0, 2), (1, 4)])
        verdict = is_covering_naive(system)
        assert verdict.witness == 3

    def test_guard_on_large_lcm(self):
        # lcm 100,160,063 lies just above NAIVE_LIMIT: refused before any
        # array is allocated
        system = CoveringSystem.from_pairs([(0, 10007), (0, 10009)])
        assert system.lcm > NAIVE_LIMIT
        with mock.patch.object(
            covering_module, "_mark_progressions", side_effect=AssertionError("allocated")
        ), pytest.raises(ValueError, match="naive scan limit"):
            is_covering_naive(system)

    def test_empty_system_rejected(self):
        with pytest.raises(ValueError):
            is_covering_naive(CoveringSystem(()))


class TestFast:
    def test_four_congruence_cover(self):
        assert is_covering_fast(D9).covering
        assert is_covering_fast(D9, w=2).covering

    def test_parity_cover_with_w2(self):
        system = CoveringSystem.from_pairs([(0, 2), (1, 2)])
        assert is_covering_fast(system, w=2).covering

    def test_invalid_w_rejected(self):
        with pytest.raises(ValueError, match="does not divide"):
            is_covering_fast(D9, w=3)

    def test_empty_class_witness(self):
        # no congruence is compatible with odd integers
        system = CoveringSystem.from_pairs([(0, 4), (2, 4)])
        verdict = is_covering_fast(system, w=2)
        assert not verdict.covering and verdict.witness == 1

    def test_witness_is_least_for_every_w(self):
        # 5 and 6 (mod 12) are uncovered; the class of 6 comes first for w = 2, 3
        pairs = [(0, 4), (3, 4), (1, 12), (2, 12), (9, 12), (10, 12)]
        system = CoveringSystem.from_pairs(pairs)
        assert is_covering_fast(system) == CoverVerdict(False, witness=5)
        for w in (1, 2, 3, 4, 6, 12):
            assert is_covering_fast(system, w=w) == CoverVerdict(False, witness=5)

    def test_witness_suffices_nothing(self):
        rng = random.Random(11)
        found = 0
        while found < 50:
            system = random_system(rng)
            verdict = is_covering_fast(system)
            if verdict.covering:
                continue
            found += 1
            assert not system.matches(verdict.witness)

    def test_agrees_with_naive_and_oracle_small(self):
        rng = random.Random(23)
        for _ in range(300):
            system = random_system(rng)
            if system.lcm > 2000:
                continue
            oracle_verdict, _ = scan_oracle(system)
            assert is_covering_naive(system).covering == oracle_verdict
            ell = system.lcm
            for w in (1, 2, 6, 12, ell):
                if ell % w:
                    continue
                assert is_covering_fast(system, w=w).covering == oracle_verdict

    def test_shift_soundness(self):
        rng = random.Random(5)
        covering_seen = 0
        while covering_seen < 20:
            system = random_system(rng)
            if not is_covering_fast(system).covering:
                continue
            covering_seen += 1
            for _ in range(50):
                n = rng.randint(-10 ** 12, 10 ** 12)
                assert system.matches(n)

    def test_monotonicity_under_removal(self):
        rng = random.Random(17)
        for _ in range(200):
            system = random_system(rng)
            if len(system) < 2:
                continue
            verdict = is_covering_fast(system)
            if verdict.covering:
                continue
            smaller = CoveringSystem(system.congruences[:-1])
            assert not is_covering_fast(smaller).covering


class TestReductionProfile:
    def test_d9_with_w2(self):
        profile = reduction_profile(D9, w=2)
        assert len(profile) == 2
        assert all(r.span <= 4 for r in profile)
        assert all(r.covered for r in profile)
        by_u = {r.u: r for r in profile}
        assert len(by_u[0].congruences) == 1  # only 0 (mod 2) survives u=0
        assert len(by_u[1].congruences) == 3

    def test_w1_keeps_everything(self):
        profile = reduction_profile(D9, w=1)
        assert len(profile) == 1
        assert profile[0].congruences == D9.congruences

    def test_span_and_work_invariants(self):
        rng = random.Random(29)
        for _ in range(100):
            system = random_system(rng)
            ell = system.lcm
            for w in (2, 6, 12):
                if ell % w:
                    continue
                profile = reduction_profile(system, w=w)
                assert sum(r.span for r in profile) <= ell
                for r in profile:
                    if r.congruences:
                        assert ell % (r.w * r.span) == 0
                        assert r.delta == math.gcd(r.w, r.lcm_prime)

    def test_cells_marked_within_span(self):
        for system in refinement_systems():
            (whole,) = reduction_profile(system, w=1)
            assert 0 <= whole.cells_marked <= whole.span

    def test_verdict_from_profile(self):
        rng = random.Random(37)
        for _ in range(100):
            system = random_system(rng)
            w = class_w(system)
            verdict = profile_verdict(reduction_profile(system, w=w))
            assert verdict == is_covering_fast(system, w=w)

    def test_empty_class_convention(self):
        system = CoveringSystem.from_pairs([(0, 4), (2, 4)])
        profile = reduction_profile(system, w=2)
        empty = profile[1]
        assert empty.congruences == ()
        assert (empty.lcm_prime, empty.span, empty.covered) == (1, 1, False)


def small_systems():
    """Seeded random systems plus every shipped digit with lcm <= 10**6."""
    rng = random.Random(41)
    systems = [random_system(rng) for _ in range(300)]
    bundle = default_bundle()
    shipped = [bundle.system(d) for d in DIGIT_OFFSETS]
    return systems + [s for s in shipped if s.lcm <= 10 ** 6]


class TestUnifiedVerifier:
    """Without a w, every system forms the single class w = 1, which gives
    the naive scan's verdict and witness."""

    def test_small_systems_match_naive_verdict_and_witness(self):
        for system in small_systems():
            assert is_covering_fast(system) == is_covering_naive(system)

    def test_small_systems_use_one_class(self):
        for system in small_systems():
            profile = reduction_profile(system)
            assert len(profile) == 1 and profile[0].w == 1
            assert profile[0].span == system.lcm
            assert profile[0].congruences == system.congruences

    def test_class_route_agrees_with_naive(self):
        for system in small_systems():
            w = class_w(system)
            assert (
                is_covering_fast(system, w=w).covering
                == is_covering_naive(system).covering
            )

    def test_route_boundary(self):
        at_limit = CoveringSystem.from_pairs([(0, 2), (1, 10 ** 6)])
        assert reduction_profile(at_limit)[0].w == 1
        past_limit = CoveringSystem.from_pairs([(0, 2), (1, 2 ** 20)])
        assert past_limit.lcm > 10 ** 6
        (whole,) = reduction_profile(past_limit)
        assert whole.w == 1 and whole.span == past_limit.lcm
        verdict = is_covering_fast(past_limit)
        assert not verdict.covering and not past_limit.matches(verdict.witness)
        assert profile_verdict([whole]) == verdict

    def test_shipped_digits_profile_the_verdict_class(self):
        bundle = default_bundle()
        for d in DIGIT_OFFSETS:
            system = bundle.system(d)
            profile = reduction_profile(system)
            assert [r.w for r in profile] == [1]
            assert profile_verdict(profile) == is_covering_fast(system)


def split_covering(rng: random.Random, max_lcm: int) -> CoveringSystem:
    """A random covering with lcm at most max_lcm, built by splitting
    one class at a time into p classes up to a log-uniform target lcm, then
    shifted and sometimes broken: one congruence dropped, one residue moved,
    or a congruence added."""
    primes = (2, 2, 2, 3, 3, 5, 7, 11, 13, 17, 19, 23)
    target = LEAF_CELLS * (max_lcm / LEAF_CELLS) ** rng.random()
    cover, ell = [(0, 1)], 1
    while ell <= target:
        # splitting the newest class half the time keeps the count small
        a, m = cover.pop(-1 if rng.random() < 0.5 else rng.randrange(len(cover)))
        p = rng.choice(primes)
        if math.lcm(ell, m * p) > max_lcm:
            cover.append((a, m))
            break
        cover += [(a + m * j, m * p) for j in range(p)]
        ell = math.lcm(ell, m * p)
    shift = rng.randrange(ell)
    pairs = [(a + shift, m) for a, m in cover]
    kind = rng.randrange(4)
    if kind == 1:
        pairs.pop(rng.randrange(len(pairs)))
    elif kind == 2:
        i = rng.randrange(len(pairs))
        pairs[i] = (pairs[i][0] + 1, pairs[i][1])
    elif kind == 3:
        pairs.append((rng.randrange(7), 7))
    rng.shuffle(pairs)
    return CoveringSystem.from_pairs(pairs)


def random_divisor_system(rng: random.Random) -> CoveringSystem:
    """Random residues modulo divisors of a master modulus above LEAF_CELLS."""
    master = rng.choice([720720, 1441440, 9699690, 65537 * 720, 2 ** 26])
    small = [d for d in range(2, math.isqrt(master) + 1) if master % d == 0]
    divisors = small + [master // d for d in small]
    count = rng.randint(5, 60)
    return CoveringSystem.from_pairs(
        (rng.randrange(m), m) for m in (rng.choice(divisors) for _ in range(count))
    )


def refinement_systems() -> list[CoveringSystem]:
    """Seeded systems with lcm in (LEAF_CELLS, NAIVE_LIMIT], so that
    refinement splits: random coverings (most lcm <= 10**7, a few up to
    10**8) and random residues modulo divisors."""
    rng = random.Random(4099)
    systems = []
    while len(systems) < 60:
        if len(systems) % 2:
            max_lcm = NAIVE_LIMIT if len(systems) % 15 == 1 else 10 ** 7
            system = split_covering(rng, max_lcm)
        else:
            system = random_divisor_system(rng)
        if LEAF_CELLS < system.lcm <= NAIVE_LIMIT:
            systems.append(system)
    return systems


def fast_routes(system: CoveringSystem) -> list:
    """is_covering_fast without a w, with the smallest prime factor of the
    lcm as w, and with its largest divisor up to 720 as w."""
    ell = system.lcm
    p = next((q for q in range(2, ell + 1) if ell % q == 0), 1)
    w = class_w(system)
    return [is_covering_fast(system), is_covering_fast(system, w=p), is_covering_fast(system, w=w)]


class TestRefinement:
    """Recursive prime splitting gives the naive scan's verdict and least
    uncovered integer, with or without a class modulus."""

    def test_refinement_systems_match_naive(self):
        systems = refinement_systems()
        assert any(is_covering_naive(s).covering for s in systems)
        for system in systems:
            naive = is_covering_naive(system)
            assert fast_routes(system) == [naive] * 3, system

    def test_shipped_digits_minus_one_congruence_match_naive(self):
        bundle = default_bundle()
        rng = random.Random(59)
        compared = 0
        for d in DIGIT_OFFSETS:
            congruences = bundle.system(d).congruences
            if len(congruences) < 2:
                continue
            for i in rng.sample(range(len(congruences)), 3):
                system = CoveringSystem(congruences[:i] + congruences[i + 1:])
                if system.lcm > NAIVE_LIMIT:
                    continue
                compared += 1
                assert fast_routes(system) == [is_covering_naive(system)] * 3
        assert compared >= 15

    def test_shipped_digits_in_refinement_range(self):
        bundle = default_bundle()
        systems = [bundle.system(d) for d in DIGIT_OFFSETS]
        systems = [s for s in systems if LEAF_CELLS < s.lcm <= NAIVE_LIMIT]
        assert len(systems) >= 2
        for system in systems:
            assert fast_routes(system) == [is_covering_naive(system)] * 3

    def test_trivial_cover_with_huge_prime_is_quick(self):
        system = CoveringSystem.from_pairs([(0, 2), (1, 2), (0, 1000000007)])
        start = time.perf_counter()
        verdict = is_covering_fast(system)
        assert verdict.covering
        assert time.perf_counter() - start < 1.0

    def test_unsplittable_node_past_limit_raises(self):
        big = 65537 * 65539  # both prime, above LEAF_CELLS
        assert big > NAIVE_LIMIT
        system = CoveringSystem.from_pairs([(0, 2), (1, 4), (3, big)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="to split on"):
            is_covering_fast(system)
        assert time.perf_counter() - start < 1.0

    def test_prime_above_leaf_cap_matches_naive(self):
        assert 65537 > LEAF_CELLS
        system = CoveringSystem.from_pairs([(0, 2), (3, 4), (1, 65537)])
        naive = is_covering_naive(system)
        assert not naive.covering
        assert fast_routes(system) == [naive] * 3

    def test_split_rule_marks_no_more_than_the_total_lcm_rule(self, bundle):
        # cells each shipped digit above LEAF_CELLS marked when every child
        # of a split was charged its full lcm (27,397,606 in all), and the
        # total over refinement_systems() under that rule.  The shipped total
        # was 14,623,129 before coprime parts decided nodes (8,923,029 with)
        full_lcm_rule = {
            -9: 1_387_408, -8: 3_148_046, -6: 3_357_800, -5: 104_484,
            -3: 18_066_503, -2: 39_360, 3: 1_273_493, 7: 20_512,
        }
        marked = {}
        for d in DIGIT_OFFSETS:
            system = bundle.system(d)
            if system.lcm > LEAF_CELLS:
                (whole,) = reduction_profile(system)
                marked[d] = whole.cells_marked
        assert marked.keys() == full_lcm_rule.keys()
        for d, cells in marked.items():
            assert cells <= full_lcm_rule[d], d
        assert sum(marked.values()) <= 9_000_000
        total = sum(reduction_profile(s)[0].cells_marked for s in refinement_systems())
        assert total <= 1_802_546

    def test_split_primes_match_the_prime_table_rule(self, bundle):
        # the rule before the split primes came from the lcm's factorization:
        # every prime <= 2^16 of the prime table that divides the lcm.  The
        # lcm factorization finds them all, 2^128 + 1 (unsplit within its
        # budget) included
        table = primes_up_to(LEAF_CELLS)
        shipped = [bundle.system(d).lcm for d in DIGIT_OFFSETS if d not in MOD3_DIGITS]
        assert len(shipped) == 12
        # 65521 is the last prime <= 2^16, and 65537 lies between 2^16 and 10^5
        lcms = shipped + [1, 8, 2 * 65521, 3 * 65537, 132059 * 133499, 2 ** 128 + 1]
        for ell in lcms:
            expected = [p for p in table if ell % p == 0]
            fac = CoveringSystem.from_pairs([(0, ell)]).lcm_factorization
            assert [p for p in fac.primes() if p <= LEAF_CELLS] == expected, ell

    def test_each_lcm_is_factored_once(self, bundle):
        # lcm_analysis and the verifier read one factorization per system
        factored = []

        def counted(n, budget):
            factored.append(n)
            return factor(n, budget)

        with mock.patch("digitcover.covering.factor", side_effect=counted):
            for d in DIGIT_OFFSETS:
                system = bundle.system(d)
                analysis = lcm_analysis(system)
                assert is_covering_fast(system).covering
                assert reduction_profile(system)[0].covered
                assert factored.pop() == analysis.lcm and not factored, d

    def test_d_minus_3_marks_a_tenth_of_the_class_route(self, system_d_minus_3):
        # the w = 1140 class route marked 385,231,385 cells for d = -3
        (whole,) = reduction_profile(system_d_minus_3, w=1)
        assert whole.covered
        assert whole.cells_marked <= 385_231_385 // 10
        spanned = reduction_profile(system_d_minus_3, w=1140)
        assert sum(r.span for r in spanned) == 385_231_385
        assert sum(r.cells_marked for r in spanned) < 385_231_385 // 10


def split_on(rng: random.Random, primes: tuple[int, ...], max_lcm: int) -> list[tuple[int, int]]:
    """A covering whose moduli are products of primes, lcm at most
    max_lcm, built by splitting a random class into p classes at a time,
    then kept, or broken by dropping a congruence (density below 1) or
    moving a residue (density 1), or given an extra congruence."""
    cover, ell = [(0, 1)], 1
    target = max_lcm ** rng.uniform(0.5, 1)
    while ell < target:
        a, m = cover.pop(rng.randrange(len(cover)))
        p = rng.choice(primes)
        if math.lcm(ell, m * p) > max_lcm:
            cover.append((a, m))
            break
        cover += [(a + m * j, m * p) for j in range(p)]
        ell = math.lcm(ell, m * p)
    kind = rng.randrange(4)
    if kind == 1 and len(cover) > 1:
        cover.pop(rng.randrange(len(cover)))
    elif kind == 2:
        i = rng.randrange(len(cover))
        cover[i] = (cover[i][0] + 1, cover[i][1])
    elif kind == 3:
        m = rng.choice([m for _, m in cover])
        cover.append((rng.randrange(m), m))
    return cover


def coprime_union(seed: int) -> CoveringSystem:
    """The union of two split_on systems on coprime bases, 2^a * 3^b up to
    1728 and 5^c * 7^d * 11^e up to 1925, with lcm above LEAF_CELLS, so
    that refinement tries the two parts at the root."""
    rng = random.Random(seed)
    while True:
        pairs = split_on(rng, (2, 3), 1728) + split_on(rng, (5, 7, 11), 1925)
        rng.shuffle(pairs)
        system = CoveringSystem.from_pairs(pairs)
        if system.lcm > LEAF_CELLS:
            return system


class TestCoprimeParts:
    """A node whose steps fall into coprime parts is covered iff one part
    covers on its own; otherwise splitting finds the least witness."""

    @given(st.integers(min_value=0, max_value=2 ** 32))
    @settings(max_examples=40, deadline=None)
    def test_unions_on_coprime_bases_match_naive(self, seed):
        system = coprime_union(seed)
        naive = is_covering_naive(system)
        for w in (1, class_w(system)):
            assert is_covering_fast(system, w=w) == naive, (seed, w)
            for r in reduction_profile(system, w=w):
                assert not r.covered or r.cells_marked <= r.span, (seed, w, r.u)

    def test_seeded_unions_take_both_routes(self):
        # over seeded unions some nodes are decided by a part, and some
        # covering unions are not (both parts broken), so they split
        decided = split = covering = 0
        for seed in range(60):
            system = coprime_union(seed)
            (whole,) = reduction_profile(system)
            assert profile_verdict([whole]) == is_covering_naive(system), seed
            decided += whole.parts > 0
            split += whole.splits > 0 and not whole.covered
            covering += whole.covered
        assert decided >= 10 and split >= 10 and covering >= 10

    def test_a_covering_part_decides_the_node(self):
        # 0 mod 2, 1 mod 4, 3 mod 4 covers Z/4 on its own, so the root of lcm
        # 4 * 5^7 is decided by that part, marked in 4 cells, without a split
        system = CoveringSystem.from_pairs([(0, 2), (1, 4), (3, 4), (7, 5 ** 7)])
        (whole,) = reduction_profile(system)
        assert whole.covered
        assert (whole.parts, whole.splits, whole.cells_marked) == (1, 0, 4)

    def test_a_dense_part_that_does_not_cover_falls_back_to_splitting(self):
        # 0 mod 2, 0 mod 4, 2 mod 4 has density 1 but covers only the evens,
        # so the root of lcm 4 * 5^7 is split and the least odd integer on
        # none of the three progressions mod 5^7 is the witness
        system = CoveringSystem.from_pairs(
            [(0, 2), (0, 4), (2, 4), (1, 5 ** 7), (3, 5 ** 7), (5, 5 ** 7)]
        )
        assert system.lcm > LEAF_CELLS
        naive = is_covering_naive(system)
        assert naive == CoverVerdict(False, witness=7)
        assert fast_routes(system) == [naive] * 3
        (whole,) = reduction_profile(system)
        assert whole.parts == 0 and whole.splits >= 1

    def test_a_root_that_fits_one_array_is_marked_whole(self):
        # parts are tried only above LEAF_CELLS: trying the dense part 0 2,
        # 0 4, 2 4 here would mark its 4 cells and then all 12 again
        system = CoveringSystem.from_pairs([(0, 2), (0, 4), (2, 4), (0, 3), (1, 3)])
        assert is_covering_naive(system) == CoverVerdict(False, witness=5)
        (whole,) = reduction_profile(system)
        assert whole.witness == 5
        assert (whole.cells_marked, whole.span, whole.parts) == (12, 12, 0)

    def test_a_part_with_a_factor_above_leaf_cells_is_not_tried(self):
        # the evens part carries 1 mod 2 * 65537 * 65539: refined alone it
        # would reach the node of lcm 65537 * 65539 > NAIVE_LIMIT with no
        # prime to split on, and raise.  The 3-adic chain 0, 1 mod 3, then
        # 3^(k-1) - 1 and 2 * 3^(k-1) - 1 mod 3^k, ends in every class mod
        # 3^22 and covers alone, though its lcm is the larger
        pairs = [(0, 2), (0, 4), (2, 4), (1, 2 * 65537 * 65539), (0, 3), (1, 3)]
        r = 2
        for k in range(2, 23):
            pairs += [(r, 3 ** k), (r + 3 ** (k - 1), 3 ** k)]
            r += 2 * 3 ** (k - 1)
        pairs.append((r, 3 ** 22))
        system = CoveringSystem.from_pairs(pairs)
        assert 3 ** 22 > 4 * 65537 * 65539 > NAIVE_LIMIT
        (whole,) = reduction_profile(system)
        assert whole.covered and whole.parts == 1


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9))
@settings(max_examples=300)
def test_documented_cover_matches_any_integer(n):
    assert D9.matches(n)
