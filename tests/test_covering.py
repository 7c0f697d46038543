import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digitcover.bundle import default_bundle
from digitcover.covering import (
    FULL_SCAN_LCM,
    Congruence,
    CoveringSystem,
    default_w,
    is_covering_fast,
    is_covering_naive,
    lcm_analysis,
    reduction_profile,
)


def scan_oracle(system: CoveringSystem) -> tuple[bool, int | None]:
    """Pure-python reference: test every residue in [0, lcm) one by one."""
    for r in range(system.lcm):
        if not any((r - c.residue) % c.modulus == 0 for c in system):
            return False, r
    return True, None


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
        system = CoveringSystem.from_pairs([(0, p) for p in (101, 103, 107, 109)])
        with pytest.raises(ValueError, match="naive scan limit"):
            is_covering_naive(system, limit=10 ** 6)

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

    def test_default_w_forms(self):
        # 60 * q divides the lcm here: q = 7, lcm = 5040
        system = CoveringSystem.from_pairs([(0, 7), (1, 16), (2, 9), (3, 5)])
        assert system.lcm == 5040
        assert default_w(system) == 420
        # fallback: lcm = 8 leaves only the 2-smooth form
        assert default_w(D9) == 8

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
    shipped = [bundle.system(d) for d in bundle.digits()]
    return systems + [s for s in shipped if s.lcm <= FULL_SCAN_LCM]


class TestUnifiedVerifier:
    """Without a w, small systems form the single class w = 1, which is the
    naive scan; larger ones fall back to default_w."""

    def test_small_systems_match_naive_verdict_and_witness(self):
        for system in small_systems():
            assert is_covering_fast(system) == is_covering_naive(system)

    def test_small_systems_use_one_class(self):
        for system in small_systems():
            profile = reduction_profile(system)
            assert len(profile) == 1 and profile[0].w == 1
            assert profile[0].span == system.lcm
            assert profile[0].congruences == system.congruences

    def test_default_w_route_agrees_with_naive(self):
        for system in small_systems():
            w = default_w(system)
            assert (
                is_covering_fast(system, w=w).covering
                == is_covering_naive(system).covering
            )

    def test_route_boundary(self):
        at_limit = CoveringSystem.from_pairs([(0, 2), (1, 10 ** 6)])
        assert reduction_profile(at_limit)[0].w == 1
        past_limit = CoveringSystem.from_pairs([(0, 2), (1, 2 ** 20)])
        assert past_limit.lcm > FULL_SCAN_LCM
        profile = reduction_profile(past_limit)
        assert len(profile) == profile[0].w == default_w(past_limit) > 1
        verdict = is_covering_fast(past_limit)
        assert not verdict.covering and not past_limit.matches(verdict.witness)


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9))
@settings(max_examples=300)
def test_documented_cover_matches_any_integer(n):
    assert D9.matches(n)
