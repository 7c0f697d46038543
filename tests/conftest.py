import pytest

from digitcover.bundle import MOD3_DIGITS, default_bundle
from digitcover.construction import Assignment, DigitCovering, assemble
from digitcover.covering import Congruence


def build_mini_construction(swap_order8: bool = False):
    """The small demonstration build: prime 3 for the six digits congruent
    to 2 mod 3, and the primes 11, 101, 73, 137 for d = 9."""
    coverings = [
        DigitCovering(d, (Assignment(Congruence(0, 1), 3, rho=1),))
        for d in sorted(MOD3_DIGITS)
    ]
    order8 = [(1, 73), (5, 137)] if not swap_order8 else [(1, 137), (5, 73)]
    entries = [
        Assignment(Congruence(0, 2), 11),
        Assignment(Congruence(3, 4), 101),
    ] + [Assignment(Congruence(a, 8), p) for a, p in order8]
    coverings.append(DigitCovering(9, tuple(entries)))
    return assemble(coverings)


@pytest.fixture(scope="session")
def mini_construction():
    return build_mini_construction()


@pytest.fixture(scope="session")
def bundle():
    return default_bundle()


@pytest.fixture(scope="session")
def system_d_minus_3(bundle):
    return bundle.system(-3)
