"""Gaussian binomials, subspace bounds, and the existence inequalities."""

import math
import time
from decimal import Decimal, localcontext

import pytest

from transverse.counting import (
    _exceeds_e_power,
    bijection_vs_projective,
    gaussian_binomial,
    inequality_check,
    n0_estimate,
    proj_count,
    subspace_counts,
)
from transverse.fpcore import CapExceeded, all_subspaces, is_prime, proj_enumerate, vspace


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(3, 2, 3) == 13
    assert gaussian_binomial(2, 1, 5) == 6
    # symmetry and edge cases
    for m in range(6):
        assert gaussian_binomial(m, 0, 2) == 1
        assert gaussian_binomial(m, m, 2) == 1
        for k in range(m + 1):
            assert gaussian_binomial(m, k, 2) == gaussian_binomial(m, m - k, 2)
    assert gaussian_binomial(2, 3, 2) == 0


def test_gaussian_binomial_matches_enumeration():
    for p, m in ((2, 3), (3, 2), (2, 4)):
        for k in range(m + 1):
            count = len(list(all_subspaces(p, m, dim=k)))
            assert count == gaussian_binomial(m, k, p)


def test_proj_count():
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 2)):
        assert proj_count(p, n) == len(proj_enumerate(p, n))
        assert proj_count(p, n) == (p**n - 1) // (p - 1)
    # F_p^0 has no projective points; a negative dimension is an error
    for p in (2, 3, 5):
        for n in range(4):
            assert proj_count(p, n) == len(vspace(p, n).proj_reps)
        with pytest.raises(ValueError, match="at least 0"):
            proj_count(p, -1)


def test_subspace_totals_and_bound():
    expected_p2 = {1: 2, 2: 5, 3: 16, 4: 67}
    for m, total in expected_p2.items():
        got, bound = subspace_counts(2, m)
        assert got == total
        assert got <= bound
    for p in (2, 3, 5):
        for m in range(1, 5):
            total, bound = subspace_counts(p, m)
            assert total <= bound


def test_bijection_vs_projective():
    for p in (2, 3):
        bij, proj = bijection_vs_projective(p)
        assert bij == proj == math.factorial(p + 1)
    for p in (5, 7, 11, 13):
        bij, proj = bijection_vs_projective(p)
        assert bij == math.factorial(p + 1)
        assert proj == (p + 1) * p * (p - 1)
        assert bij > proj


def test_inequality_boundaries():
    # the Stirling form first tips at (2, 11)
    assert not inequality_check(2, 10)
    assert inequality_check(2, 11)
    # at n = 2 the exact-factorial form separates p = 11 from p = 13
    assert not inequality_check(13, 2, "stirling")
    assert inequality_check(13, 2, "exact_factorial")
    assert not inequality_check(11, 2, "exact_factorial")


def test_n0_tables():
    stirling = {2: 11, 3: 6, 5: 4, 7: 3, 11: 3, 13: 3, 17: 2, 19: 2, 23: 2,
                29: 2, 31: 2, 37: 2, 41: 2, 43: 2, 47: 2}
    for p, n0 in stirling.items():
        assert n0_estimate(p, "stirling") == n0
    exact = dict(stirling)
    exact[13] = 2  # the factorial itself clears the bound one step earlier
    for p, n0 in exact.items():
        assert n0_estimate(p, "exact_factorial") == n0


def test_input_validation():
    with pytest.raises(ValueError):
        inequality_check(4, 3)
    with pytest.raises(ValueError):
        inequality_check(2, 1)
    # out-of-range dimensions count zero subspaces rather than raising
    assert gaussian_binomial(-1, 0, 2) == 0
    assert gaussian_binomial(3, 5, 2) == 0


def log_domain_decision(p, n, mode):
    """The decision inequality_check made in logarithms before it went exact,
    kept as a reference: (verdict, gap between the sides relative to the
    larger one)."""
    m = p ** (n - 1)
    rhs = math.log(32 / 15) + n**4 / 2 * math.log(p)
    lhs = m * ((n - 1) * math.log(p) - 1) if mode == "stirling" else math.lgamma(m + 1)
    return lhs > rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))


# (p, n, mode) cases compared; none in this range has a gap under 1e-9
COMPARED = 138


def test_exact_decision_matches_the_log_domain_reference():
    # every prime up to 47, every n with m = p^(n-1) up to 2^16 (the calls
    # near the cap take seconds to a minute each), both modes
    compared = 0
    for p in filter(is_prime, range(48)):
        n = 2
        while p ** (n - 1) <= 1 << 16:
            for mode in ("stirling", "exact_factorial"):
                verdict, gap = log_domain_decision(p, n, mode)
                if gap > 1e-9:
                    assert inequality_check(p, n, mode) == verdict, (p, n, mode)
                    compared += 1
            n += 1
    assert compared == COMPARED


def test_calls_past_the_cap_refuse_before_building_operands():
    for p, n, mode in ((2, 64, "stirling"), (2, 64, "exact_factorial"),
                       (47, 64, "exact_factorial"), (2, 22, "stirling"),
                       (2, 22, "exact_factorial"), (47, 5, "stirling"),
                       (3, 14, "stirling"), (3, 14, "exact_factorial")):
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            inequality_check(p, n, mode)
        assert time.perf_counter() - start < 0.01, (p, n, mode)


def test_e_power_bracket_settles_near_ties():
    # floor(rhs e^(2m)) < rhs e^(2m) < floor + 1, from 120 digits of e^(2m);
    # ties that close take the bracket for e up to k = 36
    for m in range(1, 25):
        for rhs in (1, 15**2, 10**20 + 7):
            with localcontext() as ctx:
                ctx.prec = 120
                below = int(Decimal(rhs) * Decimal(2 * m).exp())
            assert not _exceeds_e_power(below, rhs, m), (m, rhs)
            assert _exceeds_e_power(below + 1, rhs, m), (m, rhs)
