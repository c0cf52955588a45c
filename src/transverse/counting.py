"""Exact counting support: collineation counts, subspace totals against the
closed-form bound, and the factorial-versus-subspace-count inequality whose
violation forces the existence of non-bilinear span sets.

No verdict here rests on floating-point rounding: log-domain comparisons
carry an explicit margin, and anything inside the margin is settled again
with exact integers (squaring away half-integral exponents) or with
high-precision arithmetic for the bound that involves e.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fpcore import is_prime

__all__ = [
    "LOG_MARGIN",
    "bijection_vs_projective",
    "gaussian_binomial",
    "inequality_check",
    "n0_estimate",
    "proj_count",
    "subspace_counts",
]

LOG_MARGIN = 1e-6
N_SCAN_LIMIT = 64


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def gaussian_binomial(m: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^m, exactly."""
    if not 0 <= k <= m:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (m - i) - 1
        den *= p ** (i + 1) - 1
    quotient, remainder = divmod(num, den)
    assert remainder == 0
    return quotient


def proj_count(p: int, n: int) -> int:
    """Number of projective points of F_p^n; always at least p^(n-1)."""
    _require_prime(p)
    count = (p**n - 1) // (p - 1)
    assert count >= p ** (n - 1)
    return count


def bijection_vs_projective(p: int) -> tuple[int, int]:
    """((p+1)!, (p+1)p(p-1)): all bijections of a projective line versus the
    projective ones.  Equal exactly for p in {2, 3}."""
    _require_prime(p)
    return math.factorial(p + 1), (p + 1) * p * (p - 1)


def subspace_counts(p: int, m: int) -> tuple[int, Fraction]:
    """(exact number of subspaces of F_p^m, closed-form upper bound).

    The bound is 2(p^(m^2/2+m) - 1)/(p^m - 1).  For odd m the half power is
    irrational, so it is replaced with floor(sqrt(p^(m^2+2m))), which only
    lowers the bound; the containment assertion stays conservative and the
    returned value stays an exact rational.
    """
    _require_prime(p)
    if m < 1:
        raise ValueError(f"ambient dimension must be positive, got {m}")
    total = sum(gaussian_binomial(m, k, p) for k in range(m + 1))
    root = math.isqrt(p ** (m * m + 2 * m))
    bound = Fraction(2 * (root - 1), p**m - 1)
    assert total <= bound, (total, bound)
    return total, bound


def _rhs_log(p: int, n: int) -> float:
    return math.log(32 / 15) + n**4 / 2 * math.log(p)


def inequality_check(p: int, n: int, mode: str = "stirling") -> bool:
    """Whether the chosen lower bound on the number of span sets exceeds
    (32/15) p^(n^4/2), i.e. whether counting alone already proves that a
    non-bilinear span set exists at these parameters.

    stirling compares (p^(n-1)/e)^(p^(n-1)); exact_factorial compares
    p^(n-1)! itself.  Comparisons closer than LOG_MARGIN in log domain are
    settled again exactly (squares of both sides, so the half exponent
    becomes integral) or, for the e-laden Stirling side, at 60 digits.
    """
    _require_prime(p)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if mode not in ("stirling", "exact_factorial"):
        raise ValueError(f"mode must be 'stirling' or 'exact_factorial', got {mode!r}")
    m = p ** (n - 1)
    rhs = _rhs_log(p, n)
    lhs = m * ((n - 1) * math.log(p) - 1) if mode == "stirling" else math.lgamma(m + 1)
    if abs(lhs - rhs) > LOG_MARGIN:
        return lhs > rhs
    if mode == "exact_factorial":
        return 15**2 * math.factorial(m) ** 2 > 32**2 * p ** (n**4)
    import mpmath  # only this settling step needs it; importing it costs every command

    with mpmath.workdps(60):
        lhs_hp = m * ((n - 1) * mpmath.log(p) - 1)
        rhs_hp = mpmath.log(mpmath.mpf(32) / 15) + mpmath.mpf(n**4) / 2 * mpmath.log(p)
        return lhs_hp > rhs_hp


def n0_estimate(p: int, mode: str = "stirling") -> int | None:
    """Smallest n in [2, 64] where inequality_check reports a violation, or
    None when the scanned range has none (not observed for any prime)."""
    for n in range(2, N_SCAN_LIMIT + 1):
        if inequality_check(p, n, mode):
            return n
    return None
