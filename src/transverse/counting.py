"""Exact counting support: collineation counts, subspace totals against the
closed-form bound, and the factorial-versus-subspace-count inequality whose
violation forces the existence of non-bilinear span sets.

Every verdict here is decided on integers.  The inequality is squared, so
its half-integral exponent becomes integral; its Stirling form brackets e
between partial sums of the exponential series until one side wins.  The
operands are sized from their exponents before any is built, and a
comparison past the enumeration cap raises CapExceeded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fpcore import DEFAULT_ENUMERATION_CAP, CapExceeded, _require_prime

__all__ = [
    "bijection_vs_projective",
    "gaussian_binomial",
    "inequality_check",
    "n0_estimate",
    "proj_count",
    "subspace_counts",
]

N_SCAN_LIMIT = 64


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


def _check_bits(bits: int) -> None:
    """CapExceeded when an exact comparison's operands, counted in bits, pass
    the enumeration cap.  Unlike an enumeration, it takes no override."""
    if bits > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(f"an exact comparison needs operands of up to 2**{bits.bit_length()} "
                          f"bits (cap {DEFAULT_ENUMERATION_CAP})")


def _exceeds_e_power(lhs: int, rhs: int, m: int) -> bool:
    """Whether lhs > rhs e^(2m), for positive ints.  e lies strictly between
    s_k = sum_{j<=k} 1/j! and s_k + 1/(k! k); both bounds are raised to the
    2m-th power, and k grows until one side wins, which it must, since
    e^(2m) is irrational.  Each step sizes its operands before building them."""
    k, fact, a = 1, 1, 2  # s_k = a / k!
    while True:
        _check_bits(max(lhs.bit_length(), rhs.bit_length()) + 2 * m * (a * k + 1).bit_length())
        if lhs * (fact * k) ** (2 * m) > rhs * (a * k + 1) ** (2 * m):
            return True
        if lhs * fact ** (2 * m) < rhs * a ** (2 * m):
            return False
        k += 1
        fact, a = fact * k, a * k + 1


def inequality_check(p: int, n: int, mode: str = "stirling") -> bool:
    """Whether the chosen lower bound on the number of span sets exceeds
    (32/15) p^(n^4/2), i.e. whether counting alone already proves that a
    non-bilinear span set exists at these parameters.

    With m = p^(n-1), both sides are squared so the half exponent becomes
    integral.  exact_factorial decides 15^2 (m!)^2 > 32^2 p^(n^4); stirling,
    which bounds m! below by (m/e)^m, decides 15^2 m^(2m) > 32^2 p^(n^4)
    e^(2m).  Either mode's first comparison has operands of at most
    2m(log2(m) + 2) + n^4 log2(p) bits, sized from the exponents before any
    is built: past the enumeration cap the call raises CapExceeded at once,
    as at (2, n >= 22), (3, n >= 14), (47, n >= 5) and (p, 2) for primes
    above about 1.5 million.
    """
    _require_prime(p)
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if mode not in ("stirling", "exact_factorial"):
        raise ValueError(f"mode must be 'stirling' or 'exact_factorial', got {mode!r}")
    m = p ** (n - 1)
    _check_bits(2 * m * (m.bit_length() + 2) + n**4 * p.bit_length())
    rhs = 32**2 * p ** (n**4)
    if mode == "exact_factorial":
        return 15**2 * math.factorial(m) ** 2 > rhs
    return _exceeds_e_power(15**2 * m ** (2 * m), rhs, m)


def n0_estimate(p: int, mode: str = "stirling") -> int | None:
    """Smallest n in [2, 64] where inequality_check reports a violation, or
    None when the scanned range has none (not observed for any prime).
    CapExceeded when the scan reaches an n past the cap first, as it does at
    n = 2 for primes above about 1.5 million."""
    for n in range(2, N_SCAN_LIMIT + 1):
        if inequality_check(p, n, mode):
            return n
    return None
