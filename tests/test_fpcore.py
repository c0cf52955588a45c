"""Base layer: F_p vectors as base-p integers, RREF subspaces, projective
points, and the enumeration cap."""

import pytest

from transverse.detrng import SplitMix64
from transverse.fpcore import (
    CapExceeded,
    MatP,
    ProjPoint,
    Subspace,
    VecP,
    _kernel_rows,
    all_subspaces,
    capped_factorial,
    check_cap,
    complement,
    decode,
    encode,
    is_prime,
    proj_enumerate,
    rref,
    span,
    vspace,
)

from test_properties import reference_rref


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for k in range(2, 25):
        assert is_prime(k) == (k in primes)
    assert not is_prime(1)
    assert not is_prime(0)


def test_encode_decode_roundtrip():
    rng = SplitMix64(11)
    for _ in range(300):
        p = (2, 3, 5, 7)[rng.below(4)]
        n = rng.below(4) + 1
        idx = rng.below(p**n)
        coords = decode(idx, p, n)
        assert len(coords) == n
        assert all(0 <= c < p for c in coords)
        assert encode(coords, p) == idx
    # little-endian: the first coordinate is the lowest digit
    assert decode(5, 3, 2) == (2, 1)
    assert encode((2, 1), 3) == 5


def test_vecp_arithmetic():
    rng = SplitMix64(12)
    for _ in range(200):
        p = (2, 3, 5)[rng.below(3)]
        n = rng.below(3) + 1
        a = VecP.from_index(rng.below(p**n), p, n)
        b = VecP.from_index(rng.below(p**n), p, n)
        assert (a + b - b).coords == a.coords
        assert (-a + a).is_zero()
        lam = rng.below(p)
        assert a.scale(lam).coords == tuple(lam * c % p for c in a.coords)
        assert a.dot(b) == b.dot(a)


def test_rref_canonical_and_membership():
    rng = SplitMix64(13)
    for _ in range(150):
        p = (2, 3, 5)[rng.below(3)]
        n = rng.below(3) + 2
        rows = [tuple(rng.below(p) for _ in range(n)) for _ in range(rng.below(3) + 1)]
        s = span([VecP(p, r) for r in rows])
        # the span does not depend on generator order
        t = span([VecP(p, r) for r in reversed(rows)], p=p, ambient=n)
        assert s.basis == t.basis
        for r in rows:
            assert s.member(VecP(p, r))
        assert s.size == p**s.dim
        # RREF rows have leading 1s in strictly increasing pivot columns
        pivots = s.pivots
        assert list(pivots) == sorted(pivots)
        for row, piv in zip(s.basis, pivots):
            assert row[piv] == 1
            assert all(row[j] == 0 for j in range(piv))


def test_residual_checks_field_and_dimension():
    s = Subspace.from_rows([(1, 0, 0)], 3, 3)
    assert s.residual(VecP(3, (2, 1, 2))) == VecP(3, (0, 1, 2))
    for v in (VecP(3, (1, 2)), VecP(5, (1, 2, 3))):
        with pytest.raises(ValueError, match="dimension or field mismatch"):
            s.residual(v)
        with pytest.raises(ValueError, match="dimension or field mismatch"):
            s.coords_of(v)


def test_kernel_rows_vanish_on_the_row_space():
    rng = SplitMix64(17)
    for k in range(150):
        p = (2, 3, 5)[k % 3]
        ncols = rng.below(6) + 1
        rows = [[rng.below(p) for _ in range(ncols)] for _ in range(rng.below(6))]
        basis, _ = rref(rows, p)
        kernel = _kernel_rows(basis, ncols, p)
        assert len(kernel) == ncols - len(basis)
        assert span(kernel, p, ncols).dim == len(kernel)
        for h in kernel:
            assert all(sum(a * b for a, b in zip(h, r)) % p == 0 for r in rows)


def test_subspace_closed_under_addition():
    rng = SplitMix64(14)
    for _ in range(60):
        p = (2, 3)[rng.below(2)]
        n = 3
        rows = [tuple(rng.below(p) for _ in range(n)) for _ in range(2)]
        s = span([VecP(p, r) for r in rows], p=p, ambient=n)
        idx = s.element_indices()
        elems = [VecP.from_index(i, p, n) for i in idx]
        for a in elems:
            for b in elems:
                assert s.member(a + b)


def test_complement_is_kernel_of_functional():
    for p in (2, 3, 5):
        phi = VecP(p, (1, 2 % p, 1))
        h = complement(phi)
        assert h.dim == 2
        for i in range(p**3):
            v = VecP.from_index(i, p, 3)
            assert h.member(v) == (phi.dot(v) % p == 0)


def test_all_subspaces_counts():
    # p=2, n=3: 1 + 7 + 7 + 1 subspaces by dimension
    subs = list(all_subspaces(2, 3))
    by_dim = {}
    for s in subs:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    assert by_dim == {0: 1, 1: 7, 2: 7, 3: 1}
    # p=3, n=2: 1 + 4 + 1
    assert len(list(all_subspaces(3, 2))) == 6
    assert len(list(all_subspaces(3, 2, dim=1))) == 4
    # deduplication: every basis appears once
    seen = {s.basis for s in subs}
    assert len(seen) == 16


def test_matp_apply_and_compose():
    m = MatP(3, ((1, 2), (0, 1)))
    v = VecP(3, (1, 1))
    assert m.apply(v).coords == (0, 1)


def test_proj_points():
    # scaling a vector does not change the projective point
    for p in (2, 3, 5):
        pts = proj_enumerate(p, 2)
        assert len(pts) == (p**2 - 1) // (p - 1)
        for pt in pts:
            assert pt.rep[next(i for i, c in enumerate(pt.rep) if c)] == 1
        v = VecP(p, (1, p - 1))
        for lam in range(1, p):
            assert ProjPoint.from_vector(v.scale(lam)) == ProjPoint.from_vector(v)


def test_cap_guard():
    with pytest.raises(CapExceeded):
        check_cap(10**9)
    check_cap(10**9, override=True)
    check_cap(10)


def test_cap_message_on_huge_counts():
    with pytest.raises(CapExceeded, match=r"would materialize 1000000000 objects"):
        check_cap(10**9)
    # 2**20000 has 6,021 digits, past what str() of an int accepts
    with pytest.raises(CapExceeded, match=r"at least 2\*\*20000 objects"):
        check_cap(1 << 20000)


def test_capped_factorial():
    assert capped_factorial(7) == 5040
    assert capped_factorial(0) == 1
    # the same boundary as check_cap(k!): 11! is under the cap of 2**26, 12! is not
    assert capped_factorial(11) == 39916800
    with pytest.raises(CapExceeded, match=r"12! objects"):
        capped_factorial(12)
    with pytest.raises(CapExceeded, match=r"1048575! objects"):
        capped_factorial(2**20 - 1, what="permutation sweep")
    assert capped_factorial(13, override=True) == 6227020800


def test_huge_factorials_and_powers_are_shown_by_bit_length():
    # (2**20000 - 1)! is refused on its first factors, and k is shown by its
    # bit length: it has 6,021 digits
    with pytest.raises(CapExceeded, match=r"\(at least 2\*\*19999\)! objects"):
        capped_factorial(2**20000 - 1)
    # a power is sized from bit lengths first: 3**(2**20) is never built
    with pytest.raises(CapExceeded, match=r"at least 2\*\*1048576 objects"):
        check_cap(3, exp=2**20)
    check_cap(3, override=True, exp=2**20)
    # the same boundary as check_cap(count**exp)
    check_cap(2, exp=26)
    with pytest.raises(CapExceeded, match=r"134217728 objects"):
        check_cap(2, exp=27)
    check_cap(3, exp=16)
    with pytest.raises(CapExceeded, match=r"129140163 objects"):
        check_cap(3, exp=17)


def test_rref_idempotent():
    rng = SplitMix64(16)
    for _ in range(100):
        p = (2, 3, 5)[rng.below(3)]
        rows = tuple(tuple(rng.below(p) for _ in range(4)) for _ in range(3))
        reduced, pivots = rref(rows, p)
        again, pivots2 = rref(reduced, p)
        assert again == reduced
        assert pivots == pivots2


def test_proj_point_index_is_stored():
    pt = ProjPoint(3, (0, 1, 2))
    assert pt.index == encode((0, 1, 2), 3) == 21
    assert vars(pt)["_index"] == 21
    # equality and hashing stay on (p, rep)
    assert pt == ProjPoint(3, (0, 1, 2)) and hash(pt) == hash(ProjPoint(3, (0, 1, 2)))
    assert pt != ProjPoint(3, (1, 0, 0))


def test_rref_gf2_edge_cases():
    cases = {
        (): ([], []),
        ((0, 0, 0), (2, 4, 0)): ([], []),
        ((1, 1, 0), (1, 1, 0), (3, 0, 1)): ([[1, 0, 1], [0, 1, 1]], [0, 1]),
    }
    for rows, expected in cases.items():
        assert rref(rows, 2) == reference_rref(rows, 2) == expected


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (5, 2), (7, 1), (2, 4), (3, 3)])
def test_vspace_tables_match_coordinate_arithmetic(p, n):
    sp = vspace(p, n)
    vs = [decode(i, p, n) for i in range(p**n)]
    for i, u in enumerate(vs):
        assert sp.neg[i] == encode([-a % p for a in u], p)
        for j, v in enumerate(vs):
            assert sp.add[i][j] == encode([(a + b) % p for a, b in zip(u, v)], p)
        for lam in range(p):
            assert sp.scale[lam][i] == encode([lam * a % p for a in u], p)


def test_vspace_past_the_table_limit_is_a_usage_error():
    # the 4,096-vector table limit is not an enumeration cap: no override
    # lifts it, so it is a ValueError rather than CapExceeded
    with pytest.raises(ValueError, match=r"F_2\^13 has 8192 vectors, past the table limit of 4096"):
        vspace(2, 13)
