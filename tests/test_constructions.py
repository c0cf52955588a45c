"""Named example sets and their seeded generators."""

import inspect

import pytest

from transverse.constructions import (
    ProjBijection,
    build_P_sigma,
    build_P_xi,
    f3_example,
    p0_p1,
    random_sigma,
    sigma_fig2,
)
from transverse.detrng import SplitMix64, exchange_shuffle
from transverse.fpcore import (
    ProjPoint,
    Subspace,
    VecP,
    all_subspaces,
    complement,
    proj_enumerate,
)
from transverse.pairsets import PairSet, from_fiber_map, is_transverse
from transverse.projgeom import recognize_projective


def test_f3_shape():
    a = f3_example()
    assert (a.p, a.n1, a.n2) == (3, 2, 2)
    assert a.size == 29
    assert is_transverse(a)
    # membership spot checks: (0, y) for all y, and the diagonal pattern
    for y in range(9):
        assert a.contains(0, y)


def test_p0_p1_are_the_bilinear_pieces_of_f3():
    from transverse.bilinear import is_bilinear

    p0, p1 = p0_p1()
    assert (p0.size, p1.size) == (25, 9)
    for piece in (p0, p1):
        assert is_transverse(piece)
        assert is_bilinear(piece).status == "bilinear"
    assert (p0 | p1).indicator == f3_example().indicator


def test_sigma_fig2_table():
    s = sigma_fig2()
    assert (s.p, s.n_dom, s.n_cod) == (2, 3, 3)
    # seven projective classes, all hit exactly once
    assert sorted(s.index_table()) == [pt.index for pt in s.domain()]
    a = build_P_sigma(s)
    assert a.size == 22
    assert is_transverse(a)
    # the figure's bijection is not a collineation
    assert recognize_projective(s) is None


def test_random_sigma_is_reproducible():
    a = random_sigma(2, 3, seed=42)
    b = random_sigma(2, 3, seed=42)
    assert a.index_table() == b.index_table()
    tables = {random_sigma(2, 3, seed=s).index_table() for s in range(40)}
    assert len(tables) > 30  # different seeds explore different bijections


def test_span_sets_are_transverse():
    for seed in range(25):
        for p, n in ((2, 3), (3, 2)):
            a = build_P_sigma(random_sigma(p, n, seed))
            assert is_transverse(a, "fiberwise")
            assert is_transverse(a, "direct")


def test_sigma_span_set_size():
    # full fiber over 0, and a line fiber over each of the p^n - 1 nonzero x
    for p, n in ((2, 3), (3, 2), (5, 2)):
        a = build_P_sigma(random_sigma(p, n, seed=1))
        assert a.size == p**n + (p**n - 1) * p


def build_P_sigma_reference(sigma):
    """{0} x V2 and Span(x) x Span(sigma([x])), pair by pair."""
    p, n1, n2 = sigma.p, sigma.n_dom, sigma.n_cod
    m1 = p**n1
    pairs = [(0, y) for y in range(p**n2)]
    for pt in proj_enumerate(p, n1):
        img = sigma.image_of(pt).vector()
        for lam in range(1, p):
            x = pt.vector().scale(lam).index
            pairs += [(x, img.scale(mu).index) for mu in range(p)]
    return sum({1 << (x + m1 * y) for x, y in pairs})


def test_sigma_columns_match_per_pair_reference():
    for p, n in ((2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4), (2, 7)):
        for seed in range(6):
            sigma = random_sigma(p, n, seed)
            assert build_P_sigma(sigma).indicator == build_P_sigma_reference(sigma)


def identity_bijection(p, n):
    from transverse.fpcore import proj_enumerate

    table = tuple(pt.index for pt in proj_enumerate(p, n))
    return ProjBijection.from_index_table(p, n, n, table)


def test_projective_sigma_gives_bilinear_set():
    from transverse.bilinear import is_bilinear

    # the identity bijection is projective and its span set is bilinear
    ident = identity_bijection(2, 3)
    assert recognize_projective(ident) is not None
    assert is_bilinear(build_P_sigma(ident)).status == "bilinear"


def test_xi_construction_validations():
    w_bad = Subspace.from_rows([(1, 0)], 5, 2)  # codim 1, need 2
    line = Subspace.full(5, 2)
    xi = random_sigma(5, 2, seed=0)
    with pytest.raises(ValueError):
        build_P_xi(w_bad, line, xi)
    w = Subspace.zero(5, 2)
    plane = Subspace.from_rows([(1, 0, 0), (0, 1, 0)], 5, 3)
    with pytest.raises(ValueError, match="field mismatch"):
        build_P_xi(Subspace.zero(3, 2), line, xi)
    with pytest.raises(ValueError, match="2-dimensional"):
        build_P_xi(w, Subspace.from_rows([(1, 0, 0)], 5, 3), xi)
    with pytest.raises(ValueError, match="projective line"):
        build_P_xi(w, plane, xi)  # codomain is not the ambient of l
    with pytest.raises(ValueError, match="projective line"):
        build_P_xi(w, plane, random_sigma(5, 3, seed=0))  # domain is not a line
    # (0,0,1) lies off the plane z = 0
    off_plane = ProjBijection.from_index_table(5, 2, 3, (25, 1, 6, 11, 16, 21))
    with pytest.raises(ValueError, match="outside l"):
        build_P_xi(w, plane, off_plane)


def build_P_xi_reference(w, l, xi_prime):
    """The per-x construction: reduce x mod w, look up the image of its
    class, and lay the orthogonal hyperplane of that image over x."""
    p = xi_prime.p
    n1, n2 = w.ambient, l.ambient
    m1, m2 = p**n1, p**n2
    free = [j for j in range(n1) if j not in w.pivots]
    mask = 0
    for xi in range(m1):
        r = w.residual(VecP.from_index(xi, p, n1))
        if r.is_zero():
            ys = range(m2)
        else:
            u = VecP(p, (r.coords[free[0]], r.coords[free[1]]))
            img = xi_prime.image_of(ProjPoint.from_vector(u))
            ys = complement(img.vector()).element_indices()
        for yi in ys:
            mask |= 1 << (xi + m1 * yi)
    return mask


@pytest.mark.parametrize(
    "shape", [(3, 2, 2), (5, 2, 2), (3, 3, 2), (2, 3, 3), (5, 3, 2), (7, 2, 2)]
)
def test_xi_tables_match_per_x_reference(shape):
    p, n1, n2 = shape
    rng = SplitMix64(1000 * p + 10 * n1 + n2)
    ws = all_subspaces(p, n1, dim=n1 - 2)
    ls = all_subspaces(p, n2, dim=2)
    for _ in range(8):
        w = ws[rng.below(len(ws))]
        l = ls[rng.below(len(ls))]
        pts = [pt for pt in proj_enumerate(p, n2) if l.member(pt.vector())]
        exchange_shuffle(pts, rng)
        xi = ProjBijection(p, 2, n2, tuple(pts))
        assert build_P_xi(w, l, xi).indicator == build_P_xi_reference(w, l, xi)


def test_xi_identity_is_bilinear():
    from transverse.bilinear import is_bilinear

    w = Subspace.zero(5, 2)
    line = Subspace.full(5, 2)
    ident = identity_bijection(5, 2)
    a = build_P_xi(w, line, ident)
    assert is_transverse(a)
    assert is_bilinear(a).status == "bilinear"


def test_xi_non_projective_has_trivial_annihilator():
    from transverse.bilinear import is_bilinear

    w = Subspace.zero(5, 2)
    line = Subspace.full(5, 2)
    seed = next(
        s for s in range(50) if recognize_projective(random_sigma(5, 2, s)) is None
    )
    a = build_P_xi(w, line, random_sigma(5, 2, seed))
    assert is_transverse(a)
    v = is_bilinear(a)
    assert v.status == "non_bilinear"
    assert v.r3 == 0  # no nonzero form vanishes on the whole set


def test_image_of_rejects_points_of_another_space():
    s = sigma_fig2()
    for other in (proj_enumerate(3, 2)[1], proj_enumerate(2, 2)[1], proj_enumerate(3, 3)[0],
                  proj_enumerate(2, 4)[0]):
        with pytest.raises(ValueError, match="not in the domain"):
            s.image_of(other)
    assert [s.image_of(pt).index for pt in proj_enumerate(2, 3)] == [1, 2, 3, 4, 6, 7, 5]


def test_bijection_validation():
    for n in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            random_sigma(2, n, seed=1)
    with pytest.raises(ValueError, match="at least 1"):
        ProjBijection(2, 0, 0, ())
    with pytest.raises(ValueError):
        ProjBijection.from_index_table(2, 3, 3, (0, 0, 1, 2, 3, 4, 5))  # not injective
    with pytest.raises(ValueError):
        ProjBijection.from_index_table(2, 3, 3, (1, 2, 3))  # wrong length


@pytest.mark.parametrize("n", [13, 27])
def test_builders_refuse_a_factor_past_the_table_limit(n):
    # no size flag lifts the table limit, so no builder takes one; at n = 27
    # the pair space is past the enumeration cap as well
    for build in (build_P_sigma, build_P_xi, PairSet.from_pairs, from_fiber_map):
        assert "override_cap" not in inspect.signature(build).parameters
    limit = rf"F_2\^{n} has {2**n} vectors, past the table limit of 4096"
    # either factor of the pair space, with the pairs and fibers unread
    for n1, n2 in ((n, 1), (1, n)):
        with pytest.raises(ValueError, match=limit):
            PairSet.from_pairs(2, n1, n2, [(0, 0)])
        with pytest.raises(ValueError, match=limit):
            from_fiber_map(2, n1, n2, 1, [])
    # a line of P(F_2^n): e0, e1 and e0 + e1
    line_map = ProjBijection.from_index_table(2, 2, n, (1, 2, 3))
    with pytest.raises(ValueError, match=limit):
        build_P_sigma(line_map)
    # l past the limit: the plane spanned by e0 and e1 inside F_2^n
    plane = Subspace.from_rows([(1, 0) + (0,) * (n - 2), (0, 1) + (0,) * (n - 2)], 2, n)
    with pytest.raises(ValueError, match=limit):
        build_P_xi(Subspace.zero(2, 2), plane, line_map)
    # w past the limit: codimension 2 in F_2^n, spanned by e2 .. e(n-1)
    w = Subspace.from_rows([tuple(int(i == j) for j in range(n)) for i in range(2, n)], 2, n)
    with pytest.raises(ValueError, match=limit):
        build_P_xi(w, Subspace.full(2, 2), random_sigma(2, 2, seed=1))
