"""Projective lines, collineation recognition, and the order formulas."""

import inspect
import time

import pytest

from transverse.constructions import ProjBijection, sigma_fig2
from transverse.detrng import SplitMix64
from transverse.explorer import search_sigma
from transverse.fpcore import MatP, ProjPoint, proj_enumerate, rref
from transverse.projgeom import (
    count_collineations,
    gl_order,
    is_line_preserving,
    line_structure,
    lines_enumerate,
    pgl_order,
    recognize_projective,
)


def random_invertible(rng, p, n):
    while True:
        rows = tuple(tuple(rng.below(p) for _ in range(n)) for _ in range(n))
        basis, _ = rref(rows, p)
        if len(basis) == n:
            return MatP(p, rows)


def matrix_bijection(m: MatP) -> ProjBijection:
    pts = proj_enumerate(m.p, m.ncols)
    images = tuple(ProjPoint.from_vector(m.apply(pt.vector())) for pt in pts)
    return ProjBijection(m.p, m.ncols, m.nrows, images)


def test_fano_plane():
    lines = lines_enumerate(2, 3)
    assert len(lines) == 7
    incidence = {}
    for line in lines:
        assert len(line.points) == 3
        for pt in line.points:
            incidence[pt] = incidence.get(pt, 0) + 1
    # every point lies on exactly three lines
    assert set(incidence.values()) == {3}
    assert len(incidence) == 7


def test_line_counts():
    # P(F_3^3) has 13 points and 13 lines of 4 points each
    lines = lines_enumerate(3, 3)
    assert len(lines) == 13
    assert all(len(line.points) == 4 for line in lines)
    # P(F_2^4): 15 points, 35 lines
    assert len(lines_enumerate(2, 4)) == 35


def test_lines_past_the_table_limit_are_refused_before_any_point_is_listed():
    # no size flag lifts the table limit, so neither lines_enumerate nor
    # proj_enumerate takes one
    for enumerate_ in (lines_enumerate, proj_enumerate):
        assert "override_cap" not in inspect.signature(enumerate_).parameters
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"F_2\^20 has 1048576 vectors, past the table limit"):
            enumerate_(2, 20)
        assert time.perf_counter() - start < 1.0
        # past the enumeration cap the refusal is the same ValueError
        with pytest.raises(ValueError,
                           match=r"F_2\^27 has 134217728 vectors, past the table limit"):
            enumerate_(2, 27)


def test_recognize_identity():
    for p, n in ((2, 3), (3, 3), (5, 2)):
        pts = proj_enumerate(p, n)
        ident = ProjBijection(p, n, n, tuple(pts))
        m = recognize_projective(ident)
        assert m is not None
        assert m.entries == tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_recognize_matrix_maps():
    rng = SplitMix64(41)
    for _ in range(40):
        p, n = [(2, 3), (3, 3), (5, 2)][rng.below(3)]
        m = random_invertible(rng, p, n)
        sigma = matrix_bijection(m)
        found = recognize_projective(sigma)
        assert found is not None
        # the recovered matrix induces the same projective map
        for pt in proj_enumerate(p, n):
            img = ProjPoint.from_vector(found.apply(pt.vector()))
            assert img == sigma.image_of(pt)
        assert is_line_preserving(sigma)


def test_sigma_fig2_is_not_projective():
    s = sigma_fig2()
    assert recognize_projective(s) is None
    assert not is_line_preserving(s)


def test_line_structure_consistency():
    lines, span_mask = line_structure(2, 3)
    assert len(lines) == 7
    # the span mask of two distinct classes is exactly their line
    for line in lines:
        a, b, c = line
        assert span_mask[a][b] == (1 << a) | (1 << b) | (1 << c)


def test_count_collineations_small():
    assert count_collineations(2, 2) == (6, 6)
    assert count_collineations(2, 3) == (5040, 168)


def test_group_orders():
    assert gl_order(2, 3) == 168
    assert pgl_order(2, 3) == 168
    assert gl_order(3, 2) == 48
    assert pgl_order(3, 2) == 24
    assert pgl_order(5, 2) == 120


def test_projective_count_matches_pgl():
    # exhaustively recognized projective permutations match the group order
    assert search_sigma(2, 2).counts["projective"] == 6
    assert search_sigma(3, 2).counts["candidates"] == 24  # 4! permutations of the 4 points
    assert search_sigma(3, 2).counts["projective"] == pgl_order(3, 2) == 24


def test_frame_cache_is_bounded_and_shared_by_frames():
    from transverse.projgeom import _frame_candidate

    assert _frame_candidate.cache_parameters()["maxsize"] is not None
    _frame_candidate.cache_clear()
    pts = proj_enumerate(2, 3)
    # two tables with the same frame images (classes 0, 1, 3 and the
    # all-ones class 6) share one cache entry
    ident = ProjBijection(2, 3, 3, tuple(pts))
    swapped = ProjBijection(2, 3, 3, tuple(pts[i] for i in (0, 1, 4, 3, 2, 5, 6)))
    assert recognize_projective(ident) is not None
    assert recognize_projective(swapped) is None
    info = _frame_candidate.cache_info()
    assert (info.misses, info.hits) == (1, 1)
