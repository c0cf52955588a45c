"""Annihilators, biorthogonal zero sets, closure, and the bilinearity test."""

import pytest

from transverse.bilinear import (
    _span_zero,
    _status,
    FormSpace,
    ann,
    closure,
    is_bilinear,
    orth,
)
from transverse.constructions import build_P_sigma, f3_example, sigma_fig2
from transverse.detrng import SplitMix64
from transverse.fpcore import Subspace, VecP, encode
from transverse.pairsets import PairSet


def test_ann_of_extreme_sets():
    full = PairSet.full(2, 2, 2)
    assert ann(full).dim == 0
    origin = PairSet.from_pairs(2, 2, 2, [(0, 0)])
    assert ann(origin).dim == 4
    empty = PairSet.empty(2, 2, 2)
    assert ann(empty).dim == 4


def test_orth_is_zero_set():
    m = FormSpace.from_matrices(2, 2, 2, [((1, 0), (0, 1))])
    z = orth(m, Subspace.full(2, 2), Subspace.full(2, 2))
    q = m.basis[0]
    for x, y in z.pair_indices():
        xv = VecP.from_index(x, 2, 2).coords
        yv = VecP.from_index(y, 2, 2).coords
        assert sum(xv[i] * q[i][j] * yv[j] for i in range(2) for j in range(2)) % 2 == 0
    # x1*y1 + x2*y2 = 0 has 10 solutions over F_2^2 x F_2^2
    assert z.size == 10


def test_galois_connection_on_random_sets():
    rng = SplitMix64(31)
    for _ in range(60):
        p, n = [(2, 2), (3, 2), (2, 3)][rng.below(3)]
        mask = 0
        for _ in range(rng.below(10) + 1):
            mask |= 1 << rng.below(p ** (2 * n))
        a = PairSet(p, n, n, mask)
        f1, f2 = Subspace.full(p, n), Subspace.full(p, n)
        m = ann(a)
        z = orth(m, f1, f2)
        # A is contained in its biorthogonal closure
        assert a.indicator & ~z.indicator == 0
        # and the annihilator does not shrink when recomputed from it
        assert ann(z).basis == m.basis


def test_formspace_canonicalizes_dependent_matrices():
    m1 = ((1, 0), (0, 1))
    m2 = ((0, 1), (1, 0))
    m3 = ((1, 1), (1, 1))  # m1 + m2 over F_2
    space = FormSpace.from_matrices(2, 2, 2, [m1, m2, m3])
    assert space.dim == 2
    assert len(space.elements()) == 4


def test_f3_verdict():
    v = is_bilinear(f3_example())
    assert v.status == "non_bilinear"
    assert (v.r1, v.r2, v.r3) == (0, 0, 1)
    assert v.ann.basis == (((1, 0), (0, 2)),)
    assert v.closed.size == 33
    assert v.witness == (4, 4)
    assert v.non_subspace_axis is None


def test_sigma_fig2_verdict():
    a = build_P_sigma(sigma_fig2())
    v = is_bilinear(a)
    assert a.size == 22
    assert v.status == "non_bilinear"
    assert v.ann.dim == 2
    mats = {tuple(c for row in m for c in row) for m in v.ann.elements()}
    assert mats == {
        (0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 1, 1, 0),
    }
    assert v.closed.size == 28
    # the closure gains ((1,0,0),(0,1,0)) which the set lacks
    assert v.closed.contains(1, 2) and not a.contains(1, 2)
    assert v.witness == (2, 1)


def test_bilinear_positive_case():
    # the zero set of a single form is bilinear by construction
    m = FormSpace.from_matrices(3, 2, 2, [((1, 0), (0, 2))])
    z = orth(m, Subspace.full(3, 2), Subspace.full(3, 2))
    v = is_bilinear(z)
    assert v.status == "bilinear"
    assert v.witness is None
    assert v.r3 == 1


def test_product_of_subspaces_is_bilinear():
    w1 = Subspace.from_rows([(1, 0)], 3, 2)
    w2 = Subspace.from_rows([(1, 1)], 3, 2)
    pairs = [(x, y) for x in w1.element_indices() for y in w2.element_indices()]
    v = is_bilinear(PairSet.from_pairs(3, 2, 2, sorted(pairs)))
    assert v.status == "bilinear"
    assert (v.r1, v.r2) == (1, 1)


def test_empty_set_status():
    v = is_bilinear(PairSet.empty(2, 2, 2))
    assert v.status == "empty"
    assert v.witness is None


def test_status_is_the_verdict_on_the_indicator():
    v = _status(2, 2, 2, 0)
    assert (v.status, v.witness, v.non_subspace_axis) == ("empty", None, None)
    assert v == closure(PairSet.empty(2, 2, 2)) == is_bilinear(PairSet.empty(2, 2, 2))
    # (3,1,2): n1 != n2; sparse random sets, their closures and products of
    # subspaces reach every status and both axes
    rng = SplitMix64(140)
    masks = [0, PairSet.full(3, 1, 2).indicator, 1, 1 | 1 << 3]
    for _ in range(200):
        mask = 1
        for _ in range(rng.below(6)):
            mask |= 1 << rng.below(27)
        masks += [mask, closure(PairSet(3, 1, 2, mask)).closed.indicator]
    seen = set()
    for mask in masks:
        a = PairSet(3, 1, 2, mask)
        got = _status(3, 1, 2, mask)
        assert got == is_bilinear(a) == closure(a)
        seen.add((got.status, got.non_subspace_axis, got.witness is None))
    assert {("empty", None, True), ("bilinear", None, True), ("non_bilinear", None, False),
            ("non_bilinear", "first", False), ("non_bilinear", "second", False)} <= seen


def test_non_subspace_projection_is_flagged():
    # projection on the first axis is {0, e1, e2} which is not a subspace
    a = PairSet.from_pairs(2, 2, 2, [(0, 0), (1, 0), (2, 0)])
    v = is_bilinear(a)
    assert v.status == "non_bilinear"
    assert v.non_subspace_axis == "first"


def test_closure_idempotent_and_extensive():
    rng = SplitMix64(32)
    for _ in range(40):
        p, n = [(2, 2), (3, 2)][rng.below(2)]
        mask = 0
        for _ in range(rng.below(6) + 1):
            mask |= 1 << rng.below(p ** (2 * n))
        a = PairSet(p, n, n, mask)
        c = closure(a)
        assert a.indicator & ~c.closed.indicator == 0
        again = closure(c.closed)
        assert again.closed.indicator == c.closed.indicator
        assert again.ann.basis == c.ann.basis


def test_ann_respects_reference_subspaces():
    a = build_P_sigma(sigma_fig2())
    c = closure(a)
    # over the spans the annihilator has dimension 2; over the full ambient
    # the same forms reappear since the projections span everything here
    assert c.w1.dim == 3 and c.w2.dim == 3
    assert ann(a).basis == c.ann.basis
    with pytest.raises(ValueError):
        ann(a, Subspace.full(2, 2), Subspace.full(2, 3))


def test_span_cache_is_keyed_by_per_class_fiber_spans():
    # over F_3 the classes of F_3^2 are {y, 2y}; S(A) only sees the span of
    # A^y together with A^{2y}, so swapping the two fibers, or replacing them
    # by other fibers with the same span, keeps the cache key
    y = encode((1, 0), 3)
    y2 = encode((2, 0), 3)
    e1, e2, e12 = encode((1, 0), 3), encode((0, 1), 3), encode((1, 1), 3)
    a = PairSet.from_pairs(3, 2, 2, [(e1, y), (e2, y2)])
    swapped = PairSet.from_pairs(3, 2, 2, [(e2, y), (e1, y2)])
    respanned = PairSet.from_pairs(3, 2, 2, [(e12, y), (e1, y2)])
    _span_zero.cache_clear()
    results = [closure(s) for s in (a, swapped, respanned)]
    info = _span_zero.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert results[0].span == results[1].span == results[2].span
    assert len(results[0].span) == 2  # e1 (x) y and e2 (x) y


def test_verdicts_do_not_depend_on_the_cache():
    rng = SplitMix64(33)
    sets = [f3_example(), build_P_sigma(sigma_fig2()), PairSet.empty(3, 2, 2)]
    for _ in range(40):
        mask = 0
        for _ in range(rng.below(12) + 1):
            mask |= 1 << rng.below(81)
        sets.append(PairSet(3, 2, 2, mask))
    _span_zero.cache_clear()
    cold = [is_bilinear(a) for a in sets]
    warm = [is_bilinear(a) for a in sets]
    assert cold == warm
    assert _span_zero.cache_info().hits >= len(sets)
