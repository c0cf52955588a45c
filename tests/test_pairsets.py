"""Pair sets, directional sumsets, the V/H operators, and transversality."""

import tracemalloc

import pytest

from transverse.constructions import (
    ProjBijection,
    build_P_sigma,
    build_P_xi,
    f3_example,
    random_sigma,
)
from transverse.detrng import SplitMix64
from transverse.fpcore import Subspace, proj_enumerate
from transverse.pairsets import (
    NotTransverseError,
    PairSet,
    SingleSet,
    _fiber_read,
    dir_sum,
    fiber,
    from_fiber_map,
    is_transverse,
    mask_to_subspace,
    phi,
    projections,
    subspace_mask,
    sumset_word,
    to_fiber_map,
    transversality_violation,
)


def random_pairset(rng, p, n, points):
    mask = 0
    for _ in range(points):
        mask |= 1 << rng.below(p ** (2 * n))
    return PairSet(p, n, n, mask)


def test_from_pairs_roundtrip():
    a = PairSet.from_pairs(3, 2, 2, [(0, 0), (4, 4), (1, 3)])
    assert a.size == 3
    assert sorted(a.pair_indices()) == [(0, 0), (1, 3), (4, 4)]
    assert a.contains(4, 4) and not a.contains(4, 3)
    # p is checked before the bit buffer is sized from p**n1 * p**n2
    for p in (-3, 4):
        with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
            PairSet.from_pairs(p, 1, 2, [])


def test_indicator_range_is_checked_by_bit_length():
    # the check builds no 1 << p**n: an empty set of a huge space is cheap
    tracemalloc.start()
    try:
        assert PairSet(2, 14, 14, 0).size == 0  # 1 << 2**28 would take 32 MB
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    assert PairSet.empty(2, 20, 20).size == 0
    assert SingleSet(2, 70, 0).size == 0
    for make, points in ((lambda i: PairSet(3, 1, 2, i), 27), (lambda i: SingleSet(5, 2, i), 25)):
        assert make((1 << points) - 1).size == points
        for bad in (-1, 1 << points):  # negative, and one bit too many
            with pytest.raises(ValueError, match="indicator out of range"):
                make(bad)


def test_dir_sum_explicit():
    # vertical sum adds y-coordinates within a shared x-fiber
    a = PairSet.from_pairs(2, 1, 1, [(1, 0), (1, 1)])
    s = dir_sum(a, a, "V")
    assert sorted(s.pair_indices()) == [(1, 0), (1, 1)]
    h = dir_sum(a, a, "H")
    # horizontal: x + x' for shared y gives x = 0 on both fibers
    assert sorted(h.pair_indices()) == [(0, 0), (0, 1)]


def test_dir_sum_matches_definition():
    rng = SplitMix64(21)
    for _ in range(40):
        p, n = [(2, 2), (3, 2)][rng.below(2)]
        a = random_pairset(rng, p, n, rng.below(8) + 1)
        b = random_pairset(rng, p, n, rng.below(8) + 1)
        s = dir_sum(a, b, "V")
        expect = set()
        for x1, y1 in a.pair_indices():
            for x2, y2 in b.pair_indices():
                if x1 == x2:
                    y = tuple((c1 + c2) % p for c1, c2 in
                              zip(_dec(y1, p, n), _dec(y2, p, n)))
                    expect.add((x1, _enc(y, p)))
        assert set(s.pair_indices()) == expect


def _dec(i, p, n):
    return tuple((i // p**k) % p for k in range(n))


def _enc(coords, p):
    out = 0
    for c in reversed(coords):
        out = out * p + c
    return out


def test_phi_word_validation():
    a = f3_example()
    with pytest.raises(ValueError):
        phi(a, "")
    with pytest.raises(ValueError):
        phi(a, "VX")


def test_f3_is_transverse_both_modes():
    a = f3_example()
    assert a.size == 29
    assert transversality_violation(a, "fiberwise") is None
    assert transversality_violation(a, "direct") is None
    assert phi(a, "V").indicator == a.indicator
    assert phi(a, "HVH").indicator == a.indicator


def test_perturbed_f3_is_detected():
    a = f3_example()
    pairs = sorted(a.pair_indices())
    # dropping any nonzero point breaks transversality in both modes
    dropped = PairSet.from_pairs(a.p, a.n1, a.n2, pairs[1:])
    assert transversality_violation(dropped, "fiberwise") is not None
    assert transversality_violation(dropped, "direct") is not None
    # adding a stray point breaks it too
    stray = pairs + [(4, 6)]
    assert (4, 6) not in pairs
    added = PairSet.from_pairs(a.p, a.n1, a.n2, sorted(stray))
    assert not is_transverse(added)


def test_fibers_partition_the_set():
    rng = SplitMix64(22)
    for _ in range(30):
        a = random_pairset(rng, 2, 3, rng.below(20) + 1)
        vertical = sum(fiber(a, "V", x).size for x in range(2**3))
        horizontal = sum(fiber(a, "H", y).size for y in range(2**3))
        assert vertical == a.size == horizontal


def test_projections_cover_members():
    rng = SplitMix64(23)
    for _ in range(30):
        a = random_pairset(rng, 3, 2, rng.below(10) + 1)
        pi1, pi2 = projections(a)
        for x, y in a.pair_indices():
            assert pi1.contains(x) and pi2.contains(y)
        assert pi1.size <= a.size and pi2.size <= a.size


def test_sumset_word_single():
    s = SingleSet.from_indices(5, 1, [1, 2])
    t = sumset_word(s, "+A-A")
    # 1-1, 1-2, 2-1, 2-2 -> {0, 4, 1}
    assert sorted(t.indices()) == [0, 1, 4]
    with pytest.raises(ValueError):
        sumset_word(s, "A+")


def _coords(p, n):
    """Index table of F_p^n: index i has base-p digit k as coordinate k."""
    return [tuple(i // p**k % p for k in range(n)) for i in range(p**n)]


def _pairs(p, n1, n2, mask):
    """Pair-by-pair walk of an indicator over all p^(n1 + n2) pair indices."""
    m1 = p**n1
    return {(i % m1, i // m1) for i in range(m1 * p**n2) if mask >> i & 1}


@pytest.mark.parametrize("p, n1, n2", [(2, 2, 2), (3, 1, 2), (2, 3, 1), (5, 1, 1)])
def test_pair_set_algebra_and_members(p, n1, n2):
    rng = SplitMix64(150 + p * 10 + n1)
    total = p ** (n1 + n2)
    x_coords, y_coords = _coords(p, n1), _coords(p, n2)
    for _ in range(30):
        ma, mb = rng.below(1 << total), rng.below(1 << total)
        a, b = PairSet(p, n1, n2, ma), PairSet(p, n1, n2, mb)
        pa, pb = _pairs(p, n1, n2, ma), _pairs(p, n1, n2, mb)
        assert set((a & b).pair_indices()) == pa & pb
        assert set((a - b).pair_indices()) == pa - pb
        assert set((a | b).pair_indices()) == pa | pb
        assert a.members() == [(x_coords[x], y_coords[y])
                               for x, y in sorted(pa, key=lambda xy: (xy[1], xy[0]))]
    other = PairSet.empty(p, n1 + 1, n2)
    for op in (PairSet.__and__, PairSet.__sub__):
        with pytest.raises(ValueError, match="different spaces"):
            op(a, other)


@pytest.mark.parametrize("p, n", [(2, 1), (2, 3), (3, 2), (5, 1)])
def test_single_set_members_empty_and_full(p, n):
    coords = _coords(p, n)
    assert SingleSet.empty(p, n).indices() == [] and SingleSet.empty(p, n).members() == []
    full = SingleSet.full(p, n)
    assert full.size == p**n and full.members() == coords
    rng = SplitMix64(160 + p + n)
    for _ in range(20):
        mask = rng.below(1 << p**n)
        s = SingleSet(p, n, mask)
        assert s.members() == [coords[i] for i in range(p**n) if mask >> i & 1]


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 1), (3, 1)])
def test_sumset_words_with_a_minus_sign(p, n):
    # words that open with -A start from the negated set (_mask_neg); each
    # is checked against the sum folded vector by vector on the index table
    coords = _coords(p, n)
    index = {c: i for i, c in enumerate(coords)}
    rng = SplitMix64(170 + p * 10 + n)
    for _ in range(15):
        members = sorted({rng.below(p**n) for _ in range(rng.below(4) + 1)})
        a = SingleSet.from_indices(p, n, members)
        for word in ("-A", "-A+A", "-A-A", "+A-A-A"):
            acc = None
            for sign in word[::2]:
                step = [tuple((1 if sign == "+" else -1) * c % p for c in coords[i])
                        for i in members]
                acc = set(step) if acc is None else {
                    tuple((u + v) % p for u, v in zip(w, t)) for w in acc for t in step}
            assert sumset_word(a, word).indices() == sorted(index[v] for v in acc), word


def test_empty_set_is_transverse():
    a = PairSet.empty(2, 2, 2)
    assert is_transverse(a, "fiberwise") and is_transverse(a, "direct")


def test_full_set_is_transverse():
    a = PairSet.full(2, 2, 2)
    assert is_transverse(a, "fiberwise") and is_transverse(a, "direct")
    assert phi(a, "VH").indicator == a.indicator


def test_product_of_subspaces_is_transverse():
    w = Subspace.from_rows([(1, 0, 1)], 2, 3)
    h = Subspace.from_rows([(1, 1, 0), (0, 0, 1)], 2, 3)
    pairs = [(x, y) for x in w.element_indices() for y in h.element_indices()]
    a = PairSet.from_pairs(2, 3, 3, sorted(pairs))
    assert is_transverse(a)
    assert phi(a, "HV").indicator == a.indicator


def test_fiber_map_roundtrip():
    pts = proj_enumerate(5, 2)
    xi = ProjBijection(5, 2, 2, tuple(pts[d] for d in (2, 0, 5, 1, 4, 3)))
    sets = [
        build_P_sigma(random_sigma(2, 3, seed=5)),
        f3_example(),
        # W a line of F_5^3: V2 over the class of W, hyperplanes elsewhere
        build_P_xi(Subspace.from_rows([(1, 2, 3)], 5, 3), Subspace.full(5, 2), xi),
        # Span(e_0) x Span(e_1): the classes outside Span(e_0) have empty fibers
        PairSet.from_pairs(2, 2, 2, [(0, 0), (1, 0), (0, 2), (1, 2)]),
    ]
    for a in sets:
        f0, fibers = to_fiber_map(a)
        assert len(fibers) == len(proj_enumerate(a.p, a.n1))
        assert from_fiber_map(a.p, a.n1, a.n2, f0, fibers).indicator == a.indicator
        # every nonempty fiber is a subspace inside fiber0
        for f in fibers:
            assert f & ~f0 == 0
            assert not f or subspace_mask(mask_to_subspace(a.p, a.n2, f)) == f
    assert to_fiber_map(sets[3]) == (0b101, [0b101, 0, 0])


def test_from_fiber_map_rejects_bad_input():
    # F_2^2 x F_2^2: three classes; y = 1, 2, 3 are the nonzero vectors
    full, line = 0b1111, 0b0011
    assert from_fiber_map(2, 2, 2, full, [line, 0, full]).size == 4 + 2 + 4
    cases = [
        ((full, [line, 0]), "one fiber per projective class"),
        ((full, [line, 0, full, 0]), "one fiber per projective class"),
        ((line, [line, 0, full]), "not contained in fiber0"),
        ((line, [0b0101, 0, 0]), "not contained in fiber0"),
        ((full, [0b0111, 0, 0]), "class fiber is not a subspace"),
        ((full, [0b0010, 0, 0]), "class fiber is not a subspace"),
        ((0b0111, [line, 0, 0]), "fiber0 is not a subspace"),
        ((0, [0, 0, 0]), "fiber0 is not a subspace"),
        ((1 << 16 | 1, [1, 0, 0]), "fiber0 is not a subspace"),
    ]
    for (f0, fibers), message in cases:
        with pytest.raises(ValueError, match=message):
            from_fiber_map(2, 2, 2, f0, fibers)


def test_fiber_map_rejects_non_transverse():
    a = PairSet.from_pairs(2, 2, 2, [(0, 0), (1, 2)])
    with pytest.raises(NotTransverseError):
        to_fiber_map(a)


def test_violation_witness_points_at_failure():
    # a fiber missing 0 is reported with its x-index
    a = PairSet.from_pairs(2, 2, 2, [(0, 0), (1, 2)])
    cond, (x, y) = transversality_violation(a, "fiberwise")
    assert "0" in cond or "subspace" in cond
    assert a.contains(1, 2)


def test_index_accessors_are_range_checked():
    a = PairSet.from_pairs(2, 2, 2, [(1, 1)])
    assert a.contains(1, 1) and not a.contains(3, 3)
    # (5, 0) would alias bit 5, the pair (1, 1)
    for x, y in ((5, 0), (-1, 0), (0, 4), (0, -1)):
        with pytest.raises(ValueError, match=r"out of range \[0, 4\)"):
            a.contains(x, y)
    b = PairSet.from_pairs(2, 2, 1, [(3, 0), (3, 1), (1, 1)])
    assert fiber(b, "V", 3).indices() == [0, 1]
    assert fiber(b, "H", 1).indices() == [1, 3]
    for direction, at in (("V", -1), ("V", 4), ("H", -1), ("H", 2)):
        with pytest.raises(ValueError, match=r"index -?\d out of range \[0, [24]\)"):
            fiber(b, direction, at)
    s = SingleSet.from_indices(3, 1, [2])
    assert s.contains(2) and not s.contains(0)
    for i in (3, -1):
        with pytest.raises(ValueError, match=r"index -?\d out of range \[0, 3\)"):
            s.contains(i)


def test_vertical_fiber_reads_agree_with_the_fiber_list():
    rng = SplitMix64(23)
    for p, n1, n2 in ((2, 2, 2), (3, 2, 1), (2, 1, 3), (5, 1, 2), (2, 3, 1)):
        m1 = p**n1
        assert PairSet(p, n1, n2, 0).vertical_fibers() == [0] * m1
        for k in range(21):
            mask = 0
            for _ in range(rng.below(12) + 1):
                mask |= 1 << rng.below(p ** (n1 + n2))
            if k == 20:
                mask = (1 << p ** (n1 + n2)) - 1
            a = PairSet(p, n1, n2, mask)
            fibers = [0] * m1
            for i in range(p ** (n1 + n2)):
                if mask >> i & 1:
                    fibers[i % m1] |= 1 << i // m1
            assert a.vertical_fibers() == fibers


def _mixed_masks(p, n, count, seed):
    """count masks over the p^2n pairs, each pair in with probability 1/8,
    1/2 or 7/8 (chosen per mask), so sparse, half-full and dense sets mix."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        keep = (1, 4, 7)[rng.below(3)]
        mask = 0
        for j in range(p ** (2 * n)):
            if rng.below(8) < keep:
                mask |= 1 << j
        out.append(mask)
    return out


@pytest.mark.parametrize("p, n, masks", [
    (2, 1, range(1 << 4)),
    (3, 1, range(1 << 9)),
    (2, 2, range(1 << 16)),
    (3, 2, _mixed_masks(3, 2, 2000, 3202)),
    (2, 3, _mixed_masks(2, 3, 2000, 2302)),
    (5, 1, _mixed_masks(5, 1, 2000, 5102)),
])
def test_row_zero_joins_the_projections_and_no_class_union(p, n, masks):
    """The fiber read of a mask is the read of its rows y >= 1 with row 0
    ORed into pi1 and, when nonempty, bit 0 into pi2; the class unions are
    those of the rows y >= 1 alone, since y = 0 lies in no projective
    class.  The powerset sweep shares that read across each block."""
    low = (1 << p**n) - 1
    for mask in masks:
        pi1, pi2, unions = _fiber_read(p, n, n, mask & ~low)
        r0 = mask & low
        assert _fiber_read(p, n, n, mask) == (pi1 | r0, pi2 | (r0 != 0), unions)


def test_transversality_caches_are_bounded():
    from transverse.pairsets import _span_mask

    assert _span_mask.cache_parameters()["maxsize"] is not None


def test_mask_sum_cache_is_bounded():
    from transverse.pairsets import _mask_sum

    assert _mask_sum.cache_parameters()["maxsize"] is not None


def test_fiber_cell_cache_is_bounded():
    from transverse.pairsets import _fiber_cell

    # at (2,10) one cell is about 128 KB
    assert _fiber_cell.cache_parameters()["maxsize"] <= 256
