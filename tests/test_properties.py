"""Seeded randomized property families over (p, n) in {(2,2), (3,2), (2,3)}
(the span_closure family adds (5,2); the fiber_oracle and dir_sum_oracle
families add (5,2) and non-square shapes such as (2,1,3), (3,3,2) and
(7,1,2); form_zero_mask adds (5,2), (7,1,2), (3,3,3) and (2,4,2)).
The table-driven and word-level kernels are checked against the loops they
replaced: transversality (and to_fiber_map) on the compact fibers against
the per-bit fiber walk, projective recognition from the frame table against
the per-class check, the XOR elimination at p = 2 against the list
elimination, S(A) packed from outer product to check forms at p = 2 against
the list path (_fiber_span, _kernel_rows), the fiber-map DFS on running
per-line masks against the pairwise rescan of every line, the fiber-map core
against the pair-by-pair set, the span-set and P_xi cores on class tables
against the per-pair and per-x constructions, and the vertical sumset on the
compact fibers against the pair-by-pair sum.  The line_duality family
checks, on every class triple at six shapes, that the hyperplane fibers
turn the collineation line condition into the fiber-map one.  The
fiber_kernel family holds the sweeps' fiber-map verdict kernel to _status:
on every nonempty transverse set at (2,2,2), (3,2,2), (2,2,3) and (5,2,2),
enumerated as fiber maps, on streams of random fiber maps that share
prefixes (fibers that are not subspaces included), and on sigma samples.

Each random family draws its cases from a SplitMix64 stream, so every run
checks the same cases.  The counts below total more than ten thousand
cases.  Each family runs once per session (run_family); the per-family
tests and run_suite(), which reports (cases, seconds), read those runs.
"""

import time
from functools import lru_cache
from itertools import permutations

from transverse.bilinear import (
    _FiberKernel,
    _fiber_span,
    _form_zero_mask,
    _span_gf2,
    _status,
    _unpack,
    ann,
    closure,
    is_bilinear,
    orth,
)
from transverse.constructions import (
    ProjBijection,
    _sigma_fibers,
    _sigma_mask,
    _xi_mask,
    build_P_sigma,
    random_sigma,
)
from transverse.detrng import SplitMix64, exchange_shuffle
from transverse.explorer import _fiber_maps, _sample_range, perm_unrank
from transverse.fpcore import (
    MatP,
    ProjPoint,
    Subspace,
    VecP,
    _kernel_rows,
    all_subspaces,
    decode,
    encode,
    proj_enumerate,
    rref,
    span,
    vspace,
)
from transverse.pairsets import (
    PairSet,
    _fiber_map_mask,
    _fiber_map_read,
    _fiber_read,
    _iter_bits,
    _kernel_masks,
    _span_mask,
    dir_sum,
    is_transverse,
    phi,
    projections,
    to_fiber_map,
    transversality_violation,
)
from transverse.pairsets import subspace_mask
from transverse.projgeom import _recognize_table, line_structure, recognize_projective

from test_constructions import build_P_sigma_reference, build_P_xi_reference

SHAPES = ((2, 2), (3, 2), (2, 3))

# random fiber maps at five shapes
FIBER_MAP_CORE_CASES = 500
# every permutation at (2,2), (3,2) and (2,3), then 200 at (5,2)
SIGMA_CORE_CASES = 6 + 24 + 5_040 + 200
# the nonempty transverse sets of each shape as (leaves, bilinear ones)
KERNEL_LEAVES = {(2, 2, 2): (107, 107), (3, 2, 2): (325, 229), (2, 2, 3): (1_690, 1_690),
                 (5, 2, 2): (13_559, 839)}
# random fiber maps, then sigma samples
KERNEL_RANDOM_CASES = 2_000
KERNEL_SIGMA_CASES = 1_000

COUNTS = {
    "galois": 2400,
    "closure": 2400,
    "span_closure": 1200,
    # 200 forms at each of seven shapes
    "form_zero_mask": 1400,
    "agreement": 2600,
    "phi_fixpoint": 1500,
    "dir_sum_symmetry": 1600,
    "fiber_oracle": 1400,
    # every (2,2) subset, then fiber-map sets over seven shapes
    "transversality_oracle": 65_536 + 4_200,
    # every permutation at (2,2), (3,2), (2,3) and (5,2), then random maps
    "recognition_oracle": 6 + 24 + 5_040 + 720 + 2_400,
    "rref_gf2": 3000,
    # every spans key at (2,2,2) twice, every P_sigma at (2,3), then random sets
    "span_gf2": 2 * 125 + 5_040 + 2_000,
    # classification options at four shapes, then random option lists
    "line_masks": 4 + 5 + 8 + 7 + 60,
    # every class triple at six shapes
    "line_duality": 3**3 + 7**3 + 4**3 + 15**3 + 13**3 + 6**3,
    # random fiber maps, P_sigma cases, then P_xi: every permutation at
    # p = 2, 3, 5 on the sweep's frame, then random frames
    "table_cores": FIBER_MAP_CORE_CASES + SIGMA_CORE_CASES + 6 + 24 + 720 + 240,
    "dir_sum_oracle": 1200,
    # every leaf at four shapes, random fiber maps, then sigma samples
    "fiber_kernel": sum(n for n, _ in KERNEL_LEAVES.values())
    + KERNEL_RANDOM_CASES + KERNEL_SIGMA_CASES,
}


# ------------------------------------- per-pair reference of the fiber read


@lru_cache(maxsize=None)
def _outer_table(p, n1, n2):
    """Flattened outer product x (x) y (entry i*n2 + j is x_i y_j) of every
    pair, indexed by the pair index x_index + p**n1 * y_index."""
    xs = [decode(i, p, n1) for i in range(p**n1)]
    ys = [decode(i, p, n2) for i in range(p**n2)]
    return tuple(tuple(a * b % p for a in x for b in y) for y in ys for x in xs)


def reference_projections(a):
    """The projections, bit by bit over the members of A."""
    m1 = a.p**a.n1
    pi1 = 0
    pi2 = 0
    for i in _iter_bits(a.indicator):
        pi1 |= 1 << i % m1
        pi2 |= 1 << i // m1
    return pi1, pi2


def reference_span_basis(a, bound):
    """Canonical RREF basis of S(A) = span{x (x) y : (x, y) in A}, pair by pair.

    Each distinct outer product is reduced against the basis built so far
    and, when something is left, normalized and eliminated from the other
    rows.  S(A) lies in W1 (x) W2, so the loop stops once the basis reaches
    ``bound`` = dim W1 * dim W2.
    """
    p = a.p
    table = _outer_table(p, a.n1, a.n2)
    basis = []
    pivots = []
    for row in {table[i] for i in _iter_bits(a.indicator)}:
        for b, j in zip(basis, pivots):
            lam = row[j]
            if lam:
                row = [(c - lam * bc) % p for c, bc in zip(row, b)]
        j = next((k for k, c in enumerate(row) if c), None)
        if j is None:
            continue
        if row[j] != 1:
            inv = pow(row[j], p - 2, p)
            row = [c * inv % p for c in row]
        for i, b in enumerate(basis):
            lam = b[j]
            if lam:
                basis[i] = [(c - lam * rc) % p for c, rc in zip(b, row)]
        basis.append(row)
        pivots.append(j)
        if len(basis) == bound:
            break
    return tuple(tuple(b) for _, b in sorted(zip(pivots, basis)))


def reference_verdict(a):
    """(status, w1, w2, span, closed, witness, non_subspace_axis) decided
    pair by pair: spans of the per-bit projections, S(A) from every outer
    product, and the closure as orth(ann(A)) over the spans."""
    p, n1, n2 = a.p, a.n1, a.n2
    pi1, pi2 = reference_projections(a)
    w1 = span([decode(i, p, n1) for i in _iter_bits(pi1)], p, n1)
    w2 = span([decode(i, p, n2) for i in _iter_bits(pi2)], p, n2)
    basis = reference_span_basis(a, w1.dim * w2.dim)
    closed = orth(ann(a, w1, w2), w1, w2)
    if not a.indicator:
        return "empty", w1, w2, basis, closed, None, None
    axis = None
    if pi1 != sum(1 << i for i in w1.element_indices()):
        axis = "first"
    elif pi2 != sum(1 << i for i in w2.element_indices()):
        axis = "second"
    extra = closed.indicator & ~a.indicator
    witness = None
    if extra:
        i = (extra & -extra).bit_length() - 1
        witness = (i % p**n1, i // p**n1)
    status = "bilinear" if axis is None and not extra else "non_bilinear"
    return status, w1, w2, basis, closed, witness, axis


# ------------------------------------- per-bit reference of transversality


def reference_vertical_fibers(a):
    """The vertical fiber over each x, built member bit by member bit."""
    m1 = a.p**a.n1
    fibers = [0] * m1
    for i in _iter_bits(a.indicator):
        fibers[i % m1] |= 1 << i // m1
    return fibers


def reference_transversality_violation(a):
    """The fiberwise check walking every member bit: vertical fibers built
    pair by pair, subspaces checked by all pairwise sums."""
    sp1 = vspace(a.p, a.n1)
    sp2 = vspace(a.p, a.n2)
    fibers = reference_vertical_fibers(a)
    f0 = fibers[0]
    for x, f in enumerate(fibers):
        if not f:
            continue
        if not f & 1:
            return ("nonempty vertical fiber misses 0", (x, 0))
        bits = list(_iter_bits(f))
        for i in bits:
            row = sp2.add[i]
            for j in bits:
                if not f >> row[j] & 1:
                    return ("vertical fiber is not a subspace", (x, row[j]))
        extra = f & ~f0
        if extra:
            return ("vertical fiber not contained in the fiber over 0",
                    (x, (extra & -extra).bit_length() - 1))
    for cid, members in enumerate(sp1.class_members):
        rep = sp1.proj_reps[cid]
        for m in members:
            delta = fibers[m] ^ fibers[rep]
            if delta:
                return ("fibers differ within a projective class",
                        (m, (delta & -delta).bit_length() - 1))
    reps = sp1.proj_reps
    for ia, ra in enumerate(reps):
        fa = fibers[ra]
        if not fa:
            continue
        for rb in reps[ia + 1:]:
            inter = fa & fibers[rb]
            if not inter:
                continue
            for lam in range(1, a.p):
                z = sp1.add[ra][sp1.scale[lam][rb]]
                missing = inter & ~fibers[z]
                if missing:
                    return ("line condition fails",
                            (z, (missing & -missing).bit_length() - 1))
    return None


# ------------------------------------- per-class reference of recognition


def reference_recognize_projective(m):
    """Frame equations solved for each map, and the candidate checked class
    by class against the map's images."""
    p, nd, nc = m.p, m.n_dom, m.n_cod
    sp = vspace(p, nd)
    cod = vspace(p, nc)
    basis_cols = [m.images[sp.class_of[p**i]].rep for i in range(nd)]
    w = m.images[sp.class_of[sum(p**j for j in range(nd))]].rep
    aug = [tuple(basis_cols[i][r] for i in range(nd)) + (w[r],) for r in range(nc)]
    reduced, pivots = reference_rref(aug, p)
    if nd in pivots or len([j for j in pivots if j < nd]) != nd:
        return None
    lam = [0] * nd
    for row, j in zip(reduced, pivots):
        lam[j] = row[nd]
    if any(v == 0 for v in lam):
        return None
    cols = [tuple(lam[i] * c % p for c in basis_cols[i]) for i in range(nd)]
    mat = tuple(tuple(cols[i][r] for i in range(nd)) for r in range(nc))
    for cid, rep_idx in enumerate(sp.proj_reps):
        x = sp.coords[rep_idx]
        fx = encode([sum(a * b for a, b in zip(row, x)) % p for row in mat], p)
        if cod.class_of[fx] != cod.class_of[m.images[cid].index]:
            return None
    flat = [c for row in mat for c in row]
    inv = pow(next(c for c in flat if c), p - 2, p)
    return MatP(p, tuple(tuple(c * inv % p for c in row) for row in mat))


# ------------------------------------------------ list reference of rref


def reference_rref(rows, p):
    """Reduced row echelon form by elimination on lists of entries."""
    basis = []
    pivots = []
    for r in rows:
        row = [c % p for c in r]
        for b, j in zip(basis, pivots):
            lam = row[j]
            if lam:
                row = [(c - lam * bc) % p for c, bc in zip(row, b)]
        j = next((k for k, c in enumerate(row) if c), None)
        if j is None:
            continue
        if row[j] != 1:
            inv = pow(row[j], p - 2, p)
            row = [c * inv % p for c in row]
        for i, b in enumerate(basis):
            lam = b[j]
            if lam:
                basis[i] = [(c - lam * rc) % p for c, rc in zip(b, row)]
        basis.append(row)
        pivots.append(j)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], sorted(pivots)


# ------------------------------------- list reference of the F_2 closure


def reference_gf2_closure(a):
    """(w1, w2, span, check forms, closed) of a set over F_2 on the list
    path: S(A) by _fiber_span, one check form per free column by
    _kernel_rows, and W1 x W2 cut by each form's zero set."""
    p, n1, n2 = a.p, a.n1, a.n2
    pi1, pi2, unions = _fiber_read(p, n1, n2, a.indicator)
    w1 = _span_mask(p, n1, pi1)
    w2 = _span_mask(p, n2, pi2)
    spans = tuple(_span_mask(p, n1, u) for u in unions)
    basis = _fiber_span(p, n1, n2, spans)
    checks = _kernel_rows(basis, n1 * n2, p)
    closed = 0
    for y in _iter_bits(w2):
        closed |= w1 << (p**n1 * y)
    for h in checks:
        closed &= _form_zero_mask(p, n1, n2, h)
    return pi1, pi2, w1, w2, spans, basis, checks, closed


# ------------------------------------- pairwise reference of the fiber DFS


def reference_fiber_maps(f0, options, lines, k, leaf):
    """The fiber-map DFS that rescans, for each placed class j, every pair
    of placed classes on every line through j."""
    lines_with = [[ids for ids in lines if j in ids] for j in range(k)]
    fibers = [0] * k

    def descend(j):
        if j == k:
            leaf(fibers)
            return
        for fm in options:
            if fm & ~f0:
                continue
            fibers[j] = fm
            ok = True
            for ids in lines_with[j]:
                placed = [c for c in ids if c <= j]
                for ai in range(len(placed)):
                    for bi in range(ai + 1, len(placed)):
                        inter = fibers[placed[ai]] & fibers[placed[bi]]
                        if any(inter & ~fibers[c] for c in placed):
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                descend(j + 1)

    descend(0)


def random_pairset(rng, p, n, max_points):
    mask = 0
    for _ in range(rng.below(max_points) + 1):
        mask |= 1 << rng.below(p ** (2 * n))
    return PairSet(p, n, n, mask)


def family_galois(cases, seed=101):
    """ann(orth(ann(A))) == ann(A): the annihilator stabilizes after one
    round trip through its zero set."""
    rng = SplitMix64(seed)
    for k in range(cases):
        p, n = SHAPES[k % 3]
        a = random_pairset(rng, p, n, 12)
        m = ann(a)
        z = orth(m, Subspace.full(p, n), Subspace.full(p, n))
        assert a.indicator & ~z.indicator == 0
        assert ann(z).basis == m.basis
    return cases


def family_closure(cases, seed=102):
    """Closure is extensive and idempotent, and keeps the annihilator."""
    rng = SplitMix64(seed)
    for k in range(cases):
        p, n = SHAPES[k % 3]
        a = random_pairset(rng, p, n, 10)
        c = closure(a)
        assert a.indicator & ~c.closed.indicator == 0
        assert c.closed.contains(0, 0)
        again = closure(c.closed)
        assert again.closed.indicator == c.closed.indicator
        assert again.ann.basis == c.ann.basis
    return cases


def family_span_closure(cases, seed=106):
    """The closure decided through S(A) equals orth(ann(A)) over the spans
    W1 x W2, r3 = dim W1 * dim W2 - dim S(A) is the dimension of that
    annihilator, and the annihilator read off S(A) is ann(A, W1, W2)."""
    rng = SplitMix64(seed)
    shapes = SHAPES + ((5, 2),)
    for k in range(cases):
        p, n = shapes[k % 4]
        if rng.below(2):
            a = random_pairset(rng, p, n, 16)
        else:
            a = build_P_sigma(random_sigma(p, n, seed=rng.below(1 << 30)))
        c = closure(a)
        m = ann(a, c.w1, c.w2)
        assert c.closed == orth(m, c.w1, c.w2)
        assert is_bilinear(a).r3 == m.dim
        assert is_bilinear(a).ann == m
    return cases


def family_fiber_oracle(cases, seed=108):
    """is_bilinear, closure and projections, read off the horizontal fibers,
    agree field by field with the pair-by-pair reference, on random sets,
    the empty set, {(0,0)}, sets on the y = 0 fiber alone and span sets."""
    rng = SplitMix64(seed)
    shapes = tuple((p, n, n) for p, n in SHAPES + ((5, 2),)) + ((2, 1, 3), (3, 3, 2), (7, 1, 2))
    for k in range(cases):
        p, n1, n2 = shapes[k % len(shapes)]
        total = p ** (n1 + n2)
        roll = rng.below(8)
        mask = 0
        if roll == 1:
            mask = 1
        elif roll == 2:
            for _ in range(rng.below(4) + 1):
                mask |= 1 << rng.below(p**n1)
        elif roll == 3 and n1 == n2:
            mask = build_P_sigma(random_sigma(p, n1, seed=rng.below(1 << 30))).indicator
        elif roll >= 3:
            for _ in range(rng.below(16 if roll < 7 else total) + 1):
                mask |= 1 << rng.below(total)
        a = PairSet(p, n1, n2, mask)
        ref = reference_verdict(a)
        v = is_bilinear(a)
        assert (v.status, v.w1, v.w2, v.span, v.closed, v.witness, v.non_subspace_axis) == ref
        c = closure(a)
        assert (c.w1, c.w2, c.span, c.closed) == ref[1:5]
        pi1, pi2 = projections(a)
        assert (pi1.indicator, pi2.indicator) == reference_projections(a)
    return cases


def random_span(rng, p, n, members, draws):
    """Bitset of the span of up to `draws` members drawn from a list."""
    mask = 0
    for _ in range(rng.below(draws + 1)):
        mask |= 1 << members[rng.below(len(members))]
    return _span_mask(p, n, mask)


def random_fiber_map(rng, p, n1, n2):
    """(f0, fibers): a random subspace f0 of F_p^n2 and, per projective
    class of F_p^n1, an empty fiber (0, one time in four) or a random
    subspace inside f0, all as bitsets over y."""
    f0 = random_span(rng, p, n2, range(p**n2), 3)
    inside = list(_iter_bits(f0))
    fibers = []
    for _ in vspace(p, n1).proj_reps:
        fibers.append(0 if rng.below(4) == 0 else random_span(rng, p, n2, inside, 2))
    return f0, fibers


def reference_fiber_map_mask(p, n1, n2, f0, fibers):
    """The set of a fiber map, pair by pair: (0, y) for y in f0, and (x, y)
    for y in the fiber of the class of x, that class found by normalizing
    x to its projective point."""
    m1 = p**n1
    reps = [pt.index for pt in proj_enumerate(p, n1)]
    mask = 0
    for x in range(m1):
        if x == 0:
            f = f0
        else:
            f = fibers[reps.index(ProjPoint.from_vector(VecP.from_index(x, p, n1)).index)]
        for y in _iter_bits(f):
            mask |= 1 << x + m1 * y
    return mask


def random_fiber_map_set(rng, p, n1, n2):
    """A set with subspace fibers inside a fiber over 0 and constant on
    projective classes, some classes empty; the line condition is left to
    chance."""
    return reference_fiber_map_mask(p, n1, n2, *random_fiber_map(rng, p, n1, n2))


def family_transversality_oracle(cases, seed=109):
    """The fiberwise check on the compact fibers returns the per-bit
    reference's verdict and witness: first on every subset of F_2^2 x
    F_2^2, then on fiber-map sets over seven shapes, half of them with one
    bit flipped.  Every one of the five conditions is reported somewhere.
    On every nonempty transverse set, to_fiber_map returns the per-bit
    fibers over 0 and over the class representatives."""
    rng = SplitMix64(seed)
    shapes = ((3, 2, 2), (2, 3, 3), (5, 2, 2), (2, 1, 3), (3, 3, 2), (7, 1, 2), (2, 2, 4))
    seen = set()
    for k in range(cases):
        if k < 1 << 16:
            a = PairSet(2, 2, 2, k)
        else:
            p, n1, n2 = shapes[k % len(shapes)]
            mask = random_fiber_map_set(rng, p, n1, n2)
            if rng.below(2):
                mask ^= 1 << rng.below(p ** (n1 + n2))
            a = PairSet(p, n1, n2, mask)
        got = transversality_violation(a)
        assert got == reference_transversality_violation(a), a
        seen.add(got[0] if got else None)
        if got is None and a.indicator:
            fibers = reference_vertical_fibers(a)
            reps = vspace(a.p, a.n1).proj_reps
            assert to_fiber_map(a) == (fibers[0], [fibers[r] for r in reps]), a
    assert len(seen) == 6, seen
    return cases


def random_injective_matrix(rng, p, nd, nc):
    while True:
        rows = tuple(tuple(rng.below(p) for _ in range(nd)) for _ in range(nc))
        if len(reference_rref(rows, p)[0]) == nd:
            return MatP(p, rows)


def recognition_cases(rng):
    """Every permutation of P(F_p^n) at (2,2), (3,2), (2,3) and (5,2), then
    alternately a random injective map and the map of a random injective
    matrix, over four (p, n_dom, n_cod)."""
    for p, n in ((2, 2), (3, 2), (2, 3), (5, 2)):
        pts = proj_enumerate(p, n)
        for perm in permutations(pts):
            yield ProjBijection(p, n, n, perm)
    shapes = ((3, 3, 3), (2, 2, 3), (3, 2, 3), (2, 3, 4))
    k = 0
    while True:
        p, nd, nc = shapes[k % len(shapes)]
        dom = proj_enumerate(p, nd)
        if k % 2:
            cod = proj_enumerate(p, nc)
            picked = []
            while len(picked) < len(dom):
                pt = cod[rng.below(len(cod))]
                if pt not in picked:
                    picked.append(pt)
            yield ProjBijection(p, nd, nc, tuple(picked))
        else:
            mat = random_injective_matrix(rng, p, nd, nc)
            yield ProjBijection(p, nd, nc, tuple(
                ProjPoint.from_vector(mat.apply(VecP(p, pt.rep))) for pt in dom))
        k += 1


def family_recognition_oracle(cases, seed=110):
    """recognize_projective from the frame table, and its core on the
    map's image class table, equal the per-class reference, matrix
    included, on every permutation of four small projective spaces and on
    random injective and matrix-induced maps."""
    rng = SplitMix64(seed)
    projective = 0
    for _, m in zip(range(cases), recognition_cases(rng)):
        got = recognize_projective(m)
        assert got == reference_recognize_projective(m), m
        table = tuple(vspace(m.p, m.n_cod).class_of[pt.index] for pt in m.images)
        assert _recognize_table(m.p, m.n_dom, m.n_cod, table) == got, m
        projective += got is not None
    assert 0 < projective < cases
    return cases


def family_rref_gf2(cases, seed=111):
    """rref at p = 2, the one loop every p runs, equals reference_rref on
    rows with entries in [0, 5), with empty input, zero rows and duplicates."""
    rng = SplitMix64(seed)
    for k in range(cases):
        ncols = rng.below(10) + 1
        rows = [[rng.below(5) for _ in range(ncols)] for _ in range(rng.below(9))]
        roll = k % 4
        if roll == 1:
            rows.insert(rng.below(len(rows) + 1), [0] * ncols)
        elif roll == 2 and rows:
            rows.append(list(rows[rng.below(len(rows))]))
        elif roll == 3:
            rows = [] if k % 8 == 3 else [[2 * c for c in r] for r in rows]
        assert rref(rows, 2) == reference_rref(rows, 2)
    return cases


def span_gf2_cases(rng):
    """Every spans key at (2,2,2), placed on the class representatives
    alone and again under a full fiber over y = 0; every P_sigma at (2,3);
    then random and fiber-map sets at (2,2,4), (2,3,3), (2,1,3) and
    (2,4,2)."""
    # an empty fiber stands for the zero subspace: both span to {0}
    subs = [0] + [subspace_mask(s) for s in all_subspaces(2, 2)[1:]]
    for extra in (0, 0b1111):
        for key in range(len(subs) ** 3):
            mask = extra
            for y in range(1, 4):
                mask |= subs[key // len(subs) ** (y - 1) % len(subs)] << 4 * y
            yield PairSet(2, 2, 2, mask)
    pts = proj_enumerate(2, 3)
    for r in range(5040):
        yield build_P_sigma(ProjBijection(2, 3, 3, tuple(pts[i] for i in perm_unrank(r, 7))))
    shapes = ((2, 2, 4), (2, 3, 3), (2, 1, 3), (2, 4, 2))
    k = 0
    while True:
        _, n1, n2 = shapes[k % len(shapes)]
        if k // len(shapes) % 2:
            mask = random_fiber_map_set(rng, 2, n1, n2)
        else:
            mask = 0
            for _ in range(rng.below(2 ** (n1 + n2)) + 1):
                mask |= 1 << rng.below(2 ** (n1 + n2))
        yield PairSet(2, n1, n2, mask)
        k += 1


def family_span_gf2(cases, seed=112):
    """At p = 2, S(A) packed from outer product to check forms equals the
    list path: the span, the check forms, the closure and every verdict
    field."""
    rng = SplitMix64(seed)
    statuses = set()
    ncheck = set()
    for _, a in zip(range(cases), span_gf2_cases(rng)):
        pi1, pi2, w1, w2, spans, basis, checks, closed = reference_gf2_closure(a)
        width = a.n1 * a.n2
        rows, packed_checks = _span_gf2(a.n1, a.n2, spans)
        assert tuple(_unpack(r, width) for r in rows) == basis
        assert [_unpack(h, width) for h in packed_checks] == checks
        c = closure(a)
        assert (c.span, c.closed.indicator) == (basis, closed)
        v = is_bilinear(a)
        status = "empty" if not a.indicator else (
            "bilinear" if pi1 == w1 and pi2 == w2 and closed == a.indicator else "non_bilinear")
        axis = None if status != "non_bilinear" else (
            "first" if pi1 != w1 else "second" if pi2 != w2 else None)
        extra = closed & ~a.indicator
        witness = None
        if extra and status == "non_bilinear":
            i = (extra & -extra).bit_length() - 1
            witness = (i % 2**a.n1, i // 2**a.n1)
        assert (v.status, subspace_mask(v.w1), subspace_mask(v.w2), v.span,
                v.closed.indicator, v.witness, v.non_subspace_axis, v.r3) == (
            status, w1, w2, basis, closed, witness, axis,
            v.w1.dim * v.w2.dim - len(basis))
        statuses.add(status)
        ncheck.add(min(len(checks), 2))
    assert statuses == {"empty", "bilinear", "non_bilinear"}, statuses
    assert ncheck == {0, 1, 2}, ncheck
    return cases


def line_mask_cases(rng):
    """(p, n, f0, options): the classification options ([full] and the
    hyperplanes) under every f0 at (2,2), (3,2), (2,3) and (5,2), then
    random shuffled lists of up to five subspaces at (2,2), (3,2) and (2,3)
    under a random f0."""
    for p, n in ((2, 2), (3, 2), (2, 3), (5, 2)):
        full = (1 << p**n) - 1
        options = [full] + [subspace_mask(h) for h in all_subspaces(p, n, dim=n - 1)]
        for f0 in options:
            yield p, n, f0, options
    k = 0
    while True:
        p, n = SHAPES[k % 3]
        subs = [subspace_mask(s) for s in all_subspaces(p, n)]
        exchange_shuffle(subs, rng)
        yield p, n, subs[-1], subs[:rng.below(5) + 1]
        k += 1


def family_line_masks(cases, seed=113):
    """The fiber-map DFS on running per-line masks visits the same leaves,
    in the same order, as the pairwise rescan of every line."""
    rng = SplitMix64(seed)
    leaves = 0
    for _, (p, n, f0, options) in zip(range(cases), line_mask_cases(rng)):
        lines, _ = line_structure(p, n)
        k = len(vspace(p, n).proj_reps)
        got, want = [], []
        _fiber_maps(f0, [options] * k, lines, k, lambda fibers: got.append(tuple(fibers)))
        reference_fiber_maps(f0, options, lines, k, lambda fibers: want.append(tuple(fibers)))
        assert got == want, (p, n, f0, options)
        leaves += len(got)
    assert leaves > 1000, leaves
    return cases


LINE_DUALITY_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (5, 2))


def family_line_duality(cases):
    """The collineation line condition is the fiber-map one: with H_c the
    kernel of the representative of class c, H_a & H_b lies inside H_t iff
    t is on the span of a and b (t = a when a = b), for every class triple
    (a, b, t) of each shape."""
    done = 0
    for p, n in LINE_DUALITY_SHAPES:
        kernels = _kernel_masks(p, n)
        hyper = [kernels[u] for u in vspace(p, n).proj_reps]
        _, span_mask = line_structure(p, n)
        for a, ha in enumerate(hyper):
            for b, hb in enumerate(hyper):
                for t, ht in enumerate(hyper):
                    assert (ha & hb & ~ht == 0) == bool(span_mask[a][b] >> t & 1), (p, n, a, b, t)
                    done += 1
    assert done == cases, done
    return done


def family_form_zero_mask(cases, seed=107):
    """The zero-set table of one form is the set of pairs on which the form,
    evaluated directly on their outer products, vanishes."""
    rng = SplitMix64(seed)
    shapes = tuple((p, n, n) for p, n in SHAPES + ((5, 2),)) + ((7, 1, 2), (3, 3, 3), (2, 4, 2))
    for k in range(cases):
        p, n1, n2 = shapes[k % len(shapes)]
        flat = tuple(rng.below(p) for _ in range(n1 * n2))
        direct = 0
        for i, o in enumerate(_outer_table(p, n1, n2)):
            if sum(f * c for f, c in zip(flat, o)) % p == 0:
                direct |= 1 << i
        assert _form_zero_mask(p, n1, n2, flat) == direct
    return cases


def family_agreement(cases, seed=103):
    """The fiberwise and direct transversality tests always agree."""
    rng = SplitMix64(seed)
    for k in range(cases):
        p, n = SHAPES[k % 3]
        roll = rng.below(4)
        if roll == 0:
            a = random_pairset(rng, p, n, 20)
        elif roll == 1:
            a = build_P_sigma(random_sigma(p, n, seed=rng.below(1 << 30)))
        elif roll == 2:
            # perturb a transverse set by one random pair flip
            a = build_P_sigma(random_sigma(p, n, seed=rng.below(1 << 30)))
            a = PairSet(p, n, n, a.indicator ^ (1 << rng.below(p ** (2 * n))))
        else:
            a = PairSet.empty(p, n, n)
        assert is_transverse(a, "fiberwise") == is_transverse(a, "direct")
    return cases


def family_phi_fixpoint(cases, seed=104):
    """Transverse sets are fixed by every word of the two operators."""
    rng = SplitMix64(seed)
    words = ("V", "H", "VH", "HV", "HVH")
    done = 0
    while done < cases:
        p, n = SHAPES[done % 3]
        a = build_P_sigma(random_sigma(p, n, seed=rng.below(1 << 30)))
        for _ in range(3):
            w = words[rng.below(len(words))]
            assert phi(a, w).indicator == a.indicator
            done += 1
    return done


def family_dir_sum_symmetry(cases, seed=105):
    """A +V B == B +V A and likewise horizontally."""
    rng = SplitMix64(seed)
    done = 0
    while done < cases:
        p, n = SHAPES[done % 3]
        a = random_pairset(rng, p, n, 10)
        b = random_pairset(rng, p, n, 10)
        for d in ("V", "H"):
            assert dir_sum(a, b, d).indicator == dir_sum(b, a, d).indicator
            done += 1
    return done


def sigma_core_cases(rng):
    """(p, n, table): every permutation of P(F_p^n) at (2,2), (3,2) and
    (2,3), then seeded shuffles at (5,2)."""
    for p, n in ((2, 2), (3, 2), (2, 3)):
        yield from ((p, n, perm) for perm in permutations(range(len(proj_enumerate(p, n)))))
    while True:
        table = list(range(6))
        exchange_shuffle(table, rng)
        yield 5, 2, tuple(table)


def xi_core_cases(rng):
    """(w, l, table): every bijection of P(F_p^2) onto itself over W = {0}
    and l = F_p^2 at p = 2, 3 and 5, then random codimension-2 W, planes l
    and bijections onto P(l) at p = 2, 3, 5 and 7."""
    for p in (2, 3, 5):
        w, l = Subspace.zero(p, 2), Subspace.full(p, 2)
        yield from ((w, l, perm) for perm in permutations(range(p + 1)))
    shapes = ((2, 2), (3, 2), (2, 3))
    k = 0
    while True:
        p = (2, 3, 5, 7)[k % 4]
        n1, n2 = shapes[k // 4 % 3]
        ws = all_subspaces(p, n1, dim=n1 - 2)
        ls = all_subspaces(p, n2, dim=2)
        w, l = ws[rng.below(len(ws))], ls[rng.below(len(ls))]
        cod = vspace(p, n2).class_of
        table = [cod[pt.index] for pt in proj_enumerate(p, n2) if l.member(pt.vector())]
        exchange_shuffle(table, rng)
        yield w, l, tuple(table)
        k += 1


def family_table_cores(cases, seed=114):
    """The fiber-map core on random fiber maps (empty class fibers and a
    proper fiber over 0 included) equals the pair-by-pair set; the span-set
    core on a class table equals the per-pair construction of the map with
    that table, and the P_xi core equals the per-x construction; the last
    two take the table the sweeps pass them."""
    rng = SplitMix64(seed)
    n_maps = min(cases, FIBER_MAP_CORE_CASES)
    shapes = ((2, 2, 2), (3, 2, 2), (2, 3, 3), (5, 2, 2), (2, 1, 3))
    empty = proper = 0
    for k in range(n_maps):
        p, n1, n2 = shapes[k % len(shapes)]
        f0, fibers = random_fiber_map(rng, p, n1, n2)
        empty += 0 in fibers
        proper += f0 != (1 << p**n2) - 1
        assert _fiber_map_mask(p, n1, n2, f0, fibers) == reference_fiber_map_mask(
            p, n1, n2, f0, fibers), (p, n1, n2, f0, fibers)
    assert empty and proper
    cases -= n_maps
    n_sigma = min(cases, SIGMA_CORE_CASES)
    for _, (p, n, table) in zip(range(n_sigma), sigma_core_cases(rng)):
        pts = proj_enumerate(p, n)
        sigma = ProjBijection(p, n, n, tuple(pts[d] for d in table))
        assert _sigma_mask(p, n, n, table) == build_P_sigma_reference(sigma), (p, n, table)
    for _, (w, l, table) in zip(range(cases - n_sigma), xi_core_cases(rng)):
        p, n2 = w.p, l.ambient
        pts = proj_enumerate(p, n2)
        xi = ProjBijection(p, 2, n2, tuple(pts[d] for d in table))
        assert _xi_mask(w, n2, table) == build_P_xi_reference(w, l, xi), (w, l, table)
    return n_maps + cases


def reference_dir_sum_vertical(a, b, sign):
    """{(x, y1 +/- y2) : (x, y1) in A, (x, y2) in B}, pair by pair."""
    p, n2 = a.p, a.n2
    out = set()
    for xa, ya in a.pair_indices():
        for xb, yb in b.pair_indices():
            if xa == xb:
                u, v = decode(ya, p, n2), decode(yb, p, n2)
                out.add(xa + p**a.n1 * encode([(s + sign * t) % p for s, t in zip(u, v)], p))
    return sum(1 << i for i in out)


def family_dir_sum_oracle(cases, seed=115):
    """The vertical sumset on the compact fibers equals the pair-by-pair
    sum, for both signs, and vertical_fibers equals the per-bit fiber
    walk."""
    rng = SplitMix64(seed)
    shapes = tuple((p, n, n) for p, n in SHAPES + ((5, 2),)) + ((2, 1, 3), (3, 3, 2))
    for k in range(cases):
        p, n1, n2 = shapes[k % len(shapes)]
        total = p ** (n1 + n2)
        a, b = (PairSet(p, n1, n2, sum({1 << rng.below(total) for _ in range(rng.below(14) + 1)}))
                for _ in range(2))
        if k % 5 == 0:
            b = a
        sign = (1, -1)[k // len(shapes) % 2]
        assert dir_sum(a, b, "V", sign).indicator == reference_dir_sum_vertical(a, b, sign)
        assert a.vertical_fibers() == reference_vertical_fibers(a)
    return cases


def kernel_agrees(kern, p, n1, n2, f0, fibers):
    """The kernel's leaf against _status on the set of the fiber map:
    indicator, status, witness, axis, closure, the S(A) basis and the check
    forms in column order.  Returns (indicator, status)."""
    ind = kern.place(f0, fibers)
    assert ind == _fiber_map_mask(p, n1, n2, f0, fibers), (p, n1, n2, f0, fibers)
    status, witness, axis, checks, closed = kern.verdict()
    v = _status(p, n1, n2, ind)
    assert (status, witness, axis, closed) == (
        v.status, v.witness, v.non_subspace_axis, v.closed.indicator), (p, n1, n2, f0, fibers)
    assert kern.span() == v.span
    assert list(checks) == _kernel_rows(v.span, n1 * n2, p)
    return ind, status


def transverse_fiber_maps(p, n1, n2, leaf):
    """leaf(f0, fibers) for every nonempty transverse set of F_p^n1 x
    F_p^n2: f0 a subspace of F_p^n2 and, per class of F_p^n1, an empty
    fiber or a subspace inside f0, under the line condition (_fiber_maps).
    An empty fiber on a line with two nonempty ones is refused there, as
    their intersection holds 0."""
    k = len(vspace(p, n1).proj_reps)
    subs = [subspace_mask(s) for s in all_subspaces(p, n2)]
    lines, _ = line_structure(p, n1)
    for f0 in subs:
        _fiber_maps(f0, [[0] + subs] * k, lines, k, lambda fibers: leaf(f0, fibers))


def family_fiber_kernel(cases, seed=116):
    """The fiber-map verdict kernel agrees with _status (kernel_agrees): on
    every nonempty transverse set at four shapes, each leaf re-checked as
    transverse and the leaf and bilinear counts pinned; on a stream of
    fiber maps per shape that alternates a fresh random fiber map with one
    that keeps a random prefix of the last and fills the rest with arbitrary
    bitsets (every tenth map is the empty set); and on sigma samples, the
    tables search_sigma's samples mode draws."""
    done = 0
    for (p, n1, n2), expected in KERNEL_LEAVES.items():
        kern = _FiberKernel(p, n1, n2)
        tally = [0, 0]

        def leaf(f0, fibers):
            ind, status = kernel_agrees(kern, p, n1, n2, f0, fibers)
            assert _fiber_map_read(p, n1, n2, ind)[0] is None
            tally[0] += 1
            tally[1] += status == "bilinear"

        transverse_fiber_maps(p, n1, n2, leaf)
        assert tuple(tally) == expected, (p, n1, n2, tally)
        done += tally[0]
    rng = SplitMix64(seed)
    shapes = ((2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2), (5, 2, 2), (2, 1, 3), (7, 1, 2))
    statuses = set()
    n_random = min(cases - done, KERNEL_RANDOM_CASES)
    per_shape = n_random // len(shapes)
    for i, (p, n1, n2) in enumerate(shapes):
        kern = _FiberKernel(p, n1, n2)
        f0, fibers = random_fiber_map(rng, p, n1, n2)
        for j in range(per_shape + (i < n_random % len(shapes))):
            if j % 10 == 9:  # the empty set
                f0, fibers = 0, [0] * len(fibers)
            elif j % 2:  # arbitrary bitsets: not subspaces, not inside f0
                cut = rng.below(len(fibers) + 1)
                fibers = fibers[:cut] + [rng.below(1 << p**n2) for _ in fibers[cut:]]
                if rng.below(4) == 0:
                    f0 = rng.below(1 << p**n2)
            else:
                f0, fibers = random_fiber_map(rng, p, n1, n2)
            statuses.add(kernel_agrees(kern, p, n1, n2, f0, fibers)[1])
        done += per_shape + (i < n_random % len(shapes))
    assert statuses == {"empty", "bilinear", "non_bilinear"}, statuses
    n_sigma = min(cases - done, KERNEL_SIGMA_CASES)
    shapes = ((2, 3), (3, 2), (5, 2), (3, 3))
    for i, (p, n) in enumerate(shapes):
        kern = _FiberKernel(p, n, n)
        full = (1 << p**n) - 1
        draws = n_sigma // len(shapes) + (i < n_sigma % len(shapes))
        for table in _sample_range(len(vspace(p, n).proj_reps), seed + i, 0, draws):
            ind, _ = kernel_agrees(kern, p, n, n, full, _sigma_fibers(p, n, table))
            assert ind == _sigma_mask(p, n, n, table)
        done += draws
    return done


FAMILIES = {
    "galois": family_galois,
    "closure": family_closure,
    "span_closure": family_span_closure,
    "form_zero_mask": family_form_zero_mask,
    "agreement": family_agreement,
    "phi_fixpoint": family_phi_fixpoint,
    "dir_sum_symmetry": family_dir_sum_symmetry,
    "fiber_oracle": family_fiber_oracle,
    "transversality_oracle": family_transversality_oracle,
    "recognition_oracle": family_recognition_oracle,
    "rref_gf2": family_rref_gf2,
    "span_gf2": family_span_gf2,
    "line_masks": family_line_masks,
    "line_duality": family_line_duality,
    "table_cores": family_table_cores,
    "dir_sum_oracle": family_dir_sum_oracle,
    "fiber_kernel": family_fiber_kernel,
}


_RUNS = {}


def run_family(name):
    """(cases, seconds) of one family at its configured size, run once per
    session; a family that raises is not recorded, so its own test still
    fails with its own assertion."""
    if name not in _RUNS:
        start = time.perf_counter()
        cases = FAMILIES[name](COUNTS[name])
        _RUNS[name] = cases, time.perf_counter() - start
    return _RUNS[name]


def run_suite():
    """Every family at its configured size; returns (cases, seconds), the
    seconds summed over the families' own runs."""
    runs = [run_family(name) for name in COUNTS]
    return sum(c for c, _ in runs), sum(t for _, t in runs)


def test_family_galois():
    assert run_family("galois")[0] == COUNTS["galois"]


def test_family_closure():
    assert run_family("closure")[0] == COUNTS["closure"]


def test_family_span_closure():
    assert run_family("span_closure")[0] == COUNTS["span_closure"]


def test_family_form_zero_mask():
    assert run_family("form_zero_mask")[0] == COUNTS["form_zero_mask"]


def test_family_fiber_oracle():
    assert run_family("fiber_oracle")[0] == COUNTS["fiber_oracle"]


def test_family_agreement():
    assert run_family("agreement")[0] == COUNTS["agreement"]


def test_family_phi_fixpoint():
    assert run_family("phi_fixpoint")[0] >= COUNTS["phi_fixpoint"]


def test_family_dir_sum_symmetry():
    assert run_family("dir_sum_symmetry")[0] >= COUNTS["dir_sum_symmetry"]


def test_total_case_budget():
    assert sum(COUNTS.values()) >= 10_000


def test_family_transversality_oracle():
    assert run_family("transversality_oracle")[0] == COUNTS["transversality_oracle"]


def test_family_recognition_oracle():
    assert run_family("recognition_oracle")[0] == COUNTS["recognition_oracle"]


def test_family_rref_gf2():
    assert run_family("rref_gf2")[0] == COUNTS["rref_gf2"]


def test_family_span_gf2():
    assert run_family("span_gf2")[0] == COUNTS["span_gf2"]


def test_family_line_masks():
    assert run_family("line_masks")[0] == COUNTS["line_masks"]


def test_family_line_duality():
    assert run_family("line_duality")[0] == COUNTS["line_duality"]


def test_family_table_cores():
    assert run_family("table_cores")[0] == COUNTS["table_cores"]


def test_family_dir_sum_oracle():
    assert run_family("dir_sum_oracle")[0] == COUNTS["dir_sum_oracle"]


def test_family_fiber_kernel():
    assert run_family("fiber_kernel")[0] == COUNTS["fiber_kernel"]
