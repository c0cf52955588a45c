"""Seeded randomized property families over (p, n) in {(2,2), (3,2), (2,3)}
(the span_closure and form_zero_mask families add (5,2); the fiber_oracle
family adds (5,2) and the non-square shapes (2,1,3), (3,3,2) and (7,1,2)).

Each family draws its cases from a SplitMix64 stream, so every run checks the
same cases.  The counts below total more than ten thousand cases; the whole
suite is also callable as run_suite() which reports (cases, seconds).
"""

import time
from functools import lru_cache

from transverse.bilinear import _form_zero_mask, ann, closure, is_bilinear, orth
from transverse.constructions import build_P_sigma, random_sigma
from transverse.detrng import SplitMix64
from transverse.fpcore import Subspace, decode, span
from transverse.pairsets import PairSet, _iter_bits, dir_sum, is_transverse, phi, projections

SHAPES = ((2, 2), (3, 2), (2, 3))

COUNTS = {
    "galois": 2400,
    "closure": 2400,
    "span_closure": 1200,
    "form_zero_mask": 800,
    "agreement": 2600,
    "phi_fixpoint": 1500,
    "dir_sum_symmetry": 1600,
    "fiber_oracle": 1400,
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


def family_form_zero_mask(cases, seed=107):
    """The zero-set table of one form is the set of pairs on which the form,
    evaluated directly on their outer products, vanishes."""
    rng = SplitMix64(seed)
    shapes = SHAPES + ((5, 2),)
    for k in range(cases):
        p, n = shapes[k % 4]
        flat = tuple(rng.below(p) for _ in range(n * n))
        direct = 0
        for i, o in enumerate(_outer_table(p, n, n)):
            if sum(f * c for f, c in zip(flat, o)) % p == 0:
                direct |= 1 << i
        assert _form_zero_mask(p, n, n, flat) == direct
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


FAMILIES = {
    "galois": family_galois,
    "closure": family_closure,
    "span_closure": family_span_closure,
    "form_zero_mask": family_form_zero_mask,
    "agreement": family_agreement,
    "phi_fixpoint": family_phi_fixpoint,
    "dir_sum_symmetry": family_dir_sum_symmetry,
    "fiber_oracle": family_fiber_oracle,
}


def run_suite():
    """Run every family at its configured size; returns (cases, seconds)."""
    start = time.perf_counter()
    total = sum(FAMILIES[name](count) for name, count in COUNTS.items())
    return total, time.perf_counter() - start


def test_family_galois():
    assert family_galois(COUNTS["galois"]) == COUNTS["galois"]


def test_family_closure():
    assert family_closure(COUNTS["closure"]) == COUNTS["closure"]


def test_family_span_closure():
    assert family_span_closure(COUNTS["span_closure"]) == COUNTS["span_closure"]


def test_family_form_zero_mask():
    assert family_form_zero_mask(COUNTS["form_zero_mask"]) == COUNTS["form_zero_mask"]


def test_family_fiber_oracle():
    assert family_fiber_oracle(COUNTS["fiber_oracle"]) == COUNTS["fiber_oracle"]


def test_family_agreement():
    assert family_agreement(COUNTS["agreement"]) == COUNTS["agreement"]


def test_family_phi_fixpoint():
    assert family_phi_fixpoint(COUNTS["phi_fixpoint"]) >= COUNTS["phi_fixpoint"]


def test_family_dir_sum_symmetry():
    assert family_dir_sum_symmetry(COUNTS["dir_sum_symmetry"]) >= COUNTS["dir_sum_symmetry"]


def test_total_case_budget():
    assert sum(COUNTS.values()) >= 10_000
