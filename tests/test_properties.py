"""Seeded randomized property families over (p, n) in {(2,2), (3,2), (2,3)}
(the span_closure and form_zero_mask families add (5,2)).

Each family draws its cases from a SplitMix64 stream, so every run checks the
same cases.  The counts below total more than ten thousand cases; the whole
suite is also callable as run_suite() which reports (cases, seconds).
"""

import time

from transverse.bilinear import _form_zero_mask, _outer_table, ann, closure, is_bilinear, orth
from transverse.constructions import build_P_sigma, random_sigma
from transverse.detrng import SplitMix64
from transverse.fpcore import Subspace
from transverse.pairsets import PairSet, dir_sum, is_transverse, phi

SHAPES = ((2, 2), (3, 2), (2, 3))

COUNTS = {
    "galois": 2400,
    "closure": 2400,
    "span_closure": 1200,
    "form_zero_mask": 800,
    "agreement": 2600,
    "phi_fixpoint": 1500,
    "dir_sum_symmetry": 1600,
}


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


def test_family_agreement():
    assert family_agreement(COUNTS["agreement"]) == COUNTS["agreement"]


def test_family_phi_fixpoint():
    assert family_phi_fixpoint(COUNTS["phi_fixpoint"]) >= COUNTS["phi_fixpoint"]


def test_family_dir_sum_symmetry():
    assert family_dir_sum_symmetry(COUNTS["dir_sum_symmetry"]) >= COUNTS["dir_sum_symmetry"]


def test_total_case_budget():
    assert sum(COUNTS.values()) >= 10_000
