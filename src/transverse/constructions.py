"""Reference constructions: the F_3 counterexample, span sets of projective
permutations, and hyperplane-fiber sets driven by a line bijection.

These are the concrete witnesses the verification suites revolve around:
a small transverse set that is not bilinear over F_3, the distinguished
seven-point permutation whose span set does the same over F_2, and for
p >= 5 the family built from a bijection of a projective line, which is
bilinear exactly when the bijection is projective.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .detrng import SplitMix64, exchange_shuffle
from .fpcore import (
    ProjPoint,
    Subspace,
    VecP,
    _check_table,
    encode,
    is_prime,
    proj_enumerate,
    vspace,
)
from .pairsets import PairSet, _fiber_map_mask, _kernel_masks

__all__ = [
    "ProjBijection",
    "build_P_sigma",
    "build_P_xi",
    "f3_example",
    "p0_p1",
    "random_sigma",
    "sigma_fig2",
]


@dataclass(frozen=True)
class ProjBijection:
    """An injective map P(F_p^{n_dom}) -> P(F_p^{n_cod}), stored as the image
    tuple aligned with the ascending-index enumeration of the domain.  It is
    the one map type between projective point sets that the package builds."""

    p: int
    n_dom: int
    n_cod: int
    images: tuple[ProjPoint, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.n_dom < 1 or self.n_cod < 1:
            raise ValueError(f"dimensions must be at least 1, got {self.n_dom}, {self.n_cod}")
        npts = len(vspace(self.p, self.n_dom).proj_reps)
        if len(self.images) != npts:
            raise ValueError(f"need {npts} images, got {len(self.images)}")
        for pt in self.images:
            if pt.p != self.p or pt.n != self.n_cod:
                raise ValueError("image point lives in the wrong space")
        if len({pt.index for pt in self.images}) != len(self.images):
            raise ValueError("images are not distinct")

    @classmethod
    def from_index_table(cls, p: int, n_dom: int, n_cod: int, images) -> "ProjBijection":
        pts = tuple(
            ProjPoint.from_vector(VecP.from_index(i, p, n_cod)) for i in images
        )
        return cls(p, n_dom, n_cod, pts)

    def domain(self) -> list[ProjPoint]:
        return proj_enumerate(self.p, self.n_dom)

    def image_of(self, pt: ProjPoint) -> ProjPoint:
        if pt.p != self.p or pt.n != self.n_dom:
            raise ValueError(f"point of P(F_{pt.p}^{pt.n}) is not in the domain "
                             f"P(F_{self.p}^{self.n_dom})")
        return self.images[vspace(self.p, self.n_dom).class_of[pt.index]]

    def index_table(self) -> tuple[int, ...]:
        return tuple(pt.index for pt in self.images)


def f3_example() -> PairSet:
    """The 29-element transverse, non-bilinear subset of F_3^2 x F_3^2:
    pairs with x1 y1^2 + x2 y2^2 = 0 and x1^2 y1 + x2^2 y2 = 0."""
    p = 3
    pairs = []
    for x in product(range(p), repeat=2):
        for y in product(range(p), repeat=2):
            if (x[0] * y[0] ** 2 + x[1] * y[1] ** 2) % p:
                continue
            if (x[0] ** 2 * y[0] + x[1] ** 2 * y[1]) % p:
                continue
            pairs.append((encode(x, p), encode(y, p)))
    return PairSet.from_pairs(p, 2, 2, pairs)


def p0_p1() -> tuple[PairSet, PairSet]:
    """The two bilinear pieces whose union is the F_3 example: P0 cut out by
    x1 y1 = 0 and x2 y2 = 0, P1 by x1 + x2 = 0 and y1 + y2 = 0."""
    p = 3
    pairs0 = []
    pairs1 = []
    for x in product(range(p), repeat=2):
        for y in product(range(p), repeat=2):
            if x[0] * y[0] % p == 0 and x[1] * y[1] % p == 0:
                pairs0.append((encode(x, p), encode(y, p)))
            if (x[0] + x[1]) % p == 0 and (y[0] + y[1]) % p == 0:
                pairs1.append((encode(x, p), encode(y, p)))
    return (
        PairSet.from_pairs(p, 2, 2, pairs0),
        PairSet.from_pairs(p, 2, 2, pairs1),
    )


def sigma_fig2() -> ProjBijection:
    """The distinguished permutation of the seven points of P(F_2^3): fixes
    (1,0,0), (0,1,0), (0,0,1), (1,1,0) and 3-cycles
    (1,0,1) -> (0,1,1) -> (1,1,1) -> (1,0,1).  Its span set is transverse
    but not bilinear."""
    return ProjBijection.from_index_table(2, 3, 3, (1, 2, 3, 4, 6, 7, 5))


def build_P_sigma(sigma: ProjBijection) -> PairSet:
    """Span set of a projective map: {0} x V2 together with
    Span(x) x Span(sigma([x])) for every projective class [x].  A factor
    past the table limit is a ValueError, raised before anything is built."""
    p, n1, n2 = sigma.p, sigma.n_dom, sigma.n_cod
    _check_table(p, max(n1, n2))
    cod = vspace(p, n2).class_of
    return PairSet(p, n1, n2, _sigma_mask(p, n1, n2, tuple(cod[pt.index] for pt in sigma.images)))


def _sigma_mask(p: int, n1: int, n2: int, images: tuple[int, ...]) -> int:
    """Indicator of the span set of the map whose image class table is
    `images` (images[c] the class of P(F_p^n2) that class c of P(F_p^n1)
    goes to): the fiber map with V2 over 0 and Span(v) over class c, v the
    representative of images[c]."""
    return _fiber_map_mask(p, n1, n2, (1 << p**n2) - 1, _sigma_fibers(p, n2, images))


def _sigma_fibers(p: int, n2: int, images: tuple[int, ...]) -> list[int]:
    """The class fibers of the span set of the map with image class table
    `images`: Span(v) over class c, v the representative of images[c]."""
    spans = _span_fibers(p, n2)
    return [spans[d] for d in images]


@lru_cache(maxsize=None)
def _span_fibers(p: int, n: int) -> tuple[int, ...]:
    """Bitset of Span(v) for the representative v of each class of
    P(F_p^n)."""
    sp = vspace(p, n)
    return tuple(sum(1 << sp.scale[lam][v] for lam in range(p)) for v in sp.proj_reps)


def random_sigma(p: int, n: int, seed: int) -> ProjBijection:
    """Seeded random permutation of P(F_p^n) via the pinned splitmix64
    stream and exchange shuffle; the same seed always gives the same map."""
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    _check_table(p, n)
    pts = proj_enumerate(p, n)
    perm = list(range(len(pts)))
    exchange_shuffle(perm, SplitMix64(seed))
    return ProjBijection(p, n, n, tuple(pts[i] for i in perm))


def build_P_xi(w: Subspace, l: Subspace, xi_prime: ProjBijection) -> PairSet:
    """Hyperplane-fiber set driven by a bijection of projective lines.

    w is a codimension-2 subspace of the first factor and l a 2-dimensional
    subspace of the second.  xi_prime maps the projective line P(V1/W) --
    presented in the coordinates of the two non-pivot columns of w -- onto
    P(l).  The fiber over x in w is all of V2; over x outside w it is the
    hyperplane orthogonal to the image of the class of x mod w.  A factor
    past the table limit is a ValueError, raised before anything is built.
    """
    p = xi_prime.p
    if w.p != p or l.p != p:
        raise ValueError("field mismatch")
    if w.codim != 2:
        raise ValueError(f"w must have codimension 2, got {w.codim}")
    if l.dim != 2:
        raise ValueError(f"l must be 2-dimensional, got dim {l.dim}")
    if xi_prime.n_dom != 2 or xi_prime.n_cod != l.ambient:
        raise ValueError("xi_prime must map a projective line into the ambient of l")
    for pt in xi_prime.images:
        if not l.member(pt.vector()):
            raise ValueError("xi_prime image lies outside l")
    n1, n2 = w.ambient, l.ambient
    _check_table(p, max(n1, n2))
    cod = vspace(p, n2).class_of
    return PairSet(p, n1, n2, _xi_mask(w, n2, tuple(cod[pt.index] for pt in xi_prime.images)))


def _xi_mask(w: Subspace, n2: int, images: tuple[int, ...]) -> int:
    """Indicator of the hyperplane-fiber set over w whose line bijection has
    the image class table `images` (classes of P(F_p^n2)): the fiber map
    with V2 over 0 and over the classes inside w, and over any other class
    the kernel of the representative of the image of its class mod w."""
    return _fiber_map_mask(w.p, w.ambient, n2, (1 << w.p**n2) - 1, _xi_fibers(w, n2, images))


def _xi_fibers(w: Subspace, n2: int, images: tuple[int, ...]) -> list[int]:
    """The class fibers of that set: V2 over the classes inside w, and over
    any other class the kernel of the representative of images[q], q the
    class of its residual mod w."""
    p = w.p
    full = (1 << p**n2) - 1
    kernel = _kernel_masks(p, n2)
    reps = vspace(p, n2).proj_reps
    return [full if q < 0 else kernel[reps[images[q]]] for q in _quotient_classes(w)]


@lru_cache(maxsize=64)
def _quotient_classes(w: Subspace) -> tuple[int, ...]:
    """For a codimension-2 w: class c of P(F_p^n) -> the class id on
    P(F_p^2) of its representative mod w, read in the two non-pivot columns
    of w, or -1 when the class lies in w.  Scaling x scales its residual,
    so the id is the same for every member of the class."""
    p, n = w.p, w.ambient
    f0, f1 = (j for j in range(n) if j not in w.pivots)
    line = vspace(p, 2)
    out = []
    for x in vspace(p, n).proj_reps:
        r = w.residual(VecP.from_index(x, p, n)).coords
        out.append(line.class_of[r[f0] + p * r[f1]])
    return tuple(out)
