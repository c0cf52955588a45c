"""Annihilators, bilinear closure and the bilinearity verdict.

A set is bilinear when it is cut out inside W1 x W2 by bilinear forms
(linear conditions are the rank-one special case once W1 and W2 absorb the
purely linear constraints).  The criterion is a Galois round trip: A is
bilinear iff its projections are subspaces and A equals orth(ann(A)), the
joint zero set of its annihilator over the spans W1, W2 of the projections.

A form vanishes on A exactly when it vanishes on the span of outer products
S(A) = span{x (x) y : (x, y) in A}, so that zero set is
(W1 x W2) intersected with {(x, y) : x (x) y in S(A)}, and dim ann = dim W1 *
dim W2 - dim S(A).  closure and is_bilinear decide from one incremental RREF
basis of S(A) per set, built from a cached table of flattened outer
products; the basis is canonical, so it also keys the zero-set table.  The
annihilator itself is certificate content only: the ``ann`` attribute of a
result is the kernel of S(A) in the coordinates of W1 and W2, computed from
(W1, W2, S(A)) when read.  ann and orth stay public and are the reference
route the tests check the fast one against.

Annihilator form spaces are stored in the coordinates of the two reference
subspaces: a form is a (dim w1) x (dim w2) matrix evaluated on RREF
coordinates.  When w1 and w2 are the full ambient spaces this is the usual
matrix of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .fpcore import MatP, Subspace, VecP, decode, is_prime, rref, rref_kernel
from .pairsets import (
    PairSet,
    SingleSet,
    _iter_bits,
    mask_to_subspace,
    projections,
    subspace_mask,
)

__all__ = [
    "BilinearForm",
    "BilinearVerdict",
    "ClosureResult",
    "FormSpace",
    "ann",
    "closure",
    "eval_form",
    "is_bilinear",
    "orth",
]


@dataclass(frozen=True)
class BilinearForm:
    """A bilinear form F_p^{n1} x F_p^{n2} -> F_p as an n1-by-n2 matrix."""

    p: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        rows = tuple(tuple(c % self.p for c in r) for r in self.matrix)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged form matrix")
        object.__setattr__(self, "matrix", rows)

    @property
    def n1(self) -> int:
        return len(self.matrix)

    @property
    def n2(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0


def eval_form(q: BilinearForm, x: VecP, y: VecP) -> int:
    """Q(x, y) = sum_ij x_i Q_ij y_j mod p."""
    if x.p != q.p or y.p != q.p or x.n != q.n1 or y.n != q.n2:
        raise ValueError("dimension or field mismatch")
    return sum(
        xi * sum(qij * yj for qij, yj in zip(row, y.coords))
        for xi, row in zip(x.coords, q.matrix)
    ) % q.p


@dataclass(frozen=True)
class FormSpace:
    """A linear space of bilinear forms on coordinate space d1 x d2, stored
    through a canonical basis: the RREF of the row-major flattened matrices."""

    p: int
    n1: int
    n2: int
    basis: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        flat = [self._flatten(m) for m in self.basis]
        reduced, _ = rref(flat, self.p)
        if [list(f) for f in flat] != reduced:
            raise ValueError("form basis is not canonical (flattened RREF)")
        for m in self.basis:
            if len(m) != self.n1 or any(len(r) != self.n2 for r in m):
                raise ValueError("form matrix has the wrong shape")

    def _flatten(self, m) -> tuple[int, ...]:
        return tuple(c for row in m for c in row)

    @classmethod
    def from_matrices(cls, p: int, n1: int, n2: int, mats) -> "FormSpace":
        flat = [tuple(c % p for row in m for c in row) for m in mats]
        for f in flat:
            if len(f) != n1 * n2:
                raise ValueError("form matrix has the wrong shape")
        reduced, _ = rref(flat, p)
        return cls(p, n1, n2, tuple(cls._reshape(r, n2) for r in reduced))

    @staticmethod
    def _reshape(flat, n2: int):
        if n2 == 0:
            return ()
        return tuple(tuple(flat[i : i + n2]) for i in range(0, len(flat), n2))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def elements(self) -> list[tuple[tuple[int, ...], ...]]:
        """All p**dim member matrices (small spaces only)."""
        out = []
        for lams in product(range(self.p), repeat=self.dim):
            acc = [[0] * self.n2 for _ in range(self.n1)]
            for lam, m in zip(lams, self.basis):
                if lam:
                    for i in range(self.n1):
                        for j in range(self.n2):
                            acc[i][j] = (acc[i][j] + lam * m[i][j]) % self.p
            out.append(tuple(tuple(r) for r in acc))
        return out


@lru_cache(maxsize=4096)
def _coords_table(sub: Subspace) -> dict:
    """index -> RREF coordinates, for every member of the subspace."""
    return dict(
        zip(sub.element_indices(), product(range(sub.p), repeat=sub.dim))
    )


def _coords_in(sub: Subspace, index: int, n: int):
    c = _coords_table(sub).get(index)
    if c is None:
        raise ValueError(
            f"vector with index {index} lies outside the reference subspace"
        )
    return c


def ann(a: PairSet, w1: Subspace | None = None, w2: Subspace | None = None) -> FormSpace:
    """Annihilator of A: all forms on w1 x w2 coordinates vanishing on A.

    Defaults to the full ambient spaces.  A must be contained in w1 x w2.
    Computed as the kernel of the evaluation matrix whose rows are the
    flattened outer products of the coordinate vectors of the members of A
    (duplicate rows dropped).
    """
    w1 = w1 if w1 is not None else Subspace.full(a.p, a.n1)
    w2 = w2 if w2 is not None else Subspace.full(a.p, a.n2)
    if w1.p != a.p or w2.p != a.p or w1.ambient != a.n1 or w2.ambient != a.n2:
        raise ValueError("reference subspaces live in the wrong space")
    d1, d2 = w1.dim, w2.dim
    rows = set()
    for xi, yi in a.pair_indices():
        ca = _coords_in(w1, xi, a.n1)
        cb = _coords_in(w2, yi, a.n2)
        rows.add(tuple(ai * bj % a.p for ai in ca for bj in cb))
    if not rows:
        # empty set: every form vanishes
        mats = [
            tuple(tuple(1 if (i, j) == (r, c) else 0 for j in range(d2)) for i in range(d1))
            for r in range(d1)
            for c in range(d2)
        ]
        return FormSpace.from_matrices(a.p, d1, d2, mats)
    _, kern, _ = rref_kernel(MatP(a.p, tuple(sorted(rows))))
    return FormSpace(a.p, d1, d2, tuple(FormSpace._reshape(b, d2) for b in kern.basis))


def orth(m: FormSpace, w1: Subspace, w2: Subspace) -> PairSet:
    """Joint zero set of a form space inside w1 x w2, as an ambient PairSet."""
    if w1.p != m.p or w2.p != m.p or w1.dim != m.n1 or w2.dim != m.n2:
        raise ValueError("form space does not match the reference subspaces")
    p = m.p
    xs = _coords_table(w1).items()
    ys = _coords_table(w2).items()
    m1 = p**w1.ambient
    mask = 0
    basis = m.basis
    for xi, ca in xs:
        # partial contractions a^T Q for each basis form
        partials = [
            tuple(sum(ai * row[j] for ai, row in zip(ca, q)) % p for j in range(m.n2))
            for q in basis
        ]
        for yi, cb in ys:
            if all(sum(pj * bj for pj, bj in zip(part, cb)) % p == 0 for part in partials):
                mask |= 1 << (xi + m1 * yi)
    return PairSet(p, w1.ambient, w2.ambient, mask)


# ------------------------------------------------- the span of outer products


@lru_cache(maxsize=None)
def _outer_table(p: int, n1: int, n2: int) -> tuple:
    """Flattened outer product x (x) y (entry i*n2 + j is x_i y_j) of every
    pair, indexed by the pair index x_index + p**n1 * y_index."""
    xs = [decode(i, p, n1) for i in range(p**n1)]
    ys = [decode(i, p, n2) for i in range(p**n2)]
    return tuple(tuple(a * b % p for a in x for b in y) for y in ys for x in xs)


@lru_cache(maxsize=None)
def _kernel_masks(p: int, n: int) -> tuple:
    """Bit mask of {x in F_p^n : u . x = 0} for every functional u, indexed
    by the encoded index of u."""
    vs = [decode(i, p, n) for i in range(p**n)]
    return tuple(
        sum(1 << i for i, x in enumerate(vs) if sum(a * b for a, b in zip(u, x)) % p == 0)
        for u in vs
    )


def _span_basis(a: PairSet, bound: int) -> tuple:
    """Canonical RREF basis of S(A) = span{x (x) y : (x, y) in A}.

    Each distinct outer product is reduced against the basis built so far
    and, when something is left, normalized and eliminated from the other
    rows.  S(A) lies in W1 (x) W2, so the loop stops once the basis reaches
    ``bound`` = dim W1 * dim W2.
    """
    p = a.p
    table = _outer_table(p, a.n1, a.n2)
    basis: list = []
    pivots: list = []
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


def _check_forms(p: int, n1: int, n2: int, span: tuple) -> list:
    """A basis of the forms vanishing on S, for S given by its RREF basis:
    one check form per free column f (1 at f, minus the column entry at each
    pivot), flattened row-major."""
    pivots = [next(k for k, c in enumerate(b) if c) for b in span]
    checks = []
    for f in range(n1 * n2):
        if f in pivots:
            continue
        h = [0] * (n1 * n2)
        h[f] = 1
        for b, j in zip(span, pivots):
            h[j] = -b[f] % p
        checks.append(tuple(h))
    return checks


@lru_cache(maxsize=4096)
def _form_zero_mask(p: int, n1: int, n2: int, flat: tuple) -> int:
    """Indicator of the ambient zero set {(x, y) : x^T Q y = 0} of one form,
    given flattened row-major.  For fixed y the form is a functional on x,
    so each row of pairs is the kernel of that functional, shifted into
    place."""
    kernel = _kernel_masks(p, n1)
    rows = [flat[i * n2 : (i + 1) * n2] for i in range(n1)]
    m1 = p**n1
    out = 0
    for y in range(p**n2):
        yc = decode(y, p, n2)
        u = 0
        for r in reversed(rows):
            u = u * p + sum(c * b for c, b in zip(r, yc)) % p
        out |= kernel[u] << (m1 * y)
    return out


@lru_cache(maxsize=4096)
def _span_closure(w1: Subspace, w2: Subspace, span: tuple) -> int:
    """Indicator of {(x, y) in W1 x W2 : x (x) y in S}, for S given by its
    RREF basis: W1 x W2 intersected with the zero sets of the check forms
    of S."""
    p, n1, n2 = w1.p, w1.ambient, w2.ambient
    x_mask = subspace_mask(w1)
    m1 = p**n1
    out = 0
    for y in _iter_bits(subspace_mask(w2)):
        out |= x_mask << (m1 * y)
    for h in _check_forms(p, n1, n2, span):
        out &= _form_zero_mask(p, n1, n2, h)
    return out


@lru_cache(maxsize=4096)
def _span_ann(w1: Subspace, w2: Subspace, span: tuple) -> FormSpace:
    """ann(A, W1, W2) from (W1, W2, S(A)): a form vanishes on A exactly when
    it vanishes on S(A).  The RREF coordinates of a member of W are its
    entries at the pivots of W, so S(A) in W-coordinates is its basis
    restricted to (pivots of W1) x (pivots of W2); an empty span leaves one
    zero row, whose kernel is every form."""
    cols = [i * w2.ambient + j for i in w1.pivots for j in w2.pivots]
    rows = tuple(tuple(b[c] for c in cols) for b in span) or ((0,) * len(cols),)
    _, kern, _ = rref_kernel(MatP(w1.p, rows))
    forms = tuple(FormSpace._reshape(b, w2.dim) for b in kern.basis)
    return FormSpace(w1.p, w1.dim, w2.dim, forms)


@dataclass(frozen=True)
class ClosureResult:
    """Spans of the projections, S(A) and the closure.

    span is the canonical RREF basis of S(A) = span{x (x) y : (x, y) in A},
    flattened row-major.  ann, the annihilator over w1 x w2 in their RREF
    coordinates, is computed when read.
    """

    w1: Subspace
    w2: Subspace
    span: tuple
    closed: PairSet

    @property
    def ann(self) -> FormSpace:
        return _span_ann(self.w1, self.w2, self.span)


def _closure(a: PairSet, pi1: SingleSet, pi2: SingleSet) -> ClosureResult:
    w1 = mask_to_subspace(a.p, a.n1, pi1.indicator)
    w2 = mask_to_subspace(a.p, a.n2, pi2.indicator)
    span = _span_basis(a, w1.dim * w2.dim)
    closed = PairSet(a.p, a.n1, a.n2, _span_closure(w1, w2, span))
    return ClosureResult(w1, w2, span, closed)


def closure(a: PairSet) -> ClosureResult:
    """Bilinear closure: (W1 x W2) intersected with {(x, y) : x (x) y in S(A)},
    over the spans W1, W2 of the projections.  This equals orth(ann(A)).

    Extensive (A is always contained in the result, and the result always
    contains (0,0)) and idempotent; A is bilinear iff it equals its closure
    and its projections are subspaces.
    """
    return _closure(a, *projections(a))


@dataclass(frozen=True)
class BilinearVerdict:
    """Outcome of the bilinearity decision.

    status is "bilinear", "non_bilinear" or "empty".  w1/w2 are the spans of
    the projections, span the RREF basis of S(A), ann the annihilator over
    w1 x w2 (computed when read).  For a non-bilinear set either
    non_subspace_axis names the projection that is not a subspace
    ("first"/"second"), or witness is the smallest-index pair in the closure
    that is missing from the set (often both are available).
    """

    status: str
    w1: Subspace
    w2: Subspace
    span: tuple
    closed: PairSet
    witness: tuple[int, int] | None
    non_subspace_axis: str | None

    @property
    def ann(self) -> FormSpace:
        return _span_ann(self.w1, self.w2, self.span)

    @property
    def r1(self) -> int:
        return self.w1.codim

    @property
    def r2(self) -> int:
        return self.w2.codim

    @property
    def r3(self) -> int:
        """dim ann = dim W1 * dim W2 - dim S(A)."""
        return self.w1.dim * self.w2.dim - len(self.span)


def is_bilinear(a: PairSet) -> BilinearVerdict:
    """Decide whether A = {(x, y) in W1 x W2 : all forms in M vanish} for
    some subspaces W1, W2 and form space M.

    Any such presentation forces W1 and W2 to be exactly the projections of
    A, so the decision reduces to: both projections are subspaces and A
    equals its bilinear closure.  The empty set gets its own status.
    """
    pi1, pi2 = projections(a)
    res = _closure(a, pi1, pi2)
    fields = (res.w1, res.w2, res.span, res.closed)
    if not a.indicator:
        return BilinearVerdict("empty", *fields, None, None)
    axis = None
    if pi1.indicator != subspace_mask(res.w1):
        axis = "first"
    elif pi2.indicator != subspace_mask(res.w2):
        axis = "second"
    extra = res.closed.indicator & ~a.indicator
    if a.indicator & ~res.closed.indicator:
        raise AssertionError("closure is not extensive; this is a bug")
    witness = None
    if extra:
        i = (extra & -extra).bit_length() - 1
        m1 = a.p**a.n1
        witness = (i % m1, i // m1)
    if axis is None and not extra:
        return BilinearVerdict("bilinear", *fields, None, None)
    return BilinearVerdict("non_bilinear", *fields, witness, axis)
