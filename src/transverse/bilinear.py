"""Annihilators, bilinear closure and the bilinearity verdict.

A set is bilinear when it is cut out inside W1 x W2 by bilinear forms
(linear conditions are the rank-one special case once W1 and W2 absorb the
purely linear constraints).  The criterion is a Galois round trip: A is
bilinear iff its projections are subspaces and A equals orth(ann(A)), the
joint zero set of its annihilator over the spans W1, W2 of the projections.

A form vanishes on A exactly when it vanishes on the span of outer products
S(A) = span{x (x) y : (x, y) in A}, so that zero set is
(W1 x W2) intersected with {(x, y) : x (x) y in S(A)}, and dim ann = dim W1 *
dim W2 - dim S(A).  The decision has one tail, _decide, which takes the
indicator, the projections and Z = {(x, y) : x (x) y in S(A)} and gives the
closure, the status, the witness and the axis.  S(A) and Z are built two
ways.  _status(p, n1, n2, ind), the verdict of is_bilinear and closure,
reads a set once through its horizontal fibers A^y = {x : (x, y) in A}: pi1
is the union of the fibers, pi2 the set of y with a nonempty fiber, and for
y = lam * rep_c, x (x) y = lam * (x (x) rep_c), so

    S(A) = sum over the projective classes c of F_p^{n2} of span(U_c) (x) rep_c,

with U_c the union of the fibers over the members of c.  S(A) and Z, cut
out by the check forms of S(A) (fpcore._kernel_rows; packed at p = 2),
therefore depend only on the span masks of the U_c, and the one memo of
them (_span_zero) is keyed on (p, n1, n2, tuple of those masks).  The
powerset sweep makes the same decision for a whole block of masks that
share the rows y >= 1, with one _span_zero lookup per block
(explorer._subset_range).  The sweeps whose leaves are fiber maps (sigma,
xi, classification) build S(A) the other way, from the vertical fibers:
S(A) = sum over the classes c of F_p^{n1} of rep_c (x) span(F_c), extended
class by class along the enumeration and shared by every leaf with the
same prefix of fibers (_FiberKernel).  Both give the same canonical RREF
basis, and _status stays the oracle the kernel is tested against.  The
closure is Z ANDed with the box W1 x W2, which is w1 times the {0} x W2
cell.  Every key is made of ints.  The annihilator itself is certificate
content only: the ``ann`` attribute of a result is the kernel of S(A) in
the coordinates of W1 and W2, computed from (W1, W2, S(A)) when read.  ann
and orth stay public and are the reference route the tests check the fast
one against.

Annihilator form spaces are stored in the coordinates of the two reference
subspaces: a form is a (dim w1) x (dim w2) matrix evaluated on RREF
coordinates.  When w1 and w2 are the full ambient spaces this is the usual
matrix of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .fpcore import (
    MatP,
    Subspace,
    _kernel_rows,
    _rref_extend,
    _xor_eliminate,
    encode,
    is_prime,
    rref,
    rref_kernel,
    vspace,
)
from .pairsets import (
    PairSet,
    _fiber_cell,
    _fiber_read,
    _kernel_masks,
    _span_mask,
    mask_to_subspace,
)

__all__ = [
    "BilinearVerdict",
    "ClosureResult",
    "FormSpace",
    "ann",
    "closure",
    "is_bilinear",
    "orth",
]


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


def _coords_in(sub: Subspace, index: int):
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
        ca = _coords_in(w1, xi)
        cb = _coords_in(w2, yi)
        rows.add(tuple(ai * bj % a.p for ai in ca for bj in cb))
    if not rows:
        # empty set: every form vanishes
        mats = [
            tuple(tuple(1 if (i, j) == (r, c) else 0 for j in range(d2)) for i in range(d1))
            for r in range(d1)
            for c in range(d2)
        ]
        return FormSpace.from_matrices(a.p, d1, d2, mats)
    kern = rref_kernel(MatP(a.p, tuple(sorted(rows))))
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


def _fiber_span(p: int, n1: int, n2: int, spans: tuple) -> tuple:
    """Canonical RREF basis of S(A) = span{x (x) y : (x, y) in A}, from the
    span masks of the per-class fiber unions U_c.  For y = lam * rep_c,
    x (x) y = lam * (x (x) rep_c), so S(A) is the sum over the classes of
    span(U_c) (x) rep_c: only the basis rows of each span(U_c), times rep_c,
    are eliminated.  _span_zero uses it at odd p; at p = 2 _span_gf2 gives
    the same basis packed."""
    sp2 = vspace(p, n2)
    rows = [[a * b for a in x for b in sp2.coords[rep]]
            for s, rep in zip(spans, sp2.proj_reps) if s
            for x in mask_to_subspace(p, n1, s).basis]
    return tuple(map(tuple, rref(rows, p)[0]))


@lru_cache(maxsize=4096)
def _form_zero_mask(p: int, n1: int, n2: int, flat: tuple) -> int:
    """Indicator of the ambient zero set {(x, y) : x^T Q y = 0} of one form,
    given flattened row-major.  For fixed y the form is the functional
    u(y) = Q y on x, so each row of pairs is the kernel of u(y), shifted
    into place.  u is built additively over the digits of y: for y of top
    digit j, u(y) = u(y - p**j) + Q e_j, one lookup in the addition table."""
    kernel = _kernel_masks(p, n1)
    add = vspace(p, n1).add
    u = [0]
    for j in range(n2):
        col = encode([flat[i * n2 + j] for i in range(n1)], p)  # Q e_j
        block = u
        for _ in range(1, p):
            block = [add[v][col] for v in block]
            u = u + block
    m1 = p**n1
    out = 0
    for y, v in enumerate(u):
        out |= kernel[v] << (m1 * y)
    return out


@lru_cache(maxsize=None)
def _outer_bits(n1: int, n2: int) -> tuple:
    """x (x) y over F_2 for every pair of indices, packed with entry (i, j)
    at bit i * n2 + j: _outer_bits(n1, n2)[x][y].  At p = 2 an index is its
    own coordinate bitset, so x (x) y is y shifted to row i for each bit i
    of x."""
    return tuple(
        tuple(sum(y << i * n2 for i in range(n1) if x >> i & 1) for y in range(1 << n2))
        for x in range(1 << n1)
    )


@lru_cache(maxsize=65536)
def _basis_indices(p: int, n: int, mask: int) -> tuple:
    """Encoded indices of the RREF basis of the span of a bitset."""
    return tuple(encode(b, p) for b in mask_to_subspace(p, n, mask).basis)


def _span_gf2(n1: int, n2: int, spans: tuple) -> tuple[list, list]:
    """S(A) at p = 2, packed from outer product to check forms: the rows
    x (x) rep_c for the basis rows x of each span(U_c) are XOR-eliminated
    (_xor_eliminate), and _gf2_checks reads the check forms off the reduced
    basis.  Returns the reduced basis rows in pivot order and the check
    forms in column order."""
    outer = _outer_bits(n1, n2)
    basis = _xor_eliminate(
        outer[x][rep]
        for s, rep in zip(spans, vspace(2, n2).proj_reps) if s
        for x in _basis_indices(2, n1, s)
    )
    return [basis[j] for j in sorted(basis)], _gf2_checks(basis, n1 * n2)


def _gf2_checks(basis: dict, width: int) -> list:
    """The check forms of a packed reduced echelon basis {pivot: row} over
    F_2, packed, in column order: each free column f gives e_f plus e_j for
    every pivot j whose row has bit f (over F_2, -b = b)."""
    checks = []
    for f in range(width):
        if f in basis:
            continue
        h = 1 << f
        for j, b in basis.items():
            if b >> f & 1:
                h |= 1 << j
        checks.append(h)
    return checks


@lru_cache(maxsize=4096)
def _unpack(v: int, width: int) -> tuple:
    """A packed F_2 row as its entry tuple."""
    return tuple(v >> k & 1 for k in range(width))


def _zero_set(p: int, n1: int, n2: int, forms) -> int:
    """Indicator of the joint zero set over all pairs of the given forms,
    each flattened row-major."""
    zero = (1 << p ** (n1 + n2)) - 1
    for h in forms:
        zero &= _form_zero_mask(p, n1, n2, h)
    return zero


@lru_cache(maxsize=4096)
def _basis_zero(p: int, n1: int, n2: int, span: tuple) -> tuple[tuple, int]:
    """The check forms of S(A) (_kernel_rows) and their joint zero set Z,
    from the canonical RREF basis of S(A) at odd p.  Keyed on the basis, so
    the fiber-map leaves that share an S(A) share one entry."""
    forms = tuple(_kernel_rows(span, n1 * n2, p))
    return forms, _zero_set(p, n1, n2, forms)


@lru_cache(maxsize=4096)
def _span_zero(p: int, n1: int, n2: int, spans: tuple) -> tuple[tuple, int]:
    """S(A) and its zero set, from the span masks of the per-class fiber
    unions: the canonical RREF basis of S(A), flattened row-major, and the
    indicator of Z = {(x, y) : x (x) y in S(A)}, the joint zero set of the
    check forms of S(A) over all pairs.  At p = 2, S(A) and its check forms
    stay packed (_span_gf2) and only the basis is unpacked; odd p works on
    lists (_fiber_span, _basis_zero)."""
    if p == 2:
        rows, checks = _span_gf2(n1, n2, spans)
        width = n1 * n2
        return (tuple(_unpack(r, width) for r in rows),
                _zero_set(p, n1, n2, [_unpack(h, width) for h in checks]))
    span = _fiber_span(p, n1, n2, spans)
    return span, _basis_zero(p, n1, n2, span)[1]


@lru_cache(maxsize=4096)
def _span_ann(w1: Subspace, w2: Subspace, span: tuple) -> FormSpace:
    """ann(A, W1, W2) from (W1, W2, S(A)): a form vanishes on A exactly when
    it vanishes on S(A).  The RREF coordinates of a member of W are its
    entries at the pivots of W, so S(A) in W-coordinates is its basis
    restricted to (pivots of W1) x (pivots of W2); an empty span leaves one
    zero row, whose kernel is every form."""
    cols = [i * w2.ambient + j for i in w1.pivots for j in w2.pivots]
    rows = tuple(tuple(b[c] for c in cols) for b in span) or ((0,) * len(cols),)
    kern = rref_kernel(MatP(w1.p, rows))
    forms = tuple(FormSpace._reshape(b, w2.dim) for b in kern.basis)
    return FormSpace(w1.p, w1.dim, w2.dim, forms)


@dataclass(frozen=True)
class BilinearVerdict:
    """Outcome of the bilinearity decision: the spans of the projections,
    S(A), the closure and the verdict.

    span is the canonical RREF basis of S(A) = span{x (x) y : (x, y) in A},
    flattened row-major.  ann, the annihilator over w1 x w2 in their RREF
    coordinates, is computed when read.  status is "bilinear",
    "non_bilinear" or "empty".  For a non-bilinear set either
    non_subspace_axis names the projection that is not a subspace
    ("first"/"second"), or witness is the smallest-index pair in the closure
    that is missing from the set (often both are available).
    """

    w1: Subspace
    w2: Subspace
    span: tuple
    closed: PairSet
    status: str
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


# closure() returns the same verdict as is_bilinear(); the name stays public
ClosureResult = BilinearVerdict


def closure(a: PairSet) -> BilinearVerdict:
    """Bilinear closure: (W1 x W2) intersected with {(x, y) : x (x) y in S(A)},
    over the spans W1, W2 of the projections.  This equals orth(ann(A)).

    Extensive (A is always contained in the result, and the result always
    contains (0,0)) and idempotent; A is bilinear iff it equals its closure
    and its projections are subspaces.  The result is is_bilinear's verdict.
    """
    return _status(a.p, a.n1, a.n2, a.indicator)


def _status(p: int, n1: int, n2: int, ind: int) -> BilinearVerdict:
    """The bilinearity decision on an indicator int.  The set is read once,
    through its fibers, S(A) and its zero set Z are looked up by the span
    masks of the class unions, and _decide gives the verdict."""
    pi1, pi2, unions = _fiber_read(p, n1, n2, ind)
    span, zero = _span_zero(p, n1, n2, tuple(_span_mask(p, n1, u) for u in unions))
    w1, w2, closed, status, witness, axis = _decide(p, n1, n2, ind, pi1, pi2, zero)
    return BilinearVerdict(mask_to_subspace(p, n1, w1), mask_to_subspace(p, n2, w2), span,
                           PairSet(p, n1, n2, closed), status, witness, axis)


def _decide(p: int, n1: int, n2: int, ind: int, pi1: int, pi2: int, zero: int) -> tuple:
    """The one decision tail, from the indicator, the projection bitsets and
    Z: (w1, w2, closure, status, witness, axis), with w1, w2 the span
    bitsets of the projections.  The closure is Z cut to W1 x W2: the
    {0} x W2 cell is W2's column, so w1 times it is the box (the shifted
    copies of w1 never overlap).  The witness is the lowest pair index in
    the closure outside the set."""
    w1, w2 = _span_mask(p, n1, pi1), _span_mask(p, n2, pi2)
    closed = zero & w1 * _fiber_cell(p, n1, n2, -1, w2)
    if ind & ~closed:
        raise AssertionError("closure is not extensive; this is a bug")
    status, witness, axis = "empty", None, None
    if ind:
        extra = closed & ~ind
        i = (extra & -extra).bit_length() - 1
        witness = (i % p**n1, i // p**n1) if extra else None
        axis = "first" if pi1 != w1 else "second" if pi2 != w2 else None
        status = "bilinear" if witness is None and axis is None else "non_bilinear"
    return w1, w2, closed, status, witness, axis


class _FiberKernel:
    """Bilinearity verdicts along a stream of fiber maps of F_p^n1 x
    F_p^n2, the sweeps' leaves.  A leaf is (f0, fibers) as
    _fiber_map_mask reads it: f0 the fiber over 0 and fibers[c] the fiber
    over projective class c of F_p^n1, bitsets over y.

    For each prefix of classes the kernel keeps the indicator, both
    projections and S(A) = sum over the placed c of rep_c (x) span(F_c),
    as a reduced echelon basis: packed {pivot: row} at p = 2
    (_xor_eliminate), pivot-ordered lists at odd p (_rref_extend), which is
    the canonical RREF that _span_zero gives.  place() re-extends the
    prefixes from the first class whose fiber changed since the last leaf,
    and verdict() decides the leaf through _decide, as _status does.  Z is
    the AND of the zero sets of the check forms, memoized on the basis at
    odd p (_basis_zero)."""

    def __init__(self, p: int, n1: int, n2: int):
        self.p, self.n1, self.n2 = p, n1, n2
        sp1 = vspace(p, n1)
        self.k = k = len(sp1.proj_reps)
        self._reps = sp1.proj_reps
        self._points = [sum(1 << x for x in members) for members in sp1.class_members]
        self._rows: dict = {}
        self._f0 = None
        self._fibers = [None] * k
        self._ind = [0] * (k + 1)
        self._pi1 = [0] * (k + 1)
        self._pi2 = [0] * (k + 1)
        self._basis: list = [None] * (k + 1)

    def _class_rows(self, c: int, f: int) -> tuple:
        """rep_c (x) b for the basis rows b of span(f): packed at p = 2."""
        key = c, f
        rows = self._rows.get(key)
        if rows is None:
            p, n2 = self.p, self.n2
            if p == 2:
                outer = _outer_bits(self.n1, n2)[self._reps[c]]
                rows = tuple(outer[b] for b in _basis_indices(2, n2, f))
            else:
                x = vspace(p, self.n1).coords[self._reps[c]]
                rows = tuple([a * b for a in x for b in y]
                             for y in mask_to_subspace(p, n2, f).basis)
            self._rows[key] = rows
        return rows

    def place(self, f0: int, fibers) -> int:
        """Make (f0, fibers) the current leaf and return its indicator."""
        p, n1, n2, k = self.p, self.n1, self.n2, self.k
        old = self._fibers
        start = 0
        if f0 != self._f0:
            self._f0 = f0
            self._ind[0] = _fiber_cell(p, n1, n2, -1, f0)
            self._pi1[0] = 1 if f0 else 0
            self._pi2[0] = f0
            self._basis[0] = {} if p == 2 else ([], [])
        else:
            while start < k and old[start] == fibers[start]:
                start += 1
        ind, pi1, pi2, basis = self._ind, self._pi1, self._pi2, self._basis
        for c in range(start, k):
            f = old[c] = fibers[c]
            if f:
                ind[c + 1] = ind[c] | _fiber_cell(p, n1, n2, c, f)
                pi1[c + 1] = pi1[c] | self._points[c]
                pi2[c + 1] = pi2[c] | f
                if p == 2:
                    basis[c + 1] = _xor_eliminate(self._class_rows(c, f), dict(basis[c]))
                else:
                    rows, pivots = list(basis[c][0]), list(basis[c][1])
                    _rref_extend(rows, pivots, self._class_rows(c, f), p)
                    basis[c + 1] = rows, pivots
            else:
                ind[c + 1], pi1[c + 1], pi2[c + 1], basis[c + 1] = (
                    ind[c], pi1[c], pi2[c], basis[c])
        return ind[k]

    def span(self) -> tuple:
        """The canonical RREF basis of S(A) of the current leaf, flattened
        row-major, as _span_zero gives it."""
        basis = self._basis[self.k]
        if self.p == 2:
            return tuple(_unpack(basis[j], self.n1 * self.n2) for j in sorted(basis))
        return tuple(map(tuple, basis[0]))

    def verdict(self) -> tuple:
        """(status, witness, axis, checks, closure) of the current leaf:
        what _status decides, with the check forms of S(A), flattened
        row-major, in column order; dim S(A) is n1 * n2 - len(checks)."""
        p, n1, n2, k = self.p, self.n1, self.n2, self.k
        if p == 2:
            width = n1 * n2
            checks = tuple(_unpack(h, width) for h in _gf2_checks(self._basis[k], width))
            zero = _zero_set(p, n1, n2, checks)
        else:
            checks, zero = _basis_zero(p, n1, n2, self.span())
        _, _, closed, status, witness, axis = _decide(
            p, n1, n2, self._ind[k], self._pi1[k], self._pi2[k], zero)
        return status, witness, axis, checks, closed


def is_bilinear(a: PairSet) -> BilinearVerdict:
    """Decide whether A = {(x, y) in W1 x W2 : all forms in M vanish} for
    some subspaces W1, W2 and form space M.

    Any such presentation forces W1 and W2 to be exactly the projections of
    A, so the decision reduces to: both projections are subspaces and A
    equals its bilinear closure.  The empty set gets its own status.
    """
    return _status(a.p, a.n1, a.n2, a.indicator)
