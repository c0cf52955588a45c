"""Projective lines, line-preserving maps, and recognition of projective
maps from an image table.

The recognition routine implements the frame argument: a projective map is
pinned down (up to scalar) by the images of the standard basis classes and
of the all-ones class, and a candidate matrix built from those images either
reproduces the whole table or the table is not projective.  With it the
explorer's sweeps check the dimension >= 3 equivalence between
"line-preserving" and "projective" over all bijections of desk-scale spaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .fpcore import (
    MatP,
    ProjPoint,
    check_cap,
    encode,
    is_prime,
    proj_enumerate,
    rref,
    vspace,
)

__all__ = [
    "ProjLine",
    "count_collineations",
    "gl_order",
    "is_line_preserving",
    "line_structure",
    "lines_enumerate",
    "pgl_order",
    "recognize_projective",
]


@dataclass(frozen=True)
class ProjLine:
    """A projective line: the p + 1 points of a 2-dimensional subspace,
    stored in ascending index order."""

    p: int
    n: int
    points: tuple[ProjPoint, ...]

    def __post_init__(self) -> None:
        if len(self.points) != self.p + 1:
            raise ValueError(f"a line over F_{self.p} has {self.p + 1} points")
        idx = [pt.index for pt in self.points]
        if idx != sorted(idx):
            raise ValueError("line points must be in ascending index order")


@lru_cache(maxsize=None)
def line_structure(p: int, n: int):
    """Lines of P(F_p^n) as sorted tuples of class ids, plus, for every pair
    of class ids, the bitmask (over class ids) of the span of the two points.

    The pair-span masks drive the line-condition test: for u != v the mask
    covers the whole line through them, for u == v just the point.
    """
    sp = vspace(p, n)
    reps = sp.proj_reps
    k = len(reps)
    lines = set()
    span_mask = [[0] * k for _ in range(k)]
    for a in range(k):
        span_mask[a][a] = 1 << a
    for a in range(k):
        ra = reps[a]
        for b in range(a + 1, k):
            rb = reps[b]
            ids = {a, b}
            for lam in range(1, p):
                z = sp.add[ra][sp.scale[lam][rb]]
                ids.add(sp.class_of[z])
            mask = 0
            for c in ids:
                mask |= 1 << c
            span_mask[a][b] = span_mask[b][a] = mask
            lines.add(tuple(sorted(ids)))
    return tuple(sorted(lines)), tuple(tuple(r) for r in span_mask)


def lines_enumerate(p: int, n: int, override_cap: bool = False) -> list[ProjLine]:
    """All projective lines, each with its points in ascending index order."""
    check_cap(p**n, override_cap, "line enumeration")
    pts = proj_enumerate(p, n)
    lines, _ = line_structure(p, n)
    return [ProjLine(p, n, tuple(pts[c] for c in ids)) for ids in lines]


def _image_class_table(m) -> tuple[int, ...]:
    cod = vspace(m.p, m.n_cod)
    return tuple(cod.class_of[pt.index] for pt in m.images)


def _line_tables(p: int, n_dom: int, n_cod: int):
    """Lines of the domain in order of their largest class id, and the
    pair-span masks of the codomain."""
    lines, _ = line_structure(p, n_dom)
    _, cod_span = line_structure(p, n_cod)
    return sorted(lines, key=lambda ids: ids[-1]), cod_span


def _first_failing_line(lines, cod_span, img_classes) -> int:
    """Largest class id of the first line whose image breaks the line
    condition, or -1 when every line passes.

    With `lines` ordered by largest id, a failure at id j depends only on
    the images of classes 0..j, so every table that agrees there fails too.
    """
    for ids in lines:
        k = len(ids)
        for i in range(k):
            ci = img_classes[ids[i]]
            for j in range(i + 1, k):
                mask = cod_span[ci][img_classes[ids[j]]]
                for t in range(k):
                    if t != i and t != j and not mask >> img_classes[ids[t]] & 1:
                        return ids[-1]
    return -1


def _line_condition(p, n_dom, n_cod, img_classes) -> bool:
    return _first_failing_line(*_line_tables(p, n_dom, n_cod), img_classes) < 0


def is_line_preserving(m) -> bool:
    """Whether images of collinear triples are collinear: for every x != y
    and z on the projective line through them, m(z) lies in the span of
    m(x) and m(y).  Vacuously true when the domain has dimension 2."""
    return _line_condition(m.p, m.n_dom, m.n_cod, _image_class_table(m))


def recognize_projective(m) -> MatP | None:
    """The matrix (up to scalar, normalized so its first nonzero entry is 1)
    of a linear map inducing the ProjBijection m, or None when m is not
    projective.

    Solves the frame equations: images of the basis classes fix the columns
    up to scalars, the image of the all-ones class fixes the scalars, and
    the resulting candidate is checked against the whole table.
    """
    p, nd, nc = m.p, m.n_dom, m.n_cod
    sp = vspace(p, nd)
    basis_cols = []
    for i in range(nd):
        e = tuple(1 if j == i else 0 for j in range(nd))
        cid = sp.class_of[sum(c * p**j for j, c in enumerate(e))]
        basis_cols.append(m.images[cid].rep)
    ones_cid = sp.class_of[sum(p**j for j in range(nd))]
    w = m.images[ones_cid].rep
    aug = [tuple(basis_cols[i][r] for i in range(nd)) + (w[r],) for r in range(nc)]
    reduced, pivots = rref(aug, p)
    if nd in pivots or len([j for j in pivots if j < nd]) != nd:
        return None  # inconsistent system or dependent basis images
    lam = [0] * nd
    for row, j in zip(reduced, pivots):
        lam[j] = row[nd]
    if any(v == 0 for v in lam):
        return None
    cols = [tuple(lam[i] * c % p for c in basis_cols[i]) for i in range(nd)]
    mat = tuple(tuple(cols[i][r] for i in range(nd)) for r in range(nc))
    # compare classes through the index tables; the zero vector has class -1
    cod = vspace(p, nc)
    images = _image_class_table(m)
    for cid, rep_idx in enumerate(sp.proj_reps):
        x = sp.coords[rep_idx]
        fx = encode([sum(a * b for a, b in zip(row, x)) % p for row in mat], p)
        if cod.class_of[fx] != images[cid]:
            return None
    flat = [c for row in mat for c in row]
    lead = next(c for c in flat if c)
    inv = pow(lead, p - 2, p)
    return MatP(p, tuple(tuple(c * inv % p for c in row) for row in mat))


def gl_order(p: int, n: int) -> int:
    return math.prod(p**n - p**k for k in range(n))


def pgl_order(p: int, n: int) -> int:
    return gl_order(p, n) // (p - 1)


def count_collineations(p: int, n: int) -> tuple[int, int]:
    """(k!, |PGL(n, p)|): the number of bijections of P(F_p^n), k its point
    count, and the number of projective ones.  The sweeps count the latter
    map by map: search_sigma's "projective" count, and fundamental_sweep for
    n >= 3, where it is also the line-preserving count."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return math.factorial((p**n - 1) // (p - 1)), pgl_order(p, n)
