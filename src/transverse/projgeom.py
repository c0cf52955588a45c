"""Projective lines, line-preserving maps, and recognition of projective
maps from an image table.

The recognition routine implements the frame argument: a projective map is
pinned down (up to scalar) by the images of the standard basis classes and
of the all-ones class, and a candidate matrix built from those images either
reproduces the whole table or the table is not projective.  With it the
explorer's fundamental sweep checks that every line-preserving permutation
of a desk-scale space, as its fiber-map DFS finds them, is projective.

Because the candidate depends only on the frame, it is solved once per
frame image and cached, keyed by the frame's image class ids, together with
the class table it induces; recognizing a map is then one tuple comparison.
At (2,3) the 5,040 permutations share 840 frame images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .fpcore import (
    MatP,
    ProjPoint,
    _check_table,
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


def lines_enumerate(p: int, n: int) -> list[ProjLine]:
    """All projective lines, each with its points in ascending index order.
    A space past the table limit is a ValueError, raised before any point
    is listed."""
    _check_table(p, n)
    pts = proj_enumerate(p, n)
    lines, _ = line_structure(p, n)
    return [ProjLine(p, n, tuple(pts[c] for c in ids)) for ids in lines]


def _image_class_table(m) -> tuple[int, ...]:
    cod = vspace(m.p, m.n_cod)
    return tuple(cod.class_of[pt.index] for pt in m.images)


def _line_condition(p, n_dom, n_cod, img_classes) -> bool:
    """Whether the image class table keeps every line of P(F_p^n_dom)
    collinear: for any two points of a line, the images of all its points
    lie in the span of their two images."""
    lines, _ = line_structure(p, n_dom)
    _, cod_span = line_structure(p, n_cod)
    for ids in lines:
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                mask = cod_span[img_classes[a]][img_classes[b]]
                if not all(mask >> img_classes[t] & 1 for t in ids):
                    return False
    return True


def is_line_preserving(m) -> bool:
    """Whether images of collinear triples are collinear: for every x != y
    and z on the projective line through them, m(z) lies in the span of
    m(x) and m(y).  Vacuously true when the domain has dimension 2."""
    return _line_condition(m.p, m.n_dom, m.n_cod, _image_class_table(m))


def recognize_projective(m) -> MatP | None:
    """The matrix (up to scalar, normalized so its first nonzero entry is 1)
    of a linear map inducing the ProjBijection m, or None when m is not
    projective."""
    return _recognize_table(m.p, m.n_dom, m.n_cod, _image_class_table(m))


def _recognize_table(p: int, nd: int, nc: int, images: tuple[int, ...]) -> MatP | None:
    """recognize_projective on an image class table: images[c] is the
    codomain class of the image of domain class c.

    The candidate matrix depends only on the frame: the image classes of
    the basis classes and of the all-ones class.  `_frame_candidate` builds
    it once per frame, with the class table it induces, so a call compares
    the table with the cached one as a single tuple.
    """
    found = _frame_candidate(p, nd, nc, tuple(images[c] for c in _frame_classes(p, nd)))
    if found is None or found[0] != images:
        return None
    return found[1]


@lru_cache(maxsize=None)
def _frame_classes(p: int, nd: int) -> tuple[int, ...]:
    """Class ids of the basis vectors e_i (index p**i) and of the all-ones
    vector (index (p**nd - 1) / (p - 1))."""
    class_of = vspace(p, nd).class_of
    return tuple(class_of[p**i] for i in range(nd)) + (class_of[(p**nd - 1) // (p - 1)],)


@lru_cache(maxsize=4096)
def _frame_candidate(p: int, nd: int, nc: int, frame: tuple[int, ...]):
    """(class table, normalized matrix) of the linear map fixed by a frame
    image, or None when the frame equations have no solution with
    independent columns and nonzero scalars.

    Images of the basis classes fix the columns up to scalars and the image
    of the all-ones class fixes the scalars; the class table lists, for
    every domain class, the codomain class of its image.
    """
    sp = vspace(p, nd)
    cod = vspace(p, nc)
    basis_cols = [cod.coords[cod.proj_reps[c]] for c in frame[:nd]]
    w = cod.coords[cod.proj_reps[frame[nd]]]
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
    table = tuple(
        cod.class_of[encode([sum(a * b for a, b in zip(row, sp.coords[rep])) % p
                             for row in mat], p)]
        for rep in sp.proj_reps
    )
    flat = [c for row in mat for c in row]
    lead = next(c for c in flat if c)
    inv = pow(lead, p - 2, p)
    return table, MatP(p, tuple(tuple(c * inv % p for c in row) for row in mat))


def gl_order(p: int, n: int) -> int:
    return math.prod(p**n - p**k for k in range(n))


def pgl_order(p: int, n: int) -> int:
    return gl_order(p, n) // (p - 1)


def count_collineations(p: int, n: int) -> tuple[int, int]:
    """(k!, |PGL(n, p)|): the number of bijections of P(F_p^n), k its point
    count, and the number of projective ones.  The sweeps count the latter
    map by map: search_sigma's "projective" count, and for n >= 3
    fundamental_sweep's "line_preserving" count, which must equal it."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if n < 1:
        raise ValueError(f"dimension must be at least 1, got {n}")
    return math.factorial((p**n - 1) // (p - 1)), pgl_order(p, n)
