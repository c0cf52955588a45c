"""Exact linear algebra over prime fields F_p.

Vectors, matrices and subspaces are immutable value objects with entries kept
reduced mod p.  Every vector doubles as an integer through a little-endian
base-p encoding (coordinate i contributes v_i * p**i), and the rest of the
library uses those integers to index dense bit sets, so the encoding here is
load-bearing: changing it silently changes every serialized artifact.

Subspaces are always stored through their reduced row echelon basis, which
makes structural equality meaningful and serialization canonical.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

__all__ = [
    "CapExceeded",
    "DEFAULT_ENUMERATION_CAP",
    "MatP",
    "ProjPoint",
    "Subspace",
    "VecP",
    "all_subspaces",
    "capped_factorial",
    "check_cap",
    "complement",
    "decode",
    "encode",
    "is_prime",
    "proj_enumerate",
    "rref",
    "rref_kernel",
    "span",
    "vspace",
]

DEFAULT_ENUMERATION_CAP = 1 << 26


class CapExceeded(RuntimeError):
    """Raised when an operation would materialize more objects than the cap."""


def check_cap(count: int, override: bool = False, what: str = "enumeration",
              exp: int = 1) -> None:
    """CapExceeded when count**exp passes the cap.  The power is built only
    when its bit length is small, so a huge one is refused at once."""
    if not override:
        low = (count.bit_length() - 1) * exp  # count**exp >= 2**low
        if low >= DEFAULT_ENUMERATION_CAP.bit_length() or count**exp > DEFAULT_ENUMERATION_CAP:
            _refuse(what, _shown(count, exp))


def capped_factorial(k: int, override: bool = False, what: str = "enumeration") -> int:
    """k!, or CapExceeded when it passes the cap.  The refusal multiplies
    only until the product passes the cap, so a huge k! is never built."""
    if not override:
        partial = 1
        for i in range(2, k + 1):
            partial *= i
            if partial > DEFAULT_ENUMERATION_CAP:
                shown = _shown(k)
                _refuse(what, f"{shown}!" if shown.isdigit() else f"({shown})!")
    return math.factorial(k)


def _shown(base: int, exp: int = 1) -> str:
    """base**exp as text, or "at least 2**low" past 64 bits: Python refuses
    to convert an int of more than 4,300 digits to a string, and a huge
    power is never built."""
    low = (base.bit_length() - 1) * exp  # base**exp >= 2**low
    return str(base**exp) if low <= 64 else f"at least 2**{low}"


def _refuse(what: str, shown: str) -> None:
    raise CapExceeded(
        f"{what} would materialize {shown} objects "
        f"(cap {DEFAULT_ENUMERATION_CAP}); pass override_cap=True to force"
    )


def is_prime(p: int) -> bool:
    """Trial-division primality check; adequate for the field sizes used here."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def encode(coords, p: int) -> int:
    """Little-endian base-p index of a coordinate tuple."""
    idx = 0
    for c in reversed(coords):
        idx = idx * p + c
    return idx


def decode(index: int, p: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`encode` for vectors of length n."""
    if not 0 <= index < p**n:
        raise ValueError(f"index {index} out of range for F_{p}^{n}")
    out = []
    for _ in range(n):
        index, r = divmod(index, p)
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class VecP:
    """A vector in F_p^n with entries reduced mod p."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_prime(self.p)
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    @classmethod
    def from_index(cls, index: int, p: int, n: int) -> "VecP":
        return cls(p, decode(index, p, n))

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def index(self) -> int:
        return encode(self.coords, self.p)

    def __add__(self, other: "VecP") -> "VecP":
        self._check(other)
        return VecP(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "VecP") -> "VecP":
        self._check(other)
        return VecP(self.p, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "VecP":
        return VecP(self.p, tuple(-a for a in self.coords))

    def scale(self, lam: int) -> "VecP":
        return VecP(self.p, tuple(lam * a for a in self.coords))

    def dot(self, other: "VecP") -> int:
        self._check(other)
        return sum(a * b for a, b in zip(self.coords, other.coords)) % self.p

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _check(self, other: "VecP") -> None:
        if self.p != other.p or len(self.coords) != len(other.coords):
            raise ValueError("dimension or field mismatch")


@dataclass(frozen=True)
class MatP:
    """A matrix over F_p, stored as a tuple of row tuples.

    Acts on column vectors: ``m.apply(v)`` computes m @ v, so a linear map
    f: F_p^a -> F_p^b is a b-by-a matrix.
    """

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_prime(self.p)
        rows = tuple(tuple(c % self.p for c in row) for row in self.entries)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def apply(self, v: VecP) -> VecP:
        if v.p != self.p or v.n != self.ncols:
            raise ValueError("dimension or field mismatch")
        return VecP(self.p, tuple(sum(r * c for r, c in zip(row, v.coords)) for row in self.entries))


def rref(rows, p: int):
    """Reduced row echelon form over F_p.

    Takes an iterable of coordinate sequences, returns ``(basis, pivots)``
    where basis is a list of nonzero reduced rows (pivot entries 1, zeros
    above and below each pivot) and pivots the matching pivot column list.

    One list loop serves every p (_rref_extend, from an empty basis).
    """
    basis: list[list[int]] = []
    pivots: list[int] = []
    _rref_extend(basis, pivots, rows, p)
    return basis, pivots


def _rref_extend(basis: list, pivots: list, rows, p: int) -> None:
    """Reduce rows into a reduced echelon basis, in place, keeping it in
    ascending pivot order: each row is reduced against the basis, scaled so
    its pivot is 1, cleared from the earlier rows and inserted at its
    pivot's place.  Basis rows are replaced, never changed, so shallow
    copies of the two lists save a state to extend again later."""
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
        at = bisect(pivots, j)
        basis.insert(at, row)
        pivots.insert(at, j)


def _xor_eliminate(rows, basis: dict | None = None) -> dict[int, int]:
    """Reduced echelon basis over F_2 of packed rows, as {pivot: row}: each
    row is reduced against the basis, then its pivot bit (its lowest set
    bit) is cleared from the earlier rows.  A given basis is extended in
    place and returned."""
    if basis is None:
        basis = {}
    for v in rows:
        for j, b in basis.items():
            if v >> j & 1:
                v ^= b
        if not v:
            continue
        j = (v & -v).bit_length() - 1
        for i, b in basis.items():
            if b >> j & 1:
                basis[i] = b ^ v
        basis[j] = v
    return basis


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of F_p^n, canonically represented by its RREF basis.

    Structural equality of two Subspace values is equality of subspaces.
    """

    p: int
    ambient: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _require_prime(self.p)
        reduced, pivots = rref(self.basis, self.p)
        if [list(b) for b in self.basis] != reduced:
            raise ValueError("basis is not in reduced row echelon form")
        if any(len(b) != self.ambient for b in self.basis):
            raise ValueError("basis vector length differs from ambient dimension")
        object.__setattr__(self, "_pivots", tuple(pivots))

    @classmethod
    def from_rows(cls, rows, p: int, ambient: int) -> "Subspace":
        reduced, _ = rref(rows, p)
        return cls(p, ambient, tuple(tuple(r) for r in reduced))

    @classmethod
    def zero(cls, p: int, ambient: int) -> "Subspace":
        return cls(p, ambient, ())

    @classmethod
    def full(cls, p: int, ambient: int) -> "Subspace":
        eye = tuple(tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient))
        return cls(p, ambient, eye)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    @property
    def pivots(self) -> tuple[int, ...]:
        return self._pivots  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return self.p**self.dim

    def member(self, v: VecP) -> bool:
        return self.coords_of(v) is not None

    def _eliminate(self, v: VecP) -> tuple[tuple[int, ...], list[int]]:
        """(coefficients, residual row) of v against the RREF basis: the
        coefficient along basis row r is the value of the reduced vector at
        that row's pivot column."""
        if v.p != self.p or v.n != self.ambient:
            raise ValueError("dimension or field mismatch")
        row = list(v.coords)
        coords = []
        for b, j in zip(self.basis, self.pivots):
            lam = row[j]
            coords.append(lam)
            if lam:
                row = [(c - lam * bc) % self.p for c, bc in zip(row, b)]
        return tuple(coords), row

    def coords_of(self, v: VecP):
        """Coordinates of v in the RREF basis, or None if v is outside."""
        coords, row = self._eliminate(v)
        return None if any(row) else coords

    def residual(self, v: VecP) -> VecP:
        """v with the pivot coordinates eliminated against the basis.

        Zero exactly when v is a member; in general this is the canonical
        coset representative of v modulo the subspace, supported on the
        non-pivot columns.
        """
        return VecP(self.p, tuple(self._eliminate(v)[1]))

    def element_indices(self) -> list[int]:
        """Encoded indices of all members, in coordinate-enumeration order."""
        out = []
        for lams in product(range(self.p), repeat=self.dim):
            acc = [0] * self.ambient
            for lam, b in zip(lams, self.basis):
                if lam:
                    acc = [(a + lam * c) % self.p for a, c in zip(acc, b)]
            out.append(encode(acc, self.p))
        return out


def span(vectors, p: int | None = None, ambient: int | None = None) -> Subspace:
    """Subspace spanned by an iterable of VecP (or coordinate tuples)."""
    vs = list(vectors)
    rows = []
    for v in vs:
        if isinstance(v, VecP):
            p = v.p if p is None else p
            ambient = v.n if ambient is None else ambient
            rows.append(v.coords)
        else:
            rows.append(tuple(v))
    if p is None or ambient is None:
        raise ValueError("empty span needs explicit p and ambient")
    return Subspace.from_rows(rows, p, ambient)


def complement(phi: VecP) -> Subspace:
    """The hyperplane {y : y . phi = 0}, or the full space when phi = 0."""
    return rref_kernel(MatP(phi.p, (phi.coords,)))


def _kernel_rows(basis, ncols: int, p: int) -> list[tuple[int, ...]]:
    """A basis of the kernel of the rows of an RREF basis: one row per free
    column f, with 1 at f and minus row r's entry at f in row r's pivot
    column."""
    pivots = [next(k for k, c in enumerate(b) if c) for b in basis]
    rows = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for b, j in zip(basis, pivots):
            vec[j] = -b[f] % p
        rows.append(tuple(vec))
    return rows


def rref_kernel(m: MatP) -> Subspace:
    """The kernel of a matrix, with a canonical RREF basis."""
    reduced, _ = rref(m.entries, m.p)
    return Subspace.from_rows(_kernel_rows(reduced, m.ncols, m.p), m.p, m.ncols)


def all_subspaces(p: int, n: int, dim: int | None = None, override_cap: bool = False):
    """All subspaces of F_p^n, or just those of one dimension.

    Enumerates RREF bases directly: pivot-column combinations in lex order,
    free entries filled in row-major base-p order, so the output order is
    deterministic and duplicate-free.
    """
    from itertools import combinations

    _require_prime(p)
    dims = range(n + 1) if dim is None else [dim]
    out = []
    for d in dims:
        if not 0 <= d <= n:
            raise ValueError(f"dimension {d} out of range for ambient {n}")
        if d == 0:
            out.append(Subspace.zero(p, n))
            continue
        for pivots in combinations(range(n), d):
            free = [
                (i, j)
                for i in range(d)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            check_cap(len(out) + p ** len(free), override_cap, "subspace enumeration")
            for fill in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(d)]
                for i in range(d):
                    rows[i][pivots[i]] = 1
                for (i, j), c in zip(free, fill):
                    rows[i][j] = c
                out.append(Subspace(p, n, tuple(tuple(r) for r in rows)))
    return out


@dataclass(frozen=True)
class ProjPoint:
    """A point of P(F_p^n): a nonzero vector normalized so its first nonzero
    coordinate equals 1."""

    p: int
    rep: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_prime(self.p)
        rep = tuple(c % self.p for c in self.rep)
        k = next((i for i, c in enumerate(rep) if c), None)
        if k is None:
            raise ValueError("projective point needs a nonzero vector")
        if rep[k] != 1:
            raise ValueError("representative is not normalized")
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_index", encode(rep, self.p))

    @classmethod
    def from_vector(cls, v: VecP) -> "ProjPoint":
        k = next((i for i, c in enumerate(v.coords) if c), None)
        if k is None:
            raise ValueError("zero vector has no projective class")
        inv = pow(v.coords[k], v.p - 2, v.p)
        return cls(v.p, tuple(c * inv % v.p for c in v.coords))

    @property
    def n(self) -> int:
        return len(self.rep)

    @property
    def index(self) -> int:
        return self._index  # type: ignore[attr-defined]

    def vector(self) -> VecP:
        return VecP(self.p, self.rep)


def proj_enumerate(p: int, n: int) -> list[ProjPoint]:
    """All points of P(F_p^n) in ascending order of their encoded index.
    A space past the table limit is a ValueError, raised before any point
    is listed."""
    _check_table(p, n)
    _require_prime(p)
    pts = []
    for idx in range(1, p**n):
        rep = decode(idx, p, n)
        k = next(i for i, c in enumerate(rep) if c)
        if rep[k] == 1:
            pts.append(ProjPoint(p, rep))
    return pts


# ---------------------------------------------------------------------------
# Cached per-space arithmetic tables.  These keep the hot paths (pair-set
# sums, fiber checks, sweeps) free of repeated digit fiddling.

_TABLE_LIMIT = 4096


def _check_table(p: int, n: int = 1) -> None:
    """ValueError when F_p^n has more than _TABLE_LIMIT vectors.  p**n is built
    only when its bit length is small, so a huge p or n is refused at once,
    before any primality check; p < 2 and n < 1 are left to the caller."""
    low = (p.bit_length() - 1) * n  # p**n >= 2**low
    if p >= 2 and n >= 1 and (low > 12 or p**n > _TABLE_LIMIT):
        raise ValueError(
            f"F_{p}^{n} has {_shown(p, n)} vectors, past the table limit of {_TABLE_LIMIT}")


class _VSpace:
    """Precomputed index arithmetic for F_p^n (internal)."""

    def __init__(self, p: int, n: int):
        _check_table(p, n)
        _require_prime(p)
        self.p = p
        self.n = n
        self.size = p**n
        self.coords = tuple(decode(i, p, n) for i in range(self.size))
        # built digit by digit: entry (d p^j + a, e p^j + b) of the table
        # over F_p^(j+1) is add[a][b] + ((d + e) % p) p^j
        add = [[0]]
        for j in range(n):
            w = p**j
            add = [[v + (d + e) % p * w for e in range(p) for v in row]
                   for d in range(p) for row in add]
        self.add = add
        self.scale = [
            [encode([lam * c % p for c in v], p) for v in self.coords] for lam in range(p)
        ]
        self.neg = self.scale[p - 1]
        # projective classes: reps ascending; class_of[i] = position into reps
        reps = []
        class_of = [-1] * self.size
        members: list[tuple[int, ...]] = []
        for i in range(1, self.size):
            if class_of[i] >= 0:
                continue
            rep = decode(i, p, n)
            k = next(j for j, c in enumerate(rep) if c)
            if rep[k] != 1:
                continue
            cid = len(reps)
            reps.append(i)
            mem = [self.scale[lam][i] for lam in range(1, p)]
            for m in mem:
                class_of[m] = cid
            members.append(tuple(mem))
        self.proj_reps = tuple(reps)
        self.class_of = tuple(class_of)
        self.class_members = tuple(members)


@lru_cache(maxsize=None)
def vspace(p: int, n: int) -> _VSpace:
    return _VSpace(p, n)
