"""Dense subsets of F_p^{n1} x F_p^{n2} and their one-sided sumset calculus.

A pair (x, y) occupies bit ``x_index + p**n1 * y_index`` of an arbitrary
precision integer, so set algebra is plain bitwise arithmetic and the
vertical / horizontal sumsets reduce to per-fiber index-table lookups.

Vertical operations fix the first coordinate and combine the second ones;
horizontal operations do the opposite.  A set A is transverse when
A +V A = A and A +H A = A.  Equivalently (and this is what the fiberwise
test checks) every vertical fiber is empty or a subspace contained in the
fiber over 0, fibers are constant on projective classes, and the fiber over
any point of the projective line through [x] and [y] contains the
intersection of the fibers over [x] and [y].

Every vertical read goes through ``_vertical_fibers``, which slices the
fibers, as compact bitsets over y, out of one binary string of the
indicator.  The fiberwise test reads them once (``_fiber_map_read``):
containment, class constancy and the line condition are then ANDs and XORs
of p**n2-bit words, and after those checks the per-class fibers are the
fiber map itself.  A fiber is a subspace when it equals its cached span; a
failing fiber is searched sum by sum for its witness.  The reads take the
shape and the indicator int, not a PairSet, so the sweeps call them on a
candidate mask without building a set object.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .fpcore import (
    Subspace,
    _check_table,
    _require_prime,
    decode,
    is_prime,
    span,
    vspace,
)

__all__ = [
    "NotTransverseError",
    "PairSet",
    "SingleSet",
    "dir_sum",
    "fiber",
    "from_fiber_map",
    "is_transverse",
    "mask_to_subspace",
    "phi",
    "projections",
    "subspace_mask",
    "sumset_word",
    "to_fiber_map",
    "transversality_violation",
]

VERTICAL = "V"
HORIZONTAL = "H"


class NotTransverseError(ValueError):
    """Raised when an operation needs a transverse set but was given
    something else.  Carries the first violated fiber condition and a
    witness pair of encoded indices."""

    def __init__(self, condition: str, witness):
        super().__init__(f"set is not transverse: {condition} (witness {witness})")
        self.condition = condition
        self.witness = witness


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class SingleSet:
    """A subset of F_p^n as a dense bitset over encoded indices."""

    p: int
    n: int
    indicator: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.indicator < 0 or self.indicator.bit_length() > self.p**self.n:
            raise ValueError("indicator out of range")

    @classmethod
    def from_indices(cls, p: int, n: int, indices) -> "SingleSet":
        mask = 0
        for i in indices:
            if not 0 <= i < p**n:
                raise ValueError(f"index {i} out of range")
            mask |= 1 << i
        return cls(p, n, mask)

    @classmethod
    def empty(cls, p: int, n: int) -> "SingleSet":
        return cls(p, n, 0)

    @classmethod
    def full(cls, p: int, n: int) -> "SingleSet":
        return cls(p, n, (1 << p**n) - 1)

    @property
    def size(self) -> int:
        return self.indicator.bit_count()

    def indices(self) -> list[int]:
        return list(_iter_bits(self.indicator))

    def members(self) -> list[tuple[int, ...]]:
        return [decode(i, self.p, self.n) for i in self.indices()]

    def contains(self, index: int) -> bool:
        _check_index("index", index, self.p**self.n)
        return bool(self.indicator >> index & 1)


def _check_dims(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValueError("dimensions must be at least 1")


def _check_index(name: str, value: int, bound: int) -> None:
    if not 0 <= value < bound:
        raise ValueError(f"{name} {value} out of range [0, {bound})")


@lru_cache(maxsize=4096)
def _mask_sum(p: int, n: int, fa: int, fb: int, sign: int) -> int:
    """{i + j : i in fa, j in fb} (i - j when sign < 0) as a bitset over
    F_p^n."""
    space = vspace(p, n)
    add = space.add
    js = list(_iter_bits(fb))
    if sign < 0:
        js = [space.neg[j] for j in js]
    out = 0
    for v in {add[i][j] for i in _iter_bits(fa) for j in js}:
        out |= 1 << v
    return out


def _mask_neg(space, f: int) -> int:
    out = 0
    for i in _iter_bits(f):
        out |= 1 << space.neg[i]
    return out


def sumset_word(a: SingleSet, word: str) -> SingleSet:
    """Iterated sumset such as ``"+A+A-A-A"`` (i.e. 2A - 2A), folded left to
    right.  The word must be one or more signed occurrences of the letter A.
    """
    if not re.fullmatch(r"([+-]A)+", word):
        raise ValueError(f"malformed sumset word {word!r}")
    space = vspace(a.p, a.n)
    signs = [1 if s == "+" else -1 for s in word[::2]]
    acc = a.indicator if signs[0] > 0 else _mask_neg(space, a.indicator)
    for s in signs[1:]:
        acc = _mask_sum(a.p, a.n, acc, a.indicator, s)
    return SingleSet(a.p, a.n, acc)


@lru_cache(maxsize=65536)
def subspace_mask(sub: Subspace) -> int:
    mask = 0
    for i in sub.element_indices():
        mask |= 1 << i
    return mask


@lru_cache(maxsize=65536)
def mask_to_subspace(p: int, n: int, mask: int) -> Subspace:
    """Span of the vectors in a bitset, as a canonical Subspace."""
    return span([decode(i, p, n) for i in _iter_bits(mask)], p, n)


@lru_cache(maxsize=65536)
def _span_mask(p: int, n: int, mask: int) -> int:
    """Bitset of the span of the vectors in a bitset."""
    return subspace_mask(mask_to_subspace(p, n, mask))


@dataclass(frozen=True)
class PairSet:
    """A subset of F_p^{n1} x F_p^{n2} as a dense bitset over pair indices."""

    p: int
    n1: int
    n2: int
    indicator: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        _check_dims(self.n1, self.n2)
        if self.indicator < 0 or self.indicator.bit_length() > self.p ** (self.n1 + self.n2):
            raise ValueError("indicator out of range")

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_pairs(cls, p: int, n1: int, n2: int, pairs) -> "PairSet":
        """The set of the given (x, y) index pairs.  The bits are set in a
        bytearray and read as one int, so the cost is linear in the pairs."""
        _check_table(p, max(n1, n2))
        _require_prime(p)
        _check_dims(n1, n2)
        m1, m2 = p**n1, p**n2
        bits = bytearray((m1 * m2 + 7) // 8)
        for xi, yi in pairs:
            if not (0 <= xi < m1 and 0 <= yi < m2):
                raise ValueError(f"pair index ({xi}, {yi}) out of range")
            i = xi + m1 * yi
            bits[i >> 3] |= 1 << (i & 7)
        return cls(p, n1, n2, int.from_bytes(bits, "little"))

    @classmethod
    def empty(cls, p: int, n1: int, n2: int) -> "PairSet":
        return cls(p, n1, n2, 0)

    @classmethod
    def full(cls, p: int, n1: int, n2: int) -> "PairSet":
        return cls(p, n1, n2, (1 << p ** (n1 + n2)) - 1)

    # -- basic queries ------------------------------------------------------
    @property
    def size(self) -> int:
        return self.indicator.bit_count()

    def pair_indices(self) -> list[tuple[int, int]]:
        """Member pairs as (x_index, y_index), ascending in pair index."""
        m1 = self.p**self.n1
        return [(i % m1, i // m1) for i in _iter_bits(self.indicator)]

    def members(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        return [
            (decode(xi, self.p, self.n1), decode(yi, self.p, self.n2))
            for xi, yi in self.pair_indices()
        ]

    def contains(self, x_index: int, y_index: int) -> bool:
        m1 = self.p**self.n1
        _check_index("x index", x_index, m1)
        _check_index("y index", y_index, self.p**self.n2)
        return bool(self.indicator >> (x_index + m1 * y_index) & 1)

    def _replace(self, indicator: int) -> "PairSet":
        return PairSet(self.p, self.n1, self.n2, indicator)

    # -- set algebra --------------------------------------------------------
    def __or__(self, other: "PairSet") -> "PairSet":
        self._compat(other)
        return self._replace(self.indicator | other.indicator)

    def __and__(self, other: "PairSet") -> "PairSet":
        self._compat(other)
        return self._replace(self.indicator & other.indicator)

    def __sub__(self, other: "PairSet") -> "PairSet":
        self._compat(other)
        return self._replace(self.indicator & ~other.indicator)

    def _compat(self, other: "PairSet") -> None:
        if (self.p, self.n1, self.n2) != (other.p, other.n1, other.n2):
            raise ValueError("pair sets live in different spaces")

    # -- fibers -------------------------------------------------------------
    def vertical_fibers(self) -> list[int]:
        """Bitset over y-indices for each x index (fiber of the map x -> A_x)."""
        return _vertical_fibers(self.p, self.n1, self.n2, self.indicator)

    def horizontal_fibers(self) -> list[int]:
        m1, m2 = self.p**self.n1, self.p**self.n2
        low = (1 << m1) - 1
        return [(self.indicator >> (y * m1)) & low for y in range(m2)]


def dir_sum(a: PairSet, b: PairSet, direction: str, sign=1) -> PairSet:
    """One-sided sumset.

    Vertical: {(x, y1 +/- y2) : (x, y1) in A, (x, y2) in B}.
    Horizontal: {(x1 +/- x2, y) : (x1, y) in A, (x2, y) in B}.
    """
    a._compat(b)
    sgn = {1: 1, -1: -1, "+": 1, "-": -1}.get(sign)
    if sgn is None:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    m1 = a.p**a.n1
    if direction == VERTICAL:
        fa, fb = a.vertical_fibers(), b.vertical_fibers()
        mask = 0
        for x, (y1, y2) in enumerate(zip(fa, fb)):
            if y1 and y2:
                mask |= _bits_column(_mask_sum(a.p, a.n2, y1, y2, sgn), m1) << x
        return a._replace(mask)
    if direction == HORIZONTAL:
        fa, fb = a.horizontal_fibers(), b.horizontal_fibers()
        mask = 0
        for y, (x1, x2) in enumerate(zip(fa, fb)):
            if x1 and x2:
                mask |= _mask_sum(a.p, a.n1, x1, x2, sgn) << (y * m1)
        return a._replace(mask)
    raise ValueError(f"direction must be 'V' or 'H', got {direction!r}")


def phi(a: PairSet, word: str) -> PairSet:
    """Composition of Bogolyubov operators, applied right to left.

    phi_V(A) = (A +V A) -V (A +V A), phi_H likewise; ``phi(A, "HV")`` is
    phi_H(phi_V(A)).
    """
    if not word or any(c not in "VH" for c in word):
        raise ValueError(f"operator word must be nonempty over {{V,H}}, got {word!r}")
    for c in reversed(word):
        s = dir_sum(a, a, c, 1)
        a = dir_sum(s, s, c, -1)
    return a


def fiber(a: PairSet, direction: str, at: int) -> SingleSet:
    """The fiber over one point: vertical gives {y : (x, y) in A} at x = at."""
    if direction == VERTICAL:
        _check_index("x index", at, a.p**a.n1)
        return SingleSet(a.p, a.n2, a.vertical_fibers()[at])
    if direction == HORIZONTAL:
        _check_index("y index", at, a.p**a.n2)
        return SingleSet(a.p, a.n1, a.horizontal_fibers()[at])
    raise ValueError(f"direction must be 'V' or 'H', got {direction!r}")


def _vertical_fibers(p: int, n1: int, n2: int, ind: int) -> list[int]:
    """The vertical fibers of the set with indicator ind, one bitset over y
    per x index.  In the binary string of the indicator, most significant
    bit first, the bits of the fiber over x sit at stride m1, highest y
    first, so each fiber is one slice read back as an int."""
    m1, top, starts = _vertical_shape(p, n1, n2)
    bits = bin(ind | top)
    return [int(bits[s::m1], 2) for s in starts]


def _fiber_read(p: int, n1: int, n2: int, ind: int) -> tuple[int, int, list[int]]:
    """One pass over the horizontal fibers A^y = {x : (x, y) in A} of the
    set with indicator ind: the bitsets of the two projections (pi1 is the
    union of the fibers, pi2 the y with a nonempty fiber) and, per
    projective class c of the second factor, the union U_c of the fibers
    over the members of c.  The fiber over y is the low m1 bits of
    ind >> m1 * y."""
    m1, low, class_of, k = _fiber_shape(p, n1, n2)
    pi1 = ind & low
    pi2 = 1 if pi1 else 0
    unions = [0] * k
    ind >>= m1
    y = 1
    while ind:
        f = ind & low
        if f:
            pi1 |= f
            pi2 |= 1 << y
            unions[class_of[y]] |= f
        ind >>= m1
        y += 1
    return pi1, pi2, unions


@lru_cache(maxsize=None)
def _fiber_shape(p: int, n1: int, n2: int) -> tuple:
    """(p**n1, low mask of one fiber, class_of of F_p^n2, class count)."""
    sp2 = vspace(p, n2)
    return p**n1, (1 << p**n1) - 1, sp2.class_of, len(sp2.proj_reps)


@lru_cache(maxsize=None)
def _vertical_shape(p: int, n1: int, n2: int) -> tuple:
    """(m1, top, starts) for _vertical_fibers.  m1 = p**n1.  top = 1 <<
    p**(n1 + n2), so bin(indicator | top) is '0b1' and then one digit per
    pair, bit i at index p**(n1 + n2) + 2 - i.  starts[x] = m1 + 2 - x is
    the index of the highest-y bit of the fiber over x."""
    m1 = p**n1
    return m1, 1 << m1 * p**n2, range(m1 + 2, 2, -1)


def projections(a: PairSet) -> tuple[SingleSet, SingleSet]:
    """Images of A under the two coordinate projections."""
    pi1, pi2, _ = _fiber_read(a.p, a.n1, a.n2, a.indicator)
    return SingleSet(a.p, a.n1, pi1), SingleSet(a.p, a.n2, pi2)


# ---------------------------------------------------------------------------
# Transversality.


def transversality_violation(a: PairSet, mode: str = "fiberwise"):
    """None when transverse; otherwise (condition, (x_index, y_index)).

    Fiberwise mode checks, in order: every nonempty vertical fiber is a
    subspace contained in the fiber over 0; fibers agree on projective
    classes; the line condition.  Direct mode compares A +V A and A +H A
    against A and reports the smallest disagreeing pair.
    """
    if mode == "direct":
        for d in (VERTICAL, HORIZONTAL):
            s = dir_sum(a, a, d, 1)
            delta = s.indicator ^ a.indicator
            if delta:
                i = _low_bit(delta)
                m1 = a.p**a.n1
                return (f"A +{d} A differs from A", (i % m1, i // m1))
        return None
    if mode != "fiberwise":
        raise ValueError(f"mode must be 'direct' or 'fiberwise', got {mode!r}")
    return _fiber_map_read(a.p, a.n1, a.n2, a.indicator)[0]


def _fiber_map_read(p: int, n1: int, n2: int, ind: int):
    """(None, (f0, fibers)) when the set with indicator ind is transverse,
    with f0 the fiber over 0 and fibers[c] the fiber over class c of F_p^n1
    (proj_reps order, 0 for an empty fiber), all bitsets over y; otherwise
    (violation, None) with the first violation transversality_violation
    reports.

    The checks, in order: every nonempty fiber contains 0, is a subspace
    and lies in the fiber over 0; fibers agree on projective classes; the
    line condition, scanned pair of classes by pair of classes."""
    fibers = _vertical_fibers(p, n1, n2, ind)
    f0 = fibers[0]
    for x, f in enumerate(fibers):
        if not f:
            continue
        if not f & 1:
            return ("nonempty vertical fiber misses 0", (x, 0)), None
        if _span_mask(p, n2, f) != f:
            return ("vertical fiber is not a subspace", (x, _sum_witness(p, n2, f))), None
        extra = f & ~f0
        if extra:
            return ("vertical fiber not contained in the fiber over 0",
                    (x, _low_bit(extra))), None
    sp1 = vspace(p, n1)
    reps = sp1.proj_reps
    for rep, members in zip(reps, sp1.class_members):
        for m in members:
            delta = fibers[m] ^ fibers[rep]
            if delta:
                return ("fibers differ within a projective class", (m, _low_bit(delta))), None
    for ia, ra in enumerate(reps):
        fa = fibers[ra]
        if not fa:
            continue
        for rb in reps[ia + 1:]:
            inter = fa & fibers[rb]
            if not inter:
                continue
            for lam in range(1, p):
                z = sp1.add[ra][sp1.scale[lam][rb]]
                missing = inter & ~fibers[z]
                if missing:
                    return ("line condition fails", (z, _low_bit(missing))), None
    return None, (f0, [fibers[r] for r in reps])


def _low_bit(f: int) -> int:
    """The smallest member of a nonzero bitset."""
    return (f & -f).bit_length() - 1


def _bits_column(f: int, m1: int) -> int:
    """A bitset over y as a column: bit m1 * y for each member y."""
    col = 0
    for y in _iter_bits(f):
        col |= 1 << m1 * y
    return col


@lru_cache(maxsize=4096)
def _sum_witness(p: int, n: int, f: int):
    """The first sum i + j of members i, j of the bitset f that falls
    outside it, members taken in ascending order, or None.  Memoized: the
    powerset sweep at (2,2) meets each failing fiber thousands of times,
    and at (2,10) a key is about 128 bytes."""
    add = vspace(p, n).add
    bits = list(_iter_bits(f))
    for i in bits:
        row = add[i]
        for j in bits:
            if not f >> row[j] & 1:
                return row[j]
    return None


def is_transverse(a: PairSet, mode: str = "fiberwise") -> bool:
    """Whether A +V A = A +H A = A.  The empty set counts as transverse."""
    return transversality_violation(a, mode) is None


# ---------------------------------------------------------------------------
# Fiber-map form of a transverse set.


def to_fiber_map(a: PairSet) -> tuple[int, list[int]]:
    """Fiber presentation (f0, fibers) of a nonempty transverse set: f0 the
    fiber over 0 and fibers[c] the fiber over projective class c of F_p^n1
    (ascending-index order of the classes, 0 for an empty fiber), all
    bitsets over y.

    Raises NotTransverseError naming the violated condition otherwise.
    """
    if not a.indicator:
        raise NotTransverseError("empty set has no fiber map", None)
    bad, fmap = _fiber_map_read(a.p, a.n1, a.n2, a.indicator)
    if bad is not None:
        raise NotTransverseError(*bad)
    return fmap


def from_fiber_map(p: int, n1: int, n2: int, f0: int, fibers) -> PairSet:
    """Realize a fiber map, in the form to_fiber_map returns, as a PairSet.
    There must be one fiber per projective class, each inside f0, and f0
    and every nonzero fiber must be subspaces (as bitsets over y); otherwise
    ValueError.  The result always satisfies the subspace-fiber and
    class-constancy conditions but need not be transverse: the line
    condition is the caller's concern."""
    _check_table(p, max(n1, n2))
    k = len(vspace(p, n1).proj_reps)
    if len(fibers) != k:
        raise ValueError(f"need one fiber per projective class ({k}), got {len(fibers)}")
    if not 0 < f0 < 1 << p**n2 or _span_mask(p, n2, f0) != f0:
        raise ValueError("fiber0 is not a subspace of F_p^n2")
    for f in fibers:
        if f & ~f0:
            raise ValueError("class fiber is not contained in fiber0")
        if f and _span_mask(p, n2, f) != f:
            raise ValueError("class fiber is not a subspace")
    return PairSet(p, n1, n2, _fiber_map_mask(p, n1, n2, f0, fibers))


def _fiber_map_mask(p: int, n1: int, n2: int, f0: int, fibers) -> int:
    """Indicator of the set whose vertical fiber over 0 is the bitset f0
    (over y) and over each member of class c of F_p^n1 is fibers[c], 0
    meaning an empty fiber: one cell per nonempty fiber, ORed.  Every
    fiber-map-to-set conversion goes through here."""
    mask = _fiber_cell(p, n1, n2, -1, f0)
    for c, f in enumerate(fibers):
        if f:
            mask |= _fiber_cell(p, n1, n2, c, f)
    return mask


@lru_cache(maxsize=256)
def _fiber_cell(p: int, n1: int, n2: int, c: int, fiber: int) -> int:
    """Pair-space bits of {x} x fiber for the members x of class c of
    F_p^n1, or for x = 0 when c = -1.  At (2,10) one cell is about 128 KB,
    which is what bounds the memo."""
    col = _bits_column(fiber, p**n1)
    cell = 0
    for x in (0,) if c < 0 else vspace(p, n1).class_members[c]:
        cell |= col << x
    return cell


@lru_cache(maxsize=None)
def _kernel_masks(p: int, n: int) -> tuple:
    """Bit mask of {x in F_p^n : u . x = 0} for every functional u, indexed
    by the encoded index of u."""
    vs = [decode(i, p, n) for i in range(p**n)]
    return tuple(
        sum(1 << i for i, x in enumerate(vs) if sum(a * b for a, b in zip(u, x)) % p == 0)
        for u in vs
    )
