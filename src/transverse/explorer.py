"""Exhaustive sweeps over small parameter spaces: every claim the library
makes about transverse and bilinear sets at desk scale is re-checked here by
brute force over a whole candidate space.  The powerset sweep decides a block
of subsets at a time, from one lookup of S(A) and its zero set, reading only
the masks whose row 0 is a subspace.  The classification, collineation and
fundamental sweeps share one fiber-map DFS (_fiber_maps) that prunes on the
line condition; every candidate it does not visit fails that condition.

Bilinearity has one decision tail (bilinear._decide) and two ways to build
S(A).  The powerset sweep looks S(A) up per block (_span_zero).  The sigma,
xi and classification leaves are fiber maps, and one bilinear._FiberKernel
per rank range extends S(A) class by class along the enumeration, so a leaf
rebuilds only the classes whose fibers changed since the previous leaf.

Each sweep walks a canonically ranked candidate space (subset indicator,
lexicographic permutation rank, mixed-radix fiber/digit index), so the work
can be split into contiguous rank ranges and merged back in rank order; a
permutation range is a slice of itertools.permutations, which yields rank
order, and point counts come from counting.proj_count.  A
SweepReport's digestable content is a function of the parameters alone;
wall time and worker count are carried only as metadata, and a sweep run
with 1 worker is bit-for-bit the same report as with 8.

Every public sweep has the signature (..., jobs=1, override_cap=False) and
does three things of its own: it checks its parameters (a prime p,
dimensions and sample counts of at least 1, each a ValueError before any cap
check), it checks its enumeration budget (CapExceeded unless override_cap),
and it hands a rank-range worker to the one driver, _sweep, with its
`work`, the count of leaf verdicts its parameters give.  The driver times
the run, maps the worker over the ranges, merges the partial counts and
witnesses in rank order, and decides `ok` with the sweep's predicate on the
merged counts alone.  Only a sweep whose work reaches _POOL_WORK runs its
ranges in a process pool; a smaller one runs in this process whatever the
job count, since starting the workers would cost more than they save.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import islice, permutations, product

from .bilinear import FormSpace, _FiberKernel, _form_zero_mask, _span_zero, orth
from .constructions import _sigma_fibers, _xi_fibers
from .counting import proj_count
from .detrng import _GAMMA, SplitMix64, exchange_shuffle
from .fpcore import (
    Subspace,
    _check_table,
    all_subspaces,
    capped_factorial,
    check_cap,
    decode,
    is_prime,
    vspace,
)
from .pairsets import (
    PairSet,
    SingleSet,
    _fiber_cell,
    _fiber_map_read,
    _fiber_read,
    _iter_bits,
    _kernel_masks,
    _span_mask,
    phi,
    subspace_mask,
    sumset_word,
)
# line_structure is read through the module at call time, so that a line
# table substituted in projgeom is the one the fiber-map sweeps use
from . import projgeom
from .projgeom import _recognize_table, pgl_order

__all__ = [
    "BogolyubovReport",
    "ClassificationError",
    "SweepReport",
    "bogolyubov_explore",
    "classify_hyperplane_fibers",
    "exhaustive_subset_sweep",
    "fundamental_sweep",
    "perm_rank",
    "perm_unrank",
    "search_sigma",
    "subspace_in_sumset",
    "verify_collineation_lemma",
    "xi_line_sweep",
]


class ClassificationError(RuntimeError):
    """A hyperplane-fiber transverse set fit none of the three alternatives."""


@dataclass
class SweepReport:
    """Outcome of one sweep: verdict counts plus a short, rank-sorted list
    of witness records.  `ok` is the sweep's headline claim."""

    kind: str
    parameters: dict
    counts: dict
    witnesses: list
    ok: bool
    wall_time: float = 0.0
    workers: int = 1

    def canonical(self) -> dict:
        """The parameter-determined content.  Wall time and worker count are
        excluded on purpose: equal parameters must serialize equally."""
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "payload": {
                "counts": self.counts,
                "ok": self.ok,
                "witnesses": self.witnesses,
            },
        }


# ------------------------------------------------------------------ engine


def _ranges(total: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, workers)
    size, extra = divmod(total, workers)
    out, lo = [], 0
    for i in range(workers):
        hi = lo + size + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def _map_ranges(worker, args: tuple, total: int, workers: int) -> list:
    """Partial results for one contiguous rank range per worker process, in
    rank order; a single worker runs in this process."""
    ranges = _ranges(total, workers)
    if workers <= 1:
        return [worker(args, lo, hi) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(worker, args, lo, hi) for lo, hi in ranges]
        return [f.result() for f in futures]


def _merge(parts: list, cap: int = 8) -> tuple[dict, list]:
    """Summed counts and the first `cap` witnesses in rank order.

    Workers may cap their own lists at `cap` too: a range's first `cap`
    witnesses hold every one of them that the global first `cap` needs, so
    the merged list does not depend on how the ranks were split.
    """
    counts: dict = {}
    witnesses: list = []
    for c, w in parts:
        for key, val in c.items():
            counts[key] = counts.get(key, 0) + val
        witnesses.extend(w)
    return counts, witnesses[:cap]


# leaf verdicts a sweep must have before it starts a process pool: below
# this, starting the workers costs more than they save
_POOL_WORK = 1 << 13


def _sweep(kind: str, parameters: dict, worker, args: tuple, total: int, jobs: int,
           ok, cap: int = 8, work: int = 0) -> SweepReport:
    """The driver of every sweep: `worker` over the ranks [0, total) in one
    contiguous range per worker, merged in rank order, with `ok` a predicate
    on the merged counts.  `work` is the sweep's count of leaf verdicts, set
    by its parameters: from _POOL_WORK on, min(jobs, CPU count, total)
    workers run in a process pool, and below it one range runs in this
    process."""
    t0 = time.perf_counter()
    workers = min(jobs, os.cpu_count() or 1, total) if work >= _POOL_WORK else 1
    counts, witnesses = _merge(_map_ranges(worker, args, total, workers), cap)
    return SweepReport(kind, parameters, counts, witnesses, ok(counts),
                       wall_time=time.perf_counter() - t0, workers=workers)


def _check_sizes(p: int, *dims: int) -> None:
    _check_table(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if any(d < 1 for d in dims):
        raise ValueError(f"dimensions must be at least 1, got {', '.join(map(str, dims))}")


def _no_violations(counts: dict) -> bool:
    return counts["violations"] == 0


def perm_unrank(rank: int, n: int) -> tuple[int, ...]:
    """The permutation of range(n) with the given lexicographic rank."""
    total = math.factorial(n)
    if not 0 <= rank < total:
        raise ValueError(f"rank must lie in [0, {total}), got {rank}")
    avail = list(range(n))
    out = []
    f = total
    for i in range(n, 0, -1):
        f //= i
        d, rank = divmod(rank, f)
        out.append(avail.pop(d))
    return tuple(out)


def _perm_range(lo: int, hi: int, n: int):
    """The permutations of range(n) of rank lo, ..., hi - 1, in rank order:
    itertools.permutations of a sorted input yields lexicographic order."""
    return islice(permutations(range(n)), lo, hi)


def perm_rank(perm) -> int:
    """Lexicographic rank of a permutation of range(len(perm))."""
    n = len(perm)
    avail = list(range(n))
    f = math.factorial(n)
    rank = 0
    for i, v in enumerate(perm):
        f //= n - i
        j = avail.index(v)
        rank += j * f
        avail.pop(j)
    return rank


# ------------------------------------------------- (2,2) full powerset sweep


@lru_cache(maxsize=4)
def _bilinear_family(p: int, n: int) -> frozenset:
    """Indicator masks of every set {(x,y) in W1 x W2 : all forms of M vanish},
    enumerated directly: the zero set of each form subspace M over all pairs,
    from flattened outer products, ANDed with each box W1 x W2.
    Deliberately avoids the ann/orth machinery so it can sit on the other
    side of an agreement check with the bilinearity decision."""
    m1 = p**n
    coords = [decode(x, p, n) for x in range(m1)]
    outer = [tuple(a * b % p for a in xs for b in ys) for ys in coords for xs in coords]
    members = [s.element_indices() for s in all_subspaces(p, n)]
    rows = [sum(1 << x for x in xs) for xs in members]
    boxes = [sum(row << m1 * y for y in ys) for row in rows for ys in members]
    masks = set()
    for fs in all_subspaces(p, n * n):
        zero = 0
        for i, o in enumerate(outer):
            if all(sum(f * c for f, c in zip(row, o)) % p == 0 for row in fs.basis):
                zero |= 1 << i
        masks.update(zero & box for box in boxes)
    return frozenset(masks)


@lru_cache(maxsize=4096)
def _subspaces_over(p: int, n: int, mask: int) -> tuple:
    """Bitsets of the subspaces of F_p^n that contain the bitset mask."""
    return tuple(w for w in map(subspace_mask, all_subspaces(p, n)) if not mask & ~w)


def _subset_range(args: tuple, lo: int, hi: int):
    """Both verdicts for each subset mask of the blocks [lo, hi):
    bilinearity (cross-checked against the family) on every mask and, for a
    nonempty subset, transversality.  Block `top` holds the 2^(p^n) masks
    top << p^n | r0 that share the rows y >= 1, and is decided in one step.

    The block reads those rows once: pi1, pi2 and the span masks of the
    class unions; row 0 joins no class union, since y = 0 lies in no
    projective class, so the block shares S(A) and its zero set Z
    (_span_zero).  Mask base | r0 has the projections pi1 | r0 and, when r0
    is nonempty, pi2 | 1, so W2 = span(pi2 | 1) is fixed and W1 is a
    subspace W containing pi1.  The mask is bilinear (is_bilinear's
    criterion) iff its projections are W and W2 and it equals the closure
    C_W = Z & (W x W2).  As x (x) y = 0 when x or y is 0, row 0 of C_W is W
    and the nonempty rows of C_W are those of W2, so C_W == base | W forces
    r0 = W, pi1 | r0 = W and pi2 | 1 = W2: the mask base | W is bilinear iff
    C_W == base | W, and no other mask of the block is.  One AND per W
    decides the block as a 2^(p^n)-bit verdict, bit r0 set for a bilinear
    mask.  Every mask base | r0 lies in base | W for W = span(pi1 | r0), so
    the check that base | W lies in C_W for each W is the extensivity check
    of every mask of the block.  The verdict is compared with the family's
    row-0 bitset of the block, bit for bit.

    In a nonempty transverse set each nonempty vertical fiber is closed under
    addition, so it holds 0, and row 0, {x : (x, 0) in A}, equals pi1(A);
    row 0 is closed under horizontal sums, so it is a subspace W containing
    pi1.  So the same masks base | W carry both verdicts: each W gets one
    fiberwise read, and no other mask but 0, the empty set, is transverse."""
    p, n = args
    m1 = p**n
    low = (1 << m1) - 1
    family: dict = {}
    for f in _bilinear_family(p, n):
        family[f >> m1] = family.get(f >> m1, 0) | 1 << (f & low)
    bilinear = mismatch = transverse = transverse_bilinear = 0
    witnesses = []
    for top in range(lo, hi):
        base = top << m1
        pi1, pi2, unions = _fiber_read(p, n, n, base)
        _, zero = _span_zero(p, n, n, tuple(_span_mask(p, n, u) for u in unions))
        col = _fiber_cell(p, n, n, -1, _span_mask(p, n, pi2 | 1))
        verdict = 0
        odd = []
        for w in _subspaces_over(p, n, pi1):
            closed = zero & w * col
            if (base | w) & ~closed:
                raise AssertionError("closure is not extensive; this is a bug")
            verdict |= (closed == base | w) << w
            if _fiber_map_read(p, n, n, base | w)[0] is None:
                transverse += 1
                if verdict >> w & 1:
                    transverse_bilinear += 1
                else:
                    odd.append(w)
        miss = verdict ^ family.get(top, 0)
        bilinear += verdict.bit_count()
        mismatch += miss.bit_count()
        if (miss or odd) and len(witnesses) < 8:
            # mask by mask; a mask's mismatch comes before its transversality
            found = sorted([(r0, 0) for r0 in _iter_bits(miss)] + [(r0, 1) for r0 in odd])
            witnesses.extend([("oracle_mismatch", "transverse_non_bilinear")[k], base | r0]
                             for r0, k in found[:8 - len(witnesses)])
    counts = {
        "subsets": (hi - lo) << m1,
        "transverse_nonempty": transverse,
        "transverse_empty": int(lo == 0),
        "transverse_bilinear": transverse_bilinear,
        "transverse_non_bilinear": transverse - transverse_bilinear,
        "bilinear_sets": bilinear,
        "oracle_mismatch": mismatch,
    }
    return counts, witnesses


def exhaustive_subset_sweep(
    p: int, n: int, jobs: int = 1, override_cap: bool = False
) -> SweepReport:
    """Scan every subset of F_p^n x F_p^n: each one gets a bilinearity
    verdict (is_bilinear's criterion) cross-checked against direct
    membership in the enumerated bilinear family, and a transversality
    verdict; every nonempty transverse subset must be bilinear.  Both are
    decided a block of masks at a time, on the masks whose row 0 is a
    subspace containing the other rows (see _subset_range).  The ranks are
    the 2^(p^n (p^n - 1)) blocks, and the budget is the enumeration cap on
    the 2^(p^2n) subsets: (2,2), (3,1) and (5,1) run without override_cap;
    larger parameters go through classify_hyperplane_fibers."""
    _check_sizes(p, n)
    m1 = p**n
    check_cap(2, override_cap, "powerset sweep", exp=m1 * m1)
    blocks = 1 << m1 * (m1 - 1)
    return _sweep(
        "exhaustive_subset_sweep", {"p": p, "n": n}, _subset_range, (p, n), blocks, jobs,
        lambda c: c["transverse_non_bilinear"] == 0 and c["oracle_mismatch"] == 0,
        work=blocks,
    )


# ------------------------------------------- hyperplane-fiber classification


def _classify_leaf(p, n, size, f0, fibers, full, checks):
    """Alternative number (1, 2 or 3) for one valid hyperplane-fiber set of
    the given size with fiber f0 over 0 and fibers[c] over class c, checks
    the check forms of its S(A), flattened row-major.

    Priority order is 1 -> 2 -> 3; the alternatives overlap (the full space
    satisfies both 1 and 2) and the first match wins.
    """
    # alternative 1: P = W x V2  union  V1 x H, W = {x : fiber = V2}: every
    # fiber is V2 or one and the same hyperplane H
    if len({f0, *fibers} - {full}) <= 1:
        return 1
    # alternative 2: the zero set of a single bilinear form.  The forms
    # vanishing on P are the span of the check forms of S(P), and their
    # zero sets contain P, so equality is a size check; scalar multiples
    # share a zero set, so only normalized coefficient vectors are tried.
    for lams in product(range(p), repeat=len(checks)):
        if next((c for c in lams if c), 0) != 1:
            continue
        flat = tuple(sum(lam * c for lam, c in zip(lams, col)) % p for col in zip(*checks))
        if _form_zero_mask(p, n, n, flat).bit_count() == size:
            return 2
    # alternative 3: the largest W with W x V2 inside P has codimension
    # exactly 2 (only reachable for p >= 5).  That W is {x : fiber = V2},
    # a subspace by the line condition, so it has codimension 2 iff it holds
    # as many projective classes as a codimension-2 subspace.
    if p >= 5 and f0 == full and fibers.count(full) == proj_count(p, n - 2):
        return 3
    raise ClassificationError(f"set of size {size} fits no alternative")


def _fiber_maps(f0: int, options: list, lines: tuple, k: int, leaf) -> None:
    """Call leaf(fibers) for every assignment of an option in options[j] to
    each projective class j < k, in digit order, whose fibers lie inside f0
    and satisfy the line condition: on each line (a tuple of class ids), the
    intersection of any two fibers lies inside every fiber.  The fibers
    list is reused between calls.

    Each line carries the OR U of the fibers placed on it so far, the OR I
    of their pairwise intersections and their AND M.  Placing f keeps the
    condition iff (I | U & f) & ~(M & f) == 0, and the state is restored
    on the way back up."""
    through = [[li for li, ids in enumerate(lines) if j in ids] for j in range(k)]
    union = [0] * len(lines)
    inter = [0] * len(lines)
    meet = [-1] * len(lines)
    fibers = [0] * k
    allowed = [[fm for fm in opts if not fm & ~f0] for opts in options]

    def descend(j):
        if j == k:
            leaf(fibers)
            return
        ls = through[j]
        for fm in allowed[j]:
            for li in ls:
                if (inter[li] | union[li] & fm) & ~(meet[li] & fm):
                    break
            else:
                saved = [(union[li], inter[li], meet[li]) for li in ls]
                for li in ls:
                    inter[li] |= union[li] & fm
                    union[li] |= fm
                    meet[li] &= fm
                fibers[j] = fm
                descend(j + 1)
                for li, (u, i, m) in zip(ls, saved):
                    union[li], inter[li], meet[li] = u, i, m

    descend(0)


def _classify_digits(args: tuple, d_lo: int, d_hi: int):
    """DFS over fiber assignments whose fiber-over-zero digit lies in
    [d_lo, d_hi).  Digits index `options` = [full] + hyperplanes, one kernel
    per projective class of functionals; a full assignment is one digit for
    the zero fiber plus one per projective class, pruned by fiber
    containment and the line condition (_fiber_maps)."""
    p, n = args
    k = proj_count(p, n)
    full = (1 << p**n) - 1
    kernels = _kernel_masks(p, n)
    options = [full] + [kernels[u] for u in vspace(p, n).proj_reps]
    lines, _ = projgeom.line_structure(p, n)
    counts = {
        "raw": (d_hi - d_lo) * len(options) ** k,
        "valid": 0,
        "alt1": 0,
        "alt2": 0,
        "alt3": 0,
        "bilinear": 0,
        "leaf_rejected": 0,
    }

    kern = _FiberKernel(p, n, n)

    def leaf(f0, fibers):
        mask = kern.place(f0, fibers)
        if _fiber_map_read(p, n, n, mask)[0] is not None:
            counts["leaf_rejected"] += 1
            return
        counts["valid"] += 1
        status, _, _, checks, _ = kern.verdict()
        alt = _classify_leaf(p, n, mask.bit_count(), f0, fibers, full, checks)
        counts[f"alt{alt}"] += 1
        if status == "bilinear":
            counts["bilinear"] += 1

    for d0 in range(d_lo, d_hi):
        _fiber_maps(options[d0], [options] * k, lines, k, partial(leaf, options[d0]))
    counts["rejected"] = counts["raw"] - counts["valid"]
    return counts, []


def classify_hyperplane_fibers(
    p: int, n: int, jobs: int = 1, override_cap: bool = False
) -> SweepReport:
    """Enumerate every fiber map whose fibers are hyperplanes or the full
    space, keep the transverse ones, and sort each into one of the three
    alternatives: (1) W x V2 union V1 x H, (2) the zero set of a single
    bilinear form, (3) p >= 5 with the maximal W x V2 slab of codimension
    exactly 2.  A set fitting no alternative raises ClassificationError."""
    _check_sizes(p, n)
    k = proj_count(p, n)
    n_options = 1 + k  # full plus one hyperplane per functional class
    check_cap(n_options, override_cap, "fiber-map enumeration", exp=k + 1)
    # work 0: every leaf with the full space over 0 falls in rank 0, so a
    # pool would only add its start-up
    return _sweep(
        "classify_hyperplane_fibers", {"p": p, "n": n}, _classify_digits, (p, n), n_options, jobs,
        lambda c: c["leaf_rejected"] == 0
        and c["alt1"] + c["alt2"] + c["alt3"] == c["valid"]
        and (p >= 5 or (c["alt3"] == 0 and c["bilinear"] == c["valid"])),
        work=0,
    )


# --------------------------------------------------------------- sigma sweep


def _sample_range(k: int, seed: int, lo: int, hi: int):
    """Samples lo, ..., hi - 1 of the seeded stream of shuffles of range(k):
    a shuffle takes k - 1 draws, so sample i starts i * (k - 1) draws in."""
    rng = SplitMix64(seed + lo * (k - 1) * _GAMMA)
    for _ in range(lo, hi):
        table = list(range(k))
        exchange_shuffle(table, rng)
        yield tuple(table)


def _sigma_range(args: tuple, lo: int, hi: int):
    """Each rank's permutation (lexicographic, or with a seed the sample of
    that rank) is the image class table of sigma: its span-set fibers go
    straight to the fiber-map kernel, and the table to the recognition core,
    with no map or set object."""
    p, n, seed = args
    k = proj_count(p, n)
    full = (1 << p**n) - 1
    kern = _FiberKernel(p, n, n)
    counts = {
        "candidates": hi - lo,
        "non_bilinear": 0,
        "bilinear": 0,
        "projective": 0,
        "projective_non_bilinear": 0,
    }
    witnesses = []
    ranked = _perm_range(lo, hi, k) if seed is None else _sample_range(k, seed, lo, hi)
    for rank, table in zip(range(lo, hi), ranked):
        kern.place(full, _sigma_fibers(p, n, table))
        status, witness, _, _, _ = kern.verdict()
        hit = status == "non_bilinear"
        projective = _recognize_table(p, n, n, table) is not None
        counts["non_bilinear" if hit else "bilinear"] += 1
        counts["projective"] += projective
        if projective and hit:
            counts["projective_non_bilinear"] += 1
            witnesses.append(["projective_non_bilinear", rank])
        elif hit and len(witnesses) < 16:
            witnesses.append([rank, list(witness) if witness is not None else None])
    return counts, witnesses


def search_sigma(
    p: int,
    n: int,
    mode: str = "exhaustive",
    samples: int | None = None,
    seed: int | None = None,
    jobs: int = 1,
    override_cap: bool = False,
) -> SweepReport:
    """Sweep projective permutations sigma and test each span set P_sigma for
    bilinearity.  Exhaustive mode ranks all k! permutations lexicographically
    and raises ValueError if given a sample count or seed; samples mode draws
    `samples` seeded permutations instead, a count checked against the cap
    before any is drawn, each worker drawing its own.  Projective sigma must
    never produce a non-bilinear set."""
    _check_sizes(p, n)
    k = proj_count(p, n)
    if mode == "exhaustive":
        if samples is not None or seed is not None:
            raise ValueError("exhaustive mode takes no sample count or seed")
        total = capped_factorial(k, override_cap, "permutation sweep")
        parameters = {"p": p, "n": n, "mode": "exhaustive"}
    elif mode == "samples":
        if samples is None or seed is None:
            raise ValueError("samples mode needs both a sample count and a seed")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        check_cap(samples, override_cap, "sigma sample draw")
        total = samples
        parameters = {"p": p, "n": n, "mode": "samples", "samples": samples, "seed": seed}
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'samples', got {mode!r}")
    return _sweep("search_sigma", parameters, _sigma_range, (p, n, seed), total, jobs,
                  lambda c: c["projective_non_bilinear"] == 0, cap=16, work=total)


# --------------------------------------------------------- collineation sweep


def _line_maps(p: int, n_dom: int, n_cod: int, d_lo: int, d_hi: int, leaf) -> None:
    """Call leaf(digits) for every map P(F_p^n_dom) -> P(F_p^n_cod) that
    keeps lines collinear and sends domain class 0 into [d_lo, d_hi), in
    rank order, as digit tables with digit i the image class of domain
    class i (digit 0 most significant).  By duality the line condition is
    the fiber-map one: with H_c the kernel of the representative of
    codomain class c, H_a & H_b lies inside H_t iff t is on the span of a
    and b (t = a when a = b).  So _fiber_maps over the hyperplanes, under
    the full space, visits exactly the maps that keep lines collinear."""
    kd = proj_count(p, n_dom)
    kernels = _kernel_masks(p, n_cod)
    hyper = [kernels[u] for u in vspace(p, n_cod).proj_reps]
    class_of = {h: c for c, h in enumerate(hyper)}
    lines, _ = projgeom.line_structure(p, n_dom)
    full = (1 << p**n_cod) - 1
    _fiber_maps(full, [hyper[d_lo:d_hi]] + [hyper] * (kd - 1), lines, kd,
                lambda fibers: leaf([class_of[f] for f in fibers]))


def _collineation_digits(args: tuple, d_lo: int, d_hi: int):
    """Counts and witnesses over the maps with the image of domain class 0
    in [d_lo, d_hi); _line_maps visits those that keep lines collinear."""
    p, n_dom, n_cod = args
    kd = proj_count(p, n_dom)
    kc = proj_count(p, n_cod)
    counts = {
        "maps": (d_hi - d_lo) * kc ** (kd - 1),
        "line_condition": 0,
        "constant": 0,
        "injective": 0,
        "violations": 0,
    }
    witnesses = []

    def leaf(digits):
        counts["line_condition"] += 1
        distinct = len(set(digits))
        if distinct == 1:
            counts["constant"] += 1
        elif distinct == kd:
            counts["injective"] += 1
        else:
            counts["violations"] += 1
            if len(witnesses) < 8:
                rank = sum(d * kc ** (kd - 1 - i) for i, d in enumerate(digits))
                witnesses.append([rank, digits])

    _line_maps(p, n_dom, n_cod, d_lo, d_hi, leaf)
    return counts, witnesses


def verify_collineation_lemma(
    p: int, n_dom: int, n_cod: int, jobs: int = 1, override_cap: bool = False
) -> SweepReport:
    """Enumerate every total map between projective point sets and check that
    the ones satisfying the line condition are constant or injective."""
    _check_sizes(p, n_dom, n_cod)
    kc, kd = proj_count(p, n_cod), proj_count(p, n_dom)
    check_cap(kc, override_cap, "total-map enumeration", exp=kd)
    # the leaves the lemma allows: the constant maps and the injective ones
    work = kc + math.perm(kc, kd)
    return _sweep("verify_collineation_lemma", {"p": p, "n_dom": n_dom, "n_cod": n_cod},
                  _collineation_digits, (p, n_dom, n_cod), kc, jobs, _no_violations, work=work)


# ---------------------------------------------------------- fundamental sweep


def _fundamental_digits(args: tuple, d_lo: int, d_hi: int):
    """The permutations whose image of class 0 lies in [d_lo, d_hi): each
    injective map that _line_maps visits is line-preserving and must be
    recognized as projective, or it is a violation."""
    p, n = args
    k = proj_count(p, n)
    counts = {"permutations": (d_hi - d_lo) * math.factorial(k - 1),
              "line_preserving": 0, "projective": 0, "violations": 0}
    witnesses = []

    def leaf(digits):
        if len(set(digits)) < k:
            return
        counts["line_preserving"] += 1
        projective = _recognize_table(p, n, n, tuple(digits)) is not None
        counts["projective" if projective else "violations"] += 1
        if not projective and len(witnesses) < 8:
            witnesses.append([perm_rank(digits), digits])

    _line_maps(p, n, n, d_lo, d_hi, leaf)
    return counts, witnesses


def fundamental_sweep(p: int, n: int, jobs: int = 1, override_cap: bool = False) -> SweepReport:
    """Check that line-preserving and projective coincide on P(F_p^n): each
    line-preserving permutation (_line_maps) must be projective, and there
    must be |PGL(n, p)| of them, the number of projective ones (PGammaL =
    PGL for prime p).  Needs dimension >= 3: on a projective line the
    line condition is vacuous and the equivalence genuinely fails."""
    _check_sizes(p, n)
    if n < 3:
        raise ValueError("the line-preserving/projective equivalence needs n >= 3")
    k = proj_count(p, n)
    work = capped_factorial(k, override_cap, "permutation sweep")
    return _sweep("fundamental_sweep", {"p": p, "n": n}, _fundamental_digits, (p, n), k, jobs,
                  lambda c: c["violations"] == 0 and c["line_preserving"] == pgl_order(p, n),
                  work=work)


# ----------------------------------------------------------------- xi sweep


def _xi_range(args: tuple, lo: int, hi: int):
    (p,) = args
    k = proj_count(p, 2)
    w = Subspace.zero(p, 2)
    full = (1 << p * p) - 1
    kern = _FiberKernel(p, 2, 2)
    counts = {
        "bijections": hi - lo,
        "projective": 0,
        "projective_bilinear": 0,
        "non_projective": 0,
        "non_projective_non_bilinear": 0,
        "non_projective_ann_zero": 0,
        "violations": 0,
    }
    witnesses = []
    for rank, table in zip(range(lo, hi), _perm_range(lo, hi, k)):
        kern.place(full, _xi_fibers(w, 2, table))
        status, _, _, checks, _ = kern.verdict()
        bilinear = status == "bilinear"
        # every fiber is nonempty and f0 is full, so W1 = W2 = F_p^2 and
        # dim ann = 4 - dim S(A), the number of check forms
        r3 = len(checks)
        if _recognize_table(p, 2, 2, table) is not None:
            counts["projective"] += 1
            counts["projective_bilinear"] += bilinear
            if not bilinear:
                counts["violations"] += 1
                witnesses.append(["projective_not_bilinear", rank])
        else:
            counts["non_projective"] += 1
            counts["non_projective_non_bilinear"] += not bilinear
            counts["non_projective_ann_zero"] += r3 == 0
            if bilinear or r3 != 0:
                counts["violations"] += 1
                if len(witnesses) < 8:
                    witnesses.append(["non_projective_bilinear", rank])
    return counts, witnesses


def xi_line_sweep(p: int, jobs: int = 1, override_cap: bool = False) -> SweepReport:
    """All bijections xi' of the projective line P(F_p^2), each driving the
    hyperplane-fiber set with W = {0}: projective xi' must give bilinear
    sets, non-projective xi' must give trivial annihilator and a
    non-bilinear verdict."""
    _check_sizes(p)
    total = capped_factorial(proj_count(p, 2), override_cap, "line-bijection sweep")
    return _sweep("xi_line_sweep", {"p": p}, _xi_range, (p,), total, jobs, _no_violations,
                  work=total)


# ------------------------------------------------- sumset / phi exploration


@dataclass
class BogolyubovReport:
    """phi-image of a set together with the best bilinear triple found
    inside it (largest w1 + w2 dimension, then fewest forms)."""

    word: str
    image: PairSet
    w1: Subspace | None
    w2: Subspace | None
    forms: FormSpace | None
    found: bool


def bogolyubov_explore(
    a: PairSet, word: str = "HVH", max_form_dim: int = 2, override_cap: bool = False
) -> BogolyubovReport:
    """Compute the phi-image of `a` for the given operator word and search it
    for a contained bilinear set: all (w1, w2) subspace pairs in decreasing
    total dimension, then form subspaces of dimension up to max_form_dim."""
    t = phi(a, word)
    p, n1, n2 = a.p, a.n1, a.n2
    subs1 = all_subspaces(p, n1, override_cap=override_cap)
    subs2 = all_subspaces(p, n2, override_cap=override_cap)
    check_cap(len(subs1) * len(subs2), override_cap, "subspace-pair search")
    pairs = sorted(
        ((w1, w2) for w1 in subs1 for w2 in subs2),
        key=lambda ws: -(ws[0].dim + ws[1].dim),
    )
    for w1, w2 in pairs:
        width = w1.dim * w2.dim
        if width == 0:
            candidates = [FormSpace(p, w1.dim, w2.dim, ())]
        else:
            candidates = []
            for d in range(0, min(max_form_dim, width) + 1):
                candidates.extend(
                    FormSpace(p, w1.dim, w2.dim,
                              tuple(FormSpace._reshape(r, w2.dim) for r in fs.basis))
                    for fs in all_subspaces(p, width, dim=d, override_cap=override_cap)
                )
        for m in candidates:
            if orth(m, w1, w2).indicator & ~t.indicator == 0:
                return BogolyubovReport(word, t, w1, w2, m, True)
    return BogolyubovReport(word, t, None, None, None, False)


def subspace_in_sumset(a: SingleSet, codim_max: int) -> Subspace | None:
    """A maximal-dimension subspace of codimension <= codim_max contained in
    2A - 2A, or None when no such subspace exists."""
    t = sumset_word(a, "+A+A-A-A")
    tm = t.indicator
    for dim in range(a.n, max(a.n - codim_max, 0) - 1, -1):
        for s in all_subspaces(a.p, a.n, dim=dim):
            if subspace_mask(s) & ~tm == 0:
                return s
    return None
