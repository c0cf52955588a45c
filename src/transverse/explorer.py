"""Exhaustive sweeps over small parameter spaces: every claim the library
makes about transverse and bilinear sets at desk scale is re-checked here by
brute force, candidate by candidate.  The collineation sweep skips whole
blocks of ranks that a failed line has already ruled out; every map it does
not visit fails the line condition.

Each sweep walks a canonically ranked candidate space (subset indicator,
lexicographic permutation rank, mixed-radix fiber/digit index), so the work
can be split into contiguous rank ranges and merged back in rank order.  A
SweepReport's digestable content is a function of the parameters alone;
wall time and worker count are carried only as metadata, and a sweep run
with 1 worker is bit-for-bit the same report as with 8.

Every public sweep has the signature (..., jobs=1, override_cap=False) and
does three things of its own: it checks its parameters (a prime p,
dimensions and sample counts of at least 1, each a ValueError before any cap
check), it checks its enumeration budget (CapExceeded unless override_cap),
and it hands a rank-range worker to the one driver, _sweep.  The driver
times the run, maps the worker over the ranges, merges the partial counts
and witnesses in rank order, and decides `ok` with the sweep's predicate on
the merged counts alone.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product

from .bilinear import FormSpace, _check_forms, _form_zero_mask, is_bilinear, orth
from .constructions import _check_xi_spaces, _sigma_mask, _xi_mask
from .detrng import SplitMix64, exchange_shuffle
from .fpcore import (
    CapExceeded,
    Subspace,
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
    _fiber_map_mask,
    _kernel_masks,
    phi,
    subspace_mask,
    sumset_word,
    transversality_violation,
)
from .projgeom import (
    _first_failing_line,
    _line_condition,
    _line_tables,
    _recognize_table,
    line_structure,
)

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


def _ranges(total: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, jobs)
    size, extra = divmod(total, jobs)
    out, lo = [], 0
    for i in range(jobs):
        hi = lo + size + (1 if i < extra else 0)
        if hi > lo:
            out.append((lo, hi))
        lo = hi
    return out


def _worker_count(total: int, jobs: int) -> int:
    """Worker processes _map_ranges starts: min(jobs, CPU count, ranges)."""
    return min(jobs, os.cpu_count() or 1, len(_ranges(total, jobs)))


def _map_ranges(worker, args: tuple, total: int, jobs: int) -> list:
    """Partial results for contiguous rank ranges, in rank order.  At most
    _worker_count(total, jobs) worker processes run."""
    ranges = _ranges(total, jobs)
    workers = _worker_count(total, jobs)
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


def _sweep(kind: str, parameters: dict, worker, args: tuple, total: int, jobs: int,
           ok, cap: int = 8) -> SweepReport:
    """The driver of every sweep: `worker` over the ranks [0, total) in
    contiguous ranges, merged in rank order, with `ok` a predicate on the
    merged counts."""
    t0 = time.perf_counter()
    counts, witnesses = _merge(_map_ranges(worker, args, total, jobs), cap)
    return SweepReport(kind, parameters, counts, witnesses, ok(counts),
                       wall_time=time.perf_counter() - t0, workers=_worker_count(total, jobs))


def _check_sizes(p: int, *dims: int) -> None:
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


def _next_perm(a: list) -> None:
    """Step a permutation list in place to its lexicographic successor."""
    i = len(a) - 2
    while i >= 0 and a[i] > a[i + 1]:
        i -= 1
    if i < 0:
        raise ValueError("the last permutation has no successor")
    j = len(a) - 1
    while a[j] < a[i]:
        j -= 1
    a[i], a[j] = a[j], a[i]
    a[i + 1:] = a[:i:-1]


def _perm_range(lo: int, hi: int, n: int):
    """The permutations of range(n) of rank lo, ..., hi - 1, in rank order:
    one perm_unrank at lo, then lexicographic successors."""
    if lo >= hi:
        return
    a = list(perm_unrank(lo, n))
    yield tuple(a)
    for _ in range(hi - lo - 1):
        _next_perm(a)
        yield tuple(a)


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


def _npoints(p: int, n: int) -> int:
    return (p**n - 1) // (p - 1)


# ------------------------------------------------- (2,2) full powerset sweep


@lru_cache(maxsize=4)
def _bilinear_family(p: int, n: int) -> frozenset:
    """Indicator masks of every set {(x,y) in W1 x W2 : all forms of M vanish},
    enumerated directly from subspace pairs and flattened form subspaces.
    Deliberately avoids the ann/orth machinery so it can sit on the other
    side of an agreement check with is_bilinear."""
    m1 = p**n
    outer = {}
    for x in range(m1):
        xs = decode(x, p, n)
        for y in range(m1):
            ys = decode(y, p, n)
            outer[x, y] = tuple(a * b % p for a in xs for b in ys)
    subs = all_subspaces(p, n)
    members = {s: s.element_indices() for s in subs}
    form_subs = all_subspaces(p, n * n)
    masks = set()
    for w1 in subs:
        for w2 in subs:
            grid = [(x, y) for x in members[w1] for y in members[w2]]
            for fs in form_subs:
                mask = 0
                for x, y in grid:
                    o = outer[x, y]
                    if all(sum(f * c for f, c in zip(row, o)) % p == 0 for row in fs.basis):
                        mask |= 1 << (x + m1 * y)
                masks.add(mask)
    return frozenset(masks)


def _subset_range(args: tuple, lo: int, hi: int):
    p, n = args
    family = _bilinear_family(p, n)
    counts = {
        "subsets": hi - lo,
        "transverse_nonempty": 0,
        "transverse_empty": 0,
        "transverse_bilinear": 0,
        "transverse_non_bilinear": 0,
        "bilinear_sets": 0,
        "oracle_mismatch": 0,
    }
    witnesses = []
    for mask in range(lo, hi):
        s = PairSet(p, n, n, mask)
        verdict_bilinear = is_bilinear(s).status == "bilinear"
        counts["bilinear_sets"] += verdict_bilinear
        if verdict_bilinear != (mask in family):
            counts["oracle_mismatch"] += 1
            if len(witnesses) < 8:
                witnesses.append(["oracle_mismatch", mask])
        if mask == 0:
            counts["transverse_empty"] += 1
            continue
        if transversality_violation(s) is None:
            counts["transverse_nonempty"] += 1
            if verdict_bilinear:
                counts["transverse_bilinear"] += 1
            else:
                counts["transverse_non_bilinear"] += 1
                if len(witnesses) < 8:
                    witnesses.append(["transverse_non_bilinear", mask])
    return counts, witnesses


def exhaustive_subset_sweep(
    p: int, n: int, jobs: int = 1, override_cap: bool = False
) -> SweepReport:
    """Scan every subset of F_p^n x F_p^n: each one gets an is_bilinear
    verdict cross-checked against direct membership in the enumerated
    bilinear family, and every nonempty transverse subset must be bilinear.
    Only pair spaces of at most 16 points are powerset-enumerable without
    override_cap; larger parameters go through classify_hyperplane_fibers."""
    _check_sizes(p, n)
    bits = p ** (2 * n)
    if bits > 16 and not override_cap:
        raise CapExceeded(
            f"powerset sweep needs p^2n <= 16 pair-space points, got {bits}; "
            "pass override_cap=True to force"
        )
    return _sweep(
        "exhaustive_subset_sweep", {"p": p, "n": n}, _subset_range, (p, n), 1 << bits, jobs,
        lambda c: c["transverse_non_bilinear"] == 0 and c["oracle_mismatch"] == 0,
    )


# ------------------------------------------- hyperplane-fiber classification


def _classify_leaf(p, n, size, f0, fibers, full, span):
    """Alternative number (1, 2 or 3) for one valid hyperplane-fiber set of
    the given size with fiber f0 over 0 and fibers[c] over class c, span
    the RREF basis of its S(A).

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
    checks = _check_forms(p, n, n, span)
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
    if p >= 5 and f0 == full and fibers.count(full) == _npoints(p, n - 2):
        return 3
    raise ClassificationError(f"set of size {size} fits no alternative")


def _fiber_maps(f0: int, options: list, lines: tuple, k: int, leaf) -> None:
    """Call leaf(fibers) for every assignment of an option to each of the k
    projective classes, in digit order, whose fibers lie inside f0 and
    satisfy the line condition: on each line (a tuple of class ids), the
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
    allowed = [fm for fm in options if not fm & ~f0]

    def descend(j):
        if j == k:
            leaf(fibers)
            return
        ls = through[j]
        for fm in allowed:
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
    k = _npoints(p, n)
    full = (1 << p**n) - 1
    kernels = _kernel_masks(p, n)
    options = [full] + [kernels[u] for u in vspace(p, n).proj_reps]
    lines, _ = line_structure(p, n)
    counts = {
        "raw": (d_hi - d_lo) * len(options) ** k,
        "valid": 0,
        "alt1": 0,
        "alt2": 0,
        "alt3": 0,
        "bilinear": 0,
        "leaf_rejected": 0,
    }

    def leaf(f0, fibers):
        s = PairSet(p, n, n, _fiber_map_mask(p, n, n, f0, fibers))
        if transversality_violation(s) is not None:
            counts["leaf_rejected"] += 1
            return
        counts["valid"] += 1
        verdict = is_bilinear(s)
        alt = _classify_leaf(p, n, s.size, f0, fibers, full, verdict.span)
        counts[f"alt{alt}"] += 1
        if verdict.status == "bilinear":
            counts["bilinear"] += 1

    for d0 in range(d_lo, d_hi):
        _fiber_maps(options[d0], options, lines, k, partial(leaf, options[d0]))
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
    k = _npoints(p, n)
    n_options = 1 + k  # full plus one hyperplane per functional class
    check_cap(n_options ** (k + 1), override_cap, "fiber-map enumeration")
    return _sweep(
        "classify_hyperplane_fibers", {"p": p, "n": n}, _classify_digits, (p, n), n_options, jobs,
        lambda c: c["leaf_rejected"] == 0
        and c["alt1"] + c["alt2"] + c["alt3"] == c["valid"]
        and (p >= 5 or (c["alt3"] == 0 and c["bilinear"] == c["valid"])),
    )


# --------------------------------------------------------------- sigma sweep


def _sigma_range(args: tuple, lo: int, hi: int):
    """Each rank's permutation is the image class table of sigma: it goes
    straight to the span-set and recognition cores, with no map object."""
    p, n, tables = args
    k = _npoints(p, n)
    counts = {
        "candidates": hi - lo,
        "non_bilinear": 0,
        "bilinear": 0,
        "projective": 0,
        "projective_non_bilinear": 0,
    }
    witnesses = []
    ranked = tables[lo:hi] if tables is not None else _perm_range(lo, hi, k)
    for rank, table in zip(range(lo, hi), ranked):
        verdict = is_bilinear(PairSet(p, n, n, _sigma_mask(p, n, n, table)))
        hit = verdict.status == "non_bilinear"
        projective = _recognize_table(p, n, n, table) is not None
        counts["non_bilinear" if hit else "bilinear"] += 1
        counts["projective"] += projective
        if projective and hit:
            counts["projective_non_bilinear"] += 1
            witnesses.append(["projective_non_bilinear", rank])
        elif hit and len(witnesses) < 16:
            wit = list(verdict.witness) if verdict.witness is not None else None
            witnesses.append([rank, wit])
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
    `samples` seeded permutations instead.  Projective sigma must never
    produce a non-bilinear set."""
    _check_sizes(p, n)
    k = _npoints(p, n)
    if mode == "exhaustive":
        if samples is not None or seed is not None:
            raise ValueError("exhaustive mode takes no sample count or seed")
        total = capped_factorial(k, override_cap, "permutation sweep")
        tables = None
        parameters = {"p": p, "n": n, "mode": "exhaustive"}
    elif mode == "samples":
        if samples is None or seed is None:
            raise ValueError("samples mode needs both a sample count and a seed")
        if samples < 1:
            raise ValueError(f"samples must be at least 1, got {samples}")
        rng = SplitMix64(seed)
        drawn = []
        for _ in range(samples):
            table = list(range(k))
            exchange_shuffle(table, rng)
            drawn.append(tuple(table))
        tables = tuple(drawn)
        total = samples
        parameters = {"p": p, "n": n, "mode": "samples", "samples": samples, "seed": seed}
    else:
        raise ValueError(f"mode must be 'exhaustive' or 'samples', got {mode!r}")
    return _sweep("search_sigma", parameters, _sigma_range, (p, n, tables), total, jobs,
                  lambda c: c["projective_non_bilinear"] == 0, cap=16)


# --------------------------------------------------------- collineation sweep


def _collineation_range(args: tuple, lo: int, hi: int):
    """Maps of rank in [lo, hi), as mixed-radix digit tables with digit i
    the image class of domain class i (digit 0 most significant).  A line
    failing with largest class id j rules out every table sharing digits
    0..j, a block of kc**(kd-1-j) consecutive ranks, so the odometer steps
    digit j and skips the rest of that block."""
    p, n_dom, n_cod = args
    kd = _npoints(p, n_dom)
    kc = _npoints(p, n_cod)
    lines, cod_span = _line_tables(p, n_dom, n_cod)
    block = [kc ** (kd - 1 - j) for j in range(kd)]
    counts = {
        "maps": hi - lo,
        "line_condition": 0,
        "constant": 0,
        "injective": 0,
        "violations": 0,
    }
    witnesses = []
    digits = [0] * kd
    r = lo
    for i in range(kd - 1, -1, -1):
        r, digits[i] = divmod(r, kc)
    rank = lo
    while rank < hi:
        j = _first_failing_line(lines, cod_span, digits)
        if j < 0:
            counts["line_condition"] += 1
            distinct = len(set(digits))
            if distinct == 1:
                counts["constant"] += 1
            elif distinct == kd:
                counts["injective"] += 1
            else:
                counts["violations"] += 1
                if len(witnesses) < 8:
                    witnesses.append([rank, list(digits)])
            j = kd - 1
        # odometer step: clear the digits after j, then add one at digit j
        rank = (rank // block[j] + 1) * block[j]
        for i in range(j + 1, kd):
            digits[i] = 0
        i = j
        while i >= 0:
            digits[i] += 1
            if digits[i] < kc:
                break
            digits[i] = 0
            i -= 1
    return counts, witnesses


def verify_collineation_lemma(
    p: int, n_dom: int, n_cod: int, jobs: int = 1, override_cap: bool = False
) -> SweepReport:
    """Enumerate every total map between projective point sets and check that
    the ones satisfying the line condition are constant or injective."""
    _check_sizes(p, n_dom, n_cod)
    total = _npoints(p, n_cod) ** _npoints(p, n_dom)
    check_cap(total, override_cap, "total-map enumeration")
    return _sweep("verify_collineation_lemma", {"p": p, "n_dom": n_dom, "n_cod": n_cod},
                  _collineation_range, (p, n_dom, n_cod), total, jobs, _no_violations)


# ---------------------------------------------------------- fundamental sweep


def _fundamental_range(args: tuple, lo: int, hi: int):
    p, n = args
    k = _npoints(p, n)
    counts = {
        "permutations": hi - lo,
        "line_preserving": 0,
        "projective": 0,
        "violations": 0,
    }
    witnesses = []
    for rank, table in zip(range(lo, hi), _perm_range(lo, hi, k)):
        preserving = _line_condition(p, n, n, table)
        projective = _recognize_table(p, n, n, table) is not None
        counts["line_preserving"] += preserving
        counts["projective"] += projective
        if preserving != projective:
            counts["violations"] += 1
            if len(witnesses) < 8:
                witnesses.append([rank, list(table)])
    return counts, witnesses


def fundamental_sweep(p: int, n: int, jobs: int = 1, override_cap: bool = False) -> SweepReport:
    """Check, permutation by permutation, that line-preserving and projective
    coincide on P(F_p^n).  Needs dimension >= 3: on a projective line the
    line condition is vacuous and the equivalence genuinely fails."""
    _check_sizes(p, n)
    if n < 3:
        raise ValueError("the line-preserving/projective equivalence needs n >= 3")
    total = capped_factorial(_npoints(p, n), override_cap, "permutation sweep")
    return _sweep("fundamental_sweep", {"p": p, "n": n}, _fundamental_range, (p, n), total, jobs,
                  _no_violations)


# ----------------------------------------------------------------- xi sweep


def _xi_range(args: tuple, lo: int, hi: int):
    (p,) = args
    k = _npoints(p, 2)
    w = Subspace.zero(p, 2)
    # l = F_p^2 holds every image, so build_P_xi's image check is void here
    _check_xi_spaces(p, w, Subspace.full(p, 2), 2, 2)
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
        verdict = is_bilinear(PairSet(p, 2, 2, _xi_mask(w, 2, table)))
        bilinear = verdict.status == "bilinear"
        if _recognize_table(p, 2, 2, table) is not None:
            counts["projective"] += 1
            counts["projective_bilinear"] += bilinear
            if not bilinear:
                counts["violations"] += 1
                witnesses.append(["projective_not_bilinear", rank])
        else:
            counts["non_projective"] += 1
            counts["non_projective_non_bilinear"] += not bilinear
            counts["non_projective_ann_zero"] += verdict.r3 == 0
            if bilinear or verdict.r3 != 0:
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
    total = capped_factorial(_npoints(p, 2), override_cap, "line-bijection sweep")
    return _sweep("xi_line_sweep", {"p": p}, _xi_range, (p,), total, jobs, _no_violations)


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
