"""Sweeps: exhaustive subset enumeration, fiber-map classification, bijection
searches, and the deterministic parallel engine."""

import inspect
import json
import math
import os
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import pytest

from transverse import bilinear, explorer, pairsets, projgeom
from transverse.bilinear import is_bilinear, orth
from transverse.counting import proj_count
from transverse.detrng import SplitMix64
from transverse.explorer import (
    bogolyubov_explore,
    classify_hyperplane_fibers,
    exhaustive_subset_sweep,
    fundamental_sweep,
    perm_rank,
    perm_unrank,
    search_sigma,
    subspace_in_sumset,
    verify_collineation_lemma,
    xi_line_sweep,
)
from transverse.fpcore import CapExceeded, all_subspaces, decode
from transverse.pairsets import PairSet, SingleSet, phi, sumset_word, transversality_violation

GOLDEN = Path(__file__).resolve().parent.parent / "golden"
_EXHAUSTIVE_CACHE = {}


def exhaustive22(jobs=1):
    if jobs not in _EXHAUSTIVE_CACHE:
        _EXHAUSTIVE_CACHE[jobs] = exhaustive_subset_sweep(2, 2, jobs=jobs)
    return _EXHAUSTIVE_CACHE[jobs]


def test_perm_rank_roundtrip():
    rng = SplitMix64(51)
    assert perm_unrank(0, 4) == (0, 1, 2, 3)
    assert perm_unrank(23, 4) == (3, 2, 1, 0)
    for _ in range(200):
        n = rng.below(6) + 2
        r = rng.below(_factorial(n))
        perm = perm_unrank(r, n)
        assert sorted(perm) == list(range(n))
        assert perm_rank(perm) == r


def test_perm_ranges_split_at_any_rank_agree():
    for n in range(1, 6):
        total = _factorial(n)
        whole = [perm_unrank(r, n) for r in range(total)]
        assert list(explorer._perm_range(0, total, n)) == whole
        for lo in range(total + 1):
            head = list(explorer._perm_range(0, lo, n))
            assert head + list(explorer._perm_range(lo, total, n)) == whole
    assert list(explorer._perm_range(3, 3, 4)) == []
    assert list(explorer._perm_range(5000, 5040, 7)) == [perm_unrank(r, 7) for r in range(5000, 5040)]


def _factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def test_exhaustive_sweep_p2_n2():
    report = exhaustive22(jobs=4)
    assert report.ok
    assert report.counts == {
        "subsets": 65536,
        "transverse_nonempty": 107,
        "transverse_empty": 1,
        "transverse_bilinear": 107,
        "transverse_non_bilinear": 0,
        "bilinear_sets": 107,
        "oracle_mismatch": 0,
    }


def test_exhaustive_sweep_cap(monkeypatch):
    # the budget is the enumeration cap on the 2^(p^2n) subsets, refused
    # with the cap's own message before the engine is reached
    monkeypatch.setattr(explorer, "_map_ranges", None)
    with pytest.raises(CapExceeded, match=r"^powerset sweep would materialize at least 2\*\*81 "
                       r"objects \(cap 67108864\); pass override_cap=True to force$"):
        exhaustive_subset_sweep(3, 2)
    with pytest.raises(CapExceeded, match=f"^powerset sweep would materialize {2**64} objects"):
        exhaustive_subset_sweep(2, 3)
    # the engine, stubbed here so that no block is visited, gets one rank
    # per block of 2^(p^n) masks: (5,1) lies inside the cap with its 2^25
    # subsets in 2^20 blocks, and override_cap lifts the cap at (3,2)
    calls = []

    def stub(worker, args, total, workers):
        calls.append((worker, args, total, workers))
        return [({"transverse_non_bilinear": 0, "oracle_mismatch": 0}, [])]

    monkeypatch.setattr(explorer, "_map_ranges", stub)
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 4)
    assert exhaustive_subset_sweep(5, 1, jobs=2).ok
    report = exhaustive_subset_sweep(3, 2, jobs=2, override_cap=True)
    assert calls == [(explorer._subset_range, (5, 1), 1 << 20, 2),
                     (explorer._subset_range, (3, 2), 1 << 72, 2)]
    assert report.ok and report.parameters == {"p": 3, "n": 2}


def reference_subset_range(args, lo, hi):
    """The powerset worker on the per-set path: one PairSet per mask, decided
    by the public is_bilinear and transversality_violation.  It reads the
    family through the module, so a substituted family reaches it too."""
    p, n = args
    family = explorer._bilinear_family(p, n)
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


def reference_blocks(p, n, lo, hi):
    """reference_subset_range on the masks of the blocks [lo, hi), each
    block the 2^(p^n) masks that share the rows y >= 1."""
    m1 = p**n
    return reference_subset_range((p, n), lo << m1, hi << m1)


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1), (2, 2)])
def test_subset_range_matches_the_per_set_reference(p, n):
    blocks = 1 << p**n * (p**n - 1)
    fast = explorer._subset_range((p, n), 0, blocks)
    assert fast == reference_blocks(p, n, 0, blocks)
    assert fast[0]["subsets"] == 1 << p ** (2 * n)
    assert fast[0]["oracle_mismatch"] == 0 and fast[0]["transverse_nonempty"] > 0


def test_subset_range_splits_and_witnesses_match_the_reference(monkeypatch):
    # the 4,096 blocks of 16 masks in three ranges, then single blocks at
    # either end and inside
    for lo, hi in ((0, 256), (256, 1875), (1875, 4096), (0, 1), (1, 2), (277, 278),
                   (1875, 1876), (4095, 4096)):
        assert explorer._subset_range((2, 2), lo, hi) == reference_blocks(2, 2, lo, hi)
    # an empty family makes every bilinear set a mismatch witness
    monkeypatch.setattr(explorer, "_bilinear_family", lambda p, n: frozenset())
    fast = explorer._subset_range((2, 2), 0, 4096)
    assert fast == reference_blocks(2, 2, 0, 4096)
    assert fast[0]["oracle_mismatch"] == 107 and len(fast[1]) == 8


@pytest.mark.parametrize("p, n", [(2, 1), (3, 1)])
def test_every_window_of_up_to_three_blocks_matches_the_reference(p, n):
    # _subset_range reads each block of 2^(p^n) masks once; windows of one,
    # two and three blocks start and end at every block boundary
    blocks = 1 << p**n * (p**n - 1)
    for lo in range(blocks):
        for hi in range(lo + 1, min(lo + 3, blocks) + 1):
            assert explorer._subset_range((p, n), lo, hi) == reference_blocks(p, n, lo, hi)


def reference_bilinear_family(p, n):
    """The bilinear family built grid by grid: for each box W1 x W2 and each
    form subspace, test every pair of the box against every form."""
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


@pytest.mark.parametrize("p, n, size", [(2, 1, 5), (3, 1, 5), (2, 2, 107)])
def test_bilinear_family_matches_the_grid_reference(p, n, size):
    family = explorer._bilinear_family(p, n)
    assert family == reference_bilinear_family(p, n)
    assert len(family) == size


def _row_test(p, n, mask):
    """The powerset worker's row test: row 0, copied into every row, covers
    the mask."""
    m1 = p**n
    low = (1 << m1) - 1
    spread = sum(1 << m1 * y for y in range(m1))
    return not mask & ~((mask & low) * spread)


def _misses_zero(p, n, mask):
    """Whether some nonempty vertical fiber {y : (x, y) in A} misses 0,
    read pair by pair."""
    m1 = p**n
    return any(mask >> i & 1 and not mask >> (i % m1) & 1 for i in range(m1 * m1))


def _seeded_masks(p, n, count, seed):
    """count masks over the p^2n pairs: half sparse (about 4 pairs), half
    dense (about three quarters of the pairs), each also closed under the
    row test by adding pi1 to row 0."""
    m1 = p**n
    rng = SplitMix64(seed)
    out = []
    for i in range(count):
        dense = i % 2
        mask = 0
        for j in range(m1 * m1):
            if rng.below(4) != 0 if dense else rng.below(m1 * m1 // 4) == 0:
                mask |= 1 << j
        out.append(mask)
        pi1 = 0
        for y in range(m1):
            pi1 |= mask >> m1 * y & ((1 << m1) - 1)
        out.append(mask | pi1)
    return out


@pytest.mark.parametrize("p, n, masks", [
    (2, 1, range(1 << 4)),
    (3, 1, range(1 << 9)),
    (2, 2, range(1 << 16)),
    (3, 2, _seeded_masks(3, 2, 1000, 3201)),
    (2, 3, _seeded_masks(2, 3, 1000, 2301)),
])
def test_a_mask_failing_the_row_test_is_not_transverse(p, n, masks):
    failed = passed = 0
    for mask in masks:
        if _row_test(p, n, mask):
            passed += 1
            assert not _misses_zero(p, n, mask)
        else:
            failed += 1
            assert _misses_zero(p, n, mask)
            assert pairsets._fiber_map_read(p, n, n, mask)[0] is not None
    assert failed and passed
    # what the powerset sweep's loop over W rests on: a nonempty transverse
    # set has as row 0 a subspace that contains the OR of its rows y >= 1
    m1 = p**n
    low = (1 << m1) - 1
    subspaces = {pairsets.subspace_mask(s) for s in all_subspaces(p, n)}
    accepted = 0
    for mask in masks:
        if mask and pairsets._fiber_map_read(p, n, n, mask)[0] is None:
            accepted += 1
            pi1 = 0
            for y in range(1, m1):
                pi1 |= mask >> m1 * y & low
            assert mask & low in subspaces and not pi1 & ~mask
    # the seeded masks are rarely transverse; a whole powerset holds them all
    assert accepted or not isinstance(masks, range)


def test_powerset_reads_fibers_only_past_the_row_test(monkeypatch):
    calls = []
    for name in ("_span_zero", "_fiber_read", "_fiber_map_read"):
        inner = getattr(explorer, name)

        def counted(*args, name=name, inner=inner):
            calls.append(name)
            return inner(*args)

        monkeypatch.setattr(explorer, name, counted)
    counts, _ = explorer._subset_range((2, 2), 0, 4096)
    assert counts["transverse_nonempty"] == 107
    # one read of rows 1-3 and one lookup of S(A) and its zero set per block
    # of 16 masks; one fiberwise read per subspace W of F_2^2 that contains
    # pi1, the OR of the block's rows 1-3, with W as row 0: 4,296 of the
    # 65,535 nonempty masks
    assert Counter(calls) == {
        "_span_zero": 4096, "_fiber_read": 4096, "_fiber_map_read": 4296}
    # all 5 subspaces when pi1 lies in {0} (8 blocks), 2 when its span is a
    # line (3 lines, 4^3 - 2^3 blocks each), 1 otherwise
    per_block = []
    for name in calls:
        if name == "_fiber_read":
            per_block.append(Counter())
        per_block[-1][name] += 1
    assert all(c["_span_zero"] == 1 for c in per_block)
    assert Counter(c["_fiber_map_read"] for c in per_block) == {5: 8, 2: 168, 1: 3920}


def test_a_perturbed_family_is_caught_in_both_directions(monkeypatch):
    # block 277 holds the bilinear masks 277 * 16 + 5 and 277 * 16 + 15;
    # the family loses the first and gains the non-bilinear 277 * 16 + 1
    family = explorer._bilinear_family(2, 2)
    removed, added = 4437, 4433
    assert removed in family and added not in family
    assert is_bilinear(PairSet(2, 2, 2, added)).status != "bilinear"
    monkeypatch.setattr(explorer, "_bilinear_family",
                        lambda p, n: family - {removed} | {added})
    for lo, hi in ((0, 4096), (277, 278), (276, 278), (277, 279), (276, 313), (0, 277),
                   (0, 278), (278, 4096)):
        assert explorer._subset_range((2, 2), lo, hi) == reference_blocks(2, 2, lo, hi)
    # the 4,096 blocks are below the pool threshold; lowered, they get a pool
    monkeypatch.setattr(explorer, "_POOL_WORK", 0)
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 4)
    reports = [exhaustive_subset_sweep(2, 2, jobs=jobs) for jobs in (1, 2, 4)]
    assert [r.workers for r in reports] == [1, 2, 4]
    assert reports[0].counts["oracle_mismatch"] == 2
    assert reports[0].counts["bilinear_sets"] == 107
    assert reports[0].witnesses == [["oracle_mismatch", added], ["oracle_mismatch", removed]]
    assert not reports[0].ok
    dumped = [json.dumps(r.canonical(), sort_keys=True).encode() for r in reports]
    assert dumped[1] == dumped[0] and dumped[2] == dumped[0]


def _edit_zero_sets(monkeypatch, edit):
    """_span_zero in explorer and bilinear, with each zero set Z passed
    through edit(spans, Z); every closure is Z cut to its box."""
    inner = bilinear._span_zero

    def edited(p, n1, n2, spans):
        span, zero = inner(p, n1, n2, spans)
        return span, edit(spans, zero)

    monkeypatch.setattr(explorer, "_span_zero", edited)
    monkeypatch.setattr(bilinear, "_span_zero", edited)


def test_a_mask_gives_its_mismatch_before_its_transversality(monkeypatch):
    # blocks 276 and 277 share the class-union spans (5, 1, 1); their zero
    # set grown by the pair (2, 2) makes the transverse bilinear masks 4437
    # and 4447 non-bilinear: each gives a mismatch against the family and a
    # transverse non-bilinear set, in that order (block 276 has no bilinear
    # mask, as its row 1 misses 0, and block 278 has other spans)
    _edit_zero_sets(monkeypatch, lambda spans, z: z | 1 << 10 if spans == (5, 1, 1) else z)
    fast = explorer._subset_range((2, 2), 276, 279)
    assert fast == reference_blocks(2, 2, 276, 279)
    assert fast[1] == [["oracle_mismatch", 4437], ["transverse_non_bilinear", 4437],
                       ["oracle_mismatch", 4447], ["transverse_non_bilinear", 4447]]
    assert fast[0]["transverse_non_bilinear"] == fast[0]["oracle_mismatch"] == 2


def test_a_closure_that_is_not_extensive_raises(monkeypatch):
    # (0, 0) taken out of every zero set, so out of every closure: no
    # nonempty mask lies in its own
    _edit_zero_sets(monkeypatch, lambda spans, z: z & ~1)
    with pytest.raises(AssertionError, match="not extensive"):
        explorer._subset_range((2, 2), 277, 278)
    with pytest.raises(AssertionError, match="not extensive"):
        is_bilinear(PairSet(2, 2, 2, 4437))


def test_bilinear_family_keeps_the_shape_the_benchmark_reads():
    # perfbench/run.py imports _bilinear_family for the gate of its mixed
    # workload: a frozenset of the 107 indicator ints at (2,2)
    family = explorer._bilinear_family(2, 2)
    assert type(family) is frozenset and len(family) == 107
    assert all(type(m) is int and 0 <= m < 1 << 16 for m in family)


SWEEPS = (exhaustive_subset_sweep, classify_hyperplane_fibers, search_sigma,
          verify_collineation_lemma, fundamental_sweep, xi_line_sweep)


def test_every_sweep_takes_jobs_and_override_cap():
    for sweep in SWEEPS:
        params = inspect.signature(sweep).parameters
        assert params["jobs"].default == 1, sweep.__name__
        assert params["override_cap"].default is False, sweep.__name__


@pytest.mark.parametrize("call", [
    lambda: exhaustive_subset_sweep(2, 0),
    lambda: exhaustive_subset_sweep(4, 5),  # not prime, and far over the cap
    lambda: classify_hyperplane_fibers(2, -1),
    lambda: classify_hyperplane_fibers(9, 4),
    lambda: search_sigma(2, 0),
    lambda: search_sigma(2, 3, mode="samples", samples=0, seed=1),
    lambda: search_sigma(2, 3, mode="samples", samples=-1, seed=1),
    lambda: verify_collineation_lemma(2, 3, 0),
    lambda: verify_collineation_lemma(6, 9, 9),
    lambda: fundamental_sweep(1, 3),
    lambda: xi_line_sweep(4),
    lambda: search_sigma(2, 2, samples=0),  # exhaustive mode reads no samples or seed
    lambda: search_sigma(2, 2, samples=5, seed=1),
    lambda: search_sigma(2, 2, seed=1),
])
def test_bad_sizes_are_value_errors_before_the_cap(call, monkeypatch):
    monkeypatch.setattr(explorer, "_map_ranges", None)  # nothing may run
    with pytest.raises(ValueError):
        call()


def test_classification_p2_n2():
    report = classify_hyperplane_fibers(2, 2)
    assert report.ok
    c = report.counts
    assert c["valid"] == 22
    assert (c["alt1"], c["alt2"], c["alt3"]) == (16, 6, 0)
    assert c["bilinear"] == 22
    assert c["leaf_rejected"] == 0
    assert c["raw"] == 256 and c["rejected"] == 234


def test_classification_p3_n2():
    report = classify_hyperplane_fibers(3, 2)
    assert report.ok
    c = report.counts
    assert c["raw"] == 3125
    assert c["valid"] == 49
    assert (c["alt1"], c["alt2"], c["alt3"]) == (25, 24, 0)
    assert c["bilinear"] == 49


def test_classification_p2_n3():
    report = classify_hyperplane_fibers(2, 3)
    assert report.ok
    c = report.counts
    assert c["valid"] == 575
    assert (c["alt1"], c["alt2"], c["alt3"]) == (113, 462, 0)
    assert c["bilinear"] == 575
    assert c["leaf_rejected"] == 0


def test_classification_p5_n2():
    report = classify_hyperplane_fibers(5, 2, jobs=4)
    assert report.ok
    c = report.counts
    assert c["raw"] == 823543
    assert c["valid"] == 769
    assert (c["alt1"], c["alt2"], c["alt3"]) == (49, 120, 600)
    assert c["bilinear"] == 169
    assert c["leaf_rejected"] == 0


def test_sigma_search_exhaustive():
    report = search_sigma(2, 3, jobs=2)
    assert report.ok
    c = report.counts
    assert c["candidates"] == 5040
    assert c["non_bilinear"] == 2352
    assert c["bilinear"] == 2688
    assert c["projective"] == 168
    assert c["projective_non_bilinear"] == 0
    # the distinguished permutation sits at lexicographic rank 3 and is the
    # first non-bilinear hit
    assert report.witnesses[0] == [3, [2, 1]]


def test_sigma_search_samples_reproducible():
    a = search_sigma(2, 3, mode="samples", samples=100, seed=9)
    b = search_sigma(2, 3, mode="samples", samples=100, seed=9, jobs=4)
    assert a.canonical() == b.canonical()
    assert a.counts["candidates"] == 100
    with pytest.raises(ValueError):
        search_sigma(2, 3, mode="samples", samples=100)  # seed missing


@pytest.mark.parametrize("seed", [0, 9, -5, (1 << 64) + 3, -(1 << 70) - 1])
def test_a_sample_range_enters_the_stream_where_the_sequential_draw_is(seed):
    # every shuffle of k items takes k - 1 draws, so sample i starts i * (k - 1)
    # draws into the stream; the jump must land where drawing one by one does
    k = proj_count(2, 3)
    rng = SplitMix64(seed)
    sequential = []
    for _ in range(2000):
        table = list(range(k))
        explorer.exchange_shuffle(table, rng)
        sequential.append(tuple(table))
    for i in (0, 1, 7, 1999):
        assert list(explorer._sample_range(k, seed, i, i + 1)) == [sequential[i]]
    assert list(explorer._sample_range(k, seed, 5, 12)) == sequential[5:12]


def test_samples_mode_hands_each_worker_a_seed_not_tables(monkeypatch):
    # the workers get (p, n, seed) and draw their own ranges
    started, submitted, calls = [], [], []
    inner = explorer._sigma_range

    def recorded(args, lo, hi):
        calls.append((args, lo, hi))
        return inner(args, lo, hi)

    monkeypatch.setattr(explorer, "_sigma_range", recorded)
    monkeypatch.setattr(explorer, "_POOL_WORK", 0)  # 40 samples get a pool
    monkeypatch.setattr(explorer, "ProcessPoolExecutor", InlinePool(started, submitted))
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 2)
    report = search_sigma(2, 3, mode="samples", samples=40, seed=9, jobs=2)
    assert calls == [((2, 3, 9), 0, 20), ((2, 3, 9), 20, 40)]
    monkeypatch.undo()
    assert report.canonical() == search_sigma(2, 3, mode="samples", samples=40, seed=9).canonical()


def test_a_sample_count_past_the_cap_is_refused_before_the_draw(monkeypatch):
    # nothing may be drawn or handed to a worker before the cap check
    monkeypatch.setattr(explorer, "exchange_shuffle", None)
    monkeypatch.setattr(explorer, "_map_ranges", None)
    start = time.perf_counter()
    with pytest.raises(CapExceeded):
        search_sigma(2, 3, mode="samples", samples=(1 << 26) + 1, seed=1)
    assert time.perf_counter() - start < 1.0


def test_parallel_results_match_serial():
    assert exhaustive22(jobs=4).canonical() == exhaustive22(jobs=1).canonical()
    assert (
        classify_hyperplane_fibers(3, 2, jobs=3).canonical()
        == classify_hyperplane_fibers(3, 2).canonical()
    )


def test_witnesses_do_not_depend_on_jobs(monkeypatch):
    # an empty oracle turns every bilinear set into a mismatch: far more
    # than the eight witnesses a report keeps
    monkeypatch.setattr(explorer, "_bilinear_family", lambda p, n: frozenset())
    reports = [exhaustive_subset_sweep(2, 2, jobs=jobs) for jobs in (1, 2, 4)]
    assert not reports[0].ok
    assert reports[0].counts["oracle_mismatch"] == reports[0].counts["bilinear_sets"] == 107
    assert len(reports[0].witnesses) == 8
    assert all(r.canonical() == reports[0].canonical() for r in reports[1:])


class InlinePool:
    """A process pool that runs each submitted range in this process and
    records the max_workers it was opened with and the ranges it got."""

    def __init__(self, started, submitted):
        self.started, self.submitted = started, submitted

    def __call__(self, max_workers):
        self.started.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, args, lo, hi):
        self.submitted.append((lo, hi))
        future = Future()
        future.set_result(fn(args, lo, hi))
        return future


def test_process_count_is_bounded(monkeypatch):
    # one range per started worker, and the workers are bounded by the
    # CPU count and by the ranks, not by jobs; the pool threshold is lowered
    # so that these small sweeps start one
    started, submitted = [], []
    monkeypatch.setattr(explorer, "_POOL_WORK", 0)
    monkeypatch.setattr(explorer, "ProcessPoolExecutor", InlinePool(started, submitted))
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 3)

    def ranks(args, lo, hi):
        return {"ranks": hi - lo}, []

    report = explorer._sweep("ranks", {}, ranks, (), 10, 64, lambda c: True)
    assert submitted == [(0, 4), (4, 7), (7, 10)]
    assert started == [3] and report.workers == 3 and report.counts == {"ranks": 10}
    submitted.clear()
    assert explorer._sweep("ranks", {}, ranks, (), 2, 64, lambda c: True).workers == 2
    assert submitted == [(0, 1), (1, 2)]
    assert started == [3, 2]
    # a report records the processes started, not the jobs requested
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 2)
    assert verify_collineation_lemma(2, 2, 2, jobs=4).workers == 2
    assert started == [3, 2, 2]


def test_powerset_split_in_three_matches_the_golden_payload(monkeypatch):
    # three workers split the 4,096 blocks of the (2,2) powerset unevenly,
    # once the pool threshold is lowered below them
    started, submitted = [], []
    monkeypatch.setattr(explorer, "_POOL_WORK", 0)
    monkeypatch.setattr(explorer, "ProcessPoolExecutor", InlinePool(started, submitted))
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 3)
    report = exhaustive_subset_sweep(2, 2, jobs=8)
    assert started == [3]
    assert submitted == [(0, 1366), (1366, 2731), (2731, 4096)]
    with open(GOLDEN / "exhaustive_p2_n2.json") as fh:
        assert report.canonical()["payload"] == json.load(fh)["payload"]


class Placed(Exception):
    """Raised by a stubbed engine with the worker count it was given."""


def test_a_sweep_gets_a_pool_only_from_the_work_threshold(monkeypatch):
    # with two CPUs and jobs=2, the ranks run in a pool only when the
    # sweep's count of leaf verdicts reaches 2^13; the engine is stubbed,
    # so no rank is visited
    def stub(worker, args, total, workers):
        raise Placed(workers)

    monkeypatch.setattr(explorer, "_map_ranges", stub)
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 2)
    assert explorer._POOL_WORK == 1 << 13
    table = [
        (lambda: exhaustive_subset_sweep(2, 2, jobs=2), 1),  # 2^12 blocks
        (lambda: exhaustive_subset_sweep(5, 1, jobs=2), 2),  # 2^20 blocks
        (lambda: search_sigma(2, 3, jobs=2), 1),  # 7! = 5,040
        (lambda: search_sigma(2, 3, "samples", samples=(1 << 13) - 1, seed=1, jobs=2), 1),
        (lambda: search_sigma(2, 3, "samples", samples=1 << 13, seed=1, jobs=2), 2),
        (lambda: xi_line_sweep(5, jobs=2), 1),  # 6! = 720
        (lambda: xi_line_sweep(7, jobs=2), 2),  # 8! = 40,320
        (lambda: fundamental_sweep(2, 3, jobs=2), 1),  # 7! = 5,040
        (lambda: fundamental_sweep(3, 3, jobs=2, override_cap=True), 2),  # 13!
        (lambda: fundamental_sweep(2, 4, jobs=2, override_cap=True), 2),  # 15!
        (lambda: verify_collineation_lemma(2, 3, 3, jobs=2), 1),  # 7 + 7! = 5,047
        (lambda: verify_collineation_lemma(3, 3, 3, jobs=2, override_cap=True), 2),
        (lambda: classify_hyperplane_fibers(5, 2, jobs=2), 1),  # always in-process
        (lambda: classify_hyperplane_fibers(2, 3, jobs=2), 1),
    ]
    placed = []
    for call, _ in table:
        with pytest.raises(Placed) as info:
            call()
        placed.append(info.value.args[0])
    assert placed == [workers for _, workers in table]
    # one job never starts a pool
    with pytest.raises(Placed, match="^1$"):
        exhaustive_subset_sweep(5, 1, jobs=1)
    # the work each sweep hands the driver at the benchmark's shapes
    def driver(*args, work=0, **kwargs):
        raise Placed(work)

    monkeypatch.setattr(explorer, "_sweep", driver)
    works = []
    for call in (lambda: exhaustive_subset_sweep(2, 2), lambda: search_sigma(2, 3),
                 lambda: search_sigma(3, 3, "samples", samples=300, seed=1),
                 lambda: xi_line_sweep(5), lambda: fundamental_sweep(2, 3),
                 lambda: verify_collineation_lemma(2, 3, 3),
                 lambda: classify_hyperplane_fibers(5, 2)):
        with pytest.raises(Placed) as info:
            call()
        works.append(info.value.args[0])
    assert works == [4096, 5040, 300, 720, 5040, 7 + 5040, 0]


def _reject_every_seventh_leaf(monkeypatch):
    real = explorer._fiber_map_read
    monkeypatch.setattr(explorer, "_fiber_map_read", lambda p, n1, n2, ind: (
        ("injected", None), None) if ind % 7 == 0 else real(p, n1, n2, ind))


POOLED = {
    "powerset": (lambda jobs: exhaustive_subset_sweep(2, 2, jobs=jobs), None),
    "powerset, empty family": (
        lambda jobs: exhaustive_subset_sweep(2, 2, jobs=jobs),
        lambda mp: mp.setattr(explorer, "_bilinear_family", lambda p, n: frozenset())),
    "sigma": (lambda jobs: search_sigma(2, 3, jobs=jobs), None),
    "sigma samples": (
        lambda jobs: search_sigma(3, 3, "samples", samples=300, seed=5, jobs=jobs), None),
    "xi": (lambda jobs: xi_line_sweep(5, jobs=jobs), None),
    "fundamental": (lambda jobs: fundamental_sweep(2, 3, jobs=jobs), None),
    "fundamental, three lines": (
        lambda jobs: fundamental_sweep(2, 3, jobs=jobs),
        lambda mp: _fano_lines(mp, lambda lines: lines[:3])),
    "collineation": (lambda jobs: verify_collineation_lemma(2, 3, 3, jobs=jobs), None),
    "collineation, three lines": (
        lambda jobs: verify_collineation_lemma(2, 3, 2, jobs=jobs),
        lambda mp: _fano_lines(mp, lambda lines: lines[:3])),
    "classification": (lambda jobs: classify_hyperplane_fibers(5, 2, jobs=jobs), None),
    "classification, rejected leaves": (
        lambda jobs: classify_hyperplane_fibers(5, 2, jobs=jobs), _reject_every_seventh_leaf),
}


@pytest.mark.parametrize("name", POOLED)
def test_pooled_sweeps_give_the_same_payload_at_any_job_count(name, monkeypatch):
    # with the threshold at 0 every sweep gets a pool; its payload is the
    # same in this process, over two worker processes and over eight ranges
    # (run inline, so that eight processes never start), also when a failing
    # oracle is injected
    call, inject = POOLED[name]
    if inject is not None:
        inject(monkeypatch)
    monkeypatch.setattr(explorer, "_POOL_WORK", 0)
    one, two = call(1), call(2)
    started, submitted = [], []
    monkeypatch.setattr(explorer, "ProcessPoolExecutor", InlinePool(started, submitted))
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 8)
    eight = call(8)
    assert one.ok == (inject is None)
    assert one.workers == 1 and two.workers == min(2, os.cpu_count() or 1)
    assert started == [eight.workers] and len(submitted) == eight.workers > 2
    assert two.canonical() == one.canonical() == eight.canonical()


def test_collineation_p2_n2():
    report = verify_collineation_lemma(2, 2, 2)
    assert report.ok
    assert report.counts == {
        "maps": 27,
        "line_condition": 9,
        "constant": 3,
        "injective": 6,
        "violations": 0,
    }


def test_collineation_p2_dom3_cod2():
    # maps from the Fano plane to the 3-point line: only constants pass
    report = verify_collineation_lemma(2, 3, 2)
    assert report.ok
    assert report.counts["line_condition"] == 3
    assert report.counts["constant"] == 3
    assert report.counts["injective"] == 0


def _collineation_reference(p, n_dom, n_cod, lo, hi):
    """Per-rank count with the reference line condition: every rank in
    [lo, hi) is decoded and checked."""
    kd = proj_count(p, n_dom)
    kc = proj_count(p, n_cod)
    counts = {"maps": hi - lo, "line_condition": 0, "constant": 0, "injective": 0, "violations": 0}
    witnesses = []
    for rank in range(lo, hi):
        digits = [rank // kc ** (kd - 1 - i) % kc for i in range(kd)]
        if not projgeom._line_condition(p, n_dom, n_cod, digits):
            continue
        counts["line_condition"] += 1
        distinct = len(set(digits))
        if distinct == 1:
            counts["constant"] += 1
        elif distinct == kd:
            counts["injective"] += 1
        else:
            counts["violations"] += 1
            if len(witnesses) < 8:
                witnesses.append([rank, digits])
    return counts, witnesses


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2), (3, 2, 3),
                                   (5, 2, 2)])
def test_pruned_collineation_matches_per_rank_count(shape):
    # the fiber-map DFS against the per-rank line condition: on all ranks,
    # and on each range of one first digit, the ranks d * block to
    # (d + 1) * block - 1
    p, n_dom, n_cod = shape
    kc = proj_count(p, n_cod)
    block = kc ** (proj_count(p, n_dom) - 1)
    assert explorer._collineation_digits(shape, 0, kc) == _collineation_reference(
        *shape, 0, kc * block
    )
    for d in range(kc):
        assert explorer._collineation_digits(shape, d, d + 1) == _collineation_reference(
            *shape, d * block, (d + 1) * block
        )


def test_pruned_collineation_witnesses(monkeypatch):
    # keep three of the Fano plane's seven lines: many maps that are neither
    # constant nor injective then pass, far more than the eight kept
    real = projgeom.line_structure

    def three_lines(p, n):
        lines, span = real(p, n)
        return (lines[:3] if n == 3 else lines), span

    monkeypatch.setattr(projgeom, "line_structure", three_lines)
    counts, witnesses = _collineation_reference(2, 3, 2, 0, 3**7)
    assert counts["violations"] > 8
    reports = [verify_collineation_lemma(2, 3, 2, jobs=jobs) for jobs in (1, 2)]
    assert not reports[0].ok
    assert reports[0].counts == counts
    assert reports[0].witnesses == witnesses
    assert reports[1].canonical() == reports[0].canonical()


def test_fundamental_p2_n3():
    report = fundamental_sweep(2, 3)
    assert report.ok
    assert report.counts == {
        "permutations": 5040,
        "line_preserving": 168,
        "projective": 168,
        "violations": 0,
    }
    with pytest.raises(ValueError):
        fundamental_sweep(2, 2)  # the equivalence needs dimension >= 3


def _fundamental_reference(p, n, lo, hi):
    """Per-rank fundamental check with the reference line condition: every
    permutation of rank in [lo, hi) is tested for line preservation and
    recognized, and a disagreement is a violation."""
    counts = {"permutations": hi - lo, "line_preserving": 0, "projective": 0, "violations": 0}
    witnesses = []
    for rank in range(lo, hi):
        table = perm_unrank(rank, proj_count(p, n))
        preserving = projgeom._line_condition(p, n, n, table)
        projective = projgeom._recognize_table(p, n, n, table) is not None
        counts["line_preserving"] += preserving
        counts["projective"] += projective
        if preserving != projective:
            counts["violations"] += 1
            if len(witnesses) < 8:
                witnesses.append([rank, list(table)])
    return counts, witnesses


def test_fundamental_digits_match_the_per_rank_reference():
    # on all digits, and on each range of one first digit, the ranks
    # d * 6! to (d + 1) * 6! - 1
    block = math.factorial(6)
    assert explorer._fundamental_digits((2, 3), 0, 7) == _fundamental_reference(2, 3, 0, 7 * block)
    for d in range(7):
        assert explorer._fundamental_digits((2, 3), d, d + 1) == _fundamental_reference(
            2, 3, d * block, (d + 1) * block
        )


def _fano_lines(monkeypatch, edit):
    real = projgeom.line_structure

    def edited(p, n):
        lines, span = real(p, n)
        return (edit(lines) if (p, n) == (2, 3) else lines), span

    monkeypatch.setattr(projgeom, "line_structure", edited)


def test_fundamental_witnesses_match_the_reference(monkeypatch):
    # keep three of the Fano plane's seven lines: 168 non-projective
    # permutations then keep every line left, far more than the eight kept
    _fano_lines(monkeypatch, lambda lines: lines[:3])
    counts, witnesses = _fundamental_reference(2, 3, 0, 5040)
    assert counts == {"permutations": 5040, "line_preserving": 336, "projective": 168,
                      "violations": 168}
    assert len(witnesses) == 8
    reports = [fundamental_sweep(2, 3, jobs=jobs) for jobs in (1, 2, 8)]
    assert not reports[0].ok
    assert reports[0].counts == counts
    assert reports[0].witnesses == witnesses
    assert all(r.canonical() == reports[0].canonical() for r in reports[1:])


def test_fundamental_count_catches_a_projective_map_that_breaks_a_line(monkeypatch):
    # a bogus eighth line (0, 1, 3), not collinear: no projective map keeps
    # it, so the DFS finds no leaf to flag, and only the count against
    # |PGL(3, 2)| = 168 fails the sweep
    _fano_lines(monkeypatch, lambda lines: lines + ((0, 1, 3),))
    counts, _ = _fundamental_reference(2, 3, 0, 5040)
    assert counts["violations"] == 168
    report = fundamental_sweep(2, 3, jobs=2)
    assert report.counts["violations"] == 0
    assert report.counts["line_preserving"] == 0
    assert not report.ok


def test_xi_sweep_p5():
    report = xi_line_sweep(5, jobs=4)
    assert report.ok
    c = report.counts
    assert c["bijections"] == 720
    assert c["projective"] == 120
    assert c["projective_bilinear"] == 120
    assert c["non_projective"] == 600
    assert c["non_projective_non_bilinear"] == 600
    assert c["non_projective_ann_zero"] == 600
    assert c["violations"] == 0


def test_permutation_sweeps_build_no_map_object(monkeypatch):
    """The sigma, fundamental and xi sweeps hand each rank's class table to
    the table cores; a ProjBijection that refuses to be built stops none
    of them."""
    from transverse.constructions import ProjBijection

    def refuse(self):
        raise AssertionError("a sweep built a ProjBijection")

    monkeypatch.setattr(ProjBijection, "__post_init__", refuse)
    assert search_sigma(2, 2, jobs=1).counts["projective"] == 6
    assert fundamental_sweep(2, 3, jobs=1).counts["line_preserving"] == 168
    assert xi_line_sweep(3, jobs=1).counts["projective_bilinear"] == 24


def test_bogolyubov_explore_finds_structure():
    rng = SplitMix64(52)
    for _ in range(10):
        mask = 0
        for _ in range(rng.below(10) + 3):
            mask |= 1 << rng.below(2**4)
        a = PairSet(2, 2, 2, mask)
        report = bogolyubov_explore(a, word="HVH")
        t = phi(a, "HVH")
        assert report.image.indicator == t.indicator
        if report.found:
            z = orth(report.forms, report.w1, report.w2)
            # the reported bilinear set sits inside the operator image
            assert z.indicator & ~t.indicator == 0
            assert z.size >= 1


def test_subspace_in_sumset():
    rng = SplitMix64(53)
    for _ in range(20):
        mask = 0
        for _ in range(rng.below(6) + 2):
            mask |= 1 << rng.below(2**3)
        a = SingleSet(2, 3, mask | 1)
        sub = subspace_in_sumset(a, codim_max=3)
        t = sumset_word(a, "+A+A-A-A")
        assert sub is not None
        for idx in sub.element_indices():
            assert t.contains(idx)


def test_report_canonical_shape():
    report = classify_hyperplane_fibers(2, 2)
    doc = report.canonical()
    assert set(doc) == {"kind", "parameters", "payload"}
    assert set(doc["payload"]) == {"counts", "ok", "witnesses"}
    # wall time and worker count never enter the canonical form
    assert "wall_time" not in str(doc)
