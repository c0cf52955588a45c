"""Sweeps: exhaustive subset enumeration, fiber-map classification, bijection
searches, and the deterministic parallel engine."""

import inspect
from concurrent.futures import Future

import pytest

from transverse import explorer, projgeom
from transverse.bilinear import orth
from transverse.detrng import SplitMix64
from transverse.explorer import (
    CapExceeded,
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
from transverse.pairsets import PairSet, SingleSet, phi, sumset_word

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


def test_perm_successor_is_the_next_rank():
    for n in range(1, 8):
        total = _factorial(n)
        for r in range(total - 1):
            a = list(perm_unrank(r, n))
            explorer._next_perm(a)
            assert tuple(a) == perm_unrank(r + 1, n)
        with pytest.raises(ValueError, match="no successor"):
            explorer._next_perm(list(perm_unrank(total - 1, n)))


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
    with pytest.raises(CapExceeded):
        exhaustive_subset_sweep(3, 2)
    # override_cap lifts the powerset limit: the sweep reaches the engine,
    # stubbed here so that none of the 2^81 subsets is visited
    calls = []

    def stub(worker, args, total, jobs):
        calls.append((worker, args, total, jobs))
        return [({"transverse_non_bilinear": 0, "oracle_mismatch": 0}, [])]

    monkeypatch.setattr(explorer, "_map_ranges", stub)
    report = exhaustive_subset_sweep(3, 2, jobs=2, override_cap=True)
    assert calls == [(explorer._subset_range, (3, 2), 1 << 81, 2)]
    assert report.ok and report.parameters == {"p": 3, "n": 2}


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


def test_process_count_is_bounded(monkeypatch):
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(explorer, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 3)
    parts = explorer._map_ranges(lambda args, lo, hi: (lo, hi), (), 10, 64)
    assert parts == [(k, k + 1) for k in range(10)]
    assert started == [3]
    explorer._map_ranges(lambda args, lo, hi: (lo, hi), (), 2, 64)
    assert started == [3, 2]
    # a report records the processes started, not the jobs requested
    monkeypatch.setattr(explorer.os, "cpu_count", lambda: 2)
    assert verify_collineation_lemma(2, 2, 2, jobs=4).workers == 2
    assert started == [3, 2, 2]


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
    """Per-rank count with the reference line condition: no skipping."""
    kd = explorer._npoints(p, n_dom)
    kc = explorer._npoints(p, n_cod)
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


def _inside_skipped_block(p, n_dom, n_cod):
    """Ranks that the pruned odometer skips without visiting: the first
    failing line of the map ends at class j < kd - 1 and the rank is not
    the first of its block of kc**(kd-1-j) ranks."""
    kd = explorer._npoints(p, n_dom)
    kc = explorer._npoints(p, n_cod)
    lines, cod_span = projgeom._line_tables(p, n_dom, n_cod)
    out = []
    for rank in range(kc**kd):
        digits = [rank // kc ** (kd - 1 - i) % kc for i in range(kd)]
        j = projgeom._first_failing_line(lines, cod_span, digits)
        if 0 <= j < kd - 1 and rank % kc ** (kd - 1 - j):
            out.append(rank)
    return out


@pytest.mark.parametrize("shape", [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 2)])
def test_pruned_collineation_matches_per_rank_count(shape):
    p, n_dom, n_cod = shape
    total = explorer._npoints(p, n_cod) ** explorer._npoints(p, n_dom)
    assert explorer._collineation_range(shape, 0, total) == _collineation_reference(
        *shape, 0, total
    )
    # a projective line is its own only line, so only a domain of dimension
    # 3 leaves ranks to skip; elsewhere the sub-ranges are drawn from all ranks
    inside = _inside_skipped_block(*shape)
    assert bool(inside) == (n_dom >= 3)
    ends = inside or range(total + 1)
    rng = SplitMix64(54 + total)
    for _ in range(12):
        lo, hi = sorted(ends[rng.below(len(ends))] for _ in range(2))
        assert explorer._collineation_range(shape, lo, hi) == _collineation_reference(
            *shape, lo, hi
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
