"""Acceptance gate: the nine headline checks, one test (one pass/fail line
under pytest -v) per criterion.  Each criterion is exact unless a timing
budget is stated."""

import json
import os
import time

from transverse.bilinear import is_bilinear
from transverse.cli import content_digest, run
from transverse.constructions import build_P_sigma, f3_example, sigma_fig2
from transverse.explorer import (
    classify_hyperplane_fibers,
    exhaustive_subset_sweep,
    fundamental_sweep,
    verify_collineation_lemma,
    xi_line_sweep,
)
from transverse.pairsets import transversality_violation

import test_properties

JOBS = os.cpu_count() or 1


def test_criterion_1_f3_example():
    """The F_3 set: 29 elements, transverse both ways, annihilator diag(1,2),
    closure of 33 elements with witness ((1,1),(1,1))."""
    a = f3_example()
    v = is_bilinear(a)
    assert a.size == 29
    assert transversality_violation(a, "fiberwise") is None
    assert transversality_violation(a, "direct") is None
    assert v.ann.basis == (((1, 0), (0, 2)),)
    assert v.closed.size == 33
    assert v.witness == (4, 4)
    assert v.status == "non_bilinear"
    print("PASS criterion 1: f3 example verified exactly")


def test_criterion_2_sigma_fig2(tmp_path):
    """The seven-point permutation: CLI verification exits 0, the annihilator
    is the displayed four-matrix space, the closure gains ((1,0,0),(0,1,0))."""
    cert = str(tmp_path / "sigma.json")
    assert run(["verify", "sigma-fig2", "--cert", cert]) == 0
    assert run(["replay", "--cert", cert]) == 0
    a = build_P_sigma(sigma_fig2())
    v = is_bilinear(a)
    assert a.size == 22
    mats = {tuple(c for row in m for c in row) for m in v.ann.elements()}
    assert mats == {
        (0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0, 0),
        (0, 0, 1, 0, 0, 1, 0, 1, 0),
        (0, 0, 1, 0, 0, 0, 1, 1, 0),
    }
    assert v.witness == (2, 1)
    assert v.status == "non_bilinear"
    print("PASS criterion 2: sigma-fig2 verified via CLI and library")


def test_criterion_3_exhaustive_p2_n2():
    """Every transverse subset of F_2^2 x F_2^2 is bilinear: 107 nonempty
    transverse sets, all matching the directly enumerated bilinear family."""
    report = exhaustive_subset_sweep(2, 2, jobs=JOBS)
    assert report.ok
    c = report.counts
    assert c["subsets"] == 65536
    assert c["transverse_nonempty"] == 107
    assert c["transverse_empty"] == 1
    assert c["transverse_bilinear"] == 107
    assert c["transverse_non_bilinear"] == 0
    assert c["oracle_mismatch"] == 0
    print("PASS criterion 3: exhaustive (2,2) sweep, 107/107 bilinear")


def test_criterion_4_classification():
    """Hyperplane-fiber transverse sets split into the three alternatives:
    (2,2) 22 = 16+6+0, (3,2) 49 = 25+24+0, (5,2) 769 = 49+120+600; for p=5
    the third alternative is realized and every non-projective line bijection
    yields a non-bilinear set with trivial annihilator."""
    r22 = classify_hyperplane_fibers(2, 2, jobs=JOBS)
    r32 = classify_hyperplane_fibers(3, 2, jobs=JOBS)
    r52 = classify_hyperplane_fibers(5, 2, jobs=JOBS)
    xi = xi_line_sweep(5, jobs=JOBS)
    assert r22.ok and r22.counts["valid"] == 22
    assert (r22.counts["alt1"], r22.counts["alt2"], r22.counts["alt3"]) == (16, 6, 0)
    assert r32.ok and r32.counts["valid"] == 49
    assert (r32.counts["alt1"], r32.counts["alt2"], r32.counts["alt3"]) == (25, 24, 0)
    assert r52.ok and r52.counts["valid"] == 769
    assert (r52.counts["alt1"], r52.counts["alt2"], r52.counts["alt3"]) == (49, 120, 600)
    assert r22.counts["leaf_rejected"] == r32.counts["leaf_rejected"] == 0
    assert r52.counts["leaf_rejected"] == 0
    assert xi.ok
    assert xi.counts["non_projective"] == 600
    assert xi.counts["non_projective_ann_zero"] == 600
    assert xi.counts["projective_bilinear"] == xi.counts["projective"] == 120
    print("PASS criterion 4: classification trichotomy at (2,2), (3,2), (5,2)")


def test_criterion_5_fundamental_p2_n3():
    """Line-preserving permutations of P(F_2^3) are exactly the projective
    ones: 168 of 5040, no disagreement."""
    report = fundamental_sweep(2, 3, jobs=JOBS)
    assert report.ok
    assert report.counts["permutations"] == 5040
    assert report.counts["line_preserving"] == 168
    assert report.counts["projective"] == 168
    assert report.counts["violations"] == 0
    print("PASS criterion 5: line-preserving == projective on P(F_2^3)")


def test_criterion_6_collineation_sweep():
    """All 7^7 total maps of the Fano plane: 175 satisfy the line condition,
    7 constant plus 168 injective, within a five-minute budget."""
    start = time.perf_counter()
    report = verify_collineation_lemma(2, 3, 3, jobs=JOBS)
    elapsed = time.perf_counter() - start
    assert report.ok
    assert report.counts["maps"] == 823543
    assert report.counts["line_condition"] == 175
    assert report.counts["constant"] == 7
    assert report.counts["injective"] == 168
    assert report.counts["violations"] == 0
    assert elapsed < 300.0
    print(f"PASS criterion 6: collineation sweep in {elapsed:.1f}s (< 300s)")


def test_criterion_7_counting_bundle():
    """Counting layer in under a second: bijection-vs-projective equal for
    p in {2,3} and strict after, the (11,13) exact-factorial boundary at
    n=2, the (2,10)/(2,11) Stirling boundary, and the n0 table."""
    from transverse.counting import (
        bijection_vs_projective,
        inequality_check,
        n0_estimate,
    )

    start = time.perf_counter()
    for p in (2, 3):
        b, pr = bijection_vs_projective(p)
        assert b == pr
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        b, pr = bijection_vs_projective(p)
        assert b > pr
    assert inequality_check(13, 2, "exact_factorial")
    assert not inequality_check(11, 2, "exact_factorial")
    assert not inequality_check(2, 10)
    assert inequality_check(2, 11)
    expected_n0 = {2: 11, 3: 6, 5: 4, 7: 3, 11: 3, 13: 3, 17: 2, 19: 2, 23: 2,
                   29: 2, 31: 2, 37: 2, 41: 2, 43: 2, 47: 2}
    for p, n0 in expected_n0.items():
        assert n0_estimate(p, "stirling") == n0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 7: counting bundle in {elapsed * 1000:.0f}ms (< 1s)")


def test_criterion_8_property_suite():
    """At least 10^4 property cases in under two minutes, the time summed
    over the families' own runs (each family runs once per session)."""
    cases, elapsed = test_properties.run_suite()
    assert cases >= 10_000
    assert elapsed < 120.0
    print(f"PASS criterion 8: {cases} property cases in {elapsed:.1f}s (< 120s)")


def test_criterion_9_parallel_determinism(tmp_path):
    """--jobs 1, 3 and 8 write byte-identical certificates with equal
    digests for a parallel sweep.  Ranges of blocks of 16 masks follow the
    workers started, so the split depends on the host's CPU count; the
    uneven split of the 4,096 blocks in three is covered by test_explorer.py's
    test_powerset_split_in_three_matches_the_golden_payload, which pins the
    CPU count to 3."""
    one = str(tmp_path / "jobs1.json")
    base = ["verify", "exhaustive", "--p", "2", "--n", "2"]
    assert run(["--jobs", "1"] + base + ["--cert", one]) == 0
    with open(one, "rb") as fh:
        bytes_one = fh.read()
    for jobs in ("3", "8"):
        other = str(tmp_path / f"jobs{jobs}.json")
        assert run(["--jobs", jobs] + base + ["--cert", other]) == 0
        with open(other, "rb") as fh:
            assert fh.read() == bytes_one
    doc = json.loads(bytes_one)
    assert content_digest(doc) == doc["digest"]
    # and the digest matches the checked-in golden certificate
    golden = os.path.join(os.path.dirname(__file__), "..", "golden",
                          "exhaustive_p2_n2.json")
    with open(golden, "rb") as fh:
        assert fh.read() == bytes_one
    print("PASS criterion 9: byte-identical certificates at jobs 1, 3 and 8")
