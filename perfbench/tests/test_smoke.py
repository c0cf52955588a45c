"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/tests

Runs the real harness end to end (set-up processes, passes at both job
counts, the traced pass, the gates) on sweeps and set streams small enough
to finish in seconds, and checks that every metric BENCHMARK.json names is
emitted with its unit and that no operation failed.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY_SWEEPS = workloads.Workload("tiny_sweeps", sweeps=(
    workloads.Sweep(("verify", "exhaustive", "--p", "2", "--n", "1"), "exhaustive_subset_sweep",
                    counts={"subsets": 16, "oracle_mismatch": 0}),
    workloads.Sweep(("verify", "classification", "--p", "2", "--n", "2"),
                    "classify_hyperplane_fibers"),
))
TINY_MIXED = workloads.Workload("tiny_mixed", sets_per_shape=workloads.SPAN_EVERY, sweeps=(
    workloads.Sweep(("verify", "exhaustive", "--p", "2", "--n", "1"), "exhaustive_subset_sweep",
                    counts={"subsets": 16, "oracle_mismatch": 0}),
))


def expected(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("w", [TINY_SWEEPS, TINY_MIXED], ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_metric_is_emitted_and_nothing_fails(w, trace):
    rec = run.run_workload(w, seed=1, seconds=0, trace=trace)
    section = "per_layer" if trace else "end_to_end"
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == expected(section)
    assert rec["attempted"] >= 1
    assert rec["failed_ratio"] == 0, rec["failures"]
    assert rec["correct"]
    assert rec["payload_sha256"] is not None
