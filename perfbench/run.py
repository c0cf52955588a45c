#!/usr/bin/env python3
"""Benchmark of the ``transverse`` command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run sets up its inputs several times in fresh interpreters (``setup_s``
is the median), then times passes.  A pass is one fresh interpreter that
sends every request group of the workload through ``transverse.cli.run``,
exactly as a user's ``transverse ...`` commands would, one pass process at
a time.  Untraced runs (``--trace 0``) repeat the pair (pass at --jobs 1,
pass at --jobs = CPU count) while another pair still fits in ``--seconds``,
at least once.  ``wall_s`` and ``wall_s_parallel`` are the median pass
time at each job count.  ``check_p50_ms`` and ``check_p95_ms`` are
nearest-rank percentiles over every timed request group of the run: a
sweep's repeats at --jobs 1, and a set's at either job count, since its
requests take no --jobs.  Traced runs
(``--trace 1``) make one pass at each job count and one traced pass at
--jobs 1, and report the per-layer metrics; spans recorded in forked
workers would be lost, so tracing runs at one job only.

Every pass is checked: sweep certificates must match the golden files byte
for byte or reproduce exact counts, and each set's four requests must agree
with each other and with what is known about the set.  A pass's output
bytes must also equal those of the run's first pass, whatever its job
count.  Each run appends its full record (context, samples, failures) as one
JSON line to ``perfbench/_work/results.jsonl``, or to ``--out``; compare
mode reads two such files.  The last line printed is the run's result.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
PASSPROC = os.path.join(HERE, "passproc.py")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPS = 7
CHILD_TIMEOUT_S = 170
NPROC = os.cpu_count() or 1

END_TO_END = {
    "wall_s": "s",
    "wall_s_parallel": "s",
    "check_p50_ms": "ms",
    "check_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SWEEPS = ("exhaustive_subset_sweep", "classify_hyperplane_fibers", "search_sigma",
          "verify_collineation_lemma", "fundamental_sweep", "xi_line_sweep")

# Traced metrics taken as they are from the traced pass.
TRACE_METRICS = (
    "fpcore.rref.calls", "fpcore.rref.self_s",
    "fpcore.rref_kernel.calls", "fpcore.rref_kernel.self_s",
    "fpcore.Subspace.calls", "fpcore.all_subspaces.self_s",
    "bilinear.is_bilinear.calls", "bilinear.is_bilinear.self_s",
    "bilinear.is_bilinear.repeat_share",
    "bilinear.ann.calls", "bilinear.ann.self_s",
    "bilinear.orth.calls", "bilinear.orth.self_s",
    "bilinear.closure.self_s", "bilinear.coords_table.hit_ratio",
    "pairsets.transversality_violation.calls", "pairsets.transversality_violation.self_s",
    "pairsets.dir_sum.calls", "pairsets.dir_sum.self_s",
    "pairsets.projections.self_s",
    "pairsets.mask_to_subspace.hit_ratio", "pairsets.subspace_mask.hit_ratio",
    "constructions.build_P_sigma.calls", "constructions.build_P_sigma.self_s",
    "constructions.build_P_xi.calls", "constructions.build_P_xi.self_s",
    "projgeom.recognize_projective.calls", "projgeom.recognize_projective.self_s",
    "projgeom.line_structure.hit_ratio",
    *(f"explorer.{s}.self_s" for s in SWEEPS),
    "cli.run.calls", "cli.read_set.self_s",
    "cli.write_document.calls", "cli.write_document.self_s",
    "cli.content_digest.self_s",
)
PER_LAYER = (
    *TRACE_METRICS,
    *(f"explorer.{s}.parallel_efficiency" for s in SWEEPS),
    "trace.overhead_ratio",
)


def layer_unit(name: str) -> str:
    measure = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s"}.get(measure, "ratio")


class BenchError(RuntimeError):
    """The benchmark could not run at all (missing program, failed set-up)."""


# ----------------------------------------------------------------- helpers


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def child(args: list, timeout: float) -> tuple:
    """Run passproc.py in a fresh interpreter of its own session; on timeout
    kill the whole session, pass workers included, and wait for it."""
    env = {k: v for k, v in os.environ.items() if k not in ("TRANSVERSE_JOBS", "PYTHONPATH")}
    proc = subprocess.Popen([sys.executable, PASSPROC, *args], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, f"timed out after {timeout:.0f} s"
    return proc.returncode, err


def context() -> dict:
    """Where the numbers come from: commit, interpreter, machine, code size."""
    sha = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "transverse", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.basename(path).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "src_lines": lines}


def bilinear_family_22() -> frozenset:
    """Indicator masks of all bilinear sets at (2, 2), from the enumeration
    in the explorer that shares no code with is_bilinear."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from transverse.explorer import _bilinear_family

    return _bilinear_family(2, 2)


# --------------------------------------------------------------------- run


class Run:
    """One benchmark run of one workload: set-up, passes, gates, metrics."""

    def __init__(self, w: workloads.Workload, seed: int, run_dir: str):
        self.w = w
        self.seed = seed
        self.dir = run_dir
        self.setup_s: list = []
        self.attempted = 0
        self.failures: list = []
        self.reference: list | None = None  # per-group output digests of pass 1
        self.family = frozenset()

    def setup(self) -> None:
        spec = os.path.join(self.dir, "workload.json")
        with open(spec, "w", encoding="ascii") as fh:
            json.dump(dataclasses.asdict(self.w), fh)
        manifests = []
        for rep in range(SETUP_REPS):
            out = os.path.join(self.dir, f"inputs{rep}")
            t0 = perf_counter()
            code, err = child(["setup", spec, str(self.seed), out], CHILD_TIMEOUT_S)
            self.setup_s.append(perf_counter() - t0)
            if code != 0:
                raise BenchError(f"set-up failed: {err.strip()}")
            with open(os.path.join(out, "manifest.json"), encoding="ascii") as fh:
                manifests.append(json.load(fh))
            if rep:
                shutil.rmtree(out)
        if any(m != manifests[0] for m in manifests):
            raise BenchError("set-up is not deterministic for one seed")
        self.inputs = os.path.join(self.dir, "inputs0")
        self.manifest = manifests[0]
        if any((e.get("p"), e.get("n")) == (2, 2) for e in self.manifest["entries"]):
            self.family = bilinear_family_22()

    def one_pass(self, jobs: int, traced: bool = False) -> dict | None:
        groups = self.manifest["groups"]
        out = os.path.join(self.dir, "pass.json")
        spec = os.path.join(self.dir, "pass-spec.json")
        with open(spec, "w", encoding="ascii") as fh:
            json.dump({"groups": groups, "jobs": jobs, "trace": traced, "cwd": self.inputs,
                       "out": out, "spans": self.spans_path()}, fh)
        self.attempted += len(groups)
        for entry in self.manifest["entries"]:
            for key in ("tcert", "cert", "phi"):
                if key in entry and os.path.exists(os.path.join(self.inputs, entry[key])):
                    os.remove(os.path.join(self.inputs, entry[key]))
        code, err = child(["pass", spec], CHILD_TIMEOUT_S)
        if code != 0:
            self.failures.extend([f"pass at --jobs {jobs} exited {code}: {err.strip()[-300:]}"]
                                 * len(groups))
            return None
        with open(out, encoding="ascii") as fh:
            result = json.load(fh)
        os.remove(out)
        self.check(result, jobs)
        return result

    def spans_path(self) -> str:
        return os.path.join(WORK, "trace", f"{self.w.name}.spans")

    def check(self, result: dict, jobs: int) -> None:
        digests = []
        for k, entry in enumerate(self.manifest["entries"]):
            codes, outputs = result["codes"][k], result["outputs"][k]
            cert = _read(os.path.join(self.inputs, entry["cert"]))
            tcert = _read(os.path.join(self.inputs, entry["tcert"])) if "tcert" in entry else None
            phi_out = _read(os.path.join(self.inputs, entry["phi"])) if "phi" in entry else None
            try:
                if "set" in entry:
                    why = workloads.gate_set(entry, codes, outputs, tcert, cert, phi_out,
                                             self.family)
                else:
                    why = workloads.gate_sweep(self.w.sweeps[k], codes[0], outputs[0], cert,
                                               ROOT)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output file
                why = f"group {k}: unreadable output: {exc!r}"
            h = hashlib.sha256(json.dumps([codes, outputs]).encode())
            for data in (tcert, cert, phi_out):
                h.update(data or b"")
            digests.append(h.hexdigest())
            if why is None and self.reference is not None and digests[k] != self.reference[k]:
                why = f"group {k}: output bytes at --jobs {jobs} differ from the first pass"
            if why is not None:
                self.failures.append(why)
        if self.reference is None:
            self.reference = digests

    def payload_sha256(self) -> str | None:
        if self.reference is None:
            return None
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def run_workload(w: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, make the passes, check them and compute the metrics of one run."""
    os.makedirs(os.path.join(WORK, "trace"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK)
    try:
        r = Run(w, seed, run_dir)
        r.setup()
        metrics, samples = {}, {}
        if trace:
            serial, parallel = r.one_pass(1), r.one_pass(NPROC)
            traced = r.one_pass(1, traced=True)
            if serial and parallel and traced:
                metrics = layer_metrics(w, serial, parallel, traced)
                samples = {"spans": traced["trace"]["spans"], "passes": 3}
        else:
            # Pairs of passes while another pair, as long as the longest so
            # far, still ends within the run's seconds; at least one pair.
            serial, parallel = [], []
            t0, longest = perf_counter(), 0.0
            while not serial or perf_counter() - t0 + longest <= seconds:
                t1 = perf_counter()
                one, many = r.one_pass(1), r.one_pass(NPROC)
                if one is None or many is None:
                    break
                serial.append(one)
                parallel.append(many)
                longest = max(longest, perf_counter() - t1)
            if serial:
                metrics, samples = end_to_end_metrics(r, serial, parallel)
        failed = len(r.failures)
        return {
            "workload": w.name, "seed": seed, "trace": int(trace), "seconds": seconds,
            "context": context(),
            "correct": not r.failures and bool(metrics),
            "attempted": r.attempted, "failed": failed,
            "failed_ratio": failed / r.attempted,
            "failures": r.failures[:20],
            "payload_sha256": r.payload_sha256(),
            "metrics": metrics,
            "samples": samples,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def end_to_end_metrics(r: Run, serial: list, parallel: list) -> tuple:
    checks = [p["group_s"][k] for k, entry in enumerate(r.manifest["entries"])
              for p in (serial + parallel if "set" in entry else serial)]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in serial),
        "wall_s_parallel": statistics.median(p["wall_s"] for p in parallel),
        "check_p50_ms": 1000 * percentile(checks, 0.50),
        "check_p95_ms": 1000 * percentile(checks, 0.95),
        "setup_s": statistics.median(r.setup_s),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in serial + parallel) / 1024,
    }
    samples = {
        "passes_per_job_count": len(serial),
        "check_samples": len(checks),
        "setup_runs": len(r.setup_s),
        "wall_s": [p["wall_s"] for p in serial],
        "wall_s_parallel": [p["wall_s"] for p in parallel],
        "setup_s": r.setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, samples


def layer_metrics(w: workloads.Workload, serial: dict, parallel: dict, traced: dict) -> dict:
    summary = traced["trace"]
    values = {name: summary.get(name, 0) for name in TRACE_METRICS}
    for s in SWEEPS:
        values[f"explorer.{s}.parallel_efficiency"] = 0.0
    for k, sweep in enumerate(w.sweeps):
        values[f"explorer.{sweep.sweep}.parallel_efficiency"] = (
            serial["group_s"][k] / (NPROC * parallel["group_s"][k]))
    values["trace.overhead_ratio"] = traced["wall_s"] / serial["wall_s"]
    return {k: {"value": values[k], "unit": layer_unit(k)} for k in PER_LAYER}


# ----------------------------------------------------------------- compare


def load_runs(path: str) -> dict:
    """{(workload, metric): [value per run]} from a results file."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            for name, m in rec["metrics"].items():
                runs.setdefault((rec["workload"], name), []).append(m["value"])
    return runs


def compare(base_path: str, new_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = load_runs(base_path), load_runs(new_path)
    print(f"{'workload':18} {'metric':44} {'base median [q1, q3] n':34} "
          f"{'new median [q1, q3] n':34} {'new/base':>9}  verdict")
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        bq, nq = quartiles(b), quartiles(n)
        ratio = nq[1] / bq[1] if bq[1] else float("nan")
        m = spec.get(key[1], {})
        lower = m.get("better", "lower") == "lower"
        verdict = ""
        if "bound" in m:
            bound = m["bound"]
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (bq, nq))
            worse = (ratio - 1) if lower else (1 - ratio)
            if (max(n) < min(b)) if lower else (min(n) > max(b)):
                verdict = "better in every run"
            elif spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"worse by more than {bound:.0%}"
            else:
                verdict = f"within {bound:.0%}"

        def cell(q, xs):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {len(xs)}"

        print(f"{key[0]:18} {key[1]:44} {cell(bq, b):34} {cell(nq, n):34} "
              f"{ratio:9.3f}  {verdict}")
    return 0


# -------------------------------------------------------------------- main


def report(rec: dict) -> None:
    ctx = rec["context"]
    print(f"workload {rec['workload']} seed {rec['seed']} trace {rec['trace']}: "
          f"git {ctx['git_sha'] or 'unknown'}, src {ctx['src_sha256'][:12]} "
          f"({ctx['src_lines']} lines), Python {ctx['python']}, {ctx['cpu_count']} CPUs")
    for name, m in rec["metrics"].items():
        print(f"  {name:46} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':46} {rec['failed_ratio']:.6g} "
          f"({rec['failed']} failed / {rec['attempted']} attempted)")
    print(f"  samples {json.dumps({k: v for k, v in rec['samples'].items() if not isinstance(v, list)})}")
    print(f"  payload sha256 {rec['payload_sha256']}")
    for why in rec["failures"]:
        print(f"  FAILED {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(WORK, "results.jsonl"),
                        help="results file the run's record is appended to")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    for need in ("src/transverse/__init__.py", "golden"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} is missing from {ROOT}", file=sys.stderr)
            return 2
    try:
        rec = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(rec)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    print(json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": rec["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
