"""One fresh interpreter of the benchmark: set-up or one timed pass.

    python3 passproc.py setup WORKLOAD.json SEED OUT_DIR
        import transverse, then write the workload's inputs and manifest.
    python3 passproc.py pass PASS.json
        run the request groups through transverse.cli.run in-process, as the
        ``transverse`` command would, and write timings, exit codes, captured
        output and max RSS to the path PASS.json names.

Every pass is a new process, so the program's caches start cold and their
fills count inside the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_transverse():
    """The transverse package of this checkout, never an installed one."""
    sys.path.insert(0, SRC)
    import transverse
    import transverse.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(transverse.__file__))) != SRC:
        raise SystemExit(f"imported transverse from {transverse.__file__}, not {SRC}")
    return transverse.cli


def setup(workload_path: str, seed: int, out_dir: str) -> None:
    import_transverse()
    import workloads

    with open(workload_path, encoding="ascii") as fh:
        w = workloads.workload_from_json(json.load(fh))
    manifest = workloads.make_inputs(w, seed, out_dir)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump(manifest, fh)


def run_pass(spec_path: str) -> None:
    with open(spec_path, encoding="ascii") as fh:
        spec = json.load(fh)
    cli = import_transverse()
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    os.chdir(spec["cwd"])
    prefix = ["--jobs", str(spec["jobs"])]
    group_s, codes, outputs = [], [], []
    t_pass = perf_counter()
    for group in spec["groups"]:
        t0 = perf_counter()
        gc, go = [], []
        for argv in group:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                try:
                    gc.append(cli.run(prefix + argv))
                except Exception:  # a crashing request fails its gate, not the pass
                    traceback.print_exc()
                    gc.append(-1)
            go.append(buf.getvalue())
        group_s.append(perf_counter() - t0)
        codes.append(gc)
        outputs.append(go)
    wall_s = perf_counter() - t_pass
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"wall_s": wall_s, "group_s": group_s, "codes": codes, "outputs": outputs,
              "peak_rss_kb": rss_kb, "trace": None}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(spec["spans"])
    with open(spec["out"], "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]), sys.argv[4])
    else:
        run_pass(sys.argv[2])
