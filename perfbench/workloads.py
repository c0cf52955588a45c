"""The benchmark's workloads, their inputs and their correctness gates.

A workload is a list of request groups.  One group is what a user would
time as one unit: one ``transverse verify ...`` call for a sweep, and one
set's four calls (check transverse and check bilinear, each writing a
certificate, replay of the transversality certificate, phi) for a set.  A
workload's sweeps come first, then its stream of sets.

A set group replays the transversality certificate, not the bilinearity
one: ``replay`` of a ``check bilinear`` certificate evaluates the stored
annihilator forms, which are in the coordinates of the projection spans W1
and W2, on ambient coordinates, so it reports FAILED for valid certificates
of sets whose spans are proper subspaces.  Put that replay back into the
group once the program evaluates the forms in W-coordinates.

Set inputs are drawn with the stdlib ``random.Random(seed)``, never with
``transverse.detrng``, so a change to the program's own generator cannot
change what the benchmark feeds it.  This module imports nothing from
``transverse``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

SHAPES = ((2, 2), (3, 2), (2, 3), (5, 2), (3, 3), (2, 4))
MAX_POINTS = 12   # random sparse sets hold 1..MAX_POINTS draws, stratified
SPAN_EVERY = 5    # every fifth set of a shape is a transverse span set
PHI_WORD = "HVH"


@dataclass(frozen=True)
class Sweep:
    """One ``verify`` request and the exact outcome it must reproduce:
    a golden certificate byte for byte, or a set of exact counts."""

    argv: tuple
    sweep: str                       # the explorer function it runs
    golden: str | None = None        # path under the checkout root
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple = ()
    sets_per_shape: int = 0          # random sets drawn per shape in SHAPES


WORKLOADS = {
    w.name: w
    for w in (
        Workload("powerset", sweeps=(
            Sweep(("verify", "exhaustive", "--p", "2", "--n", "2"),
                  "exhaustive_subset_sweep", golden="golden/exhaustive_p2_n2.json"),
        )),
        Workload("mixed", sets_per_shape=40, sweeps=(
            Sweep(("verify", "sigma-search", "--p", "2", "--n", "3"),
                  "search_sigma", golden="golden/sigma_search_p2_n3.json"),
            Sweep(("verify", "classification", "--p", "5", "--mode", "xi"),
                  "xi_line_sweep", golden="golden/xi_line_p5.json"),
            Sweep(("verify", "fundamental", "--p", "2", "--n", "3"),
                  "fundamental_sweep",
                  counts={"permutations": 5040, "line_preserving": 168,
                          "projective": 168, "violations": 0}),
            Sweep(("verify", "classification", "--p", "5", "--n", "2"),
                  "classify_hyperplane_fibers",
                  counts={"valid": 769, "alt1": 49, "alt2": 120, "alt3": 600,
                          "leaf_rejected": 0}),
            Sweep(("verify", "collineation", "--p", "2", "--n", "3"),
                  "verify_collineation_lemma",
                  counts={"maps": 823543, "line_condition": 175, "constant": 7,
                          "injective": 168, "violations": 0}),
        )),
    )
}


def workload_from_json(doc: dict) -> Workload:
    """Inverse of dataclasses.asdict, for handing a workload to a child process."""
    return Workload(doc["name"], tuple(Sweep(**s) for s in doc["sweeps"]), doc["sets_per_shape"])


# ------------------------------------------------------------------ inputs


def _encode(coords, p: int) -> int:
    idx = 0
    for c in reversed(coords):
        idx = idx * p + c
    return idx


def _decode(index: int, p: int, n: int) -> tuple:
    return tuple(index // p**k % p for k in range(n))


def random_sparse_pairs(rng: random.Random, p: int, n: int, draws: int) -> list:
    m = p**n
    return sorted({divmod(rng.randrange(m * m), m)[::-1] for _ in range(draws)})


def span_set_pairs(rng: random.Random, p: int, n: int) -> list:
    """{0} x V2 together with Span(x) x Span(sigma[x]) for a random
    permutation sigma of the projective points: always transverse."""
    m = p**n
    reps = [i for i in range(1, m) if next(c for c in _decode(i, p, n) if c) == 1]
    images = reps[:]
    rng.shuffle(images)

    def multiples(rep: int, lams) -> list:
        coords = _decode(rep, p, n)
        return [_encode([lam * c % p for c in coords], p) for lam in lams]

    pairs = {(0, y) for y in range(m)}
    for rep, img in zip(reps, images):
        ys = multiples(img, range(p))
        for x in multiples(rep, range(1, p)):
            pairs.update((x, y) for y in ys)
    return sorted(pairs)


def set_text(p: int, n: int, pairs: list) -> str:
    """A set file in the program's canonical on-disk format."""
    doc = {"format_version": 1, "p": p, "n1": n, "n2": n, "pairs": [list(e) for e in pairs]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def make_inputs(w: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's input files under out_dir and return its manifest:
    the request groups and, per group, the files it writes and, for a set,
    what the set is."""
    for sub in ("sets", "certs", "phi"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    entries = [{"cert": f"certs/{i}.json"} for i in range(len(w.sweeps))]
    groups = [[list(s.argv) + ["--cert", e["cert"]]] for s, e in zip(w.sweeps, entries)]
    rng = random.Random(seed)
    for p, n in SHAPES:
        for i in range(w.sets_per_shape):
            span = i % SPAN_EVERY == SPAN_EVERY - 1
            pairs = (span_set_pairs(rng, p, n) if span
                     else random_sparse_pairs(rng, p, n, 1 + i % MAX_POINTS))
            k = len(entries)
            s, o = f"sets/{k}.json", f"phi/{k}.json"
            t, c = f"certs/{k}.transverse.json", f"certs/{k}.json"
            with open(os.path.join(out_dir, s), "w", encoding="ascii") as fh:
                fh.write(set_text(p, n, pairs))
            entries.append({"set": s, "tcert": t, "cert": c, "phi": o, "p": p, "n": n,
                            "span": span, "pairs": pairs})
            groups.append([
                ["check", "transverse", "--set", s, "--cert", t],
                ["check", "bilinear", "--set", s, "--cert", c],
                ["replay", "--cert", t],
                ["phi", "--set", s, "--word", PHI_WORD, "--out", o],
            ])
    return {"groups": groups, "entries": entries}


# ------------------------------------------------------------------- gates


def _has_verified(stdout: str) -> bool:
    return any(line.startswith("VERIFIED ") for line in stdout.splitlines())


def gate_sweep(s: Sweep, code: int, stdout: str, cert: bytes | None, root: str) -> str | None:
    """None when the request reproduced its exact outcome, else the reason."""
    if code != 0 or not _has_verified(stdout):
        return f"{s.sweep}: exit code {code} without VERIFIED"
    if cert is None:
        return f"{s.sweep}: no certificate written"
    if s.golden is not None:
        with open(os.path.join(root, s.golden), "rb") as fh:
            if fh.read() != cert:
                return f"{s.sweep}: certificate differs from {s.golden}"
    payload = json.loads(cert)["payload"]
    if payload.get("ok") is not True:
        return f"{s.sweep}: payload is not ok"
    for key, want in s.counts.items():
        if payload["counts"].get(key) != want:
            return f"{s.sweep}: count {key} is {payload['counts'].get(key)}, expected {want}"
    return None


def gate_set(entry: dict, codes: list, stdouts: list, tcert: bytes | None,
             cert: bytes | None, phi_out: bytes | None,
             bilinear_22: frozenset) -> str | None:
    """None when one set's four requests agree with each other and with what
    is known about the set, else the reason.  bilinear_22 holds the indicator
    masks of every bilinear set at (p, n) = (2, 2), from an independent
    enumeration."""
    where = entry["set"]
    size = len(entry["pairs"])
    first = stdouts[0].split("\n", 1)[0]
    if first not in (f"size={size} transverse=yes", f"size={size} transverse=no"):
        return f"{where}: unexpected check transverse output {first!r}"
    transverse = first.endswith("yes")
    if codes[0] != (0 if transverse else 1):
        return f"{where}: check transverse exit code {codes[0]} disagrees with its verdict"
    if entry["span"] and not transverse:
        return f"{where}: a span set was reported not transverse"
    if tcert is None:
        return f"{where}: no transversality certificate written"
    tdoc = json.loads(tcert)
    if tdoc["kind"] != "transverse_check" or tdoc["payload"]["transverse"] is not transverse:
        return f"{where}: transversality certificate disagrees with the printed verdict"
    words = dict(w.split("=", 1) for w in stdouts[1].split("\n", 1)[0].split() if "=" in w)
    status = words.get("status")
    if status not in ("bilinear", "non_bilinear") or words.get("size") != str(size):
        return f"{where}: unexpected check bilinear output {stdouts[1][:80]!r}"
    if codes[1] != (0 if status == "bilinear" else 1):
        return f"{where}: check bilinear exit code {codes[1]} disagrees with its verdict"
    if status == "bilinear" and not transverse:
        return f"{where}: bilinear but not transverse"
    if cert is None:
        return f"{where}: no certificate written"
    doc = json.loads(cert)
    if doc["kind"] != status or doc["payload"]["status"] != status:
        return f"{where}: certificate disagrees with the printed verdict"
    if (entry["p"], entry["n"]) == (2, 2):
        mask = sum(1 << (x + 4 * y) for x, y in entry["pairs"])
        if (status == "bilinear") != (mask in bilinear_22):
            return f"{where}: verdict {status} disagrees with the enumerated bilinear family"
    if codes[2] != 0 or not _has_verified(stdouts[2]):
        return f"{where}: replay exit code {codes[2]} without VERIFIED"
    if codes[3] != 0 or phi_out is None:
        return f"{where}: phi exit code {codes[3]}"
    image = json.loads(phi_out)
    if (image["p"], image["n1"], image["n2"]) != (entry["p"], entry["n"], entry["n"]) \
            or not image["pairs"]:
        return f"{where}: phi image lives in the wrong space or is empty"
    return None
