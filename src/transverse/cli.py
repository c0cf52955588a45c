"""Command-line front end: constructions, checks, sweeps, and replayable
certificates with stable on-disk formats.

Every `verify` target runs through one table, `_SWEEPS`, keyed by the name a
sweep certificate carries as its "sweep" parameter.  `verify` runs the first
entry for its target that reads every flag given (any other flag is a usage
error); `replay` checks a certificate's parameters against the entry it
names and runs the same runner, so it re-runs exactly what `verify` ran.
The six explorer sweeps share one runner, which calls the sweep of the
entry's name with the certificate parameters as keyword arguments.

Set files and certificates are canonical JSON: keys sorted, no insignificant
whitespace, one trailing newline.  A certificate's digest is the SHA-256 of
the canonical serialization of its format_version/kind/parameters/payload --
never of wall time or worker count, so `--jobs 1` and `--jobs 8` emit
byte-identical files.  The default job count comes from the TRANSVERSE_JOBS
environment variable, falling back to the machine's CPU count; a job count
below 1 or a malformed variable is a usage error.

Exit codes: 0 verified/success, 1 verification failed (claim false or
certificate invalid), 2 usage or file-format error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache, partial
from typing import Callable, NamedTuple

from . import explorer
from .bilinear import BilinearVerdict, FormSpace, ann, is_bilinear
from .constructions import build_P_sigma, build_P_xi, f3_example, random_sigma, sigma_fig2
from .counting import bijection_vs_projective, inequality_check, n0_estimate
from .explorer import SweepReport
from .fpcore import CapExceeded, Subspace, VecP, _check_table, is_prime
from .pairsets import PairSet, _iter_bits, phi, transversality_violation

__all__ = [
    "FORMAT_VERSION",
    "JOBS_ENV",
    "FileFormatError",
    "canonical_json",
    "content_digest",
    "main",
    "make_certificate",
    "read_certificate",
    "read_set",
    "run",
    "set_document",
    "set_from_document",
    "write_document",
]

FORMAT_VERSION = 1
JOBS_ENV = "TRANSVERSE_JOBS"

FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class FileFormatError(ValueError):
    """A set or certificate file failed structural validation."""


# ----------------------------------------------------------- serialization


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def content_digest(doc: dict) -> str:
    body = {key: doc[key] for key in ("format_version", "kind", "parameters", "payload")}
    return hashlib.sha256(canonical_json(body).encode("ascii")).hexdigest()


def make_certificate(kind: str, parameters: dict, payload: dict) -> dict:
    return _certificate(kind, parameters, payload)[0]


def _certificate(kind: str, parameters: dict, payload: dict) -> tuple[dict, str]:
    """The certificate and its canonical text, from one serialization of
    the body: "digest" sorts before every body key, so the text is the
    body's with the digest put first."""
    body = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "parameters": parameters,
        "payload": payload,
    }
    text = canonical_json(body)
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    return {**body, "digest": digest}, f'{{"digest":"{digest}",{text[1:]}'


def write_document(doc: dict, path: str, text: str | None = None) -> None:
    """Write doc as canonical JSON; text, when given, is that serialization
    already made."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(canonical_json(doc) if text is None else text)


def _load_json(path: str) -> dict:
    def unique(pairs):  # json keeps the last of two equal keys; refuse them
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise FileFormatError(f"{path}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except UnicodeDecodeError as exc:
        raise FileFormatError(
            f"{path}: not ASCII (byte 0x{exc.object[exc.start]:02x} at position {exc.start})")
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON (line {exc.lineno}: {exc.msg})")
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    return doc


def _expect(doc: dict, field: str, types, path: str):
    if field not in doc:
        raise FileFormatError(f"{path}: missing field '{field}'")
    value = doc[field]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise FileFormatError(f"{path}: field '{field}' has the wrong type")
    return value


def _pair_list(a: PairSet) -> list:
    """The pairs of a set as [x, y] lists, ascending in (x, y): read x-major
    off the vertical fibers, so nothing is sorted."""
    return [[x, y] for x, f in enumerate(a.vertical_fibers()) for y in _iter_bits(f)]


def set_document(a: PairSet) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "p": a.p,
        "n1": a.n1,
        "n2": a.n2,
        "pairs": _pair_list(a),
    }


def set_from_document(doc: dict, path: str = "<set>") -> PairSet:
    version = _expect(doc, "format_version", int, path)
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {version}")
    p = _expect(doc, "p", int, path)
    n1 = _expect(doc, "n1", int, path)
    n2 = _expect(doc, "n2", int, path)
    _check_table(p, max(n1, n2))
    if not is_prime(p):
        raise FileFormatError(f"{path}: field 'p' must be prime, got {p}")
    if n1 < 1 or n2 < 1:
        raise FileFormatError(f"{path}: dimensions must be positive")
    pairs = _expect(doc, "pairs", list, path)
    m1, m2 = p**n1, p**n2
    # the bits are set in a bytearray and read as one int: linear in the pairs
    bits = bytearray((m1 * m2 + 7) // 8)
    previous = -1  # pairs ascend in (x, y) exactly when their ranks x * m2 + y do
    for position, entry in enumerate(pairs):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or type(entry[0]) is bool or not isinstance(entry[0], int)
            or type(entry[1]) is bool or not isinstance(entry[1], int)
        ):
            raise FileFormatError(f"{path}: pairs[{position}]: expected a pair of integers")
        x, y = entry
        if not 0 <= x < m1:
            raise FileFormatError(f"{path}: pairs[{position}]: x index {x} out of range [0, {m1})")
        if not 0 <= y < m2:
            raise FileFormatError(f"{path}: pairs[{position}]: y index {y} out of range [0, {m2})")
        rank = x * m2 + y
        if rank <= previous:
            raise FileFormatError(f"{path}: pairs[{position}]: pairs must be strictly ascending")
        previous = rank
        i = x + m1 * y
        bits[i >> 3] |= 1 << (i & 7)
    return PairSet(p, n1, n2, int.from_bytes(bits, "little"))


def read_set(path: str) -> PairSet:
    return set_from_document(_load_json(path), path)


def read_certificate(path: str) -> dict:
    doc = _load_json(path)
    version = _expect(doc, "format_version", int, path)
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format_version {version}")
    kind = _expect(doc, "kind", str, path)
    if kind not in ("transverse_check", "bilinear", "non_bilinear", "sweep_report"):
        raise FileFormatError(f"{path}: unknown certificate kind {kind!r}")
    _expect(doc, "parameters", dict, path)
    _expect(doc, "payload", dict, path)
    _expect(doc, "digest", str, path)
    return doc


# --------------------------------------------------------- payload builders


def _basis_rows(s: Subspace) -> list:
    return [list(row) for row in s.basis]


def _form_matrices(space: FormSpace) -> list:
    return [[list(row) for row in mat] for mat in space.basis]


def _set_payload(a: PairSet, verdict: BilinearVerdict) -> dict:
    payload = {
        "pairs": _pair_list(a),
        "size": a.size,
        "status": verdict.status,
        "w1": _basis_rows(verdict.w1),
        "w2": _basis_rows(verdict.w2),
        "r1": verdict.r1,
        "r2": verdict.r2,
        "r3": verdict.r3,
        "ann_basis": _form_matrices(verdict.ann),
        "closure_size": verdict.closed.size,
        "witness": list(verdict.witness) if verdict.witness is not None else None,
        "non_subspace_axis": verdict.non_subspace_axis,
    }
    if verdict.ann.dim <= 4:
        payload["ann_elements"] = sorted(
            [list(c for row in mat for c in row) for mat in verdict.ann.elements()]
        )
    return payload


def _transverse_payload(a: PairSet) -> dict:
    fiberwise = transversality_violation(a, "fiberwise")
    direct = transversality_violation(a, "direct")
    return {
        "pairs": _pair_list(a),
        "size": a.size,
        "transverse": fiberwise is None,
        "modes_agree": (fiberwise is None) == (direct is None),
        "violation": None
        if fiberwise is None
        else [fiberwise[0], list(fiberwise[1])],
    }


def _set_parameters(a: PairSet) -> dict:
    return {"p": a.p, "n1": a.n1, "n2": a.n2}


# ------------------------------------------------------------ verify logic


def _emit(lines: list, ok: bool, text: str) -> bool:
    lines.append(("ok   " if ok else "FAIL ") + text)
    return ok


def _verify_f3() -> tuple:
    a = f3_example()
    verdict = is_bilinear(a)
    lines: list[str] = []
    ok = _emit(lines, a.size == 29, f"size is {a.size}, expected 29")
    ok &= _emit(
        lines,
        transversality_violation(a, "fiberwise") is None
        and transversality_violation(a, "direct") is None,
        "transverse in both fiberwise and direct modes",
    )
    ok &= _emit(
        lines,
        verdict.ann.basis == (((1, 0), (0, 2)),),
        "annihilator is spanned by diag(1, 2)",
    )
    ok &= _emit(lines, verdict.closed.size == 33, f"closure size is {verdict.closed.size}, expected 33")
    ok &= _emit(lines, verdict.witness == (4, 4), "closure witness is ((1,1),(1,1))")
    ok &= _emit(lines, verdict.status == "non_bilinear", f"verdict is {verdict.status}")
    payload = _set_payload(a, verdict)
    payload["transverse"] = True
    return ok, "non_bilinear", {"construction": "f3", "p": 3, "n": 2}, payload, lines


_SIGMA_ANN_ELEMENTS = sorted(
    [
        [0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 1, 0, 0, 1, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1, 1, 0],
    ]
)


def _verify_sigma_fig2() -> tuple:
    a = build_P_sigma(sigma_fig2())
    verdict = is_bilinear(a)
    lines: list[str] = []
    ok = _emit(lines, a.size == 22, f"size is {a.size}, expected 22")
    ok &= _emit(
        lines,
        transversality_violation(a) is None,
        "the span set is transverse",
    )
    elements = sorted([list(c for row in m for c in row) for m in verdict.ann.elements()])
    ok &= _emit(
        lines,
        verdict.ann.dim == 2 and elements == _SIGMA_ANN_ELEMENTS,
        "annihilator is the displayed 4-element form space",
    )
    ok &= _emit(
        lines,
        verdict.closed.contains(1, 2) and not a.contains(1, 2),
        "closure gains ((1,0,0),(0,1,0))",
    )
    ok &= _emit(lines, verdict.status == "non_bilinear", f"verdict is {verdict.status}")
    payload = _set_payload(a, verdict)
    payload["transverse"] = True
    return ok, "non_bilinear", {"construction": "sigma-fig2", "p": 2, "n": 3}, payload, lines


def _sweep_lines(report: SweepReport) -> list:
    lines = [
        f"{'ok   ' if report.ok else 'FAIL '}{report.kind} {report.parameters}: "
        + " ".join(f"{k}={v}" for k, v in sorted(report.counts.items()))
    ]
    for witness in report.witnesses[:8]:
        lines.append(f"     witness: {witness}")
    return lines


def _report(report: SweepReport) -> tuple:
    """A sweep's outcome as a runner returns it: the sweep name joins the
    parameters, and the payload is exactly the report's canonical payload."""
    c = report.canonical()
    parameters = {"sweep": c["kind"], **c["parameters"]}
    return report.ok, "sweep_report", parameters, c["payload"], _sweep_lines(report)


def _run_sweep(name: str, params: dict, jobs: int, override_cap: bool) -> tuple:
    """The runner of every explorer sweep: explorer.<name>, looked up when
    called, so a wrapped module attribute (as a tracer installs) is what
    runs."""
    sweep = getattr(explorer, name)
    return _report(sweep(**params, jobs=jobs, override_cap=override_cap))


def _verify_counting() -> tuple:
    equal, strict = [], []
    for p in (2, 3):
        b, pr = bijection_vs_projective(p)
        equal.append([p, b, pr])
    for p in FIRST_PRIMES[2:12]:
        b, pr = bijection_vs_projective(p)
        strict.append([p, b, pr])
    n0_rows = [[p, n0_estimate(p, "stirling")] for p in FIRST_PRIMES]
    payload = {
        "bijections_equal": equal,
        "bijections_strict": strict,
        "exact_13_2_violated": inequality_check(13, 2, "exact_factorial"),
        "exact_11_2_violated": inequality_check(11, 2, "exact_factorial"),
        "n0_stirling": n0_rows,
    }
    lines = []
    ok = True
    for p, b, pr in equal:
        ok &= _emit(lines, b == pr, f"p={p}: (p+1)! = {b} equals projective count {pr}")
    for p, b, pr in strict:
        ok &= _emit(lines, b > pr, f"p={p}: (p+1)! = {b} exceeds projective count {pr}")
    ok &= _emit(lines, payload["exact_13_2_violated"], "exact factorial beats the bound at (13, 2)")
    ok &= _emit(lines, not payload["exact_11_2_violated"],
                "exact factorial stays below the bound at (11, 2)")
    for p, n0 in n0_rows:
        ok &= _emit(lines, n0 is not None and n0 <= 11, f"p={p}: stirling threshold n0 = {n0} <= 11")
    payload["ok"] = ok
    return ok, "sweep_report", {"sweep": "counting"}, payload, lines


def _classification_bundle(params: dict, jobs: int, override_cap: bool) -> tuple:
    reports = [
        explorer.classify_hyperplane_fibers(2, 2, jobs=jobs, override_cap=override_cap),
        explorer.classify_hyperplane_fibers(3, 2, jobs=jobs, override_cap=override_cap),
        explorer.xi_line_sweep(5, jobs=jobs, override_cap=override_cap),
    ]
    lines = []
    for report in reports:
        lines.extend(_sweep_lines(report))
    ok = all(r.ok for r in reports)
    payload = {"reports": [r.canonical() for r in reports], "ok": ok}
    return ok, "sweep_report", {"sweep": "classification_bundle"}, payload, lines


# ------------------------------------------------------------- sweep table


class _Entry(NamedTuple):
    """One way to run `verify`, and the certificate it writes."""

    target: str       # the `verify` target
    flags: dict       # verify flag -> CLI default; a None default marks an optional parameter
    # (params, jobs, override_cap) -> (ok, kind, parameters, payload, lines);
    # None runs the explorer sweep of the entry's name
    run: Callable | None = None
    mode: str | None = None    # the --mode value that selects this entry
    params: Callable = dict    # flag values -> the parameters `run` reads


# Keyed by the name a sweep certificate carries as parameters["sweep"]; f3 and
# sigma-fig2 write set certificates, which replay from their own data.  A
# sweep's certificate parameters are its keyword arguments, `params` of its
# flags, and replay checks them against `params` of the flags' types.
_SWEEPS = {
    name: entry if entry.run else entry._replace(run=partial(_run_sweep, name))
    for name, entry in {
        "f3": _Entry("f3", {}, lambda prm, jobs, cap: _verify_f3()),
        "sigma-fig2": _Entry("sigma-fig2", {}, lambda prm, jobs, cap: _verify_sigma_fig2()),
        "exhaustive_subset_sweep": _Entry("exhaustive", {"p": 2, "n": 2}),
        "classification_bundle": _Entry("classification", {}, _classification_bundle),
        "classify_hyperplane_fibers": _Entry("classification", {"p": 2, "n": 2}),
        "xi_line_sweep": _Entry("classification", {"p": 5}, mode="xi"),
        "search_sigma": _Entry(
            "sigma-search",
            {"p": 2, "n": 3, "mode": "exhaustive", "samples": None, "seed": None},
        ),
        "verify_collineation_lemma": _Entry(
            "collineation", {"p": 2, "n": 3},
            params=lambda flags: {"p": flags["p"], "n_dom": flags["n"], "n_cod": flags["n"]},
        ),
        "fundamental_sweep": _Entry("fundamental", {"p": 2, "n": 3}),
        "counting": _Entry("counting", {}, lambda prm, jobs, cap: _verify_counting()),
    }.items()
}

_VERIFY_FLAGS = {"p": int, "n": int, "mode": str, "samples": int, "seed": int}


def _verify_entry(args) -> tuple[_Entry, dict]:
    """The first entry for the target whose --mode selector matches and that
    reads every flag given, with the parameters those flags make."""
    given = {f: getattr(args, f) for f in _VERIFY_FLAGS if getattr(args, f) is not None}
    entries = [e for e in _SWEEPS.values() if e.target == args.what]
    for entry in entries:
        rest = dict(given)
        if entry.mode is not None and rest.pop("mode", None) != entry.mode:
            continue
        if rest.keys() <= entry.flags.keys():
            values = {**entry.flags, **rest}
            return entry, entry.params({k: v for k, v in values.items() if v is not None})
    forms = [
        " ".join(([f"--mode {e.mode}"] if e.mode else []) + [f"--{f}" for f in e.flags])
        or "no flags"
        for e in entries
    ]
    flags = " ".join(f"--{f} {v}" for f, v in given.items())
    raise ValueError(f"verify {args.what} does not take {flags}; it takes {' | '.join(forms)}")


def _sweep_entry(parameters: dict, path: str) -> tuple[_Entry, dict]:
    """The entry a sweep certificate names, and its parameters once checked
    against the entry: none missing, none extra, each of its type."""
    name = _expect(parameters, "sweep", str, path)
    entry = _SWEEPS.get(name)
    if entry is None:
        raise FileFormatError(f"{path}: certificate names unknown sweep {name!r}")
    params = {k: v for k, v in parameters.items() if k != "sweep"}
    schema = entry.params({f: _VERIFY_FLAGS[f] for f in entry.flags})
    extra = sorted(params.keys() - schema.keys())
    if extra:
        raise FileFormatError(f"{path}: sweep {name!r} takes no parameters {extra}")
    optional = {flag for flag, default in entry.flags.items() if default is None}
    for field, types in schema.items():
        if field in params or field not in optional:
            _expect(params, field, types, path)
    return entry, params


# ------------------------------------------------------------------ replay


def _vanishes(mat, coords, d1: int, d2: int, p: int) -> bool:
    """Whether a d1-by-d2 form matrix is zero on every coordinate pair; a
    pair outside the spans (coordinates None) fails the check."""
    if len(mat) != d1 or any(len(row) != d2 for row in mat):
        return False
    return all(
        xc is not None
        and yc is not None
        and sum(mat[i][j] * xc[i] * yc[j] for i in range(d1) for j in range(d2)) % p == 0
        for xc, yc in coords
    )


def _replay_set_certificate(cert: dict, path: str) -> tuple[bool, list]:
    parameters, payload = cert["parameters"], cert["payload"]
    # construction certificates carry (construction, p, n) parameters
    n1, n2 = ("n1", "n2") if "n1" in parameters else ("n", "n")
    a = set_from_document({
        "format_version": FORMAT_VERSION,
        "p": _expect(parameters, "p", int, path),
        "n1": _expect(parameters, n1, int, path),
        "n2": _expect(parameters, n2, int, path),
        "pairs": _expect(payload, "pairs", list, path),
    }, path)
    lines = []
    if cert["kind"] == "transverse_check":
        fresh = _transverse_payload(a)
        ok = _emit(lines, fresh == payload, "transversality payload reproduces")
        return ok, lines
    for field in ("w1", "w2", "ann_basis"):
        _expect(payload, field, list, path)
    verdict = is_bilinear(a)
    fresh = _set_payload(a, verdict)
    if "transverse" in payload:
        fresh["transverse"] = transversality_violation(a) is None
    ok = _emit(lines, canonical_json(fresh) == canonical_json(payload), "set payload reproduces")
    expected_kind = "bilinear" if verdict.status == "bilinear" else "non_bilinear"
    ok &= _emit(lines, cert["kind"] == expected_kind, f"kind matches fresh verdict {verdict.status}")
    if not ok:
        return ok, lines  # the stored spans and forms need not even be well formed
    # independent vanishing checks straight from the serialized data: the
    # forms act on RREF coordinates in the payload's own spans w1 and w2
    w1 = Subspace(a.p, a.n1, tuple(tuple(r) for r in payload["w1"]))
    w2 = Subspace(a.p, a.n2, tuple(tuple(r) for r in payload["w2"]))
    coords = [
        (w1.coords_of(VecP.from_index(x, a.p, a.n1)), w2.coords_of(VecP.from_index(y, a.p, a.n2)))
        for x, y in payload["pairs"]
    ]
    for mat in payload["ann_basis"]:
        ok &= _emit(lines, _vanishes(mat, coords, w1.dim, w2.dim, a.p),
                    "annihilator basis form vanishes on the set")
    if payload["witness"] is not None:
        x, y = payload["witness"]
        ok &= _emit(
            lines,
            verdict.closed.contains(x, y) and not a.contains(x, y),
            "witness pair lies in the closure but not the set",
        )
    return ok, lines


def _replay_sweep_certificate(cert: dict, args) -> tuple[bool, list]:
    entry, params = _sweep_entry(cert["parameters"], args.cert)
    _, kind, parameters, payload, _ = entry.run(params, args.jobs, args.override_cap)
    # the stored digest already matches the stored content, so equal digests
    # mean the run reproduced kind, parameters and payload
    fresh = make_certificate(kind, parameters, payload)
    lines = []
    ok = _emit(lines, fresh["digest"] == cert["digest"],
               f"{cert['parameters']['sweep']} payload reproduces")
    return ok, lines


# --------------------------------------------------------------- commands


# the flags each construction reads, with their defaults
_CONSTRUCT_FLAGS = {"f3": {}, "sigma-fig2": {}, "p-sigma": {"p": 2, "n": 3, "seed": None},
                    "p-xi": {"p": 2, "seed": None}}


def _cmd_construct(args) -> int:
    reads = _CONSTRUCT_FLAGS[args.what]
    given = {f: getattr(args, f) for f in ("p", "n", "seed")}
    extra = " ".join(f"--{f} {v}" for f, v in given.items() if v is not None and f not in reads)
    if extra:
        takes = " ".join(f"--{f}" for f in reads) or "no flags"
        raise ValueError(f"construct {args.what} does not take {extra}; it takes {takes}")
    p, n, seed = (reads.get(f) if v is None else v for f, v in given.items())
    if reads and seed is None:
        print("construct: this construction requires an explicit --seed", file=sys.stderr)
        return 2
    if args.what == "f3":
        a = f3_example()
    elif args.what == "sigma-fig2":
        a = build_P_sigma(sigma_fig2())
    elif args.what == "p-sigma":
        a = build_P_sigma(random_sigma(p, n, seed))
    else:  # p-xi: W = {0} inside F_p^2, the image line is the whole plane
        xi = random_sigma(p, 2, seed)
        a = build_P_xi(Subspace.zero(p, 2), Subspace.full(p, 2), xi)
    write_document(set_document(a), args.out)
    transverse = transversality_violation(a) is None
    print(f"wrote {args.out}: p={a.p} n1={a.n1} n2={a.n2} size={a.size} "
          f"transverse={'yes' if transverse else 'no'}")
    return 0


def _cmd_check(args) -> int:
    a = read_set(args.set)
    if args.what == "transverse":
        payload = _transverse_payload(a)
        cert, text = _certificate("transverse_check", _set_parameters(a), payload)
        verdict_ok = payload["transverse"] and payload["modes_agree"]
        print(f"size={a.size} transverse={'yes' if payload['transverse'] else 'no'}")
        if payload["violation"] is not None:
            print(f"violation: {payload['violation'][0]} at pair {payload['violation'][1]}")
    else:
        verdict = is_bilinear(a)
        payload = _set_payload(a, verdict)
        kind = "bilinear" if verdict.status == "bilinear" else "non_bilinear"
        cert, text = _certificate(kind, _set_parameters(a), payload)
        if args.what == "bilinear":
            verdict_ok = verdict.status == "bilinear"
            print(f"size={a.size} status={verdict.status} r1={verdict.r1} "
                  f"r2={verdict.r2} r3={verdict.r3}")
            if verdict.witness is not None:
                print(f"closure witness: {verdict.witness}")
        elif args.what == "ann":
            verdict_ok = True
            full = ann(a)
            print(f"annihilator dimension {full.dim} over the full ambient; "
                  f"{verdict.r3} over the projection spans")
            for mat in _form_matrices(full):
                print(f"  {mat}")
        else:  # closure
            verdict_ok = True
            print(f"closure size {verdict.closed.size} over spans of dims "
                  f"{verdict.w1.dim} x {verdict.w2.dim}; closed={verdict.closed.indicator == a.indicator}")
    if args.cert:
        write_document(cert, args.cert, text)
        print(f"certificate written to {args.cert}")
    return 0 if verdict_ok else 1


def _cmd_phi(args) -> int:
    a = read_set(args.set)
    image = phi(a, args.word)
    write_document(set_document(image), args.out)
    print(f"wrote {args.out}: size {a.size} -> {image.size} under word {args.word!r}")
    return 0


def _cmd_verify(args) -> int:
    entry, params = _verify_entry(args)
    ok, kind, parameters, payload, lines = entry.run(params, args.jobs, args.override_cap)
    cert, text = _certificate(kind, parameters, payload)
    for line in lines:
        print(line)
    print(f"{'VERIFIED' if ok else 'FAILED'} {args.what}")
    if args.cert:
        write_document(cert, args.cert, text)
        print(f"certificate written to {args.cert} (digest {cert['digest'][:16]}...)")
    return 0 if ok else 1


def _cmd_replay(args) -> int:
    cert = read_certificate(args.cert)
    if content_digest(cert) != cert["digest"]:
        print("FAILED replay: digest does not match the certificate content", file=sys.stderr)
        return 1
    if cert["kind"] == "sweep_report":
        ok, lines = _replay_sweep_certificate(cert, args)
    else:
        ok, lines = _replay_set_certificate(cert, args.cert)
    for line in lines:
        print(line)
    print(f"{'VERIFIED' if ok else 'FAILED'} replay of {cert['kind']}")
    return 0 if ok else 1


# ------------------------------------------------------------------ parser


def _resolve_jobs(jobs: int | None) -> int:
    """--jobs, else $TRANSVERSE_JOBS, else the CPU count.  A count below 1
    or a malformed variable is a usage error."""
    if jobs is not None:
        if jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {jobs}")
        return jobs
    env = os.environ.get(JOBS_ENV)
    if not env:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV} must be a positive integer, got {env!r}")
    return jobs


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use and then reused: parse_args returns a fresh
    namespace each call."""
    parser = argparse.ArgumentParser(
        prog="transverse",
        description="Exact computations with transverse and bilinear sets over F_p.",
    )
    parser.add_argument("--jobs", type=int,
                        help=f"most worker processes for a sweep large enough to start a "
                             f"pool (default: ${JOBS_ENV} or CPU count)")
    parser.add_argument("--override-cap", action="store_true",
                        help="lift the enumeration size guard")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named example set")
    c.add_argument("what", choices=["f3", "sigma-fig2", "p-sigma", "p-xi"])
    c.add_argument("--p", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--seed", type=int)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_construct)

    k = sub.add_parser("check", help="run a property check on a set file")
    k.add_argument("what", choices=["transverse", "bilinear", "ann", "closure"])
    k.add_argument("--set", required=True)
    k.add_argument("--cert")
    k.set_defaults(func=_cmd_check)

    f = sub.add_parser("phi", help="apply a word of vertical/horizontal operators")
    f.add_argument("--set", required=True)
    f.add_argument("--word", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=_cmd_phi)

    v = sub.add_parser("verify", help="run a named verification")
    v.add_argument("what", choices=list(dict.fromkeys(e.target for e in _SWEEPS.values())))
    for flag, kind in _VERIFY_FLAGS.items():
        v.add_argument(f"--{flag}", type=kind)
    v.add_argument("--cert")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("replay", help="re-verify a certificate from its own data")
    r.add_argument("--cert", required=True)
    r.set_defaults(func=_cmd_replay)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2
    try:
        args.jobs = _resolve_jobs(args.jobs)
        return args.func(args)
    except FileFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"enumeration cap: {exc} (use --override-cap to proceed)", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
