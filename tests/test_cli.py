"""File formats, certificate digests, and the command-line surface."""

import json
import math
import os
import shlex
import subprocess
import sys
import time

import pytest

from transverse import cli, fpcore
from transverse.cli import (
    FileFormatError,
    canonical_json,
    content_digest,
    make_certificate,
    read_certificate,
    read_set,
    run,
    set_document,
    set_from_document,
    write_document,
)
from transverse.constructions import build_P_sigma, f3_example, random_sigma
from transverse.detrng import SplitMix64
from transverse.pairsets import PairSet
from transverse.projgeom import pgl_order

from test_properties import SHAPES, random_pairset

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def test_canonical_json_is_stable():
    s = canonical_json({"b": 1, "a": [2, True, None]})
    assert s == '{"a":[2,true,null],"b":1}\n'
    # key order of the input never matters
    assert canonical_json({"a": [2, True, None], "b": 1}) == s


def test_set_document_roundtrip():
    a = f3_example()
    doc = set_document(a)
    assert doc["format_version"] == 1
    assert doc["pairs"] == sorted(doc["pairs"])
    b = set_from_document(doc)
    assert b.indicator == a.indicator


def test_set_validation_errors():
    good = {"format_version": 1, "p": 2, "n1": 2, "n2": 2, "pairs": [[0, 0], [1, 2]]}

    def broken(**kw):
        doc = dict(good)
        doc.update(kw)
        return doc

    with pytest.raises(FileFormatError, match="format_version"):
        set_from_document(broken(format_version=2))
    with pytest.raises(FileFormatError, match="prime"):
        set_from_document(broken(p=6))
    with pytest.raises(FileFormatError, match="positive"):
        set_from_document(broken(n1=0))
    with pytest.raises(FileFormatError, match="out of range"):
        set_from_document(broken(pairs=[[0, 0], [4, 0]]))
    with pytest.raises(FileFormatError, match="ascending"):
        set_from_document(broken(pairs=[[1, 2], [0, 0]]))
    with pytest.raises(FileFormatError, match="ascending"):
        set_from_document(broken(pairs=[[0, 0], [0, 0]]))
    with pytest.raises(FileFormatError, match="pair of integers"):
        set_from_document(broken(pairs=[[0, 0, 1]]))
    with pytest.raises(FileFormatError, match="missing field"):
        set_from_document({"format_version": 1, "p": 2, "n1": 2, "n2": 2})


@pytest.mark.parametrize("p,n1,n2", [(2, 1, 3), (2, 2, 2), (3, 2, 1), (3, 2, 2), (5, 1, 2)])
def test_read_set_is_from_pairs_on_the_same_pairs(p, n1, n2, tmp_path):
    # the reader builds the mask in its validation pass; from_pairs is the oracle
    rng = SplitMix64(p * 100 + n1 * 10 + n2)
    path = str(tmp_path / "s.json")
    for k in range(40):
        mask = 0
        for _ in range(k % 5 and rng.below(3 * p ** (n1 + n2))):  # every fifth set is empty
            mask |= 1 << rng.below(p ** (n1 + n2))
        doc = set_document(PairSet(p, n1, n2, mask))
        write_document(doc, path)
        assert read_set(path) == PairSet.from_pairs(p, n1, n2, doc["pairs"])


def test_a_full_document_reads_as_the_full_set():
    # 262,144 pairs: the reader and from_pairs set the bits of the indicator
    # in a bytearray and read it as one int
    full = PairSet.full(2, 9, 9)
    doc = set_document(full)
    assert set_from_document(doc) == full
    assert PairSet.from_pairs(2, 9, 9, doc["pairs"]) == full


def test_json_reader_refuses_duplicate_keys_and_non_ascii(tmp_path, capsys):
    src = str(tmp_path / "f3.json")
    cert = str(tmp_path / "f3.cert.json")
    assert run(["construct", "f3", "--out", src]) == 0
    assert run(["check", "transverse", "--set", src, "--cert", cert]) == 0
    capsys.readouterr()
    # json alone would keep the last "pairs" and read the empty set
    dup = tmp_path / "dup.json"
    dup.write_text('{"format_version":1,"n1":1,"n2":1,"p":2,"pairs":[[0,0]],"pairs":[]}\n')
    with pytest.raises(FileFormatError, match=f"{dup}: duplicate key 'pairs'"):
        read_set(str(dup))
    for argv, path in ((["check", "transverse", "--set"], src), (["replay", "--cert"], cert)):
        with open(path, encoding="ascii") as fh:
            text = fh.read()
        # a key repeated at the top level, and "p" repeated where it stands,
        # which in the certificate is inside "parameters"
        for edited, key in ((text.replace("{", '{"format_version":1,', 1), "format_version"),
                            (text.replace('"p":3', '"p":3,"p":3', 1), "p")):
            dup.write_text(edited)
            assert run(argv + [str(dup)]) == 2
            assert f"file format error: {dup}: duplicate key {key!r}" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.replace("{", '{"note":"\u00e9",', 1).encode("utf-8"))
        assert run(argv + [str(bad)]) == 2
        assert (f"file format error: {bad}: not ASCII (byte 0xc3 at position 9)"
                in capsys.readouterr().err)


def test_certificate_digest_detects_tampering():
    cert = make_certificate("transverse_check", {"p": 2}, {"size": 3})
    assert content_digest(cert) == cert["digest"]
    tampered = dict(cert)
    tampered["payload"] = {"size": 4}
    assert content_digest(tampered) != cert["digest"]


def test_cli_construct_and_check(tmp_path):
    out = str(tmp_path / "f3.json")
    assert run(["construct", "f3", "--out", out]) == 0
    a = read_set(out)
    assert a.size == 29
    # transversality holds (exit 0), bilinearity fails (exit 1)
    assert run(["check", "transverse", "--set", out]) == 0
    cert = str(tmp_path / "bl.json")
    assert run(["check", "bilinear", "--set", out, "--cert", cert]) == 1
    doc = read_certificate(cert)
    assert doc["kind"] == "non_bilinear"
    assert doc["payload"]["r3"] == 1
    assert doc["payload"]["witness"] == [4, 4]


def test_check_ann_closure_and_transversality_certificates(tmp_path, capsys):
    # check ann and check closure report on the set and exit 0, whatever
    # its verdict
    src = str(tmp_path / "f3.json")
    assert run(["construct", "f3", "--out", src]) == 0
    capsys.readouterr()
    assert run(["check", "ann", "--set", src]) == 0
    assert capsys.readouterr().out == ("annihilator dimension 1 over the full ambient; "
                                       "1 over the projection spans\n  [[1, 0], [0, 2]]\n")
    assert run(["check", "closure", "--set", src]) == 0
    assert capsys.readouterr().out == "closure size 33 over spans of dims 2 x 2; closed=False\n"
    # a transverse set and one whose fiber over 1 is not inside the fiber
    # over 0: check transverse names the violation, and replay re-derives
    # either certificate and refuses an edited one
    bad = str(tmp_path / "bad.json")
    write_document({"format_version": 1, "p": 2, "n1": 1, "n2": 1, "pairs": [[1, 0]]}, bad)
    violation = "violation: vertical fiber not contained in the fiber over 0 at pair [1, 0]\n"
    for path, code, shown in ((src, 0, "size=29 transverse=yes\ncert"),
                              (bad, 1, "size=1 transverse=no\n" + violation)):
        cert = str(tmp_path / "cert.json")
        assert run(["check", "transverse", "--set", path, "--cert", cert]) == code
        assert capsys.readouterr().out.startswith(shown)
        assert run(["replay", "--cert", cert]) == 0
        assert "VERIFIED replay of transverse_check" in capsys.readouterr().out
        doc = read_certificate(cert)
        doc["payload"]["transverse"] = not doc["payload"]["transverse"]
        doc["digest"] = content_digest(doc)
        write_document(doc, cert)
        assert run(["replay", "--cert", cert]) == 1
        assert "FAILED replay of transverse_check" in capsys.readouterr().out


def test_cli_phi_roundtrip(tmp_path):
    src = str(tmp_path / "in.json")
    dst = str(tmp_path / "out.json")
    assert run(["construct", "sigma-fig2", "--out", src]) == 0
    assert run(["phi", "--set", src, "--word", "HVH", "--out", dst]) == 0
    # transverse sets are fixed points of the operators
    assert read_set(dst).indicator == read_set(src).indicator
    assert run(["phi", "--set", src, "--word", "XY", "--out", dst]) == 2


def test_cli_verify_and_replay(tmp_path):
    cert = str(tmp_path / "f3.json")
    assert run(["verify", "f3", "--cert", cert]) == 0
    assert run(["replay", "--cert", cert]) == 0
    # flip one payload byte and re-digest: replay must fail verification
    doc = json.load(open(cert))
    doc["payload"]["closure_size"] = 34
    doc["digest"] = content_digest(doc)
    write_document(doc, cert)
    assert run(["replay", "--cert", cert]) == 1
    # tamper without fixing the digest: also caught
    doc["payload"]["closure_size"] = 35
    write_document(doc, cert)
    assert run(["replay", "--cert", cert]) == 1


def test_cli_usage_errors(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{}")
    assert run(["check", "transverse", "--set", bad]) == 2
    assert run(["check", "transverse", "--set", str(tmp_path / "missing.json")]) == 2
    assert run(["construct", "p-sigma", "--p", "2", "--n", "3",
                "--out", str(tmp_path / "x.json")]) == 2  # no seed
    assert run(["bogus"]) == 2
    assert run(["verify", "exhaustive", "--p", "3", "--n", "2"]) == 2  # over cap
    assert "use --override-cap" in capsys.readouterr().err
    # sizes a sweep cannot run at: a message, not a traceback
    for argv, message in [
        (["verify", "exhaustive", "--n", "-1"], "dimensions must be at least 1"),
        (["verify", "exhaustive", "--p", "4"], "p must be prime"),
        (["verify", "collineation", "--n", "0"], "dimensions must be at least 1"),
        (["verify", "sigma-search", "--mode", "samples", "--samples", "-1", "--seed", "1"],
         "samples must be at least 1"),
        (["--jobs", "1", "verify", "sigma-search", "--p", "2", "--n", "2", "--samples", "5",
          "--seed", "1"], "exhaustive mode takes no sample count or seed"),
        (["verify", "sigma-search", "--n", "2", "--mode", "exhaustive", "--samples", "0"],
         "exhaustive mode takes no sample count or seed"),
        (["verify", "sigma-search", "--n", "2", "--seed", "1"],
         "exhaustive mode takes no sample count or seed"),
    ]:
        assert run(argv) == 2
        assert message in capsys.readouterr().err


def test_cli_seeded_constructions(tmp_path):
    one = str(tmp_path / "a.json")
    two = str(tmp_path / "b.json")
    assert run(["construct", "p-sigma", "--p", "2", "--n", "3", "--seed", "7",
                "--out", one]) == 0
    assert run(["construct", "p-sigma", "--p", "2", "--n", "3", "--seed", "7",
                "--out", two]) == 0
    assert open(one).read() == open(two).read()
    assert run(["construct", "p-xi", "--p", "5", "--seed", "1", "--out", one]) == 0
    assert read_set(one).size == 145


@pytest.mark.parametrize("argv, flag", [
    (["construct", "f3", "--p", "5"], "--p 5"),
    (["construct", "sigma-fig2", "--n", "4"], "--n 4"),
    (["construct", "f3", "--seed", "1"], "--seed 1"),
    (["construct", "p-xi", "--n", "3", "--seed", "1"], "--n 3"),
])
def test_construct_rejects_flags_its_target_does_not_read(argv, flag, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert f"{argv[1]} does not take {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_main_exits_with_the_code_of_run(monkeypatch, capsys):
    for argv, code in ((["verify", "counting"], 0), (["construct", "f3"], 2),
                       (["verify", "f3", "--p", "7"], 2)):
        monkeypatch.setattr(sys, "argv", ["transverse"] + argv)
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
    assert "VERIFIED counting" in capsys.readouterr().out


@pytest.mark.parametrize("n", ["-1", "0"])
def test_construct_with_a_bad_dimension_is_a_usage_error(n, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert run(["construct", "p-sigma", "--p", "2", "--n", n, "--seed", "1",
                "--out", str(out)]) == 2
    assert "dimension must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_loads_only_the_standard_library():
    # a diff against the modules present at start-up, which .pth files may add to
    code = ("import sys; before = set(sys.modules); import transverse.cli; "
            "code = transverse.cli.run(['verify', 'counting']); "
            "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(new - set(sys.stdlib_module_names) - {'transverse', '__mp_main__'})); "
            "sys.exit(code)")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == "VERIFIED counting"
    assert lines[-1] == "[]"


def test_cli_verify_counting(tmp_path):
    cert = str(tmp_path / "counting.json")
    assert run(["verify", "counting", "--cert", cert]) == 0
    assert run(["replay", "--cert", cert]) == 0


def test_golden_certificates_verify():
    for name in os.listdir(GOLDEN):
        path = os.path.join(GOLDEN, name)
        doc = read_certificate(path)
        assert content_digest(doc) == doc["digest"], name
        # files are canonical: exact bytes reproduce from the parsed document
        with open(path, encoding="ascii") as fh:
            assert fh.read() == canonical_json(doc)


def test_golden_fast_replays():
    for name in ("f3.json", "sigma_fig2.json", "counting.json"):
        assert run(["replay", "--cert", os.path.join(GOLDEN, name)]) == 0


def test_jobs_flag_does_not_change_bytes(tmp_path):
    one = str(tmp_path / "j1.json")
    four = str(tmp_path / "j4.json")
    base = ["verify", "classification", "--p", "2", "--n", "2"]
    assert run(["--jobs", "1"] + base + ["--cert", one]) == 0
    assert run(["--jobs", "4"] + base + ["--cert", four]) == 0
    assert open(one).read() == open(four).read()


def test_replay_bilinear_certificate_in_proper_spans(tmp_path):
    # both projection spans are proper subspaces of F_2^3, so the stored
    # forms are in W-coordinates, not ambient ones
    src = str(tmp_path / "set.json")
    cert = str(tmp_path / "bl.json")
    write_document({"format_version": 1, "p": 2, "n1": 3, "n2": 3,
                    "pairs": [[3, 1], [7, 2]]}, src)
    assert run(["check", "bilinear", "--set", src, "--cert", cert]) == 1
    payload = read_certificate(cert)["payload"]
    assert len(payload["w1"]) == 2 and len(payload["w2"]) == 2
    assert payload["r3"] == len(payload["ann_basis"]) == 2
    assert run(["replay", "--cert", cert]) == 0


def test_bad_job_counts_are_usage_errors(monkeypatch, capsys):
    assert run(["--jobs", "0", "verify", "f3"]) == 2
    assert "--jobs" in capsys.readouterr().err
    assert run(["--jobs", "-3", "verify", "f3"]) == 2
    monkeypatch.setenv("TRANSVERSE_JOBS", "four")
    assert run(["verify", "f3"]) == 2
    assert "TRANSVERSE_JOBS" in capsys.readouterr().err
    monkeypatch.setenv("TRANSVERSE_JOBS", "0")
    assert run(["verify", "f3"]) == 2
    # an explicit --jobs takes precedence over the environment
    assert run(["--jobs", "1", "verify", "f3"]) == 0


# ------------------------------------------------------- the sweep table

README = os.path.join(os.path.dirname(__file__), "..", "README.md")

# one verify call per entry of the sweep table, at small sizes, with the
# entry its certificate must name
ROUND_TRIPS = [
    ("f3", ["verify", "f3"]),
    ("sigma-fig2", ["verify", "sigma-fig2"]),
    ("exhaustive_subset_sweep", ["verify", "exhaustive", "--p", "2", "--n", "1"]),
    ("classify_hyperplane_fibers", ["verify", "classification", "--p", "2", "--n", "2"]),
    ("xi_line_sweep", ["verify", "classification", "--p", "3", "--mode", "xi"]),
    ("classification_bundle", ["verify", "classification"]),
    ("search_sigma", ["verify", "sigma-search", "--p", "2", "--n", "2"]),
    ("search_sigma", ["verify", "sigma-search", "--p", "2", "--n", "2",
                      "--mode", "samples", "--samples", "5", "--seed", "4"]),
    ("verify_collineation_lemma", ["verify", "collineation", "--p", "2", "--n", "2"]),
    ("fundamental_sweep", ["verify", "fundamental", "--p", "2", "--n", "3"]),
    ("counting", ["verify", "counting"]),
]


def _write_cert(path, kind, parameters, payload):
    write_document(make_certificate(kind, parameters, payload), path)
    return path


def test_round_trips_cover_the_table():
    assert {name for name, _ in ROUND_TRIPS} == set(cli._SWEEPS)


@pytest.mark.parametrize("name,argv", ROUND_TRIPS, ids=[" ".join(a[1:]) for _, a in ROUND_TRIPS])
def test_verify_then_replay(name, argv, tmp_path, capsys):
    cert = str(tmp_path / "cert.json")
    assert run(["--jobs", "1"] + argv + ["--cert", cert]) == 0
    parameters = read_certificate(cert)["parameters"]
    assert parameters.get("sweep", parameters.get("construction")) == name
    capsys.readouterr()
    assert run(["--jobs", "2", "replay", "--cert", cert]) == 0
    assert "VERIFIED replay" in capsys.readouterr().out


def test_golden_sweep_reports_name_table_entries():
    for name in os.listdir(GOLDEN):
        doc = read_certificate(os.path.join(GOLDEN, name))
        if doc["kind"] == "sweep_report":
            entry, params = cli._sweep_entry(doc["parameters"], name)
            assert entry is cli._SWEEPS[doc["parameters"]["sweep"]]


def test_replay_honours_override_cap(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(fpcore, "DEFAULT_ENUMERATION_CAP", 10)
    cert = str(tmp_path / "col.json")
    # (2,2): 3^3 = 27 total maps, over the cap of 10
    assert run(["verify", "collineation", "--p", "2", "--n", "2"]) == 2
    assert run(["--override-cap", "verify", "collineation", "--p", "2", "--n", "2",
                "--cert", cert]) == 0
    assert run(["--override-cap", "replay", "--cert", cert]) == 0
    capsys.readouterr()
    assert run(["replay", "--cert", cert]) == 2
    assert "enumeration cap" in capsys.readouterr().err


@pytest.mark.parametrize("p, n, jobs", [(3, 3, ("1", "2")), (2, 4, ("2",))])
def test_fundamental_sweep_reaches_past_the_fano_plane(p, n, jobs, tmp_path, capsys):
    # 13! and 15! permutations are past the cap, but the fiber-map DFS
    # visits only the line-preserving maps, so the override runs in seconds
    base = ["verify", "fundamental", "--p", str(p), "--n", str(n)]
    assert run(base) == 2
    assert "use --override-cap" in capsys.readouterr().err
    certs = []
    for j in jobs:
        cert = tmp_path / f"jobs{j}.json"
        assert run(["--jobs", j, "--override-cap"] + base + ["--cert", str(cert)]) == 0
        certs.append(cert.read_bytes())
    assert all(c == certs[0] for c in certs)
    counts = json.loads(certs[0])["payload"]["counts"]
    assert counts["permutations"] == math.factorial((p**n - 1) // (p - 1))
    assert counts["line_preserving"] == counts["projective"] == pgl_order(p, n)
    assert counts["violations"] == 0


def test_override_cap_lifts_the_powerset_limit(monkeypatch):
    # the advice printed with a CapExceeded is true for the powerset sweep too;
    # a stub stands in for the (3,2) sweep and runs the (2,1) one
    seen = []
    real = cli.explorer.exhaustive_subset_sweep

    def stub(p, n, jobs, override_cap):
        seen.append(override_cap)
        return real(2, 1, jobs=1)

    monkeypatch.setattr(cli.explorer, "exhaustive_subset_sweep", stub)
    assert run(["--override-cap", "verify", "exhaustive", "--p", "3", "--n", "2"]) == 0
    assert seen == [True]


@pytest.mark.parametrize("flags", [[], ["--override-cap"]])
def test_table_limit_is_a_usage_error(flags, tmp_path, capsys):
    # F_2^13 passes the 4,096-vector table limit, which no flag lifts: exit
    # 2 with or without --override-cap, and no advice to pass it
    out = str(tmp_path / "big.json")
    assert run(flags + ["construct", "p-sigma", "--p", "2", "--n", "13", "--seed", "1",
                        "--out", out]) == 2
    err = capsys.readouterr().err
    assert "table limit of 4096" in err
    assert "--override-cap" not in err
    assert not os.path.exists(out)


HUGE_PRIME = 1000000000000000003


@pytest.mark.parametrize("flags", [[], ["--override-cap"]])
@pytest.mark.parametrize("shape,shown", [
    ({"p": HUGE_PRIME, "n1": 1, "n2": 1}, f"F_{HUGE_PRIME}^1 has {HUGE_PRIME} vectors"),
    ({"p": 2, "n1": 3000000000, "n2": 1}, "F_2^3000000000 has at least 2**3000000000 vectors"),
    ({"p": 2, "n1": 1, "n2": 40}, "F_2^40 has 1099511627776 vectors"),
])
def test_set_files_past_the_table_limit_are_refused_at_once(shape, shown, flags, tmp_path,
                                                            capsys):
    # sized from bit lengths before the primality check or any p**n: no
    # trial division of a huge p, no 2**3000000000, and no cap advice
    path = str(tmp_path / "big.json")
    with open(path, "w") as fh:
        json.dump({"format_version": 1, **shape, "pairs": []}, fh)
    start = time.perf_counter()
    assert run(flags + ["check", "transverse", "--set", path]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"{shown}, past the table limit of 4096" in err
    assert "--override-cap" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "collineation", "--p", str(HUGE_PRIME), "--n", "1"],
    ["construct", "p-sigma", "--p", str(HUGE_PRIME), "--n", "1", "--seed", "1"],
])
def test_a_huge_prime_is_refused_at_once(argv, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    start = time.perf_counter()
    assert run(argv + (["--out", out] if argv[0] == "construct" else [])) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert f"F_{HUGE_PRIME}^1 has {HUGE_PRIME} vectors, past the table limit of 4096" in err
    assert "--override-cap" not in err
    assert not os.path.exists(out)


def test_pair_list_is_the_sorted_pair_indices():
    # on the property suite's random sets, P_sigma sets and empty sets
    rng = SplitMix64(116)
    sets = [PairSet.empty(p, n, n) for p, n in SHAPES] + [PairSet.empty(2, 1, 3)]
    for k in range(300):
        p, n = SHAPES[k % 3]
        sets.append(random_pairset(rng, p, n, 16))
    sets += [build_P_sigma(random_sigma(p, n, seed)) for p, n in SHAPES for seed in range(5)]
    sets += [PairSet(2, 1, 3, rng.below(1 << 16)), PairSet(3, 2, 1, rng.below(1 << 27))]
    for a in sets:
        assert cli._pair_list(a) == [list(q) for q in sorted(a.pair_indices())]


def test_parser_is_built_once_and_parses_afresh():
    assert cli._build_parser() is cli._build_parser()
    one = cli._build_parser().parse_args(["verify", "exhaustive", "--p", "3"])
    two = cli._build_parser().parse_args(["check", "bilinear", "--set", "s.json"])
    three = cli._build_parser().parse_args(["verify", "f3"])
    assert (one.what, one.p, one.n) == ("exhaustive", 3, None)
    assert (two.command, two.what, two.set, two.cert) == ("check", "bilinear", "s.json", None)
    assert (three.what, three.p, three.cert) == ("f3", None, None)


@pytest.mark.parametrize("parameters,message", [
    ({"sweep": "exhaustive_subset_sweep"}, "missing field 'p'"),
    ({"sweep": "exhaustive_subset_sweep", "p": "5", "n": 1}, "'p' has the wrong type"),
    ({"sweep": "exhaustive_subset_sweep", "p": True, "n": 1}, "'p' has the wrong type"),
    ({"sweep": "exhaustive_subset_sweep", "p": 2, "n": 1, "jobs": 4}, "takes no parameters"),
    ({"sweep": "search_sigma", "p": 2, "n": 2, "mode": 1}, "'mode' has the wrong type"),
    ({"sweep": "verify_collineation_lemma", "p": 2, "n_dom": 2}, "missing field 'n_cod'"),
    ({"sweep": "verify_collineation_lemma", "p": 2, "n": 2}, "takes no parameters ['n']"),
    ({"sweep": "no_such_sweep"}, "unknown sweep"),
    ({"sweep": ["counting"]}, "'sweep' has the wrong type"),
    ({}, "missing field 'sweep'"),
    ({"sweep": "exhaustive_subset_sweep", "p": 2, "n": 0}, "dimensions must be at least 1"),
    ({"sweep": "verify_collineation_lemma", "p": 4, "n_dom": 2, "n_cod": 2}, "p must be prime"),
    ({"sweep": "search_sigma", "p": 2, "n": 3, "mode": "samples", "samples": 0, "seed": 1},
     "samples must be at least 1"),
    ({"sweep": "search_sigma", "p": 2, "n": 2, "mode": "exhaustive", "samples": 5, "seed": 1},
     "exhaustive mode takes no sample count or seed"),
])
def test_malformed_sweep_certificate_is_a_usage_error(parameters, message, tmp_path, capsys):
    cert = _write_cert(str(tmp_path / "c.json"), "sweep_report", parameters, {})
    assert run(["replay", "--cert", cert]) == 2
    assert message in capsys.readouterr().err


def test_malformed_set_certificate_is_a_usage_error(tmp_path, capsys):
    src = str(tmp_path / "f3.json")
    cert = str(tmp_path / "bl.json")
    assert run(["construct", "f3", "--out", src]) == 0
    assert run(["check", "bilinear", "--set", src, "--cert", cert]) == 1
    doc = read_certificate(cert)
    for field in ("pairs", "w1", "w2", "ann_basis"):
        payload = {k: v for k, v in doc["payload"].items() if k != field}
        broken = _write_cert(str(tmp_path / f"no_{field}.json"), doc["kind"],
                             doc["parameters"], payload)
        assert run(["replay", "--cert", broken]) == 2
        assert f"missing field '{field}'" in capsys.readouterr().err
    payload = dict(doc["payload"], w1=[5])  # malformed rows: the payload cannot reproduce
    broken = _write_cert(str(tmp_path / "rows.json"), doc["kind"], doc["parameters"], payload)
    assert run(["replay", "--cert", broken]) == 1
    payload = dict(doc["payload"], pairs=[[0, 0], ["x", 1]])
    broken = _write_cert(str(tmp_path / "pairs.json"), doc["kind"], doc["parameters"], payload)
    assert run(["replay", "--cert", broken]) == 2
    broken = _write_cert(str(tmp_path / "p.json"), doc["kind"],
                         dict(doc["parameters"], p="3"), doc["payload"])
    assert run(["replay", "--cert", broken]) == 2


def test_verify_rejects_flags_its_target_does_not_read(tmp_path, capsys):
    assert run(["verify", "f3", "--p", "7"]) == 2
    assert "does not take --p 7" in capsys.readouterr().err
    assert run(["verify", "exhaustive", "--mode", "bogus"]) == 2
    assert run(["verify", "counting", "--seed", "1"]) == 2
    assert run(["verify", "classification", "--mode", "xi", "--n", "2"]) == 2
    assert run(["verify", "classification", "--p", "3", "--samples", "4"]) == 2


def test_mode_xi_selects_the_xi_sweep_at_any_p(tmp_path, capsys):
    cert = str(tmp_path / "xi3.json")
    assert run(["verify", "classification", "--p", "3", "--mode", "xi", "--cert", cert]) == 0
    assert read_certificate(cert)["parameters"] == {"sweep": "xi_line_sweep", "p": 3}
    capsys.readouterr()
    assert run(["replay", "--cert", cert]) == 0
    assert "VERIFIED replay" in capsys.readouterr().out


def test_readme_command_lines_parse():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("transverse ")]
    assert len(lines) >= 5
    parser = cli._build_parser()
    parsed = [parser.parse_args(shlex.split(line)[1:]) for line in lines]
    for args in parsed:
        if args.command == "verify":
            cli._verify_entry(args)  # every flag is one its target reads


@pytest.mark.parametrize("argv", [
    ["verify", "collineation", "--p", "2", "--n", "12"],
    ["verify", "collineation", "--p", "2", "--n", "20"],
    ["verify", "sigma-search", "--p", "2", "--n", "14"],
    ["verify", "sigma-search", "--p", "2", "--n", "20"],
    ["verify", "sigma-search", "--p", "2", "--n", "20000"],
    ["verify", "fundamental", "--p", "2", "--n", "20"],
    ["verify", "fundamental", "--p", "2", "--n", "20000"],
    ["verify", "classification", "--mode", "xi", "--p", "997"],
    ["verify", "sigma-search", "--mode", "samples", "--samples", str((1 << 26) + 1),
     "--seed", "1"],
])
def test_huge_counts_get_the_cap_advice_at_once(argv, capsys):
    # counts past 4,300 digits cannot be printed, and building 1048575! takes
    # seconds: the cap is decided without either
    start = time.perf_counter()
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "use --override-cap" in capsys.readouterr().err
