"""File formats, certificate digests, and the command-line surface."""

import json
import os

import pytest

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
from transverse.constructions import f3_example

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


def test_cli_usage_errors(tmp_path):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write("{}")
    assert run(["check", "transverse", "--set", bad]) == 2
    assert run(["check", "transverse", "--set", str(tmp_path / "missing.json")]) == 2
    assert run(["construct", "p-sigma", "--p", "2", "--n", "3",
                "--out", str(tmp_path / "x.json")]) == 2  # no seed
    assert run(["bogus"]) == 2
    assert run(["verify", "exhaustive", "--p", "3", "--n", "2"]) == 2  # over cap


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
