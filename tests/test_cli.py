import hashlib
import json
import os
import subprocess
import sys
from unittest import mock

import pytest

from gqdesigns import cli
from gqdesigns.correspondence import check_regular_traces, design_from_ovoid
from gqdesigns.fileformats import (
    parse_design,
    parse_incidence,
    parse_lrs,
    parse_ovoid,
    write_design,
    write_incidence,
    write_lrs,
    write_ovoid,
)
from gqdesigns.structures import DesignParams, GQParams, verify_bibd, verify_gq

from conftest import FANO_BLOCKS, _w2, _w2_ovoids, child_env


def run(*args, cwd, input=None):
    proc = subprocess.run([sys.executable, "-m", "gqdesigns.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env(), input=input)
    return proc


def report_of(proc) -> dict:
    out = {}
    for row in proc.stdout.splitlines():
        key, _, value = row.partition(": ")
        out[key] = value
    return out


@pytest.fixture
def w2_file(tmp_path):
    proc = run("construct", "--family", "W", "--q", "2", "--out", "w2.inc",
               cwd=tmp_path)
    assert proc.returncode == 0
    return tmp_path / "w2.inc"


# ---------------------------------------------------------
# construct / verify
# ---------------------------------------------------------

def test_construct_writes_a_verified_quadrangle(w2_file, tmp_path):
    s = parse_incidence(w2_file.read_text())
    assert verify_gq(s) == GQParams(2, 2)
    proc = run("verify", "gq", "w2.inc", cwd=tmp_path)
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["verified"] == "true"
    assert rep["params.s"] == "2"


def test_construct_families(tmp_path):
    for fam, q, kind in [("Q4", "2", "inc"), ("H3", "2", "inc"),
                         ("AG", "4", "design")]:
        proc = run("construct", "--family", fam, "--q", q, "--out", "f.out",
                   cwd=tmp_path)
        assert proc.returncode == 0
        head = (tmp_path / "f.out").read_text().split()[0]
        assert head == kind


def test_construct_sprott_with_system(tmp_path):
    proc = run("construct", "--family", "sprott", "--q", "4", "--lambda", "6",
               "--with-lrs", "--out", "s.design", "--lrs-out", "s.lrs",
               cwd=tmp_path)
    assert proc.returncode == 0
    d = parse_design((tmp_path / "s.design").read_text())
    assert verify_bibd(d) == DesignParams(16, 48, 18, 6, 6)
    proc = run("verify", "ntlrs", "s.design", "s.lrs", cwd=tmp_path)
    assert proc.returncode == 0
    assert report_of(proc)["non_triangular"] == "true"


def test_construct_usage_errors(tmp_path):
    cases = [
        ("construct", "--family", "sprott", "--q", "16"),          # no lambda
        ("construct", "--family", "W", "--q", "6", "--out", "x"),  # not a prime power
        ("construct", "--family", "W", "--q", "2"),                # no --out
        ("construct", "--family", "AG", "--q", "3", "--lambda", "2",
         "--out", "x"),                                            # stray lambda
        ("construct", "--family", "sprott", "--q", "4", "--lambda", "5",
         "--with-lrs", "--out", "x", "--lrs-out", "y"),            # wrong lambda
        ("construct", "--family", "W", "--q", "2", "--out", "x",
         "--lrs-out", "y"),                                        # stray --lrs-out
        ("construct", "--family", "sprott", "--q", "9", "--lambda", "3",
         "--out", "x", "--lrs-out", "y"),                          # no --with-lrs
        ("construct", "--family", "sprott", "--q", "9", "--lambda", "1",
         "--out", "x"),                                            # lambda < 2
        ("construct", "--family", "sprott", "--q", "9", "--lambda", "9",
         "--out", "x"),                                            # lambda >= q
        ("construct", "--family", "sprott", "--q", "16", "--lambda", "5",
         "--out", "x"),                                            # 4 does not divide 15
        ("construct", "--family", "H3", "--q", "257", "--out", "x"),  # GF(257^2) too large
    ]
    for args in cases:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stderr
        assert not proc.stdout, args
        assert not list(tmp_path.iterdir()), args


def test_verify_failure_gives_exit_one(tmp_path):
    lines = "\n".join(" ".join(map(str, b)) for b in FANO_BLOCKS)
    (tmp_path / "fano.inc").write_text(f"inc 7 7\n{lines}\n")
    proc = run("verify", "gq", "fano.inc", cwd=tmp_path)
    assert proc.returncode == 1
    rep = report_of(proc)
    assert rep["verified"] == "false"
    assert rep["failure"] == "GQAxiomError"


def test_malformed_file_gives_exit_two(tmp_path):
    (tmp_path / "bad.inc").write_text("inc 3 1\n0 x\n")
    proc = run("verify", "gq", "bad.inc", cwd=tmp_path)
    assert proc.returncode == 2
    assert "bad.inc:2" in proc.stderr
    # a class that names an instance twice would not write back as read
    (tmp_path / "x.design").write_text("design 2 1\n0 1\n")
    (tmp_path / "x.lrs").write_text("lrs 2\npoint 0\nclass 0 0\npoint 1\nclass 0\n")
    proc = run("verify", "lrs", "x.design", "x.lrs", cwd=tmp_path)
    assert proc.returncode == 2
    assert not proc.stdout
    assert "x.lrs:3:1: point 0, class 0 repeats an instance" in proc.stderr


def test_input_digest_is_of_the_file_bytes(w2_file, tmp_path):
    # the parsers read LF text whatever the file's newlines; the digest is
    # that of the bytes on disk, as sha256sum prints it
    lf = w2_file.read_bytes()
    reports = []
    for name, newline in (("w2.inc", b"\n"), ("crlf.inc", b"\r\n"), ("cr.inc", b"\r")):
        data = lf.replace(b"\n", newline)
        (tmp_path / name).write_bytes(data)
        proc = run("verify", "gq", name, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        rep = report_of(proc)
        assert rep.pop(f"input.{name}.sha256") == hashlib.sha256(data).hexdigest()
        del rep["elapsed_seconds"]
        reports.append(rep)
    assert reports[0]["verified"] == "true"
    assert reports[1] == reports[2] == reports[0]
    (tmp_path / "tiny.inc").write_bytes(b"inc 3 1\r\n0 1 2\r\n")
    rep = report_of(run("verify", "gq", "tiny.inc", cwd=tmp_path))
    assert rep["input.tiny.inc.sha256"] == \
        "b93d8cd420ea679197d889991fa459eed44cc1a35e801fbd50348e1ebacf9626"


def test_a_file_named_twice_is_reported_once(w2_file, tmp_path):
    run("ovoids", "w2.inc", "--limit", "1", "--out", "ov", cwd=tmp_path)
    # the traces in W(2) about its ovoids are not regular, so prop32 exits 1
    for args, code in ((("iso", "w2.inc", "w2.inc"), 0),
                       (("prop32", "w2.inc", "ov0.ovoid", "ov0.ovoid"), 1)):
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == code, proc.stderr
        keys = [row.partition(": ")[0] for row in proc.stdout.splitlines()]
        assert len(keys) == len(set(keys)), keys
        assert "input.w2.inc.sha256" in keys


def test_prop32_checks_an_ovoid_named_twice_once(w2_file, tmp_path, monkeypatch, capsys):
    run("ovoids", "w2.inc", "--limit", "1", "--out", "ov", cwd=tmp_path)
    monkeypatch.chdir(tmp_path)
    with mock.patch("gqdesigns.correspondence.check_regular_traces",
                    wraps=check_regular_traces) as check:
        code = cli.main(["prop32", "w2.inc", "ov0.ovoid", "ov0.ovoid"])
    assert code == 1 and check.call_count == 1
    rep = dict(row.split(": ", 1) for row in capsys.readouterr().out.splitlines())
    assert rep["ovoid0.regular_traces"] == rep["ovoid1.regular_traces"] == "false"
    for key in ("witnesses", "blocks_replicated", "blocks_are_traces"):
        assert rep[f"ovoid0.{key}"] == rep[f"ovoid1.{key}"]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_a_pipe_named_twice_is_read_once(w2_file, tmp_path):
    # a second open of the pipe would read nothing
    proc = run("iso", "/dev/stdin", "/dev/stdin", cwd=tmp_path,
               input=w2_file.read_text())
    assert proc.returncode == 0, proc.stderr
    assert report_of(proc)["isomorphic"] == "true"


def test_non_utf8_file_gives_exit_two(w2_file, tmp_path):
    (tmp_path / "bad.inc").write_bytes(b"inc 3 1\n0 \xff 2\n")
    for args in (("verify", "gq", "bad.inc"), ("canon", "bad.inc"),
                 ("verify", "ovoid", "w2.inc", "bad.inc")):
        proc = run(*args, "--report", "rep.txt", cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert "bad.inc:2:3: not UTF-8 text: byte 0xff" in proc.stderr, args
        assert not (tmp_path / "rep.txt").exists(), args


def test_negative_ovoid_index_gives_exit_two(w2_file, tmp_path):
    # a malformed file, not a set that fails as an ovoid or as marks
    (tmp_path / "neg.ovoid").write_text("ovoid 2\n0 -1\n")
    for args in (("verify", "ovoid", "w2.inc", "neg.ovoid"),
                 ("canon", "w2.inc", "--ovoid", "neg.ovoid"),
                 ("roundtrip", "gq", "w2.inc", "neg.ovoid")):
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert "neg.ovoid:2:3: ovoid point -1 is negative" in proc.stderr, args


def test_missing_file_gives_exit_two(tmp_path):
    proc = run("verify", "gq", "nope.inc", cwd=tmp_path)
    assert proc.returncode == 2


# ---------------------------------------------------------
# searches and maps
# ---------------------------------------------------------

def test_ovoid_search_writes_files(w2_file, tmp_path):
    proc = run("ovoids", "w2.inc", "--out", "ov", cwd=tmp_path)
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["found"] == "6"
    assert rep["exhausted"] == "true"
    for i in range(6):
        o = parse_ovoid((tmp_path / f"ov{i}.ovoid").read_text())
        assert len(o) == 5


def test_full_map_cycle(w2_file, tmp_path):
    run("ovoids", "w2.inc", "--out", "ov", cwd=tmp_path)
    proc = run("map-n", "w2.inc", "ov0.ovoid", "--design-out", "d.design",
               "--lrs-out", "d.lrs", cwd=tmp_path)
    assert proc.returncode == 0
    assert report_of(proc)["params.v"] == "5"
    proc = run("map-m", "d.design", "d.lrs", "--inc-out", "back.inc",
               "--ovoid-out", "back.ovoid", cwd=tmp_path)
    assert proc.returncode == 0
    assert report_of(proc)["params.s"] == "2"
    for direction, a, b in [("gq", "w2.inc", "ov0.ovoid"),
                            ("design", "d.design", "d.lrs")]:
        proc = run("roundtrip", direction, a, b, cwd=tmp_path)
        assert proc.returncode == 0
        assert report_of(proc)["roundtrip"] == "true"


def test_ntlrs_search_and_budget(tmp_path):
    run("construct", "--family", "sprott", "--q", "16", "--lambda", "6",
        "--out", "s.design", cwd=tmp_path)
    proc = run("ntlrs", "s.design", "--out", "sys", cwd=tmp_path)
    assert proc.returncode == 0
    system = parse_lrs((tmp_path / "sys0.lrs").read_text())
    assert system.point_count == 16
    # searching a design with no system exhausts with exit 1
    lines = "\n".join(" ".join(map(str, b)) for b in FANO_BLOCKS)
    (tmp_path / "fano.design").write_text(f"design 7 7\n{lines}\n")
    proc = run("ntlrs", "fano.design", cwd=tmp_path)
    assert proc.returncode == 1
    assert report_of(proc)["exhausted"] == "true"


def test_ntlrs_on_the_paper_design(tmp_path):
    # v = 64 with 448 instances: a search nesting one point inside the
    # previous one ran out of interpreter stack and exited 1 with no report
    proc = run("construct", "--family", "sprott", "--q", "8", "--lambda", "10",
               "--with-lrs", "--out", "s8.design", "--lrs-out", "s8.lrs",
               cwd=tmp_path)
    assert proc.returncode == 0
    proc = run("ntlrs", "s8.design", "--out", "found", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rep = report_of(proc)
    assert rep["found"] == "1"
    assert rep["nodes"] == "4604"
    assert (parse_lrs((tmp_path / "found0.lrs").read_text())
            == parse_lrs((tmp_path / "s8.lrs").read_text()))


def test_bad_search_arguments_are_usage_errors(w2_file, tmp_path):
    cases = [
        (("ovoids", "w2.inc", "--limit", "-1"), "--limit"),
        (("ntlrs", "w2.inc", "--limit", "-2"), "--limit"),
        (("ovoids", "w2.inc", "--budget", "-5"), "--budget"),
        (("ovoids", "w2.inc", "--budget", "nan"), "--budget"),
        (("ovoids", "w2.inc", "--budget", "inf"), "--budget"),
        (("canon", "w2.inc", "--budget", "-1"), "--budget"),
    ]
    for args, option in cases:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert f"argument {option}" in proc.stderr, args
    # the bounds themselves are accepted
    proc = run("ovoids", "w2.inc", "--limit", "0", cwd=tmp_path)
    assert proc.returncode == 0
    assert report_of(proc)["found"] == "6"
    proc = run("ovoids", "w2.inc", "--budget", "0", cwd=tmp_path)
    assert proc.returncode in (0, 3)
    assert report_of(proc)["command"] == "ovoids"


def test_zero_budget_cuts_a_short_search(w2_file, tmp_path):
    # W(2) is exhausted in 28 nodes; the clock is read at the first one
    proc = run("ovoids", "w2.inc", "--budget", "0", cwd=tmp_path)
    assert proc.returncode == 3
    rep = report_of(proc)
    assert rep["budget_exceeded"] == "true"
    assert rep["found"] == "0"
    assert rep["nodes"] == "1"


def test_budget_exhaustion_gives_exit_three(tmp_path):
    proc = run("construct", "--family", "W", "--q", "5", "--out", "w5.inc",
               cwd=tmp_path)
    assert proc.returncode == 0
    proc = run("ovoids", "w5.inc", "--budget", "1e-7", cwd=tmp_path)
    assert proc.returncode == 3
    rep = report_of(proc)
    assert rep["budget_exceeded"] == "true"
    assert rep["found"] == "0"


def test_budget_bounds_canon_and_iso(tmp_path):
    run("construct", "--family", "W", "--q", "3", "--out", "w3.inc",
        cwd=tmp_path)
    for args in (("canon", "w3.inc"), ("iso", "w3.inc", "w3.inc")):
        proc = run(*args, "--budget", "1e-7", cwd=tmp_path)
        assert proc.returncode == 3, args
        rep = report_of(proc)
        assert rep["budget_exceeded"] == "true"
        assert int(rep["nodes"]) >= 1
        assert "digest" not in rep and "isomorphic" not in rep


# ---------------------------------------------------------
# canon / iso / prop32 / replicated / dual / payne
# ---------------------------------------------------------

def test_canon_digests_agree_for_isomorphic_inputs(w2_file, tmp_path):
    run("dual", "w2.inc", "--out", "dw2.inc", cwd=tmp_path)
    a = report_of(run("canon", "w2.inc", cwd=tmp_path))
    b = report_of(run("canon", "dw2.inc", cwd=tmp_path))
    assert a["digest"] == b["digest"]
    assert len(a["digest"]) == 64
    keys = list(a)
    at = keys.index("digest")
    assert keys[at:at + 4] == ["digest", "nodes", "leaves", "generators"]
    proc = run("iso", "w2.inc", "dw2.inc", cwd=tmp_path)
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["isomorphic"] == "true"
    assert int(rep["leaves"]) == int(a["leaves"]) + int(b["leaves"])


def test_canon_and_iso_report_refinements(w2_file, tmp_path):
    a = report_of(run("canon", "w2.inc", cwd=tmp_path))
    proc = run("iso", "w2.inc", "w2.inc", cwd=tmp_path)
    assert proc.returncode == 0
    b = report_of(proc)
    for rep in (a, b):
        keys = list(rep)
        at = keys.index("nodes")
        assert keys[at:at + 3] == ["nodes", "leaves", "generators"]
        assert "refines" not in rep
    # the search enters each node after refining its partition once, so
    # nodes also counts the refinements
    assert int(a["nodes"]) == 14
    assert int(b["nodes"]) == 2 * int(a["nodes"])


def test_canon_and_iso_report_refinement_work(w2_file, tmp_path):
    run("dual", "w2.inc", "--out", "dw2.inc", cwd=tmp_path)
    a = report_of(run("canon", "w2.inc", cwd=tmp_path))
    b = report_of(run("canon", "dw2.inc", cwd=tmp_path))
    proc = run("iso", "w2.inc", "dw2.inc", cwd=tmp_path)
    assert proc.returncode == 0
    both = report_of(proc)
    for rep in (a, b, both):
        keys = list(rep)
        at = keys.index("generators")
        assert keys[at:at + 3] == ["generators", "splitters", "splits"]
        assert keys[at + 3:at + 5] == ["orbit_prunes", "jumps"]
    for key in ("splitters", "splits", "orbit_prunes", "jumps"):
        assert int(a[key]) > 0
        assert int(both[key]) == int(a[key]) + int(b[key])

def test_iso_on_marked_quadrangles(w2_file, tmp_path):
    run("ovoids", "w2.inc", "--out", "ov", cwd=tmp_path)
    proc = run("iso", "w2.inc", "w2.inc", "--ovoid-a", "ov0.ovoid",
               "--ovoid-b", "ov1.ovoid", cwd=tmp_path)
    # the 6 ovoids of W(2) are the 6 stars of its S6 model (points are the
    # duads of a 6-set, the star at i is the 5 duads holding i), and
    # Aut W(2) = S6 permutes the stars transitively
    assert proc.returncode == 0
    assert report_of(proc)["isomorphic"] == "true"
    proc = run("iso", "w2.inc", "w2.inc", "--ovoid-a", "ov0.ovoid",
               cwd=tmp_path)
    assert proc.returncode == 2
    proc = run("iso", "w2.inc", "ov0.ovoid", cwd=tmp_path)
    assert proc.returncode == 2


def test_payne_chain_and_prop32(tmp_path):
    run("construct", "--family", "W", "--q", "3", "--out", "w3.inc",
        cwd=tmp_path)
    proc = run("payne", "w3.inc", "--point", "0", "--out", "pw3.inc",
               cwd=tmp_path)
    assert proc.returncode == 0
    assert report_of(proc)["params.s"] == "2"
    proc = run("dual", "pw3.inc", "--out", "gq42.inc", cwd=tmp_path)
    assert proc.returncode == 0
    proc = run("ovoids", "gq42.inc", "--out", "q", cwd=tmp_path)
    n = int(report_of(proc)["found"])
    paths = [f"q{i}.ovoid" for i in range(n)]
    # a set that is no ovoid is reported under its own prefix
    (tmp_path / "bad.ovoid").write_text("ovoid 9\n0 1 2 3 4 5 6 7 8\n")
    proc = run("prop32", "gq42.inc", *paths, "bad.ovoid", cwd=tmp_path)
    assert proc.returncode == 1
    rep = report_of(proc)
    assert rep[f"ovoid{n}.verified"] == "false"
    assert rep[f"ovoid{n}.failure"] == "OvoidError"
    passed = [i for i in range(n)
              if rep[f"ovoid{i}.regular_traces"] == "true"
              and rep[f"ovoid{i}.blocks_replicated"] == "true"
              and rep[f"ovoid{i}.blocks_are_traces"] == "true"]
    failed = sorted(set(range(n)) - set(passed))
    assert passed and failed
    assert "regular_traces" not in rep
    for i, code in ((passed[0], 0), (failed[0], 1)):
        proc = run("prop32", "gq42.inc", paths[i], cwd=tmp_path)
        assert proc.returncode == code
        single = report_of(proc)
        for key in ("regular_traces", "witnesses", "blocks_replicated",
                    "blocks_are_traces"):
            assert single[key] == rep[f"ovoid{i}.{key}"]


def test_replicated_detection(tmp_path):
    run("construct", "--family", "sprott", "--q", "9", "--lambda", "3",
        "--out", "s9.design", cwd=tmp_path)
    proc = run("replicated", "s9.design", "--out", "base.design",
               cwd=tmp_path)
    assert proc.returncode == 0
    rep = report_of(proc)
    assert rep["multiplicity"] == "3"
    assert rep["base.lambda"] == "1"
    base = parse_design((tmp_path / "base.design").read_text())
    assert verify_bibd(base, allow_degenerate=True).lam == 1
    run("construct", "--family", "AG", "--q", "3", "--out", "ag.design",
        cwd=tmp_path)
    proc = run("replicated", "ag.design", cwd=tmp_path)
    assert proc.returncode == 1


def test_payne_on_non_regular_point_fails_with_one(tmp_path):
    run("construct", "--family", "Q4", "--q", "3", "--out", "q43.inc",
        cwd=tmp_path)
    proc = run("payne", "q43.inc", "--point", "0", "--out", "x.inc",
               cwd=tmp_path)
    assert proc.returncode == 1
    assert report_of(proc)["verified"] == "false"


def test_payne_on_a_point_out_of_range_fails_with_one(w2_file, tmp_path):
    for point in ("15", "-1"):
        proc = run("payne", "w2.inc", "--point", point, "--out", "x.inc",
                   cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        rep = report_of(proc)
        assert rep["verified"] == "false"
        assert rep["failure"] == "ValueError"
        assert rep["detail"] == f"point {point} outside 0..14"
        assert not (tmp_path / "x.inc").exists()


def test_marked_points_outside_the_structure_fail_with_one(w2_file, tmp_path):
    # one index past the end gets one report, whichever subcommand reads it
    (tmp_path / "far.ovoid").write_text("ovoid 1\n99\n")
    (tmp_path / "near_far.ovoid").write_text("ovoid 2\n0 99\n")
    (tmp_path / "near.ovoid").write_text("ovoid 1\n0\n")
    runs = [("canon", "w2.inc", "--ovoid", "far.ovoid"),
            ("canon", "w2.inc", "--ovoid", "near_far.ovoid"),
            ("iso", "w2.inc", "w2.inc", "--ovoid-a", "near_far.ovoid",
             "--ovoid-b", "near.ovoid"),
            ("iso", "w2.inc", "w2.inc", "--ovoid-a", "near.ovoid",
             "--ovoid-b", "near_far.ovoid"),
            ("verify", "ovoid", "w2.inc", "near_far.ovoid"),
            ("map-n", "w2.inc", "near_far.ovoid"),
            ("roundtrip", "gq", "w2.inc", "near_far.ovoid"),
            ("prop32", "w2.inc", "near_far.ovoid"),
            ("payne", "w2.inc", "--point", "99", "--out", "x.inc")]
    for args in runs:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 1, args
        rep = report_of(proc)
        assert rep["verified"] == "false", args
        assert rep["failure"] == "ValueError", args
        assert rep["detail"] == "point 99 outside 0..14", args
        assert "digest" not in rep and "isomorphic" not in rep
        assert "roundtrip" not in rep and "regular_traces" not in rep
    assert not (tmp_path / "x.inc").exists()


# ---------------------------------------------------------
# report plumbing
# ---------------------------------------------------------

def test_report_file_matches_stdout(w2_file, tmp_path):
    proc = run("verify", "gq", "w2.inc", "--report", "r.txt", cwd=tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "r.txt").read_text() == proc.stdout


def test_unwritable_report_path_is_a_usage_error(w2_file, tmp_path):
    proc = run("verify", "gq", "w2.inc", "--report", "missing/r.txt",
               cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("gqd verify: cannot write missing/r.txt: ")
    assert "Traceback" not in proc.stderr


def test_budget_is_refused_where_nothing_is_searched(import_inputs, tmp_path):
    # only ovoids, ntlrs, canon and iso run work a budget can cut
    for name in ("w2.inc", "ov0.ovoid", "w2.design", "w2.lrs"):
        (tmp_path / name).write_text((import_inputs / name).read_text())
    before = sorted(tmp_path.iterdir())
    cases = [
        ("construct", "--family", "W", "--q", "2", "--out", "o.inc"),
        ("verify", "gq", "w2.inc"),
        ("map-n", "w2.inc", "ov0.ovoid", "--design-out", "o.design"),
        ("map-m", "w2.design", "w2.lrs", "--inc-out", "o.inc"),
        ("roundtrip", "gq", "w2.inc", "ov0.ovoid"),
        ("prop32", "w2.inc", "ov0.ovoid"),
        ("replicated", "w2.design", "--out", "o.design"),
        ("dual", "w2.inc", "--out", "o.inc"),
        ("payne", "w2.inc", "--point", "0", "--out", "o.inc"),
    ]
    for args in cases:
        proc = run(*args, "--budget", "1", cwd=tmp_path)
        assert proc.returncode == 2, args
        assert "unrecognized arguments: --budget 1" in proc.stderr, args
        assert proc.stdout == "", args
        assert sorted(tmp_path.iterdir()) == before, args
        # and without it the same arguments run
        assert run(*args, cwd=tmp_path).returncode in (0, 1), args
        for path in set(tmp_path.iterdir()) - set(before):
            path.unlink()


def test_missing_outputs_and_orders_without_a_system(w2_file, tmp_path):
    cases = [
        ("dual", "w2.inc"),
        ("payne", "w2.inc", "--point", "0"),
        ("construct", "--family", "sprott", "--q", "9", "--with-lrs",
         "--out", "x", "--lrs-out", "y"),
        ("construct", "--family", "sprott", "--q", "2", "--with-lrs",
         "--out", "x", "--lrs-out", "y"),
    ]
    for args in cases:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert proc.stderr, args
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w2.inc"], args


def test_ovoid_colouring_needs_incidence_files(w2_file, tmp_path):
    run("construct", "--family", "AG", "--q", "3", "--out", "ag3.design",
        cwd=tmp_path)
    run("ovoids", "w2.inc", "--limit", "1", "--out", "ov", cwd=tmp_path)
    cases = [
        (("canon", "ag3.design", "--ovoid", "ov0.ovoid"), "incidence files"),
        (("iso", "ag3.design", "ag3.design", "--ovoid-a", "ov0.ovoid",
          "--ovoid-b", "ov0.ovoid"), "incidence files"),
        (("iso", "w2.inc", "ag3.design"), "cannot compare"),
        (("iso", "ag3.design", "w2.inc"), "cannot compare"),
        (("canon", "ov0.ovoid"), "unrecognised header 'ovoid'"),
    ]
    for args, message in cases:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert message in proc.stderr, args


def test_unrecognised_header_names_its_own_line(tmp_path):
    (tmp_path / "foo.inc").write_text("# a note\n\nfoo 3 1\n0 1 2\n")
    for args in (("canon", "foo.inc"), ("iso", "foo.inc", "foo.inc")):
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stdout == "", args
        assert "foo.inc:3:1: unrecognised header 'foo'" in proc.stderr, args


def test_threads_and_seed_are_rejected(w2_file, tmp_path):
    # both options were removed: no search read the seed, and every search
    # ran on one thread whatever --threads said
    for option in (("--seed", "5"), ("--threads", "4")):
        proc = run("ovoids", "w2.inc", *option, cwd=tmp_path)
        assert proc.returncode == 2, option
        assert "unrecognized arguments" in proc.stderr


# ---------------------------------------------------------
# what each subcommand imports
# ---------------------------------------------------------

# Runs gqd in this interpreter with its report captured, then prints the exit
# code, the gqdesigns modules loaded and whether dataclasses and hashlib were
# loaded.
_IMPORT_PROBE = """
import contextlib, io, json, runpy, sys
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("gqdesigns.cli", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("gqdesigns.")),
                  "dataclasses" in sys.modules, "hashlib" in sys.modules]))
"""

FILES = {"fileformats", "structures"}
SEARCH = FILES | {"search"}
CANON = SEARCH | {"canon", "_partition"}
MAPS = FILES | {"correspondence", "geometry", "field"}
GEOMETRY = FILES | {"geometry", "field"}
SPROTT = FILES | {"sprott", "field"}

IMPORT_CASES = [
    (("construct", "--family", "W", "--q", "2", "--out", "o.inc"), GEOMETRY),
    (("construct", "--family", "AG", "--q", "3", "--out", "o.design"), SPROTT),
    (("construct", "--family", "sprott", "--q", "5", "--lambda", "3",
      "--out", "o.design"), SPROTT),
    (("verify", "gq", "w2.inc"), FILES),
    (("verify", "bibd", "w2.design"), FILES),
    (("verify", "ovoid", "w2.inc", "ov0.ovoid"), FILES),
    (("verify", "lrs", "w2.design", "w2.lrs"), FILES),
    (("verify", "ntlrs", "w2.design", "w2.lrs"), FILES),
    (("dual", "w2.inc", "--out", "o.inc"), FILES),
    (("ovoids", "w2.inc", "--limit", "1"), SEARCH),
    (("ntlrs", "w2.design"), SEARCH),
    (("canon", "w2.inc"), CANON),
    (("iso", "w2.inc", "w2.inc", "--ovoid-a", "ov0.ovoid",
      "--ovoid-b", "ov1.ovoid"), CANON),
    (("iso", "w2.design", "w2.design"), CANON),
    (("map-n", "w2.inc", "ov0.ovoid", "--design-out", "o.design"), FILES | {"correspondence"}),
    (("map-m", "w2.design", "w2.lrs", "--inc-out", "o.inc"), FILES | {"correspondence"}),
    (("roundtrip", "gq", "w2.inc", "ov0.ovoid"), FILES | {"correspondence"}),
    (("roundtrip", "design", "w2.design", "w2.lrs"), FILES | {"correspondence"}),
    (("prop32", "w2.inc", "ov0.ovoid"), MAPS),
    (("replicated", "w2.design"), FILES),
    (("payne", "w2.inc", "--point", "0", "--out", "o.inc"), GEOMETRY),
]


@pytest.fixture(scope="module")
def import_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    s, ovoids = _w2(), _w2_ovoids()
    d, system = design_from_ovoid(s, ovoids[0])
    (root / "w2.inc").write_text(write_incidence(s))
    for i in range(2):
        (root / f"ov{i}.ovoid").write_text(write_ovoid(ovoids[i]))
    (root / "w2.design").write_text(write_design(d))
    (root / "w2.lrs").write_text(write_lrs(system))
    return root


@pytest.mark.parametrize("args, modules", IMPORT_CASES,
                         ids=[" ".join(a[:3] if a[0] == "construct" else a[:2])
                              for a, _ in IMPORT_CASES])
def test_subcommand_loads_only_what_it_runs(args, modules, import_inputs):
    # every handler runs here, so a name its imports forgot fails too
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *args],
                          capture_output=True, text=True, cwd=import_inputs,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, loaded, dataclasses, hashlib = json.loads(proc.stdout)
    assert code in (0, 1), proc.stderr
    assert loaded == sorted(f"gqdesigns.{m}" for m in modules)
    assert not dataclasses
    # only an input file's digest needs OpenSSL, and construct reads none
    if args[0] == "construct":
        assert not hashlib


def test_library_loads_no_dataclasses():
    probe = """
import pkgutil, importlib, json, sys
import gqdesigns
names = [m.name for m in pkgutil.iter_modules(gqdesigns.__path__, "gqdesigns.")]
for name in names:
    importlib.import_module(name)
print(json.dumps([names, "dataclasses" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    names, dataclasses = json.loads(proc.stdout)
    assert "gqdesigns.canon" in names and "gqdesigns.cli" in names
    assert not dataclasses
