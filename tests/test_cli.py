import subprocess
import sys

import pytest

from gqdesigns.fileformats import (
    parse_design,
    parse_incidence,
    parse_lrs,
    parse_ovoid,
    write_design,
    write_incidence,
)
from gqdesigns.structures import DesignParams, GQParams, verify_bibd, verify_gq

from conftest import FANO_BLOCKS, child_env


def run(*args, cwd):
    proc = subprocess.run([sys.executable, "-m", "gqdesigns.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=child_env())
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
    ]
    for args in cases:
        proc = run(*args, cwd=tmp_path)
        assert proc.returncode == 2, args
        assert proc.stderr


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


# ---------------------------------------------------------
# report plumbing
# ---------------------------------------------------------

def test_report_file_matches_stdout(w2_file, tmp_path):
    proc = run("verify", "gq", "w2.inc", "--report", "r.txt", cwd=tmp_path)
    assert proc.returncode == 0
    assert (tmp_path / "r.txt").read_text() == proc.stdout


def test_threads_and_seed_are_rejected(w2_file, tmp_path):
    # both options were removed: no search read the seed, and every search
    # ran on one thread whatever --threads said
    for option in (("--seed", "5"), ("--threads", "4")):
        proc = run("ovoids", "w2.inc", *option, cwd=tmp_path)
        assert proc.returncode == 2, option
        assert "unrecognized arguments" in proc.stderr
