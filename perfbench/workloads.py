"""The four workloads: seeded inputs built at set-up and one pass of tasks.

Each workload function takes the freshly imported library, a
random.Random(seed), the size flag and a working directory.  It builds its
inputs there (that is the set-up the benchmark times) and returns the pass:
a function that makes one call per task through a Recorder.  Every call is
checked afterwards, outside the timed pass, by a check from oracles.py.

Searches are capped by node counts only, never by wall time, so a pass does
the same work on every machine.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from oracles import (FROZEN_AG3X3_SYSTEMS, FROZEN_GF16_SYSTEMS,
                     FROZEN_H34_OVOIDS, Mismatch, check_design_shape,
                     check_gq_shape, check_ovoid, check_params,
                     check_point_map, check_system, design_params, expect,
                     gq_size, q4_ovoid_count)

MODULES = ("geometry", "sprott", "structures", "search", "correspondence",
           "canon", "fileformats", "cli")


class Failed:
    """The exception a task raised, kept in place of its result."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception(exc)).rstrip()


# A reference block takes 1.0-1.8 ms on the 2-vCPU Xeon (2.1 GHz) the
# baseline was measured on; passes are reported as if it took this long.
REFERENCE_S = 0.0018
REFERENCE_EVERY_S = 0.1  # one more block per this much CPU time inside a call


def reference_block() -> float:
    """Seconds taken by a fixed bit of interpreter work of the library's kind:
    a seeded random graph kept in sets, refined through dicts and sorted
    tuples.

    On a shared host a CPU's speed changes within seconds and drifts by a
    third over minutes.  Timing this block before and during every task
    samples that speed where the tasks run.  The cyclic collector is off inside the
    block, so that the block times the host and not the library's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    rng = random.Random(7)
    n = 120
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(700):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    colors = [0] * n
    for _ in range(4):
        sig: dict = {}
        colors = [sig.setdefault((colors[v], tuple(sorted(colors[w] for w in adj[v]))),
                                 len(sig)) for v in range(n)]
    took = time.perf_counter() - start
    if collecting:
        gc.enable()
    return took


def speed_of(refs: list[float]) -> float:
    """Factor from seconds on this host, at the time the reference blocks
    were timed, to seconds on the reference host.  The slowest and fastest
    tenth of the blocks are left out, so that one stray block cannot move
    the factor."""
    cut = len(refs) // 10
    return REFERENCE_S / statistics.mean(sorted(refs)[cut:len(refs) - cut])


def sampled(fn):
    """Run fn() while a timer interrupts it for a reference block after each
    REFERENCE_EVERY_S of this process's CPU time.

    Blocks timed only before and after a long call miss the changes of
    speed during it; these time the host while fn runs, and long calls
    weigh in the mean as much as they do in the pass.  The timer counts
    this process's CPU time only, so no block competes with a gqd child
    for the one CPU.  Returns fn's result, its start and end, and the
    blocks' times, which the caller takes off the call's time.
    """
    refs: list[float] = []
    previous = signal.signal(signal.SIGPROF, lambda *_: refs.append(reference_block()))
    signal.setitimer(signal.ITIMER_PROF, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        end = time.perf_counter()
        signal.signal(signal.SIGPROF, previous)
    return result, start, end, refs


class Recorder:
    """Runs the tasks of one pass and keeps what is needed to check them.

    Every call is timed from outside, right after a reference block, with
    more blocks timed during it (see sampled).
    """

    def __init__(self):
        self.calls: list[tuple[str, str, object, object]] = []
        # start, end, and the call's own seconds (without the blocks)
        self.times: list[tuple[float, float, float]] = []
        self.refs: list[float] = []

    def call(self, module: str, name: str, fn, *args, check=None, **kwargs):
        def attempt():
            try:
                return fn(*args, **kwargs)
            except Exception as exc:  # a failing task is counted, not fatal
                return Failed(exc)

        self.refs.append(reference_block())
        result, start, end, during = sampled(attempt)
        self.refs.extend(during)
        self.times.append((start, end, end - start - sum(during)))
        self.calls.append((module, name, result, check))
        return None if isinstance(result, Failed) else result

    def raw_s(self) -> float:
        """Time inside the calls, as measured."""
        return sum(took for _, _, took in self.times)

    def outcomes(self) -> list[tuple[str, str, dict, str | None]]:
        """Per call: module, function, counts, and the failure if any."""
        out = []
        for module, name, result, check in self.calls:
            counts: dict = {}
            error = None
            if isinstance(result, Failed):
                error = result.text
            else:
                try:
                    counts = (check(result) if check else None) or {}
                except Mismatch as exc:
                    error = f"wrong answer: {exc}"
                except Exception:  # a check tripping over a bad result
                    error = traceback.format_exc().rstrip()
            out.append((module, name, counts, error))
        return out


def relabel(cls, struct, perm):
    return cls(struct.point_count, [[perm[p] for p in line] for line in struct.lines])


def shuffled(rng, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# --- checks bound to their expected values --------------------------------

def built_gq(s, t):
    def check(struct):
        check_gq_shape(struct, s, t)
        return {"points": struct.point_count}
    return check


def returns(want):
    def check(got):
        expect(got == want, f"returned {got!r}, want {want!r}")
    return check


def is_none(got):
    expect(got is None, f"returned {got!r}, want None")


def is_true(got):
    expect(got is True, f"returned {got!r}, want True")


def search_result(count=None, exhausted=None, may_cut=False, each=None):
    """Solution count and exhaustion as expected; a budget cut only where
    the task is capped on purpose; every solution passes each()."""
    def check(res):
        if count is not None:
            expect(len(res.solutions) == count,
                   f"{len(res.solutions)} solutions, want {count}")
        if exhausted is not None and not (may_cut and res.budget_exceeded):
            expect(res.exhausted == exhausted,
                   f"exhausted is {res.exhausted}, want {exhausted}")
        expect(may_cut or not res.budget_exceeded, "unexpected budget cut")
        if each is not None:
            for sol in res.solutions:
                each(sol)
        return {"nodes": res.nodes, "solutions": len(res.solutions),
                "budget_cut": int(res.budget_exceeded)}
    return check


def written(text):
    return {"bytes": len(text.encode())}


def parsed_as(want, text):
    def check(got):
        expect(got == want, "parsing the written text does not give the object back")
        return {"bytes": len(text.encode())}
    return check


def design_with_system(s, t):
    def check(pair):
        design, system = pair
        check_design_shape(design, design_params(s, t))
        check_system(design, system)
    return check


def labeled_gq(s, t):
    def check(labeled):
        check_gq_shape(labeled.structure, s, t)
        check_ovoid(labeled.structure, labeled.ovoid)
    return check


def traces_consistent(struct, ovoid, t):
    """The regular-trace report agrees with a count of the induced blocks."""
    def check(report):
        members = set(ovoid)
        blocks = Counter(frozenset(members & set(nb))
                         for nb in _neighborhoods(struct, members))
        expect(report.blocks_replicated == all(c == 1 + t for c in blocks.values()),
               "blocks_replicated disagrees with the block multiplicities")
        outside = struct.point_count - len(members)
        expect(report.ok == (report.failed_point is None), "ok disagrees with failed_point")
        expect(not report.ok or len(report.witnesses) == outside,
               "ok without a witness for every outside point")
    return check


def _neighborhoods(struct, members):
    near = [set() for _ in range(struct.point_count)]
    for line in struct.lines:
        for p in line:
            near[p].update(line)
    return [near[x] for x in range(struct.point_count) if x not in members]


def isomorphic_by(src, dst, vertices):
    """An isomorphism verdict whose witness maps lines onto lines."""
    def check(got):
        ok, point_map = got
        expect(ok is True, "reported not isomorphic")
        check_point_map(src, dst, point_map)
        return {"vertices": vertices}
    return check


def digest_of(label, digests, differ, vertices):
    """Record the digest: relabelings of one object agree, and the two
    objects named in differ, which are not isomorphic, disagree."""
    def check(form):
        expect(len(form.digest) == 64, "digest is not a sha256 hex string")
        first = digests.setdefault(label, form.digest)
        expect(form.digest == first, f"digest of {label} changed under relabeling")
        a, b = differ
        if a in digests and b in digests:
            expect(digests[a] != digests[b], f"{a} and {b} share a digest")
        return {"vertices": vertices}
    return check


# --- forward: GQ -> design ------------------------------------------------

def forward(lib, rng, small, workdir):
    """Constructions at the largest q they reach, then one ovoid through the
    maps, the writers and parsers, the explicit systems and derivations."""
    G, St, S, C, Sp, F = (lib.geometry, lib.structures, lib.search,
                          lib.correspondence, lib.sprott, lib.fileformats)
    families = [("symplectic_gq", q, q, q) for q in ((2, 3) if small else (3, 4, 5, 7))]
    families += [("parabolic_gq", q, q, q) for q in ((2, 3) if small else (3, 4, 5))]
    families += [("hermitian_gq", q, q * q, q) for q in ((2,) if small else (2, 3))]
    chain_s, chain_t = families[-1][2:]
    chain_perm = shuffled(rng, gq_size(chain_s, chain_t)[0])
    payne = [(q, rng.randrange(gq_size(q, q)[0])) for q in ((3,) if small else (3, 4))]
    lrs_qs = (4,) if small else (4, 8)

    def run(rec):
        built = {}
        for maker, q, s, t in families:
            gq = rec.call("geometry", maker, getattr(G, maker), q, check=built_gq(s, t))
            built[maker, q] = gq
            rec.call("structures", "verify_gq", St.verify_gq, gq, check=returns((s, t)))

        # one ovoid of the last quadrangle, relabeled by the seed, through both maps
        gq = rec.call("structures", "IncidenceStructure", relabel,
                      St.IncidenceStructure, built[families[-1][0], families[-1][1]],
                      chain_perm, check=built_gq(chain_s, chain_t))
        found = rec.call("search", "find_ovoids", S.find_ovoids, gq, limit=1,
                         budget=S.Budget(max_nodes=10_000),
                         check=search_result(1, each=lambda o, g=gq: check_ovoid(g, o)))
        ovoid = found.solutions[0] if found and found.solutions else None
        pair = rec.call("correspondence", "design_from_ovoid", C.design_from_ovoid,
                        gq, ovoid, check=design_with_system(chain_s, chain_t))
        design, system = pair if pair else (None, None)
        labeled = rec.call("correspondence", "gq_from_design", C.gq_from_design,
                           design, system, check=labeled_gq(chain_s, chain_t))
        rec.call("correspondence", "roundtrip_design", C.roundtrip_design,
                 design, system, check=is_true)
        rec.call("correspondence", "check_regular_traces", C.check_regular_traces,
                 gq, ovoid, check=traces_consistent(gq, ovoid or (), chain_t))

        outputs = [("incidence", x) for x in built.values()]
        outputs += [("ovoid", ovoid), ("design", design), ("lrs", system)]
        if labeled:
            outputs.append(("incidence", labeled.structure))
        for kind, obj in outputs:
            text = rec.call("fileformats", f"write_{kind}", getattr(F, f"write_{kind}"),
                            obj, check=written)
            rec.call("fileformats", f"parse_{kind}", getattr(F, f"parse_{kind}"),
                     text, check=parsed_as(obj, text or ""))

        for q in lrs_qs:
            s, t = q - 1, q + 1
            pair = rec.call("sprott", "sprott_lrs", Sp.sprott_lrs, q,
                            check=design_with_system(s, t))
            design, system = pair if pair else (None, None)
            rec.call("structures", "verify_bibd", St.verify_bibd, design,
                     check=lambda got, s=s, t=t: check_params(got, s, t))
            rec.call("structures", "verify_lrs", St.verify_lrs, design, system, check=is_none)
            rec.call("structures", "verify_non_triangular", St.verify_non_triangular,
                     design, system, check=is_none)

        for q, point in payne:
            rec.call("geometry", "payne_derivation", G.payne_derivation,
                     built["symplectic_gq", q], point, check=built_gq(q - 1, q + 1))
    return run


# --- search: exhaustive, capped and first-k runs ---------------------------

def search(lib, rng, small, workdir):
    """Ovoid searches on seeded relabelings of the classical quadrangles and
    system searches on the designs as built."""
    G, St, S, Sp = lib.geometry, lib.structures, lib.search, lib.sprott
    B = S.Budget

    def moved(struct):
        return relabel(St.IncidenceStructure, struct, shuffled(rng, struct.point_count))

    def plane(q, copies):
        return Sp.replicate(Sp.affine_plane(q), copies)

    fano = St.Design(7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                         (2, 3, 6), (2, 4, 5)])
    gf16 = Sp.sprott_design(2, 4, 6)[1]
    # (input, limit, node cap, solutions, exhausted, cut on purpose);
    # None leaves a value unchecked
    if small:
        ovoid_inputs = [
            (moved(G.parabolic_gq(3)), None, 200_000, q4_ovoid_count(3), True, False),
            (moved(G.symplectic_gq(3)), None, 50_000, 0, True, False),
            (moved(G.hermitian_gq(2)), 10, 200_000, 10, False, False),
            (moved(G.symplectic_gq(5)), None, 200, 0, True, True),
        ]
        system_inputs = [
            (plane(3, 3), 5, 200_000, 5, False, False),
            (gf16, 2, 100_000, FROZEN_GF16_SYSTEMS, True, False),
            (fano, None, 10_000, 0, True, False),
            (plane(4, 4), 1, 2_000, None, None, True),
        ]
    else:
        ovoid_inputs = [
            (moved(G.parabolic_gq(5)), None, 200_000, q4_ovoid_count(5), True, False),
            (moved(G.symplectic_gq(5)), None, 50_000, 0, True, False),
            (moved(G.hermitian_gq(3)), 500, 200_000, 500, False, False),
            (moved(G.symplectic_gq(7)), None, 3_000, 0, True, True),
        ]
        system_inputs = [
            (plane(3, 3), None, 200_000, FROZEN_AG3X3_SYSTEMS, True, False),
            (plane(4, 4), 3, 1_000_000, 3, False, False),
            (gf16, 2, 100_000, FROZEN_GF16_SYSTEMS, True, False),
            (fano, None, 10_000, 0, True, False),
            (plane(5, 5), 1, 30_000, None, None, True),
        ]

    def run(rec):
        for struct, limit, cap, count, exhausted, capped in ovoid_inputs:
            rec.call("search", "find_ovoids", S.find_ovoids, struct, limit=limit,
                     budget=B(max_nodes=cap),
                     check=search_result(count, exhausted, capped,
                                         lambda o, s=struct: check_ovoid(s, o)))
        for design, limit, cap, count, exhausted, capped in system_inputs:
            rec.call("search", "find_ntlrs", S.find_ntlrs, design, limit=limit,
                     budget=B(max_nodes=cap),
                     check=search_result(count, exhausted, capped,
                                         lambda sy, d=design: check_system(d, sy)))
    return run


# --- iso: canonical forms and isomorphism ----------------------------------

def iso(lib, rng, small, workdir):
    """Canonical forms of unmarked symmetric structures, ovoid-colored
    roundtrips, and two isomorphism decisions with their witnesses.

    A seeded relabeling of W(3) or Q(4,3) moves its canon time by up to half
    either way, and each call takes seconds, so too few fit in a run to
    average that out: pass_s would swing with the seed.  W(3), Q(4,3) and
    H(3,4) are therefore taken as built, and the seeded relabelings go to
    the cheaper AG(2,4) and W(2), fresh ones in every pass.
    """
    G, St, S, C, Sp, K = (lib.geometry, lib.structures, lib.search,
                          lib.correspondence, lib.sprott, lib.canon)
    w2 = G.symplectic_gq(2)
    if small:
        as_built = {"W(2)": w2, "P(W(2))": G.payne_derivation(w2, 0)}
        differ = ("W(2)", "P(W(2))")
        relabeled = {"W(2)": w2}
        marked = [(w2, q4_ovoid_count(2))]
    else:
        as_built = {"W(3)": G.symplectic_gq(3), "Q(4,3)": G.parabolic_gq(3),
                    "H(3,4)": G.hermitian_gq(2)}
        differ = ("W(3)", "Q(4,3)")
        relabeled = {"AG(2,4)": St.IncidenceStructure(16, Sp.affine_plane(4).blocks),
                     "W(2)": w2}
        marked = [(w2, q4_ovoid_count(2)), (as_built["Q(4,3)"], q4_ovoid_count(3)),
                  (as_built["H(3,4)"], FROZEN_H34_OVOIDS)]
    fixed = [(label, K.incidence_graph(s)) for label, s in as_built.items()]
    pool = [[(label, K.incidence_graph(relabel(St.IncidenceStructure, s,
                                               shuffled(rng, s.point_count))))
             for label, s in relabeled.items()]
            for _ in range(8)]
    samples = []
    for s, count in marked:
        ovoids = S.find_ovoids(s).solutions
        expect(len(ovoids) == count, f"{len(ovoids)} ovoids, want {count}")
        samples.append((s, rng.choice(ovoids)))
    tripled = Sp.replicate(Sp.affine_plane(3), 3)
    if small:
        gq_pair = (w2, relabel(St.IncidenceStructure, w2, shuffled(rng, 15)))
    else:
        system = S.find_ntlrs(tripled, limit=1).solutions[0]
        gq_pair = (C.gq_from_design(tripled, system).structure,
                   St.dual(G.payne_derivation(G.symplectic_gq(3), 0)))
    gf9 = Sp.sprott_design(3, 2, 3)[1]
    tripled_moved = relabel(St.Design, tripled, shuffled(rng, 9))
    # both sides of each decision become one graph: points plus lines, or
    # points plus distinct blocks
    gq_vertices = sum(s.point_count + len(s.lines) for s in gq_pair)
    design_vertices = sum(d.point_count + len(set(d.blocks)) for d in (gf9, tripled_moved))
    digests: dict[str, str] = {}
    passes = [0]

    def run(rec):
        turn = passes[0]
        passes[0] += 1
        drawn = pool[2 * turn % len(pool)] + pool[(2 * turn + 1) % len(pool)]
        for label, graph in fixed + drawn:
            rec.call("canon", "canonical_form", K.canonical_form, graph,
                     check=digest_of(label, digests, differ, graph.n))
        for s, ovoid in samples:
            rec.call("correspondence", "roundtrip_gq", C.roundtrip_gq, s, ovoid,
                     check=is_true)
        rec.call("canon", "gq_isomorphic", K.gq_isomorphic, *gq_pair,
                 check=isomorphic_by(*gq_pair, gq_vertices))
        rec.call("canon", "designs_isomorphic", K.designs_isomorphic, gf9, tripled_moved,
                 check=isomorphic_by(gf9, tripled_moved, design_vertices))
    return run


WORKLOADS = {"forward": forward, "search": search, "iso": iso}


# --- cli: one gqd process per task ------------------------------------------

def _report(stdout: str) -> dict:
    out = {}
    for row in stdout.splitlines():
        key, _, value = row.partition(": ")
        out[key] = value
    return out


def gqd_result(code, keys=None, check_files=None):
    """Exit code and report values as expected; output files checked by
    check_files(); the report's own elapsed_seconds becomes inner_s."""
    def check(proc):
        rep = _report(proc.stdout)
        expect(proc.returncode == code,
               f"exit code {proc.returncode}, want {code}: {proc.stderr.strip()[-200:]}")
        for key, want in (keys or {}).items():
            expect(rep.get(key) == str(want), f"report {key} is {rep.get(key)!r}, want {want!r}")
        if check_files is not None:
            check_files(rep)
        inner = float(rep["elapsed_seconds"]) if "elapsed_seconds" in rep else 0.0
        return {"inner_s": inner}
    return check


def cli(lib, rng, small, workdir):
    """About 28 gqd processes, one at a time, on small files written here."""
    G, St, S, Sp, F = (lib.geometry, lib.structures, lib.search, lib.sprott,
                       lib.fileformats)
    env = dict(os.environ)
    env["PYTHONPATH"] = lib.src  # absolute, since children run in workdir
    path = lambda name: os.path.join(workdir, name)

    def save(name, text):
        with open(path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

    def load(name, parse):
        with open(path(name), encoding="utf-8") as fh:
            return parse(fh.read(), name)

    w2 = G.symplectic_gq(2)
    w2_moved = relabel(St.IncidenceStructure, w2, shuffled(rng, 15))
    w2_ovoids = S.find_ovoids(w2).solutions
    w2_ov, w2_ov_b = rng.sample(w2_ovoids, 2)
    w3 = G.symplectic_gq(3)
    q44 = G.parabolic_gq(4)
    s4, s4_lrs = Sp.sprott_lrs(4)
    save("w2.inc", F.write_incidence(w2))
    save("w2r.inc", F.write_incidence(w2_moved))
    save("w2.ovoid", F.write_ovoid(w2_ov))
    save("w2b.ovoid", F.write_ovoid(w2_ov_b))
    save("w3.inc", F.write_incidence(w3))
    save("q43.inc", F.write_incidence(G.parabolic_gq(3)))
    save("q44.inc", F.write_incidence(q44))
    save("q44.ovoid", F.write_ovoid(rng.choice(S.find_ovoids(q44, limit=20).solutions)))
    save("s4.design", F.write_design(s4))
    save("s4.lrs", F.write_lrs(s4_lrs))
    save("s9.design", F.write_design(Sp.sprott_design(3, 2, 3)[1]))
    save("ag3.design", F.write_design(Sp.affine_plane(3)))
    save("ag3x3.design", F.write_design(Sp.replicate(Sp.affine_plane(3), 3)))
    save("bad.inc", "inc 3 1\n0 x\n")
    payne_point = rng.randrange(40)

    def gq_file(name, s, t, ovoid_name=None):
        def check(rep):
            struct = load(name, F.parse_incidence)
            check_gq_shape(struct, s, t)
            if ovoid_name:
                check_ovoid(struct, load(ovoid_name, F.parse_ovoid))
        return check

    def design_file(name, params, lrs_name=None):
        def check(rep):
            design = load(name, F.parse_design)
            check_design_shape(design, params)
            if lrs_name:
                check_system(design, load(lrs_name, F.parse_lrs))
        return check

    def same_digest(first):
        def check(rep):
            expect(rep["digest"] == digests.setdefault(first, rep["digest"]),
                   "canon digest differs between relabelings of W(2)")
        return check

    def first_digest(rep):
        digests["w2"] = rep["digest"]

    def mapping_onto(src, dst, src_ovoid=None, dst_ovoid=None):
        def check(rep):
            images = [int(x) for x in rep["mapping"].split()]
            check_point_map(src, dst, dict(enumerate(images)), src_ovoid, dst_ovoid)
        return check

    digests: dict[str, str] = {}
    ag = (9, 12, 4, 3, 1)
    calls = [
        (["construct", "--family", "W", "--q", "3", "--out", "o_w3.inc"], 0, {},
         gq_file("o_w3.inc", 3, 3)),
        (["construct", "--family", "Q4", "--q", "4", "--out", "o_q44.inc"], 0, {},
         gq_file("o_q44.inc", 4, 4)),
        (["construct", "--family", "H3", "--q", "2", "--out", "o_h2.inc"], 0, {},
         gq_file("o_h2.inc", 4, 2)),
        (["construct", "--family", "AG", "--q", "4", "--out", "o_ag4.design"], 0, {},
         design_file("o_ag4.design", (16, 20, 5, 4, 1))),
        (["construct", "--family", "sprott", "--q", "4", "--with-lrs", "--out",
          "o_s4.design", "--lrs-out", "o_s4.lrs"], 0, {"non_triangular": "true"},
         design_file("o_s4.design", design_params(3, 5), "o_s4.lrs")),
        (["construct", "--family", "sprott", "--q", "9", "--lambda", "3", "--out",
          "o_s9.design"], 0, {}, design_file("o_s9.design", (9, 36, 12, 3, 3))),
        (["verify", "gq", "w3.inc"], 0, {"params.s": 3, "params.t": 3}, None),
        (["verify", "gq", "q44.inc"], 0, {"params.s": 4, "params.t": 4}, None),
        (["verify", "bibd", "s4.design"], 0, {"params.v": 16, "params.lambda": 6}, None),
        (["verify", "ovoid", "w2.inc", "w2.ovoid"], 0, {"ovoid_size": 5}, None),
        (["verify", "ntlrs", "s4.design", "s4.lrs"], 0, {"non_triangular": "true"}, None),
        (["ovoids", "w2.inc", "--limit", "0"], 0,
         {"found": q4_ovoid_count(2), "exhausted": "true"}, None),
        (["ovoids", "q43.inc", "--limit", "1", "--out", "o_q43_"], 0, {"found": 1},
         gq_file("q43.inc", 3, 3, "o_q43_0.ovoid")),
        (["ntlrs", "ag3x3.design", "--limit", "1", "--out", "o_ag_"], 0, {"found": 1},
         design_file("ag3x3.design", design_params(4, 2), "o_ag_0.lrs")),
        (["map-n", "w2.inc", "w2.ovoid", "--design-out", "o_m.design",
          "--lrs-out", "o_m.lrs"], 0, {},
         design_file("o_m.design", design_params(2, 2), "o_m.lrs")),
        (["map-m", "s4.design", "s4.lrs", "--inc-out", "o_m.inc",
          "--ovoid-out", "o_m.ovoid"], 0, {}, gq_file("o_m.inc", 3, 5, "o_m.ovoid")),
        (["roundtrip", "design", "s4.design", "s4.lrs"], 0, {"roundtrip": "true"}, None),
        (["roundtrip", "gq", "w2.inc", "w2.ovoid"], 0, {"roundtrip": "true"}, None),
        # no ovoid of Q(4,4) passes; frozen from the commit that added this
        (["prop32", "q44.inc", "q44.ovoid"], 1, {"regular_traces": "false"}, None),
        (["replicated", "s9.design", "--out", "o_base.design"], 0, {"multiplicity": 3},
         design_file("o_base.design", ag)),
        (["replicated", "ag3.design"], 1, {"replicated": "false"}, None),
        (["dual", "w3.inc", "--out", "o_dw3.inc"], 0, {}, gq_file("o_dw3.inc", 3, 3)),
        (["payne", "w3.inc", "--point", str(payne_point), "--out", "o_pw3.inc"], 0,
         {"params.s": 2, "params.t": 4}, gq_file("o_pw3.inc", 2, 4)),
        (["canon", "w2.inc"], 0, {}, first_digest),
        (["canon", "w2r.inc"], 0, {}, same_digest("w2")),
        (["iso", "w2.inc", "w2r.inc"], 0, {"isomorphic": "true"},
         mapping_onto(w2, w2_moved)),
        # the six ovoids of W(2) are one orbit of its group
        (["iso", "w2.inc", "w2.inc", "--ovoid-a", "w2.ovoid", "--ovoid-b", "w2b.ovoid"],
         0, {"isomorphic": "true"}, mapping_onto(w2, w2, w2_ov, w2_ov_b)),
        (["verify", "gq", "bad.inc"], 2, {}, None),
    ]
    if small:
        calls = calls[:1] + calls[-5:-3] + calls[-1:]
    argv0 = [sys.executable, "-m", "gqdesigns.cli"]

    def gqd(args):
        return subprocess.run(argv0 + args, cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=60)

    def run(rec):
        for args, code, keys, check_files in calls:
            rec.call("cli", "gqd " + args[0], gqd, args,
                     check=gqd_result(code, keys, check_files))
    return run


WORKLOADS["cli"] = cli
