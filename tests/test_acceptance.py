"""End-to-end acceptance checks for the whole pipeline.

Each test walks one published construction from scratch — build, verify,
search, map, compare — and holds the wall-clock time under a stated bound.
All quantities are exact integers; there are no tolerances to tune.
"""

import itertools
import random
import time

from gqdesigns.canon import (
    canonical_form,
    design_graph,
    designs_isomorphic,
    gq_isomorphic,
    incidence_graph,
)
from gqdesigns.correspondence import (
    check_regular_traces,
    design_from_ovoid,
    gq_from_design,
    roundtrip_gq,
)
from gqdesigns.geometry import (
    hermitian_gq,
    parabolic_gq,
    payne_derivation,
    symplectic_gq,
)
from gqdesigns.search import (
    Budget,
    ExactCoverInstance,
    find_ntlrs,
    find_ovoids,
    solve_exact_cover,
)
from gqdesigns.sprott import affine_plane, replicate, sprott_design, sprott_lrs
from gqdesigns.structures import (
    Design,
    DesignParams,
    GQParams,
    IncidenceStructure,
    LocalResolutionSystem,
    detect_replication,
    dual,
    verify_bibd,
    verify_gq,
    verify_lrs,
    verify_non_triangular,
)

from conftest import FANO_BLOCKS


def clock():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# ---------------------------------------------------------
# small quadrangles end to end
# ---------------------------------------------------------

def test_symplectic_q2_full_pipeline():
    elapsed = clock()
    s = symplectic_gq(2)
    assert verify_gq(s) == GQParams(2, 2)
    res = find_ovoids(s)
    assert res.exhausted and not res.budget_exceeded
    assert len(res.solutions) == 6
    for o in res.solutions:
        assert len(o) == 5
        d, system = design_from_ovoid(s, o)
        assert verify_bibd(d) == DesignParams(5, 10, 6, 3, 3)
        verify_lrs(d, system)
        assert verify_non_triangular(d, system) is None
        assert roundtrip_gq(s, o)
    dt = elapsed()
    assert dt < 1.0
    print(f"W(2) pipeline: 6 ovoids, all roundtrips ({dt:.2f}s)")


def test_parabolic_q3_ovoid_design_roundtrip():
    elapsed = clock()
    s = parabolic_gq(3)
    assert verify_gq(s) == GQParams(3, 3)
    res = find_ovoids(s, limit=1)
    assert res.solutions
    o = res.solutions[0]
    d, _ = design_from_ovoid(s, o)
    assert verify_bibd(d) == DesignParams(10, 30, 12, 4, 4)
    assert roundtrip_gq(s, o)
    dt = elapsed()
    assert dt < 10.0
    print(f"Q(4,3) pipeline: ovoid of 10, roundtrip ok ({dt:.2f}s)")


def test_hermitian_q2_ovoid_design_roundtrip():
    elapsed = clock()
    s = hermitian_gq(2)
    assert verify_gq(s) == GQParams(4, 2)
    assert s.point_count == 45 and len(s.lines) == 27
    res = find_ovoids(s, limit=1)
    assert res.solutions
    o = res.solutions[0]
    assert len(o) == 9
    d, _ = design_from_ovoid(s, o)
    assert verify_bibd(d) == DesignParams(9, 36, 12, 3, 3)
    assert roundtrip_gq(s, o)
    dt = elapsed()
    assert dt < 30.0
    print(f"H(3,4) pipeline: ovoid of 9, roundtrip ok ({dt:.2f}s)")


def test_large_classical_quadrangles_build_fast():
    elapsed = clock()
    s = parabolic_gq(9)
    assert verify_gq(s) == GQParams(9, 9)
    assert s.point_count == len(s.lines) == 820
    dt = elapsed()
    assert dt < 2.0
    elapsed = clock()
    h = hermitian_gq(3)
    assert verify_gq(h) == GQParams(9, 3)
    assert h.point_count == 280 and len(h.lines) == 112
    dh = elapsed()
    assert dh < 1.0
    print(f"Q(4,9) built and verified ({dt:.2f}s), H(3,9) ({dh:.2f}s)")


def test_verifiers_decide_by_counting_fast():
    s = parabolic_gq(9)
    fresh = IncidenceStructure(s.point_count, s.lines)
    elapsed = clock()
    assert verify_gq(fresh) == GQParams(9, 9)
    dt = elapsed()
    d, system = sprott_lrs(8)
    elapsed = clock()
    assert verify_non_triangular(d, system) is None
    dn = elapsed()
    assert dt < 0.05
    assert dn < 0.02
    print(f"Q(4,9) verified ({dt * 1000:.1f}ms), sprott_lrs(8) non-triangular ({dn * 1000:.1f}ms)")


def test_regular_traces_on_hermitian_q3_are_fast():
    # 252 outside points: each tries only the points sharing its block
    s = hermitian_gq(3)
    o = find_ovoids(s, limit=1).solutions[0]
    elapsed = clock()
    report = check_regular_traces(s, o)
    dt = elapsed()
    assert report.ok and report.failed_point is None
    assert len(report.witnesses) == 252
    assert report.blocks_replicated and report.blocks_are_traces
    assert dt < 0.03
    print(f"H(3,9) regular traces checked ({dt * 1000:.1f}ms)")


# ---------------------------------------------------------
# difference-family designs and their systems
# ---------------------------------------------------------

def test_difference_design_gf16_with_system():
    elapsed = clock()
    _, d = sprott_design(2, 4, 6)
    assert verify_bibd(d) == DesignParams(16, 48, 18, 6, 6)
    d2, system = sprott_lrs(4)
    verify_lrs(d2, system)
    assert verify_non_triangular(d2, system) is None
    dt = elapsed()
    assert dt < 10.0
    print(f"GF(16) difference design + system verified ({dt:.2f}s)")


def test_gf16_system_builds_the_derived_quadrangle():
    elapsed = clock()
    d, system = sprott_lrs(4)
    labeled = gq_from_design(d, system)
    s = labeled.structure
    assert verify_gq(s) == GQParams(3, 5)
    assert s.point_count == 64 and len(s.lines) == 96
    target = payne_derivation(symplectic_gq(4), 0)
    ok, mapping = gq_isomorphic(s, target)
    assert ok
    # the witness must be a genuine line-preserving bijection
    assert sorted(mapping) == list(range(64))
    assert sorted(mapping.values()) == list(range(64))
    moved = sorted(sorted(mapping[x] for x in line) for line in s.lines)
    assert moved == sorted(sorted(line) for line in target.lines)
    dt = elapsed()
    assert dt < 60.0
    print(f"GF(16) system -> GQ(3,5) matches the derived quadrangle ({dt:.2f}s)")


def test_gf64_system_builds_the_derived_quadrangle():
    # two 1152-vertex graphs; a budget cut raises BudgetExceeded
    elapsed = clock()
    d, system = sprott_lrs(8)
    s = gq_from_design(d, system).structure
    assert verify_gq(s) == GQParams(7, 9)
    assert s.point_count == 512 and len(s.lines) == 640
    target = payne_derivation(symplectic_gq(8), 0)
    ok, mapping = gq_isomorphic(s, target, budget=Budget(max_nodes=2000))
    assert ok
    assert sorted(mapping) == list(range(512))
    assert sorted(mapping.values()) == list(range(512))
    moved = sorted(sorted(mapping[x] for x in line) for line in s.lines)
    assert moved == sorted(sorted(line) for line in target.lines)
    dt = elapsed()
    assert dt < 60.0
    print(f"GF(64) system -> GQ(7,9) matches the derived quadrangle ({dt:.2f}s)")

def test_difference_design_gf9_is_three_planes():
    elapsed = clock()
    _, d = sprott_design(3, 2, 3)
    ok, _ = designs_isomorphic(d, replicate(affine_plane(3), 3))
    assert ok
    dt = elapsed()
    assert dt < 10.0
    print(f"GF(9) difference design = tripled affine plane ({dt:.2f}s)")


# ---------------------------------------------------------
# searching for systems
# ---------------------------------------------------------

def test_search_recovers_system_on_tripled_plane():
    elapsed = clock()
    d = replicate(affine_plane(3), 3)
    res = find_ntlrs(d, limit=1, budget=Budget(max_seconds=120.0))
    assert res.solutions and not res.budget_exceeded
    labeled = gq_from_design(d, res.solutions[0])
    assert verify_gq(labeled.structure) == GQParams(4, 2)
    target = dual(payne_derivation(symplectic_gq(3), 0))
    ok, _ = gq_isomorphic(labeled.structure, target)
    assert ok
    dt = elapsed()
    assert dt < 120.0
    print(f"tripled-plane search -> GQ(4,2) = dual derived quadrangle ({dt:.2f}s)")


def test_regular_trace_ovoid_exists_in_dual_derived_gq():
    elapsed = clock()
    gq = dual(payne_derivation(symplectic_gq(3), 0))
    params = verify_gq(gq)
    assert params == GQParams(4, 2)
    res = find_ovoids(gq)
    assert res.exhausted
    hit = None
    for o in res.solutions:
        report = check_regular_traces(gq, o)
        if report.ok:
            hit = (o, report)
            break
    assert hit is not None
    o, report = hit
    assert report.blocks_replicated and report.blocks_are_traces
    d, _ = design_from_ovoid(gq, o)
    rep = detect_replication(d)
    assert rep is not None
    base, n = rep
    assert n == 3 == 1 + params.t
    ok, _ = designs_isomorphic(base, affine_plane(3))
    assert ok
    dt = elapsed()
    assert dt < 600.0
    print(f"regular-trace ovoid found, design = 3 x affine plane ({dt:.2f}s)")


def test_fano_plane_admits_no_system():
    elapsed = clock()
    res = find_ntlrs(Design(7, FANO_BLOCKS), limit=None)
    assert res.exhausted and not res.solutions
    dt = elapsed()
    assert dt < 1.0
    print(f"Fano plane: search exhausted, no system ({dt:.2f}s)")


# ---------------------------------------------------------
# property suites
# ---------------------------------------------------------

def _brute_force_covers(inst):
    hits = []
    for r in range(len(inst.candidates) + 1):
        for pick in itertools.combinations(range(len(inst.candidates)), r):
            if sum(len(inst.candidates[i]) for i in pick) != inst.universe:
                continue
            seen = set()
            for i in pick:
                seen.update(inst.candidates[i])
            if len(seen) == inst.universe:
                hits.append(frozenset(pick))
    return hits


def test_exact_cover_matches_brute_force():
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randint(1, 9)
        cands = []
        for _ in range(rng.randint(1, 8)):
            size = rng.randint(1, n)
            cands.append(frozenset(rng.sample(range(n), size)))
        inst = ExactCoverInstance(n, tuple(cands))
        res = solve_exact_cover(inst)
        assert res.exhausted
        got = {frozenset(sol) for sol in res.solutions}
        assert got == set(_brute_force_covers(inst))
    print("exact cover agrees with brute force on 100 random instances")


def test_ovoid_search_picks_its_branches_fast():
    # a node-capped search on W(7) with points and lines in a seeded order;
    # the first call fills the masks the structure caches
    rng = random.Random(1)
    s = symplectic_gq(7)
    perm = list(range(s.point_count))
    rng.shuffle(perm)
    lines = [[perm[x] for x in line] for line in s.lines]
    rng.shuffle(lines)
    w7 = IncidenceStructure(s.point_count, lines)
    find_ovoids(w7, budget=Budget(max_nodes=3000))
    elapsed = clock()
    res = find_ovoids(w7, budget=Budget(max_nodes=3000))
    dt = elapsed()
    assert res.budget_exceeded and res.nodes == 3001 and not res.solutions
    assert dt < 0.12
    print(f"W(7) ovoid search, 3001 nodes ({dt * 1000:.0f}ms)")


def test_canonical_form_is_relabeling_invariant():
    structures = [symplectic_gq(2), dual(symplectic_gq(2)), hermitian_gq(2),
                  symplectic_gq(3), parabolic_gq(3), symplectic_gq(4)]
    designs = [affine_plane(3), sprott_design(3, 2, 3)[1]]
    rng = random.Random(78)
    for s in structures:
        want = canonical_form(incidence_graph(s)).digest
        for _ in range(100):
            perm = list(range(s.point_count))
            rng.shuffle(perm)
            lines = [[perm[p] for p in line] for line in s.lines]
            moved = IncidenceStructure(s.point_count, lines)
            assert canonical_form(incidence_graph(moved)).digest == want
    for d in designs:
        want = canonical_form(design_graph(d)).digest
        for _ in range(100):
            perm = list(range(d.point_count))
            rng.shuffle(perm)
            blocks = [[perm[p] for p in b] for b in d.blocks]
            moved = Design(d.point_count, blocks)
            assert canonical_form(design_graph(moved)).digest == want
    print("canonical digests unchanged under 100 relabelings per object")


def _corpus_systems():
    out = [sprott_lrs(4)]
    s = symplectic_gq(2)
    for o in find_ovoids(s).solutions:
        out.append(design_from_ovoid(s, o))
    tripled = replicate(affine_plane(3), 3)
    found = find_ntlrs(tripled, limit=1)
    out.append((tripled, found.solutions[0]))
    return out


def test_coclass_blocks_meet_only_at_their_point():
    for d, system in _corpus_systems():
        verify_lrs(d, system)
        for p, classes in enumerate(system.classes):
            for cls in classes:
                for b, c in itertools.combinations(cls, 2):
                    assert set(d.blocks[b]) & set(d.blocks[c]) == {p}
    print("co-class blocks share exactly their base point on all systems")


def _naive_triangles(d, system):
    labels = {}
    for p, classes in enumerate(system.classes):
        for cls in classes:
            for b, c in itertools.combinations(sorted(cls), 2):
                labels.setdefault((b, c), set()).add(p)
    hits = []
    for (a, b), (c, e) in itertools.combinations(sorted(labels), 2):
        if c != a or e <= b:
            continue
        if (b, e) not in labels:
            continue
        points = labels[(a, b)] | labels[(a, e)] | labels[(b, e)]
        if len(points) >= 2:
            hits.append((a, b, e))
    return hits


def _copy_aligned(q):
    # pairs up same-index copies everywhere; verifies but carries triangles
    base = affine_plane(q)
    d = replicate(base, q)
    classes = []
    for p in range(d.point_count):
        through = [j for j, blk in enumerate(base.blocks) if p in blk]
        classes.append([[q * j + i for j in through] for i in range(q)])
    return d, LocalResolutionSystem(classes)


def test_triangle_check_matches_naive_enumeration():
    for d, system in _corpus_systems() + [_copy_aligned(3)]:
        witness = verify_non_triangular(d, system)
        naive = _naive_triangles(d, system)
        if witness is None:
            assert naive == []
        else:
            assert tuple(sorted(witness.blocks)) in naive
    print("triangle detection agrees with naive triple scan on all systems")
