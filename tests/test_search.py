import itertools
import random
from unittest import mock

import pytest

from gqdesigns import search
from gqdesigns.search import (
    Budget,
    ExactCoverInstance,
    ParallelGraph,
    find_local_resolutions,
    find_ntlrs,
    find_ovoids,
    solve_exact_cover,
)
from gqdesigns.sprott import affine_plane, replicate, sprott_design, sprott_lrs
from gqdesigns.structures import (
    LrsError,
    TriangleWitness,
    verify_lrs,
    verify_non_triangular,
    verify_ovoid,
)

from conftest import fano_design, fano_incidence


# ---------------------------------------------------------
# Exact cover
# ---------------------------------------------------------

def _brute_force_covers(universe: int, candidates):
    out = []
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), r):
            picked = [candidates[i] for i in combo]
            total = sum(len(c) for c in picked)
            union = set().union(*picked) if picked else set()
            if total == universe and len(union) == universe:
                out.append(tuple(combo))
    return sorted(out)


def test_simple_cover():
    inst = ExactCoverInstance(4, (frozenset({0, 1}), frozenset({2, 3}),
                                  frozenset({1, 2})))
    res = solve_exact_cover(inst)
    assert res.exhausted
    assert [tuple(sorted(sol)) for sol in res.solutions] == [(0, 1)]


def test_empty_universe_has_the_empty_cover():
    res = solve_exact_cover(ExactCoverInstance(0, ()))
    assert res.exhausted
    assert len(res.solutions) == 1
    assert not list(res.solutions[0])


def test_uncoverable_element_fails_fast():
    inst = ExactCoverInstance(3, (frozenset({0, 1}),))
    res = solve_exact_cover(inst)
    assert res.exhausted
    assert not res.solutions


def test_random_instances_match_brute_force():
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randrange(1, 13)
        ncand = rng.randrange(1, 10)
        candidates = []
        for _ in range(ncand):
            size = rng.randrange(1, n + 1)
            candidates.append(frozenset(rng.sample(range(n), size)))
        inst = ExactCoverInstance(n, tuple(candidates))
        res = solve_exact_cover(inst)
        assert res.exhausted
        got = sorted(tuple(sorted(sol)) for sol in res.solutions)
        assert got == _brute_force_covers(n, candidates)


def test_limit_and_determinism():
    inst = ExactCoverInstance(2, (frozenset({0}), frozenset({1}),
                                  frozenset({0, 1})))
    full = solve_exact_cover(inst)
    assert len(full.solutions) == 2
    first = solve_exact_cover(inst, limit=1)
    assert len(first.solutions) == 1
    assert not first.exhausted
    again = solve_exact_cover(inst, limit=1)
    assert first.solutions == again.solutions


def test_node_budget_stops_search():
    cands = tuple(frozenset({i}) for i in range(20))
    inst = ExactCoverInstance(20, cands)
    res = solve_exact_cover(inst, budget=Budget(max_nodes=5))
    assert res.budget_exceeded
    assert not res.exhausted
    assert res.nodes <= 6  # the tripping tick is counted


def test_candidate_validation():
    with pytest.raises(ValueError):
        ExactCoverInstance(2, (frozenset({0, 5}),))
    with pytest.raises(ValueError):
        ExactCoverInstance(-1, ())


# ---------------------------------------------------------
# Ovoid search
# ---------------------------------------------------------

def test_w2_ovoids_found_exactly(w2, w2_ovoids):
    assert len(w2_ovoids) == 6
    for o in w2_ovoids:
        verify_ovoid(w2, o)


def test_w3_has_no_ovoids():
    from gqdesigns.geometry import symplectic_gq
    res = find_ovoids(symplectic_gq(3))
    assert res.exhausted
    assert not res.solutions


def test_ovoid_search_rejects_non_gq():
    from gqdesigns.structures import GQAxiomError
    with pytest.raises(GQAxiomError):
        find_ovoids(fano_incidence())


# ---------------------------------------------------------
# Parallel graph
# ---------------------------------------------------------

def test_parallel_graph_enforces_single_point_intersections(sprott4):
    d, system = sprott4
    g = ParallelGraph(d)
    for p, classes in enumerate(system.classes):
        for cls in classes:
            for i, j in itertools.combinations(sorted(cls), 2):
                assert g.add_pair(i, j, p)


def test_parallel_graph_rejects_wide_intersections():
    d = replicate(affine_plane(3), 3)
    g = ParallelGraph(d)
    # copies 0 and 1 of block 0 share all three points
    with pytest.raises(LrsError):
        g.add_pair(0, 1, d.blocks[0][0])


# ---------------------------------------------------------
# Resolution search
# ---------------------------------------------------------

def test_single_point_resolutions_of_the_q4_design(sprott4):
    d, system = sprott4
    res = find_local_resolutions(d, 0)
    assert res.exhausted
    assert len(res.solutions) == 1
    assert set(res.solutions[0]) == set(system.classes[0])


def test_fano_has_no_ntlrs():
    res = find_ntlrs(fano_design())
    assert res.exhausted
    assert not res.solutions


def test_q4_design_has_exactly_one_ntlrs(sprott4):
    d, explicit = sprott4
    res = find_ntlrs(d)
    assert res.exhausted
    assert len(res.solutions) == 1
    assert res.solutions[0] == explicit


def test_tripled_plane_search_finds_verified_system(tripled_plane):
    res = find_ntlrs(tripled_plane, limit=1)
    assert len(res.solutions) == 1
    system = res.solutions[0]
    verify_lrs(tripled_plane, system)
    assert verify_non_triangular(tripled_plane, system) is None


def test_doubled_planes_admit_no_ntlrs():
    for q in (3, 4):
        res = find_ntlrs(replicate(affine_plane(q), 2))
        assert res.exhausted
        assert not res.solutions


def test_sprott_16_4_has_a_system():
    _, d = sprott_design(2, 4, 4)
    res = find_ntlrs(d, limit=1)
    assert len(res.solutions) == 1
    verify_lrs(d, res.solutions[0])
    assert verify_non_triangular(d, res.solutions[0]) is None


def test_search_determinism(tripled_plane):
    a = find_ntlrs(tripled_plane, limit=1)
    b = find_ntlrs(tripled_plane, limit=1)
    assert a.solutions
    assert a.solutions == b.solutions


def check_triangular_result_raises():
    """find_ntlrs refuses to return a system its final check finds triangular.

    Also run under python -O, where assert statements vanish.
    """
    triangle = TriangleWitness((0, 1, 2), (0, 1, 2))
    with mock.patch.object(search, "verify_non_triangular", return_value=triangle):
        with pytest.raises(RuntimeError):
            find_ntlrs(replicate(affine_plane(3), 3), limit=1)


def test_triangular_result_raises():
    check_triangular_result_raises()


def test_time_budget_reported():
    from gqdesigns.geometry import symplectic_gq
    res = find_ovoids(symplectic_gq(5), budget=Budget(max_seconds=1e-9))
    assert res.budget_exceeded
    assert not res.solutions
    assert not res.exhausted
