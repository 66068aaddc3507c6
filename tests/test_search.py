import copy
import hashlib
import itertools
import pickle
import random
from unittest import mock

import pytest

from gqdesigns import search
from gqdesigns.correspondence import design_from_ovoid
from gqdesigns.geometry import hermitian_gq, parabolic_gq, symplectic_gq
from gqdesigns.search import (
    Budget,
    ExactCoverInstance,
    SearchResult,
    find_ntlrs,
    find_ovoids,
    solve_exact_cover,
)
from gqdesigns.sprott import affine_plane, replicate, sprott_design, sprott_lrs
from gqdesigns.structures import (
    Design,
    IncidenceStructure,
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
    # not an int: the search would fail on << instead
    with pytest.raises(ValueError, match="candidate 1 covers 1.5"):
        ExactCoverInstance(3, (frozenset({0}), frozenset({1.5})))
    with pytest.raises(ValueError, match="candidate 1 covers True, not an int"):
        ExactCoverInstance(3, (frozenset({0}), frozenset({True})))


@pytest.mark.parametrize("universe", [1.5, True, None])
def test_universe_must_be_an_int(universe):
    with pytest.raises(ValueError, match="universe size must be an int"):
        ExactCoverInstance(universe, ())


@pytest.mark.parametrize("fields", [
    {"max_seconds": float("nan")},  # would never cut
    {"max_seconds": float("inf")},
    {"max_seconds": -0.5},
    {"max_seconds": "1"},
    {"max_nodes": -3},  # would cut at the first node
    {"max_nodes": 2.5},
    {"max_nodes": False},  # a bool is not a count
    {"max_nodes": True},
    {"max_seconds": True},
    {"max_seconds": False},
])
def test_budget_rejects_bad_limits(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        Budget(**fields)


@pytest.mark.parametrize("limit", [0, -1, 2.5, True, False, "2", 2.0])
def test_searches_reject_a_limit_that_is_not_a_positive_int(limit):
    # checked before find_ovoids and find_ntlrs verify their inputs, which
    # here are invalid
    with pytest.raises(ValueError, match="limit must be None or an int >= 1"):
        solve_exact_cover(ExactCoverInstance(2, (frozenset({0, 1}),)), limit=limit)
    with pytest.raises(ValueError, match="limit must be None or an int >= 1"):
        find_ovoids(fano_incidence(), limit=limit)
    with pytest.raises(ValueError, match="limit must be None or an int >= 1"):
        find_ntlrs(Design(4, [(0, 1), (2, 3)]), limit=limit)


def test_searches_accept_a_positive_int_limit(w2, tripled_plane):
    assert len(find_ovoids(w2, limit=2).solutions) == 2
    assert len(find_ntlrs(tripled_plane, limit=2).solutions) == 2
    assert len(solve_exact_cover(ExactCoverInstance(1, (frozenset({0}),) * 3),
                                 limit=2).solutions) == 2


def test_budget_accepts_its_bounds():
    assert Budget(max_nodes=0, max_seconds=0).max_nodes == 0
    assert Budget(max_seconds=3).max_seconds == 3
    assert Budget() == Budget(None, None)


def test_validated_records_are_frozen_values():
    for rec, fields in ((Budget(max_nodes=5), (5, None)),
                        (ExactCoverInstance(2, (frozenset({0, 1}),)),
                         (2, (frozenset({0, 1}),)))):
        twin = type(rec)(*fields)
        assert rec == twin and hash(rec) == hash(twin) == hash(fields)
        assert rec != fields
        assert copy.copy(rec) == copy.deepcopy(rec) == pickle.loads(pickle.dumps(rec)) == rec
        for name in rec.__slots__:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
    assert Budget(max_nodes=5) != Budget(max_seconds=5)
    assert repr(Budget(max_seconds=1.5)) == "Budget(max_nodes=None, max_seconds=1.5)"
    assert repr(ExactCoverInstance(1, ())) == "ExactCoverInstance(universe=1, candidates=())"
    res = SearchResult([], True, 3)
    assert res == SearchResult(solutions=[], exhausted=True, nodes=3, budget_exceeded=False)
    with pytest.raises(AttributeError):
        res.nodes = 4


@pytest.mark.parametrize("every, reads", [(1, 9), (4, 3), (1024, 1)])
def test_meter_reads_the_clock_at_the_first_node_then_every_n(every, reads):
    # nodes 1, 1 + every, 1 + 2 * every, ... read the clock
    with mock.patch.object(search.time, "monotonic", return_value=0.0) as clock:
        meter = search._Meter(Budget(max_seconds=100.0), every=every)
        for _ in range(9):
            meter.tick()
    assert clock.call_count == 1 + reads  # the first call sets the deadline


def test_zero_time_budget_cuts_a_short_search():
    # W(2) is exhausted in 28 nodes, fewer than the 1024 between clock reads
    res = find_ovoids(symplectic_gq(2), budget=Budget(max_seconds=0))
    assert res.budget_exceeded
    assert not res.exhausted
    assert res.solutions == []
    assert res.nodes == 1


def test_long_cover_does_not_recurse():
    # one branching node per chosen candidate: 1500 of them would exceed the
    # interpreter's default recursion limit
    inst = ExactCoverInstance(1500, tuple(frozenset({i}) for i in range(1500)))
    res = solve_exact_cover(inst)
    assert res.exhausted
    assert res.solutions == [frozenset(range(1500))]
    assert res.nodes == 1501


def _reference_exact_cover(inst, limit=None, budget=None):
    """The list-based engine solve_exact_cover replaced, kept as an oracle.

    At every node it rebuilds, for each uncovered element, the list of
    candidates disjoint from the covered set, and branches on the shortest
    list (ties to the lowest element).
    """
    universe = inst.universe
    masks = []
    for cand in inst.candidates:
        m = 0
        for e in cand:
            m |= 1 << e
        masks.append(m)
    full = (1 << universe) - 1
    by_element = [[i for i, m in enumerate(masks) if (m >> e) & 1] for e in range(universe)]
    meter = search._Meter(budget)
    solutions = []
    chosen = []

    def rec(covered):
        meter.tick()
        if covered == full:
            solutions.append(frozenset(chosen))
            if limit is not None and len(solutions) >= limit:
                raise search._Stop(False)
            return
        best = None
        rest = full & ~covered
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            avail = [i for i in by_element[e] if not masks[i] & covered]
            if best is None or len(avail) < len(best):
                best = avail
                if not avail:
                    break
        for i in best:
            chosen.append(i)
            rec(covered | masks[i])
            chosen.pop()

    exhausted = True
    budget_hit = False
    try:
        if universe == 0:
            solutions.append(frozenset())
        else:
            rec(0)
    except search._Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(solutions, exhausted, meter.nodes, budget_hit)


def _random_instance(rng):
    n = rng.randrange(0, 16)
    candidates = []
    for _ in range(rng.randrange(0, 24)):
        if n == 0 or rng.random() < 0.03:
            candidates.append(frozenset())
        elif candidates and rng.random() < 0.1:
            candidates.append(rng.choice(candidates))  # a repeated candidate
        else:
            size = min(n, 1 + int(rng.expovariate(0.6)))
            candidates.append(frozenset(rng.sample(range(n), size)))
    return ExactCoverInstance(n, tuple(candidates))


def test_exact_cover_matches_reference_engine():
    rng = random.Random(6021)
    runs = 0
    for _ in range(400):
        inst = _random_instance(rng)
        for limit, budget in [(None, None),
                              (rng.randrange(1, 4), None),
                              (None, Budget(max_nodes=rng.randrange(1, 40))),
                              (rng.randrange(1, 4), Budget(max_nodes=rng.randrange(1, 40)))]:
            got = solve_exact_cover(inst, limit=limit, budget=budget)
            want = _reference_exact_cover(inst, limit=limit, budget=budget)
            assert (got.solutions, got.nodes, got.exhausted, got.budget_exceeded) == \
                (want.solutions, want.nodes, want.exhausted, want.budget_exceeded), \
                (inst, limit, budget)
            runs += 1
    assert runs == 1600


def _tall_instance(rng):
    """Up to 16 elements, one to three of them with 30-80 candidates, often
    exactly 32 or 64, so one kill borrows across six or seven count planes.
    Some candidates repeat the one before, and most overlap, so the kills of
    one choice are subtracted in several batches."""
    n = rng.randrange(6, 17)
    counts = [0] * n
    candidates = []
    for e in rng.sample(range(n), rng.randrange(1, 4)):
        target = rng.choice([32, 64, 31, 33, 63, 65, rng.randrange(30, 81)])
        while counts[e] < target:
            if candidates and e in candidates[-1] and rng.random() < 0.15:
                cand = candidates[-1]
            else:
                cand = frozenset([e, *rng.sample(range(n), rng.randrange(1, n // 2 + 1))])
            candidates.append(cand)
            for x in cand:
                counts[x] += 1
    for _ in range(rng.randrange(0, 6)):
        candidates.append(frozenset(rng.sample(range(n), rng.randrange(1, 3))))
    rng.shuffle(candidates)
    return ExactCoverInstance(n, tuple(candidates)), counts


def test_exact_cover_matches_reference_engine_on_tall_columns():
    rng = random.Random(3264)
    at_power = 0
    for _ in range(80):
        inst, counts = _tall_instance(rng)
        at_power += 32 in counts or 64 in counts
        for limit, budget in [(None, None),
                              (rng.randrange(1, 6), None),
                              (None, Budget(max_nodes=rng.randrange(1, 300))),
                              (rng.randrange(1, 6), Budget(max_nodes=rng.randrange(1, 300)))]:
            got = solve_exact_cover(inst, limit=limit, budget=budget)
            want = _reference_exact_cover(inst, limit=limit, budget=budget)
            assert (got.solutions, got.nodes, got.exhausted, got.budget_exceeded) == \
                (want.solutions, want.nodes, want.exhausted, want.budget_exceeded), \
                (inst, limit, budget)
    assert at_power >= 20


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
# Resolution search
# ---------------------------------------------------------

def test_fano_has_no_ntlrs():
    res = find_ntlrs(fano_design())
    assert res.exhausted
    assert not res.solutions


def test_no_ntlrs_search_when_k_minus_1_does_not_divide_v_minus_1():
    # a class about a point partitions the other v - 1 points into pieces of
    # k - 1, so a 2-(6,3,2) design has no system and nothing is searched
    d = Design(6, [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
                   (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)])
    assert find_ntlrs(d) == SearchResult([], True, 0)


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


def test_paper_design_search_does_not_nest_per_point():
    # v = 64 and 448 instances: a search that nests one point inside the
    # previous point's call runs out of interpreter stack here
    d, explicit = sprott_lrs(8)
    res = find_ntlrs(d, limit=1)
    assert res.nodes == 4604
    assert res.solutions == [explicit]
    assert not res.exhausted
    assert not res.budget_exceeded


# ---------------------------------------------------------
# Frozen search traces
# ---------------------------------------------------------

def _relabeled(s, seed, kind):
    """Points and lines (block instances) of s, each in a seeded order."""
    rng = random.Random(seed)
    perm = list(range(s.point_count))
    rng.shuffle(perm)
    lines = [[perm[x] for x in line] for line in s.lines]
    rng.shuffle(lines)
    return kind(s.point_count, lines)


def _h34_design():
    # the design of H(3,4)'s last ovoid: block multiplicities 1 and 3
    s = hermitian_gq(2)
    return design_from_ovoid(s, find_ovoids(s).solutions[-1])[0]


def _solution_key(sol):
    if hasattr(sol, "classes"):  # a LocalResolutionSystem
        return tuple(tuple(tuple(sorted(c)) for c in row) for row in sol.classes)
    return tuple(sorted(sol))  # an ovoid


def _trace(res):
    digest = hashlib.sha256(repr([_solution_key(s) for s in res.solutions]).encode())
    return (res.nodes, res.exhausted, res.budget_exceeded, len(res.solutions),
            digest.hexdigest())


def _tripled(seed):
    return _relabeled(replicate(affine_plane(3), 3), seed, Design)


# (nodes, exhausted, budget_exceeded, solutions, sha256 of the ordered
# solutions); the search order is part of the contract, so a faster engine
# must reproduce each trace exactly
NO_SOLUTIONS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"
FROZEN_TRACES = {
    "ovoids W(4)": (
        lambda: find_ovoids(symplectic_gq(4)),
        (1790, True, False, 120, "045c8c0efda1f07505ad8152148cfcdd0e0735a31f010f8fa9728e3c4b7a3bf6")),
    "ovoids Q(4,4)": (
        lambda: find_ovoids(parabolic_gq(4)),
        (1826, True, False, 120, "e1c0aa13f380e739cdbe0b9847c92d3819ab8215d1721ec4d093bc29c8dab412")),
    "ovoids H(3,4)": (
        lambda: find_ovoids(hermitian_gq(2)),
        (1126, True, False, 200, "3c696becad441d7e47ea3db735b92315e7b0d9229433ca44f8454263c0eeaf26")),
    "ovoids Q(4,3) seed 1": (
        lambda: find_ovoids(_relabeled(parabolic_gq(3), 1, IncidenceStructure)),
        (281, True, False, 36, "bedfbc33048a4f0b38c428ad8e186daef05204ac52800432d2d8f1444215a8d5")),
    "ovoids Q(4,3) seed 2": (
        lambda: find_ovoids(_relabeled(parabolic_gq(3), 2, IncidenceStructure)),
        (281, True, False, 36, "1afca80f9a8e252b219a25a81aaf223c3f1d1c2eef191558c73b7c4be3df8c25")),
    "ovoids W(5) seed 1": (
        lambda: find_ovoids(_relabeled(symplectic_gq(5), 1, IncidenceStructure)),
        (2436, True, False, 0, NO_SOLUTIONS)),
    "ovoids W(5) seed 2": (
        lambda: find_ovoids(_relabeled(symplectic_gq(5), 2, IncidenceStructure)),
        (2437, True, False, 0, NO_SOLUTIONS)),
    "ovoids Q(4,5) seed 1": (
        lambda: find_ovoids(_relabeled(parabolic_gq(5), 1, IncidenceStructure)),
        (14674, True, False, 300, "e5587d31537f03e502c20c774d6a3197aefb41d7541a23d53d85d2cfc25dbcf7")),
    "ovoids H(3,9) seed 1 limit 500": (  # lines of 10 points: 4 count planes
        lambda: find_ovoids(_relabeled(hermitian_gq(3), 1, IncidenceStructure), limit=500),
        (8777, False, False, 500, "9820c26d8518f1d183239c9461e719056745ac35ef0dc4e830689514bbaf013f")),
    "ovoids W(7) seed 1 3k nodes": (
        lambda: find_ovoids(_relabeled(symplectic_gq(7), 1, IncidenceStructure),
                            budget=Budget(max_nodes=3000)),
        (3001, False, True, 0, NO_SOLUTIONS)),
    "ntlrs 3xAG(2,3)": (
        lambda: find_ntlrs(replicate(affine_plane(3), 3)),
        (8577, True, False, 72, "82addeb6a62038e60718346752bb246af6acaccb10b524d77e8ceed7665dd6f7")),
    "ntlrs 4xAG(2,4) limit 3": (
        lambda: find_ntlrs(replicate(affine_plane(4), 4), limit=3),
        (82201, False, False, 3, "1a76e18f5d24b3e6e22b857328d9e9128d13fc51277a150eec3eac1aaf86b4de")),
    "ntlrs GF(16) lambda 6": (
        lambda: find_ntlrs(sprott_design(2, 4, 6)[1]),
        (304, True, False, 1, "b5202dbab079635bb8a148ed60869f9be1d25b8cce14ea51f310bcd93b6bdcd0")),
    "ntlrs Fano": (
        lambda: find_ntlrs(fano_design()),
        (14, True, False, 0, NO_SOLUTIONS)),
    "ntlrs 5xAG(2,5) 30k nodes": (
        lambda: find_ntlrs(replicate(affine_plane(5), 5), limit=1,
                           budget=Budget(max_nodes=30_000)),
        (30001, False, True, 0, NO_SOLUTIONS)),
    "ntlrs H(3,4) last ovoid": (
        lambda: find_ntlrs(_h34_design()),
        (2068, True, False, 18, "2e86c8d235f0caddc32d6b47ec1a9e8486020f9ad4af59cc8a9c362fbdabf87d")),
    "ntlrs 3xAG(2,3) seed 1": (
        lambda: find_ntlrs(_tripled(1)),
        (21615, True, False, 216, "d6e2ece3aff99203e223c949eb9b67ab659efa8c273e1dc2dfa96aa4acdba44f")),
    "ntlrs 3xAG(2,3) seed 2": (
        lambda: find_ntlrs(_tripled(2)),
        (1761, True, False, 20, "3e82b23eab897ee2ccf6b7dfe2e1f605f0ec967ce5b6db24ff6ffea2c9f0826e")),
    "ntlrs 3xAG(2,3) seed 3": (
        lambda: find_ntlrs(_tripled(3)),
        (12333, True, False, 108, "c27341ca4248153efd2407257bb2ada4db8ed2f3a0c1b66bc4d43426352cb4fb")),
    "ntlrs 3xAG(2,3) seed 4": (
        lambda: find_ntlrs(_tripled(4)),
        (4566, True, False, 48, "13318e5a6cb5c0d477d70f2456703b54bd4a15732d88b1b7e265e64790272079")),
    "ntlrs 3xAG(2,3) seed 5": (
        lambda: find_ntlrs(_tripled(5)),
        (6955, True, False, 96, "0529769082bd1dec5fb53333ae678e400208099d748ea4b93672878214a90d92")),
    "ntlrs 3xAG(2,3) seed 6": (
        lambda: find_ntlrs(_tripled(6)),
        (11035, True, False, 144, "158a2d70d2d7b85d79379c2d59db55dc00b4be61dfcc63657e46c8cb8e2602d3")),
}


@pytest.mark.parametrize("name", list(FROZEN_TRACES))
def test_frozen_search_traces(name):
    run, want = FROZEN_TRACES[name]
    assert _trace(run()) == want
