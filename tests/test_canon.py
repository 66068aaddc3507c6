import random
import re
import subprocess
import sys
from collections import deque
from pathlib import Path
from unittest import mock

import pytest

from gqdesigns import _partition, canon
from gqdesigns.canon import (
    BudgetExceeded,
    CanonStats,
    ColoredGraph,
    are_isomorphic,
    build_graph,
    canonical_form,
    design_graph,
    designs_isomorphic,
    gq_isomorphic,
    incidence_graph,
)
from gqdesigns.geometry import hermitian_gq, parabolic_gq, payne_derivation, symplectic_gq
from gqdesigns.search import Budget, find_ovoids
from gqdesigns.sprott import affine_plane, replicate, sprott_design, sprott_lrs
from gqdesigns.structures import Design, IncidenceStructure, _bits, dual

from conftest import child_env, fano_design, fano_incidence, grid_3x3


# ---------------------------------------------------------
# Helpers
# ---------------------------------------------------------

def _relabel_structure(s: IncidenceStructure, rng: random.Random):
    perm = list(range(s.point_count))
    rng.shuffle(perm)
    lines = [[perm[p] for p in line] for line in s.lines]
    rng.shuffle(lines)
    return IncidenceStructure(s.point_count, lines)


def _relabel_design(d: Design, rng: random.Random):
    perm = list(range(d.point_count))
    rng.shuffle(perm)
    blocks = [[perm[p] for p in blk] for blk in d.blocks]
    rng.shuffle(blocks)
    return Design(d.point_count, blocks)


def _random_colored_graph(rng: random.Random, n: int) -> ColoredGraph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.4]
    colors = [rng.randrange(2) for _ in range(n)]
    return build_graph(n, edges, colors)


def _random_regular_graph(rng: random.Random, n: int, d: int) -> ColoredGraph:
    """A d-regular simple graph on n vertices, n * d even: stubs paired at
    random until no pairing makes a loop or a repeated edge."""
    while True:
        stubs = [x for x in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                break
            edges.add((min(a, b), max(a, b)))
        else:
            return build_graph(n, sorted(edges), [0] * n)


def _relabel_graph(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = []
    for i in range(g.n):
        for j in _bits(g.adj[i]):
            if i < j:
                edges.append((perm[i], perm[j]))
    colors = [None] * g.n
    for i in range(g.n):
        colors[perm[i]] = g.colors[i]
    return build_graph(g.n, edges, colors)


# ---------------------------------------------------------
# Certificates
# ---------------------------------------------------------

def test_digest_is_lowercase_hex(w2):
    form = canonical_form(incidence_graph(w2))
    assert re.fullmatch(r"[0-9a-f]{64}", form.digest)


def test_certificate_invariant_under_relabeling(w2):
    rng = random.Random(11)
    base = canonical_form(incidence_graph(w2)).digest
    for _ in range(100):
        other = _relabel_structure(w2, rng)
        assert canonical_form(incidence_graph(other)).digest == base


def test_design_certificate_invariant_under_relabeling():
    rng = random.Random(12)
    d = replicate(affine_plane(3), 3)
    base = canonical_form(design_graph(d)).digest
    for _ in range(25):
        other = _relabel_design(d, rng)
        assert canonical_form(design_graph(other)).digest == base


def test_random_graph_certificates_match_relabelings():
    rng = random.Random(13)
    for _ in range(40):
        g = _random_colored_graph(rng, rng.randrange(1, 11))
        h = _relabel_graph(g, rng)
        assert canonical_form(g).digest == canonical_form(h).digest
    # 3- and 4-regular graphs leave refinement little to split, so canon's
    # search meets tight leaves worse than the best and compares them with
    # the first leaf: this seed reaches both a match and a miss there
    rng = random.Random(94)
    for _ in range(10):
        d = rng.choice((3, 4))
        n = rng.randrange(10, 21)
        g = _random_regular_graph(rng, n + (n * d) % 2, d)
        h = _relabel_graph(g, rng)
        assert canonical_form(g).digest == canonical_form(h).digest


def _torus_graph(steps) -> ColoredGraph:
    """Cayley graph of Z4 x Z4 whose generators are steps and their negatives."""
    steps = {s for a, b in steps for s in ((a, b), (-a % 4, -b % 4))}
    edges = [(x, y) for x in range(16) for y in range(x + 1, 16)
             if ((y % 4 - x % 4) % 4, (y // 4 - x // 4) % 4) in steps]
    return build_graph(16, edges, [0] * 16)


def test_different_graphs_get_different_certificates():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)], [0] * 4)
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)], [0] * 4)
    assert canonical_form(path).digest != canonical_form(star).digest
    # both are SRG(16, 6, 2, 2), so refinement leaves the unit partition as
    # it is and only the search below it tells them apart
    shrikhande = _torus_graph([(1, 0), (0, 1), (1, 1)])
    rook = _torus_graph([(1, 0), (2, 0), (0, 1), (0, 2)])
    for g in (shrikhande, rook):
        assert g.adj[0].bit_count() == 6
    digests = [canonical_form(g).digest for g in (shrikhande, rook)]
    assert digests[0] != digests[1]
    rng = random.Random(16)
    for g, want in zip((shrikhande, rook), digests):
        for _ in range(20):
            assert canonical_form(_relabel_graph(g, rng)).digest == want


def test_canonical_form_visits_few_leaves():
    # automorphism pruning: without it these take 742 to 1987 leaves
    for s in (symplectic_gq(3), parabolic_gq(3), hermitian_gq(2),
              symplectic_gq(4)):
        stats = canonical_form(incidence_graph(s)).stats
        assert stats.leaves <= 32
        assert stats.generators >= 1


def _counters(stats) -> tuple[int, ...]:
    return (stats.nodes, stats.leaves, stats.generators, stats.orbit_prunes,
            stats.jumps, stats.splitters, stats.splits)


# digest and CanonStats (nodes, leaves, generators, orbit_prunes, jumps,
# splitters, splits); the ovoid is the first that find_ovoids returns on W(2)
FROZEN_FORMS = {
    "W(2)": ("d324029df253087eec86ef43f9fb8f409d34dacb55c962e6447fc3c6b72c4207",
             (14, 7, 6, 20, 4, 137, 150)),
    "W(3)": ("7b9a33410c73366038ea6b60427e063d7535a3a80ed8697bd58ba8f227e26a51",
             (23, 9, 8, 71, 10, 420, 578)),
    "Q(4,3)": ("1a275030dfaad277cf1b399eb061106b1a9e04a93f6bc9361fcde71311d2820b",
               (23, 9, 8, 71, 10, 537, 578)),
    "H(3,4)": ("425f16164856481f264ac9137bdf714b80c0cfc367e314833768a0b5802be591",
               (31, 9, 8, 65, 17, 421, 481)),
    "W(4)": ("c1bcbda5c12ad3ac712133478e813a4f3a2766b7dad8363c1c9367ac29c67eae",
             (24, 10, 9, 174, 10, 1249, 1527)),
    "AG(2,4)": ("1b8c8cadded33ec004a189551173a10937d3a898440d1cc9a82399ad27096ea5",
                (22, 8, 7, 34, 10, 180, 205)),
    "GF(9), lambda 3": ("7e953d2b5c29609fce4c6dd4beac230c0f0c6f52cb1f900fc928fca49bc490b7",
                        (13, 6, 5, 15, 4, 80, 84)),
    "W(2), one ovoid": ("ce85e3c771c09b61e110b0b8bae2b8fd48c4729025d5cb0e6a594d38fce23555",
                        (9, 5, 4, 17, 2, 96, 115)),
}


def test_frozen_forms_and_counters(w2, w2_ovoids):
    assert sorted(w2_ovoids[0]) == [0, 1, 6, 10, 14]
    graphs = {
        "W(2)": incidence_graph(w2),
        "W(3)": incidence_graph(symplectic_gq(3)),
        "Q(4,3)": incidence_graph(parabolic_gq(3)),
        "H(3,4)": incidence_graph(hermitian_gq(2)),
        "W(4)": incidence_graph(symplectic_gq(4)),
        "AG(2,4)": design_graph(affine_plane(4)),
        "GF(9), lambda 3": design_graph(sprott_design(3, 2, 3)[1]),
        "W(2), one ovoid": incidence_graph(w2, w2_ovoids[0]),
    }
    got = {}
    for name, g in graphs.items():
        form = canonical_form(g)
        got[name] = (form.digest, _counters(form.stats))
    assert got == FROZEN_FORMS


# the same on W(4) and AG(2,4) relabeled by random.Random(17) in that order:
# other leaves are searched than as built, and the digests are those of the
# built forms
FROZEN_RELABELED_FORMS = {
    "W(4)": (FROZEN_FORMS["W(4)"][0], (22, 9, 8, 175, 9, 1121, 1371)),
    "AG(2,4)": (FROZEN_FORMS["AG(2,4)"][0], (17, 6, 5, 36, 7, 133, 151)),
}


def test_frozen_relabeled_forms_and_counters():
    rng = random.Random(17)
    graphs = {
        "W(4)": incidence_graph(_relabel_structure(symplectic_gq(4), rng)),
        "AG(2,4)": design_graph(_relabel_design(affine_plane(4), rng)),
    }
    got = {}
    for name, g in graphs.items():
        form = canonical_form(g)
        got[name] = (form.digest, _counters(form.stats))
    assert got == FROZEN_RELABELED_FORMS


# the same for two larger graphs, of 784 and 512 vertices: a Payne
# derivation, which searches more nodes than W(7), and Sprott's q = 8 design
FROZEN_LARGE_FORMS = {
    "P(W(7), 0)": ("3ddf2630618cd61ebb24eb2a2fefb6dd4dda90e4fe0ff589ffd8cacff960851b",
                   (57, 9, 8, 1528, 13, 23711, 26979)),
    "sprott_lrs(8)": ("858a87ed64e8f5ce4d26c2eed244c2bba6b16df2cfeccec86d85b1b99d38081d",
                      (10, 4, 3, 127, 3, 706, 1862)),
}


def test_frozen_forms_of_larger_graphs():
    graphs = {
        "P(W(7), 0)": incidence_graph(payne_derivation(symplectic_gq(7), 0)),
        "sprott_lrs(8)": design_graph(sprott_lrs(8)[0]),
    }
    got = {}
    for name, g in graphs.items():
        form = canonical_form(g)
        got[name] = (form.digest, _counters(form.stats))
    assert got == FROZEN_LARGE_FORMS


def test_relabeled_w5_forms_agree_within_a_node_cap():
    # W(5) is a 312-vertex graph; a search over 200 nodes raises
    # BudgetExceeded
    w5 = symplectic_gq(5)
    graphs = [incidence_graph(w5)]
    graphs += [incidence_graph(_relabel_structure(w5, random.Random(seed)))
               for seed in (5, 6, 7)]
    digests = {canonical_form(g, Budget(max_nodes=200)).digest for g in graphs}
    assert len(digests) == 1


def test_relabeled_order_7_quadrangles_share_a_digest():
    # 800-vertex graphs, where most splitters are one vertex; W(7) and
    # Q(4,7) are dual, not isomorphic, as q is odd
    digests = []
    for s in (symplectic_gq(7), parabolic_gq(7)):
        graphs = [incidence_graph(_relabel_structure(s, random.Random(seed)))
                  for seed in (1, 2, 3)]
        got = {canonical_form(g).digest for g in graphs}
        assert len(got) == 1
        digests += got
    assert digests[0] != digests[1]


def _check_refinement(g: ColoredGraph, before: list[list[int]],
                      after: dict[int, list[int]]) -> None:
    """after is an equitable partition of g's vertices, named by the starts
    of its cells, that refines the ordered partition before in order."""
    cells = [after[start] for start in sorted(after)]
    starts = [0]
    for cell in cells:
        starts.append(starts[-1] + len(cell))
    assert sorted(after) == starts[:-1]
    assert sorted(v for cell in cells for v in cell) == list(range(g.n))
    # each cell lies in the cell of before that holds its positions
    owner = [i for i, cell in enumerate(before) for _ in cell]
    for start, cell in zip(starts, cells):
        i = owner[start]
        assert owner[start + len(cell) - 1] == i
        assert set(cell) <= set(before[i])
    for cell in cells:
        for other in cells:
            mask = sum(1 << x for x in other)
            degrees = {(g.adj[v] & mask).bit_count() for v in cell}
            assert len(degrees) == 1


def test_forms_compare_without_their_counters(w2):
    form = canonical_form(incidence_graph(w2))
    other = form._replace(stats=CanonStats())
    assert form.stats != other.stats
    assert form == other and not form != other and hash(form) == hash(other)
    assert form != form._replace(order=form.order[::-1])
    with pytest.raises(AttributeError):
        form.digest = ""
    assert repr(form).startswith("CanonicalForm(size=30, colors=")

    stats = CanonStats(nodes=2, jumps=1)
    stats.add(CanonStats(1, 2, 3, 4, 5))
    stats.leaves += 1
    assert stats == CanonStats(nodes=3, leaves=3, generators=3, orbit_prunes=4, jumps=6)
    assert repr(stats) == ("CanonStats(nodes=3, leaves=3, generators=3, "
                           "orbit_prunes=4, jumps=6, splitters=0, splits=0)")
    with pytest.raises(TypeError):
        hash(stats)


def _mask_refine(g: ColoredGraph, cells, trace, work, stats):
    """_partition.refine on cells, a map from start to ascending cell list, by
    way of masks: cells is updated in place and the map from each vertex of
    a non-singleton cell to its cell's start is returned."""
    masks = {start: sum(1 << x for x in cell) for start, cell in cells.items()}
    cell_at = [0] * g.n
    for start, cell in cells.items():
        for x in cell:
            cell_at[x] = start
    live = sum(mask for mask in masks.values() if mask & (mask - 1))
    live = _partition.refine(list(g.adj), masks, cell_at, live, trace, work, stats)
    cells.clear()
    cells.update((start, _bits(mask)) for start, mask in masks.items())
    return {x: cell_at[x] for x in _bits(live)}


def _multi_vertex_inputs():
    """Graphs whose refinement runs many splitters of more than one vertex:
    colors by multiplicity, colors by an ovoid (W(3), q odd, has none; Q(4,3)
    is the GQ(3,3) that does), and a Payne derivation; with their point
    counts."""
    q43 = parabolic_gq(3)
    ovoid = find_ovoids(q43, limit=1).solutions[0]
    w4 = payne_derivation(symplectic_gq(4), 0)
    return [(design_graph(replicate(affine_plane(3), 3)), 9),
            (incidence_graph(q43, ovoid), q43.point_count),
            (incidence_graph(w4), w4.point_count)]


def test_refinement_is_equitable_and_refines_its_input():
    rng = random.Random(18)
    graphs = [_random_colored_graph(rng, rng.randrange(1, 16)) for _ in range(30)]
    graphs += [incidence_graph(symplectic_gq(2)), incidence_graph(symplectic_gq(3)),
               _torus_graph([(1, 0), (0, 1), (1, 1)])]
    graphs += [g for g, _ in _multi_vertex_inputs()]
    for g in graphs:
        by_color = {}
        for v in range(g.n):
            by_color.setdefault(g.colors[v], []).append(v)
        before = [by_color[key] for key in sorted(by_color)]
        cells, start = {}, 0
        for cell in before:
            cells[start] = cell
            start += len(cell)
        _mask_refine(g, cells, [], list(cells), CanonStats())
        _check_refinement(g, before, cells)
        # individualize one vertex of a non-singleton cell, as a search
        # node does, and refine from the singleton only
        big = [start for start, cell in cells.items() if len(cell) > 1]
        if not big:
            continue
        start = rng.choice(big)
        cell = cells[start]
        v = rng.choice(cell)
        fresh = [[v], [x for x in cell if x != v]]
        child = dict(cells)
        child[start], child[start + 1] = fresh
        before = [child[s] for s in sorted(child)]
        _mask_refine(g, child, [], [start], CanonStats())
        _check_refinement(g, before, child)


def _reference_refine(adj, cells, trace, work, stats):
    """_partition.refine by its general rule alone: every splitter, one
    vertex or more, splits by neighbor counts."""
    n = len(adj)
    cell_at = {x: start for start, cell in cells.items() if len(cell) > 1
               for x in cell}
    work = deque(work)
    queued = set(work)
    while work and len(cells) < n:
        splitter = work.popleft()
        queued.discard(splitter)
        stats.splitters += 1
        cnt = {}
        for u in cells[splitter]:
            for w in adj[u]:
                cnt[w] = cnt.get(w, 0) + 1
        for start in sorted({cell_at[w] for w in cnt if w in cell_at}):
            parts = {}
            for x in cells[start]:
                parts.setdefault(cnt.get(x, 0), []).append(x)
            if len(parts) == 1:
                continue
            stats.splits += 1
            trace += [-1, start]
            keys = sorted(parts)
            largest = None if start in queued else max(keys, key=lambda k: len(parts[k]))
            for key in keys:
                piece = parts[key]
                cells[start] = piece
                trace += [key, len(piece)]
                if len(piece) > 1:
                    for x in piece:
                        cell_at[x] = start
                else:
                    del cell_at[piece[0]]
                if key != largest and start not in queued:
                    queued.add(start)
                    work.append(start)
                start += len(piece)
    return cell_at


def _refine_both_ways(g: ColoredGraph, cells, work):
    """_partition.refine and the reference on copies of cells; both must give
    the same cells, trace, cell map and counters.  Returns the cells."""
    got, want = dict(cells), dict(cells)
    got_trace, want_trace = [], []
    got_stats, want_stats = CanonStats(), CanonStats()
    got_at = _mask_refine(g, got, got_trace, list(work), got_stats)
    want_at = _reference_refine([_bits(m) for m in g.adj], want, want_trace,
                                list(work), want_stats)
    assert got == want and got_trace == want_trace and got_at == want_at
    assert got_stats == want_stats
    return got


def _colored_cells(g: ColoredGraph):
    by_color = {}
    for v in range(g.n):
        by_color.setdefault(g.colors[v], []).append(v)
    cells, start = {}, 0
    for key in sorted(by_color):
        cells[start] = by_color[key]
        start += len(by_color[key])
    return cells


def _individualize(cells, start, v):
    child = dict(cells)
    child[start], child[start + 1] = [v], [x for x in cells[start] if x != v]
    return child


def test_one_vertex_splits_follow_the_counting_rule():
    rng = random.Random(19)
    for _ in range(60):
        g = _random_colored_graph(rng, rng.randrange(2, 20))
        cells = _refine_both_ways(g, _colored_cells(g), list(_colored_cells(g)))
        big = [start for start in sorted(cells) if len(cells[start]) > 1]
        if big:
            for v in cells[big[0]]:
                _refine_both_ways(g, _individualize(cells, big[0], v), [big[0]])
    w5 = _relabel_structure(symplectic_gq(5), random.Random(20))
    inputs = [(incidence_graph(s), s.point_count) for s in (symplectic_gq(3), w5)]
    for g, points in inputs + _multi_vertex_inputs():
        cells = _refine_both_ways(g, _colored_cells(g), list(_colored_cells(g)))
        # one point, then one line of the refined partition
        for lines in (False, True):
            start = min(start for start, cell in cells.items()
                        if len(cell) > 1 and (cell[0] >= points) == lines)
            cells = _refine_both_ways(
                g, _individualize(cells, start, cells[start][0]), [start])


def test_budget_cuts_canonical_form():
    g = incidence_graph(symplectic_gq(3))
    with pytest.raises(BudgetExceeded) as cut:
        canonical_form(g, Budget(max_nodes=1))
    assert cut.value.stats.nodes == 2
    # a cut isomorphism test still adds the cut form's counters
    stats = CanonStats()
    with pytest.raises(BudgetExceeded):
        are_isomorphic(g, g, Budget(max_nodes=1), stats)
    assert stats == cut.value.stats and stats.nodes == 2


# ---------------------------------------------------------
# Isomorphism decisions
# ---------------------------------------------------------

def test_mapping_is_a_verified_bijection(w2):
    rng = random.Random(14)
    other = _relabel_structure(w2, rng)
    ok, mapping = gq_isomorphic(w2, other)
    assert ok
    assert sorted(mapping) == list(range(15))
    assert sorted(mapping.values()) == list(range(15))
    lines = {tuple(sorted(mapping[p] for p in line)) for line in w2.lines}
    assert lines == set(other.lines)


def test_w2_equals_its_dual_and_the_parabolic_quadrangle(w2):
    assert gq_isomorphic(w2, dual(w2))[0]
    assert gq_isomorphic(w2, parabolic_gq(2))[0]


def test_w3_differs_from_the_parabolic_quadrangle():
    ok, mapping = gq_isomorphic(symplectic_gq(3), parabolic_gq(3))
    assert not ok and mapping is None


def test_grid_not_isomorphic_to_its_dual():
    ok, _ = gq_isomorphic(grid_3x3(), dual(grid_3x3()))
    assert not ok


def test_sprott_design_is_three_planes():
    _, d = sprott_design(3, 2, 3)
    ok, mapping = designs_isomorphic(d, replicate(affine_plane(3), 3))
    assert ok
    assert sorted(mapping.values()) == list(range(9))


def test_repeated_blocks_counted_by_multiplicity():
    single = affine_plane(3)
    doubled = replicate(single, 2)
    ok, _ = designs_isomorphic(single, doubled)
    assert not ok


# ---------------------------------------------------------
# Ovoid-colored comparisons
# ---------------------------------------------------------

def _line_preserving_maps(a: IncidenceStructure, b: IncidenceStructure):
    """Brute-force automorphism oracle via the networkx VF2 matcher."""
    nx = pytest.importorskip("networkx")
    ga = nx.Graph()
    gb = nx.Graph()
    for g, s in [(ga, a), (gb, b)]:
        for p in range(s.point_count):
            g.add_node(("p", p), kind="point")
        for j, line in enumerate(s.lines):
            g.add_node(("l", j), kind="line")
            for p in line:
                g.add_edge(("l", j), ("p", p))
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        ga, gb, node_match=lambda u, v: u["kind"] == v["kind"])
    for iso in matcher.isomorphisms_iter():
        yield {p: iso[("p", p)][1] for p in range(a.point_count)}


def test_ovoid_coloring_matches_automorphism_oracle(w2, w2_ovoids):
    # two marked quadrangles are equivalent iff some line-preserving
    # bijection carries one ovoid onto the other
    o1 = w2_ovoids[0]
    for o2 in w2_ovoids:
        expect = any(frozenset(m[p] for p in o1) == frozenset(o2)
                     for m in _line_preserving_maps(w2, w2))
        got, mapping = gq_isomorphic(w2, w2, o1, o2)
        assert got == expect
        if got:
            assert frozenset(mapping[p] for p in o1) == frozenset(o2)


def test_ovoids_must_come_in_pairs(w2, w2_ovoids):
    with pytest.raises(ValueError):
        gq_isomorphic(w2, w2, w2_ovoids[0], None)


def _edge_list_graph(s: IncidenceStructure, marked=frozenset()) -> ColoredGraph:
    """The point/line or point/block graph, through build_graph from an
    explicit edge list, with the colors incidence_graph and design_graph
    give."""
    v = s.point_count
    if isinstance(s, Design):
        rows = sorted(set(s.blocks))
        colors = [(0, 0)] * v + [(1, s.blocks.count(row)) for row in rows]
    else:
        rows = s.lines
        colors = [(0, 1 if p in marked else 0) for p in range(v)]
        colors += [(1, 0)] * len(rows)
    edges = [(p, v + j) for j, row in enumerate(rows) for p in row]
    return build_graph(v + len(rows), edges, colors)


def test_structure_graphs_match_the_edge_list_build(w2, w2_ovoids):
    w3 = _relabel_structure(symplectic_gq(3), random.Random(17))
    cases = [(incidence_graph(w2), _edge_list_graph(w2)),
             (incidence_graph(w2, w2_ovoids[0]), _edge_list_graph(w2, w2_ovoids[0])),
             (incidence_graph(w3), _edge_list_graph(w3)),
             (incidence_graph(hermitian_gq(2)), _edge_list_graph(hermitian_gq(2)))]
    q43 = parabolic_gq(3)
    ovoid = find_ovoids(q43, limit=1).solutions[0]
    pw4 = payne_derivation(symplectic_gq(4), 0)
    lonely = IncidenceStructure(4, [(0, 1), (1, 2)])  # point 3's mask is 0
    cases += [(incidence_graph(q43, ovoid), _edge_list_graph(q43, ovoid)),
              (incidence_graph(pw4), _edge_list_graph(pw4)),
              (incidence_graph(lonely), _edge_list_graph(lonely))]
    for d in (replicate(affine_plane(3), 3), sprott_design(3, 2, 3)[1],
              Design(3, [(0, 1), (1, 2), (0, 1)])):
        cases.append((design_graph(d), _edge_list_graph(d)))
    # an edge named again, either way round, adds nothing
    cases.append((build_graph(2, [(0, 1), (1, 0), (0, 1)], [0, 0]),
                  build_graph(2, [(0, 1)], [0, 0])))
    for direct, listed in cases:
        assert direct == listed
        # == cannot tell True from 1, but the digest hashes repr(colors)
        assert repr(direct.colors) == repr(listed.colors)


@pytest.mark.parametrize("edge", [(-1, 0), (0, 3), (5, 1)])
def test_edges_must_join_vertices_of_the_graph(edge):
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) has a vertex outside 0..2"):
        build_graph(3, [(0, 1), edge], [0] * 3)


def test_graphs_refuse_loops_and_short_colorings():
    with pytest.raises(ValueError, match="^loops are not supported$"):
        build_graph(3, [(0, 1), (2, 2)], [0] * 3)
    with pytest.raises(ValueError, match="^need one color per vertex$"):
        build_graph(3, [(0, 1)], [0] * 2)


@pytest.mark.parametrize("colors, vertex", [
    ([0, (1, 0), 0], 1),  # kinds that do not sort together
    ([1.0, 0, 1], 0),     # equal colors that print apart, so that a
    ([1, 0, 1.0], 2),     # relabeling would change the digest
    ([True, 0, 1], 0),
])
def test_colors_must_be_all_ints_or_all_int_tuples(colors, vertex):
    with pytest.raises(ValueError, match=rf"^vertex {vertex} has color "):
        build_graph(3, [(0, 1), (1, 2)], colors)


@pytest.mark.parametrize("edge", [(True, 2), (0, 2.0), ("0", 1)])
def test_edge_ends_must_be_ints(edge):
    with pytest.raises(ValueError, match="not an int"):
        build_graph(3, [(0, 1), edge], [0] * 3)


def test_marked_points_must_be_ints(w2):
    # a non-int point would otherwise mark nothing, or True would mark point 1
    for bad in ([1.5], [True], [0, "2"]):
        with pytest.raises(ValueError, match="is not an int"):
            incidence_graph(w2, bad)
        with pytest.raises(ValueError, match="is not an int"):
            gq_isomorphic(w2, w2, bad, [0])


def test_marked_points_must_lie_in_the_structure(w2):
    for bad, name in (({99}, "99"), ({0, 99}, "99"), ({-1, 3}, "-1")):
        with pytest.raises(ValueError, match=f"point {name} outside"):
            incidence_graph(w2, bad)
    with pytest.raises(ValueError, match="99"):
        gq_isomorphic(w2, w2, {0, 99}, {0})


def test_incidence_vs_networkx_on_small_corpus(w2):
    nx = pytest.importorskip("networkx")
    rng = random.Random(15)
    cases = [grid_3x3(), fano_incidence(), w2]
    for s in cases:
        other = _relabel_structure(s, rng)
        ours = gq_isomorphic(s, other)[0]
        theirs = next(_line_preserving_maps(s, other), None) is not None
        assert ours is True and theirs is True
    ours = gq_isomorphic(grid_3x3(), dual(grid_3x3()))[0]
    theirs = next(_line_preserving_maps(grid_3x3(), dual(grid_3x3())), None)
    assert ours is False and theirs is None


# ---------------------------------------------------------
# Witness postconditions
# ---------------------------------------------------------

def check_wrong_witnesses_raise():
    """Each isomorphism decision raises when a canonical labeling is wrong.

    Rotating a canonical labeling keeps the certificate but moves a vertex of
    one color onto a position of another.  Swapping its first two positions
    is no automorphism of W(2) or of the Fano plane.  Also run under
    python -O, where assert statements vanish.
    """
    def corrupted(change):
        """canonical_form, with the order of its second form changed."""
        calls = []

        def form_of(g, budget=None):
            form = canonical_form(g, budget)
            calls.append(g)
            if len(calls) == 2:
                form = form._replace(order=change(form.order))
            return form
        return mock.patch.object(canon, "canonical_form", form_of)

    def rotate(order):
        return order[1:] + order[:1]

    def swap(order):
        return (order[1], order[0]) + order[2:]

    w2 = symplectic_gq(2)
    with corrupted(rotate):
        with pytest.raises(RuntimeError):
            are_isomorphic(incidence_graph(w2), incidence_graph(w2))
    for decide, x in ((gq_isomorphic, w2), (designs_isomorphic, fano_design())):
        for change in (rotate, swap):
            with corrupted(change):
                with pytest.raises(RuntimeError, match="labelings disagree"):
                    decide(x, x)


def test_wrong_witnesses_raise():
    check_wrong_witnesses_raise()


def test_wrong_witnesses_raise_under_optimize():
    code = ("import sys, test_canon, test_search\n"
            "if __debug__: sys.exit('assertions are still on')\n"
            "test_canon.check_wrong_witnesses_raise()\n"
            "test_search.check_triangular_result_raises()\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          cwd=Path(__file__).parent, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
