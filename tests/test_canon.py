import dataclasses
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from gqdesigns import canon
from gqdesigns.canon import (
    BudgetExceeded,
    ColoredGraph,
    are_isomorphic,
    build_graph,
    canonical_form,
    design_graph,
    designs_isomorphic,
    gq_isomorphic,
    incidence_graph,
)
from gqdesigns.geometry import hermitian_gq, parabolic_gq, symplectic_gq
from gqdesigns.search import Budget
from gqdesigns.sprott import affine_plane, replicate, sprott_design
from gqdesigns.structures import Design, IncidenceStructure, dual

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


def _relabel_graph(g: ColoredGraph, rng: random.Random) -> ColoredGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = []
    for i in range(g.n):
        for j in g.adj[i]:
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
        assert len(g.adj[0]) == 6
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


# digest and CanonStats (nodes, leaves, generators, orbit_prunes, jumps,
# refines) as computed before the orbit bookkeeping changed; the ovoid is the
# first that find_ovoids returns on W(2)
FROZEN_FORMS = {
    "W(2)": ("6c59613bf10ff484c73d8f9d1677121157fdd58a79ea56272b60f6ec63ec331b",
             (28, 7, 6, 14, 15, 28)),
    "W(3)": ("459ac40f4c45a6f3392f1c26f753b310fd61927b285092547338cd2249943ab4",
             (45, 9, 8, 44, 28, 45)),
    "Q(4,3)": ("5b81eba27d9c7717be4d2f3387fe3fa2aab50adef11c0687dea0b6697d231284",
               (45, 9, 8, 44, 28, 45)),
    "H(3,4)": ("8fdce666cec0a1f29075ae7bd31fc5c94cb5e0587b353e59c39fb40d2d6aff13",
               (55, 10, 9, 31, 36, 55)),
    "W(4)": ("f8b7fd47ef017f6c53c2223bff47d83c72b3c61dd990693fa04115e7736e6896",
             (87, 12, 11, 127, 44, 87)),
    "AG(2,4)": ("257fc949c4d39b3dcf1805a5879f942aab785a41f13a5683faaed2e338d6e6c8",
                (37, 9, 7, 23, 20, 37)),
    "GF(9), lambda 3": ("aaeed3abb25f7907b091cef524f856cc004f636642c011e8b33f16107fddd8d3",
                        (21, 6, 5, 10, 10, 21)),
    "W(2), one ovoid": ("c57fb0e1a902b5f8f4629af2777c1a0206c3a37945f4957cb64a50b06552da01",
                        (21, 6, 5, 4, 10, 21)),
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
        got[name] = (form.digest, dataclasses.astuple(form.stats))
    assert got == FROZEN_FORMS


def test_budget_cuts_canonical_form():
    with pytest.raises(BudgetExceeded) as cut:
        canonical_form(incidence_graph(symplectic_gq(3)), Budget(max_nodes=1))
    assert cut.value.stats.nodes == 2


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


@pytest.mark.parametrize("edge", [(-1, 0), (0, 3), (5, 1)])
def test_edges_must_join_vertices_of_the_graph(edge):
    with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) has a vertex outside 0..2"):
        build_graph(3, [(0, 1), edge], [0] * 3)


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
        with pytest.raises(ValueError, match=f"marked point {name} outside"):
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
    """Each isomorphism decision raises when handed a wrong bijection.

    Rotating a canonical labeling keeps the certificate but moves a vertex of
    one color onto a position of another.  Swapping points 0 and 1 is no
    automorphism of W(2) or of the Fano plane.  Also run under python -O,
    where assert statements vanish.
    """
    w2 = symplectic_gq(2)
    a, b = incidence_graph(w2), incidence_graph(w2)

    def rotated_for_b(g, budget=None):
        form = canonical_form(g, budget)
        if g is b:
            form = dataclasses.replace(form, order=form.order[1:] + form.order[:1])
        return form

    with mock.patch.object(canon, "canonical_form", rotated_for_b):
        with pytest.raises(RuntimeError):
            are_isomorphic(a, b)
    cases = [(gq_isomorphic, w2, w2.point_count + len(w2.lines)),
             (designs_isomorphic, fano_design(), 14)]
    for decide, x, n in cases:
        swap = {v: v for v in range(n)}
        swap[0], swap[1] = 1, 0
        with mock.patch.object(canon, "are_isomorphic", return_value=(True, swap)):
            with pytest.raises(RuntimeError):
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
