import itertools
import random

import pytest

from gqdesigns import _witness
from gqdesigns.canon import gq_isomorphic, incidence_graph
from gqdesigns.correspondence import design_from_ovoid
from gqdesigns.geometry import (
    hermitian_gq,
    parabolic_gq,
    payne_derivation,
    perp,
    symplectic_gq,
    trace_pair,
)
from gqdesigns.search import find_ovoids
from gqdesigns.sprott import affine_plane, replicate, sprott_design, sprott_lrs
from gqdesigns.structures import (
    BibdError,
    Design,
    DegenerateDesignError,
    DesignParams,
    GQAxiomError,
    GQParams,
    IncidenceStructure,
    LocalResolutionSystem,
    LrsError,
    OvoidError,
    TriangleWitness,
    dual,
    verify_bibd,
    verify_gq,
    verify_lrs,
    verify_non_triangular,
    verify_ovoid,
)

from conftest import fano_design, fano_incidence, grid_3x3


# ---------------------------------------------------------
# Data model
# ---------------------------------------------------------

def test_lines_are_sorted_and_validated():
    s = IncidenceStructure(4, [[2, 0], [1, 3]])
    assert s.lines == ((0, 2), (1, 3))
    with pytest.raises(ValueError):
        IncidenceStructure(4, [[0, 4]])
    with pytest.raises(ValueError):
        IncidenceStructure(4, [[]])
    with pytest.raises(ValueError):
        IncidenceStructure(4, [[1, 1]])


@pytest.mark.parametrize("count", [2.5, True, "4"])
def test_point_count_must_be_an_int(count):
    # 2.5 was accepted, and its mask tables then raised TypeError
    for cls in (IncidenceStructure, Design):
        with pytest.raises(ValueError, match="point count .* is not an int"):
            cls(count, [[0, 1]])


def test_design_requires_uniform_block_size():
    with pytest.raises(ValueError):
        Design(5, [[0, 1, 2], [3, 4]])


# malformed blocks on 5 points, each with the message naming the bad block
DESIGN_ROW_ERRORS = [
    ([[0, 1, 2], [3, 4]], "block 1 has size 2, expected 3"),
    ([[0, 1], [2, 3], [1, 4], []], "block 3 is empty"),
    ([[0, 1], [0, 5]], "block 1 references a point outside 0..4"),
    ([[0, 0]], "block 0 repeats a point"),
    ([[0, 1.0]], "block 0 has point 1.0, not an int"),
    ([[0, 2], [1, False]], "block 1 has point False, not an int"),
]


@pytest.mark.parametrize("blocks,message", DESIGN_ROW_ERRORS)
def test_design_messages_name_the_block(blocks, message):
    with pytest.raises(ValueError) as exc:
        Design(5, blocks)
    assert str(exc.value) == message


def test_incidence_structure_refuses_bool_points():
    # a bool would be written as the word True and fail to parse back
    with pytest.raises(ValueError) as exc:
        IncidenceStructure(3, [[True, 2], [0, 2]])
    assert str(exc.value) == "line 0 has point True, not an int"


def test_lrs_refuses_bool_instances():
    with pytest.raises(ValueError) as exc:
        LocalResolutionSystem([[[0], [True]]])
    assert str(exc.value) == "point 0, class 1 has instance True, not an int"


def test_lrs_refuses_empty_classes():
    with pytest.raises(ValueError) as exc:
        LocalResolutionSystem([[[]]])
    assert str(exc.value) == "point 0 has an empty class"


def test_lrs_refuses_repeated_instances():
    # merged into one frozenset, [0, 0, 1] would equal the class [0, 1]
    with pytest.raises(ValueError) as exc:
        LocalResolutionSystem([[[0, 0, 1]]])
    assert str(exc.value) == "point 0, class 0 repeats an instance"
    with pytest.raises(ValueError) as exc:
        LocalResolutionSystem([[[2]], [[1], iter([3, 4, 3])]])
    assert str(exc.value) == "point 1, class 1 repeats an instance"


def test_lrs_canonical_order_and_equality():
    a = LocalResolutionSystem([[[1, 0], [2]], [[0], [1, 2]]])
    b = LocalResolutionSystem([[[2], [0, 1]], [[0], [2, 1]]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.classes[0] == (frozenset({0, 1}), frozenset({2}))


# ---------------------------------------------------------
# verify_gq
# ---------------------------------------------------------

def test_w2_is_a_gq_2_2(w2):
    assert verify_gq(w2) == GQParams(2, 2)
    assert w2.point_count == 15
    assert len(w2.lines) == 15


def test_grid_is_a_gq_2_1():
    assert verify_gq(grid_3x3()) == GQParams(2, 1)


def test_fano_fails_the_projection_axiom():
    with pytest.raises(GQAxiomError) as exc:
        verify_gq(fano_incidence())
    assert exc.value.axiom == 3


def test_two_points_on_two_common_lines_rejected():
    s = IncidenceStructure(4, [[0, 1], [0, 1], [2, 3], [2, 3]])
    with pytest.raises(GQAxiomError) as exc:
        verify_gq(s)
    assert exc.value.axiom == 1
    assert set(exc.value.witness[:2]) == {0, 1}


def test_nonuniform_degrees_rejected():
    s = IncidenceStructure(4, [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(GQAxiomError) as exc:
        verify_gq(s)
    assert exc.value.axiom == 1


def test_gq_point_and_line_counts(w2):
    s, t = verify_gq(w2)
    assert w2.point_count == (1 + s) * (1 + s * t)
    assert len(w2.lines) == (1 + t) * (1 + s * t)


# ---------------------------------------------------------
# verify_bibd
# ---------------------------------------------------------

def test_fano_parameters_by_pair_enumeration():
    d = fano_design()
    counts = {pair: 0 for pair in itertools.combinations(range(7), 2)}
    for blk in d.blocks:
        for pair in itertools.combinations(blk, 2):
            counts[pair] += 1
    assert set(counts.values()) == {1}
    assert verify_bibd(d) == DesignParams(7, 7, 3, 3, 1)


def test_unbalanced_pair_has_a_witness():
    d = Design(4, [[0, 1, 2], [0, 1, 3]])
    with pytest.raises(BibdError) as exc:
        verify_bibd(d)
    assert len(exc.value.witness) >= 2


def test_sprott_q4_parameters():
    _, d = sprott_design(2, 4, 6)
    assert verify_bibd(d) == DesignParams(16, 48, 18, 6, 6)


def test_degenerate_designs_are_flagged_separately():
    full = Design(3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]])
    with pytest.raises(DegenerateDesignError) as exc:
        verify_bibd(full)
    assert exc.value.params.k == 3  # k = v
    pairs = Design(3, [[0, 1], [0, 2], [1, 2]])
    with pytest.raises(DegenerateDesignError):
        verify_bibd(pairs)
    # the escape hatch still computes parameters
    assert verify_bibd(pairs, allow_degenerate=True) == DesignParams(3, 3, 2, 2, 1)
    assert verify_bibd(affine_plane(3), allow_degenerate=True).lam == 1


def test_bibd_identities_hold():
    for d in [fano_design(), affine_plane(4), sprott_design(3, 2, 3)[1]]:
        v, b, r, k, lam = verify_bibd(d, allow_degenerate=True)
        assert v * r == b * k
        assert r * (k - 1) == lam * (v - 1)


# ---------------------------------------------------------
# verify_ovoid
# ---------------------------------------------------------

def test_every_w2_ovoid_meets_every_line_once(w2, w2_ovoids):
    # oracle: exhaustive filter over all 5-point subsets
    brute = [set(c) for c in itertools.combinations(range(15), 5)
             if all(len(set(line) & set(c)) == 1 for line in w2.lines)]
    assert len(brute) == len(w2_ovoids) == 6
    assert sorted(map(sorted, brute)) == sorted(map(sorted, w2_ovoids))
    for o in w2_ovoids:
        verify_ovoid(w2, o)
        assert len(o) == 1 + 2 * 2


def test_ovoid_refuses_bool_points(w2, w2_ovoids):
    pts = sorted(w2_ovoids[0])
    assert pts[0] == 0
    with pytest.raises(ValueError, match="point False is not an int"):
        verify_ovoid(w2, [False] + pts[1:])


def test_full_and_empty_point_sets_are_not_ovoids(w2):
    with pytest.raises(OvoidError):
        verify_ovoid(w2, range(15))
    with pytest.raises(OvoidError):
        verify_ovoid(w2, [])
    with pytest.raises(ValueError, match="point 15 outside 0..14"):
        verify_ovoid(w2, [15])


@pytest.mark.parametrize("bad, point, message", [
    ([-1, 99], -1, "point -1 outside 0..14"),
    ({15, 99}, 15, "point 15 outside 0..14"),  # a set that iterates 99 first
    ([99, 0.5, "x"], 0.5, "point 0.5 is not an int"),
])
def test_every_layer_names_the_same_bad_point(w2, bad, point, message):
    # the first non-int in input order, else the lowest index out of range,
    # as a malformed input rather than a failed verification
    checks = [lambda: verify_ovoid(w2, bad), lambda: incidence_graph(w2, bad),
              lambda: gq_isomorphic(w2, w2, bad, {0}),
              lambda: gq_isomorphic(w2, w2, {0}, bad),
              lambda: trace_pair(w2, *list(bad)[:2]),
              lambda: perp(w2, point), lambda: payne_derivation(w2, point)]
    for check in checks:
        with pytest.raises(ValueError) as exc:
            check()
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


def _line_scan_verdict(s, pts):
    """The witness of the first line met other than once, or None: the line
    scan verify_ovoid ran on every set before it decided from point masks."""
    for j, line in enumerate(s.lines):
        hits = len(set(line) & pts)
        if hits != 1:
            return (j, hits), f"line {j} meets the set in {hits} points, expected 1"
    return None


@pytest.mark.parametrize("build", [lambda: symplectic_gq(2), lambda: parabolic_gq(3)])
def test_verify_ovoid_agrees_with_the_line_scan(build):
    s = build()
    n = s.point_count
    ovoids = [set(o) for o in find_ovoids(s).solutions]
    rng = random.Random(n)
    sets = [set(), set(range(n))] + ovoids
    for o in ovoids[:8]:
        for p in sorted(o)[:3]:
            sets.append(o - {p})  # one point short
            sets.append(o | {(p + 1) % n})  # one point too many, or the same set
            sets.append(o - {p} | {rng.randrange(n)})  # one point moved
    sets += [set(rng.sample(range(n), rng.randrange(n + 1))) for _ in range(200)]
    ovoid_count = 0
    for pts in sets:
        want = _line_scan_verdict(s, pts)
        if want is None:
            verify_ovoid(s, pts)
            ovoid_count += 1
            continue
        with pytest.raises(OvoidError) as exc:
            verify_ovoid(s, pts)
        assert (exc.value.witness, str(exc.value)) == want
    assert ovoid_count >= len(ovoids)


# ---------------------------------------------------------
# verify_lrs / verify_non_triangular
# ---------------------------------------------------------

def _copy_aligned_system(q: int) -> tuple[Design, LocalResolutionSystem]:
    """q copies of AG(2,q), the i-th copy of each class in class i."""
    plane = affine_plane(q)
    tripled = replicate(plane, q)
    per_point = []
    for p in range(plane.point_count):
        through = [j for j, blk in enumerate(plane.blocks) if p in blk]
        # replicate puts the q copies of block j at instances q*j .. q*j+q-1
        classes = [[q * j + i for j in through] for i in range(q)]
        per_point.append(classes)
    return tripled, LocalResolutionSystem(per_point)


def test_copy_aligned_replicated_plane_is_an_lrs():
    d, system = _copy_aligned_system(3)
    verify_lrs(d, system)


def test_copy_aligned_system_is_triangular():
    # any three pairwise-intersecting blocks from one copy of the plane
    # are co-class at three different points
    d, system = _copy_aligned_system(3)
    witness = verify_non_triangular(d, system)
    assert witness is not None
    b, c, e = witness.blocks
    assert len(set(witness.points)) >= 2
    # the witness points really are co-class points of the pairs
    for (i, j), p in zip([(c, e), (b, e), (b, c)], witness.points):
        assert p in set(d.blocks[i]) & set(d.blocks[j])


def test_overlapping_blocks_in_one_class_rejected():
    d = Design(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    bad = [[[0, 1]], [[0]], [[1]], [[2]]]
    # blocks 0 and 1 share points 0 and 1, so one class about 0 double-covers 1
    with pytest.raises(LrsError) as exc:
        verify_lrs(d, LocalResolutionSystem(
            [bad[p] + [] for p in range(4)]))
    assert exc.value.point == 0


def test_unassigned_instance_rejected(sprott4):
    d, system = sprott4
    broken = [list(map(set, classes)) for classes in system.classes]
    victim = next(iter(broken[0][0]))
    broken[0][0] = broken[0][0] - {victim}
    with pytest.raises(LrsError):
        verify_lrs(d, LocalResolutionSystem(broken))


def test_packaged_gf16_system_verifies_and_is_non_triangular(sprott4):
    d, system = sprott4
    verify_lrs(d, system)
    assert verify_non_triangular(d, system) is None


def test_monochromatic_triangles_are_permitted(sprott4):
    # three blocks sharing one class about p are pairwise co-class there,
    # yet the system still counts as non-triangular
    d, system = sprott4
    cls = next(c for c in system.classes[0] if len(c) >= 3)
    b, c, e = sorted(cls)[:3]
    for i, j in [(b, c), (b, e), (c, e)]:
        assert set(d.blocks[i]) & set(d.blocks[j]) == {0}
    assert verify_non_triangular(d, system) is None


def _naive_triangle_scan(d: Design, system: LocalResolutionSystem):
    """Brute-force restatement used as an oracle: find any triple of
    instances pairwise co-class with two or more distinct shared points."""
    coclass: dict[tuple[int, int], set[int]] = {}
    for p, classes in enumerate(system.classes):
        for cls in classes:
            for i, j in itertools.combinations(sorted(cls), 2):
                coclass.setdefault((i, j), set()).add(p)
    for (i, j) in sorted(coclass):
        for e in range(len(d.blocks)):
            if e in (i, j):
                continue
            a, b = tuple(sorted((i, e))), tuple(sorted((j, e)))
            if a in coclass and b in coclass:
                labels = coclass[(i, j)] | coclass[a] | coclass[b]
                if len(labels) >= 2:
                    return True
    return False


def test_non_triangularity_matches_naive_enumeration(sprott4):
    tri, aligned = _copy_aligned_system(3)
    assert _naive_triangle_scan(tri, aligned) is True
    assert verify_non_triangular(tri, aligned) is not None

    d, system = sprott4
    assert _naive_triangle_scan(d, system) is False
    assert verify_non_triangular(d, system) is None


# ---------------------------------------------------------
# dual
# ---------------------------------------------------------

def test_dual_is_an_involution(w2):
    for s in [w2, grid_3x3(), fano_incidence()]:
        assert dual(dual(s)) == s


def test_dual_of_grid_is_gq_1_2():
    assert verify_gq(dual(grid_3x3())) == GQParams(1, 2)


def test_dual_swaps_counts(gq42):
    assert gq42.point_count == 45
    assert len(gq42.lines) == 27
    d = dual(gq42)
    assert d.point_count == 27
    assert len(d.lines) == 45


def test_dual_rejects_isolated_points():
    with pytest.raises(ValueError):
        dual(IncidenceStructure(3, [[0, 1]]))


# ---------------------------------------------------------
# co-class intersection invariant
# ---------------------------------------------------------

def test_co_class_blocks_meet_exactly_at_their_point(sprott4):
    d, system = sprott4
    for p, classes in enumerate(system.classes):
        for cls in classes:
            for i, j in itertools.combinations(sorted(cls), 2):
                assert set(d.blocks[i]) & set(d.blocks[j]) == {p}


def test_random_class_swaps_break_verification(sprott4):
    # moving one instance between classes must be caught
    d, system = sprott4
    rng = random.Random(7)
    for _ in range(10):
        p = rng.randrange(d.point_count)
        classes = [set(c) for c in system.classes[p]]
        if len(classes) < 2:
            continue
        a, b = rng.sample(range(len(classes)), 2)
        moved = rng.choice(sorted(classes[a]))
        classes[a] = classes[a] - {moved}
        classes[b] = classes[b] | {moved}
        broken = [list(map(set, cs)) for cs in system.classes]
        broken[p] = [c for c in classes if c]
        with pytest.raises(LrsError):
            verify_lrs(d, LocalResolutionSystem(broken))


# ---------------------------------------------------------
# malformed input
# ---------------------------------------------------------

def test_points_and_instances_must_be_ints(w2):
    with pytest.raises(ValueError, match="line 0"):
        IncidenceStructure(3, [[0, 1.5], [1, 2]])
    with pytest.raises(ValueError, match="block 1"):
        Design(3, [[0, 1], [1, "2"]])
    with pytest.raises(ValueError, match="point 1, class 0"):
        LocalResolutionSystem([[[0]], [[0.5, 1]]])
    with pytest.raises(ValueError, match=r"point 0\.5 is not an int"):
        verify_ovoid(w2, [0.5])


def _rows(system):
    return [list(map(set, classes)) for classes in system.classes]


def test_non_triangular_rejects_what_verify_lrs_rejects(sprott4):
    d, system = sprott4
    rows = _rows(system)
    short = LocalResolutionSystem(rows[:-1])
    extra = LocalResolutionSystem(rows + [rows[0]])
    stray = LocalResolutionSystem(rows[:3] + [rows[3] + [{999}]] + rows[4:])
    negative = LocalResolutionSystem(rows[:2] + [rows[2] + [{-1}]] + rows[3:])
    # systems that are no LRS, though no triangle shows among their classes
    dropped = LocalResolutionSystem([rows[0][1:]] + rows[1:])
    repeated = LocalResolutionSystem([rows[0] + [rows[0][0]]] + rows[1:])
    assert 0 not in d.blocks[18]
    missing = LocalResolutionSystem([rows[0] + [{18}]] + rows[1:])
    cut = LocalResolutionSystem([[{min(rows[0][0])}] + rows[0][1:]] + rows[1:])
    for bad, point, witness in [(short, -1, (15, 16)), (extra, -1, (17, 16)),
                                (stray, 3, (len(rows[3]), 999)), (negative, 2, (0, -1)),
                                (dropped, 0, (0,)), (repeated, 0, (1, 0)),
                                (missing, 0, (6, 18)), (cut, 0, (0, 3, 0))]:
        with pytest.raises(LrsError) as want:
            verify_lrs(d, bad)
        with pytest.raises(LrsError) as got:
            verify_non_triangular(d, bad)
        assert (got.value.point, got.value.witness) == (point, witness)
        assert (want.value.point, want.value.witness, str(want.value)) \
            == (got.value.point, got.value.witness, str(got.value))


# ---------------------------------------------------------
# mask verifiers against the scans they replaced
# ---------------------------------------------------------

def _reference_verify_gq(s):
    degrees = {len(t) for t in s.lines_through}
    if len(degrees) != 1:
        a = min(degrees)
        b = max(degrees)
        raise GQAxiomError(1, (a, b), f"point degrees are not uniform: found {a} and {b}")
    order_t = degrees.pop() - 1
    if order_t < 1:
        raise GQAxiomError(1, (order_t + 1,), "points must lie on at least two lines")

    seen_pair = {}
    for j, line in enumerate(s.lines):
        for ai in range(len(line)):
            for bi in range(ai + 1, len(line)):
                pair = (line[ai], line[bi])
                prev = seen_pair.get(pair)
                if prev is not None:
                    raise GQAxiomError(
                        1, (pair[0], pair[1], prev, j),
                        f"points {pair[0]} and {pair[1]} lie on two common lines ({prev}, {j})")
                seen_pair[pair] = j

    sizes = {len(line) for line in s.lines}
    if len(sizes) != 1:
        a = min(sizes)
        b = max(sizes)
        raise GQAxiomError(2, (a, b), f"line sizes are not uniform: found {a} and {b}")
    order_s = sizes.pop() - 1
    if order_s < 1:
        raise GQAxiomError(2, (order_s + 1,), "lines must carry at least two points")

    # x^perp straight from the lines, not from the tables under test
    masks = [sum(1 << p for p in line) for line in s.lines]
    perps = [1 << x for x in range(s.point_count)]
    for line, m in zip(s.lines, masks):
        for p in line:
            perps[p] |= m
    for x, reach in enumerate(perps):
        for j, m in enumerate(masks):
            if m & (1 << x):
                continue
            hits = (m & reach).bit_count()
            if hits != 1:
                raise GQAxiomError(
                    3, (x, j, hits),
                    f"point {x} sees {hits} points of line {j}, expected exactly 1")
    return GQParams(order_s, order_t)


def _reference_verify_bibd(d, allow_degenerate=False):
    v = d.point_count
    b = len(d.blocks)
    if b == 0:
        raise BibdError((), "design has no blocks")
    if v < 2:
        raise BibdError((), "design needs at least two points")
    k = len(d.blocks[0])
    if k < 2:
        raise BibdError((k,), "blocks of size 1 cannot balance point pairs")

    counts = {}
    for blk in d.blocks:
        for ai in range(len(blk)):
            for bi in range(ai + 1, len(blk)):
                pair = (blk[ai], blk[bi])
                counts[pair] = counts.get(pair, 0) + 1
    lam = counts.get((0, 1), 0)
    for x in range(v):
        for y in range(x + 1, v):
            c = counts.get((x, y), 0)
            if c != lam:
                raise BibdError(
                    (x, y, c, 0, 1, lam),
                    f"pair ({x},{y}) lies in {c} blocks but pair (0,1) lies in {lam}")

    r = len(d.lines_through[0])
    params = DesignParams(v, b, r, k, lam)
    if (k <= 2 or k >= v) and not allow_degenerate:
        raise DegenerateDesignError(
            params, f"uniform design is degenerate: v={v}, k={k}")
    return params


def _reference_verify_lrs(d, system):
    if system.point_count != d.point_count:
        raise LrsError(-1, (system.point_count, d.point_count),
                       f"system covers {system.point_count} points, design has {d.point_count}")
    blocks = d.blocks
    for p in range(d.point_count):
        through = set(d.lines_through[p])
        assigned = set()
        for ci, cls in enumerate(system.classes[p]):
            for idx in cls:
                if not 0 <= idx < len(blocks):
                    raise LrsError(p, (ci, idx), f"point {p}: instance {idx} out of range")
                if p not in blocks[idx]:
                    raise LrsError(p, (ci, idx),
                                   f"point {p}: instance {idx} does not contain the point")
                if idx in assigned:
                    raise LrsError(p, (ci, idx),
                                   f"point {p}: instance {idx} appears in two classes")
                assigned.add(idx)
            covered = {}
            for idx in cls:
                for x in blocks[idx]:
                    if x != p:
                        covered[x] = covered.get(x, 0) + 1
            for x in range(d.point_count):
                if x == p:
                    continue
                c = covered.get(x, 0)
                if c != 1:
                    raise LrsError(p, (ci, x, c),
                                   f"point {p}, class {ci}: point {x} covered {c} times")
        if assigned != through:
            missing = min(through - assigned)
            raise LrsError(p, (missing,),
                           f"point {p}: instance {missing} through the point is unassigned")


def _reference_verify_non_triangular(d, system):
    blocksets = [frozenset(b) for b in d.blocks]
    partner = [dict() for _ in range(len(blocksets))]
    for p in range(d.point_count):
        for cls in system.classes[p]:
            members = sorted(cls)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    bi, bj = members[i], members[j]
                    inter = blocksets[bi] & blocksets[bj]
                    if inter != {p}:
                        raise LrsError(p, (bi, bj, tuple(sorted(inter))),
                                       f"co-class instances {bi},{bj} at point {p} "
                                       f"share {sorted(inter)}")
                    partner[bi][bj] = p
                    partner[bj][bi] = p
    for b1 in range(len(blocksets)):
        adj1 = partner[b1]
        for b2, p12 in adj1.items():
            if b2 <= b1:
                continue
            adj2 = partner[b2]
            for b3, p13 in adj1.items():
                if b3 <= b2:
                    continue
                p23 = adj2.get(b3)
                if p23 is None:
                    continue
                if not (p12 == p13 == p23):
                    return TriangleWitness((b1, b2, b3), (p23, p13, p12))
    return None


def _reference_verify_ntlrs(d, system):
    _reference_verify_lrs(d, system)
    return _reference_verify_non_triangular(d, system)


def _outcome(f, *args):
    """The value returned, or the exception's class, message and fields."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc), vars(exc)


def _fresh(s):
    # a new object, so no cached mask or verdict carries over
    return IncidenceStructure(s.point_count, s.lines)


def _relabeled(s, rng):
    perm = list(range(s.point_count))
    rng.shuffle(perm)
    lines = [[perm[p] for p in line] for line in s.lines]
    rng.shuffle(lines)
    return IncidenceStructure(s.point_count, lines)


@pytest.mark.parametrize("make", [
    lambda: symplectic_gq(3), lambda: _relabeled(symplectic_gq(3), random.Random(7)),
    lambda: hermitian_gq(2), lambda: dual(symplectic_gq(3)),
    lambda: replicate(affine_plane(3), 3), lambda: IncidenceStructure(4, [[0, 1], [1, 2]])],
    ids=["W(3)", "W(3) relabeled", "H(3,4)", "dual W(3)", "3xAG(2,3)", "point 3 on no line"])
def test_mask_tables_match_the_rows(make):
    # oracles from the rows as sets; 3xAG(2,3) repeats each block three times
    s = make()
    n = s.point_count

    def mask(pts):
        return sum(1 << p for p in set(pts))

    assert s.line_masks == tuple(mask(line) for line in s.lines)
    assert s.point_masks == tuple(mask(j for j, line in enumerate(s.lines) if x in line)
                                  for x in range(n))
    perps = [{x}.union(*(line for line in s.lines if x in line)) for x in range(n)]
    assert s.perp_masks == tuple(mask(p) for p in perps)
    for x in range(n):
        if not any(x in line for line in s.lines):
            assert s.perp_masks[x] == 1 << x  # x^perp of a point on no line is {x}


def _damaged_structures(s, rng):
    """A point moved, two points swapped between lines, a line dropped or
    doubled, and two disjoint copies side by side."""
    lines = [list(line) for line in s.lines]
    j1, j2 = rng.sample(range(len(lines)), 2)
    p1 = rng.choice([p for p in lines[j1] if p not in lines[j2]])
    p2 = rng.choice([p for p in lines[j2] if p not in lines[j1]])
    moved = [list(line) for line in lines]
    moved[j1].remove(p1)
    moved[j2].append(p1)
    swapped = [list(line) for line in lines]
    swapped[j1][swapped[j1].index(p1)] = p2
    swapped[j2][swapped[j2].index(p2)] = p1
    j = rng.randrange(len(lines))
    n = s.point_count
    return [IncidenceStructure(n, moved), IncidenceStructure(n, swapped),
            IncidenceStructure(n, lines[:j] + lines[j + 1:]),
            IncidenceStructure(n, lines + [lines[j]]),
            IncidenceStructure(2 * n, lines + [[p + n for p in line] for line in lines])]


def _valid_gqs():
    return [symplectic_gq(2), symplectic_gq(3), symplectic_gq(4), parabolic_gq(3),
            parabolic_gq(4), hermitian_gq(2), hermitian_gq(3), dual(symplectic_gq(3))]


def _non_triangular_systems():
    """sprott_lrs(4) and (8), and the designs of the first two ovoids of
    W(2), Q(4,3) and H(3,4)."""
    out = [sprott_lrs(4), sprott_lrs(8)]
    for s in [symplectic_gq(2), parabolic_gq(3), hermitian_gq(2)]:
        for ovoid in find_ovoids(s, limit=2).solutions:
            out.append(design_from_ovoid(s, ovoid))
    return out


def _relabeled_system(d, system, rng):
    pts = list(range(d.point_count))
    inst = list(range(len(d.blocks)))
    rng.shuffle(pts)
    rng.shuffle(inst)
    blocks = [None] * len(inst)
    for i, blk in enumerate(d.blocks):
        blocks[inst[i]] = [pts[x] for x in blk]
    rows = [None] * len(pts)
    for p, classes in enumerate(system.classes):
        rows[pts[p]] = [[inst[i] for i in cls] for cls in classes]
    return Design(d.point_count, blocks), LocalResolutionSystem(rows)


def _damaged_systems(d, system, rng):
    """Two instances swapped between classes (any two, and two twins of one
    content at up to three points), an instance put in a second class, two
    classes merged, and a class dropped."""
    out = []
    rows = _rows(system)
    points = [p for p in range(d.point_count) if len(rows[p]) >= 2]
    p = rng.choice(points)
    a, b = rng.sample(range(len(rows[p])), 2)
    x = rng.choice(sorted(rows[p][a]))
    y = rng.choice(sorted(rows[p][b]))
    swapped = _rows(system)
    swapped[p][a] = (swapped[p][a] - {x}) | {y}
    swapped[p][b] = (swapped[p][b] - {y}) | {x}
    doubled = _rows(system)
    doubled[p][b] = doubled[p][b] | {x}
    merged = _rows(system)
    merged[p][a] = merged[p][a] | merged[p][b]
    del merged[p][b]
    dropped = _rows(system)
    del dropped[p][a]
    out += [swapped, doubled, merged, dropped]
    # twins at a point in different classes: swapping them keeps an LRS
    for q in rng.sample(range(d.point_count), d.point_count):
        where = {i: ci for ci, cls in enumerate(rows[q]) for i in cls}
        twins = [(i, j) for i in where for j in where
                 if i < j and d.blocks[i] == d.blocks[j] and where[i] != where[j]]
        if twins:
            i, j = rng.choice(twins)
            twin = _rows(system)
            twin[q][where[i]] = (twin[q][where[i]] - {i}) | {j}
            twin[q][where[j]] = (twin[q][where[j]] - {j}) | {i}
            out.append(twin)
            if len(out) == 7:
                break
    return [LocalResolutionSystem(r) for r in out]


def test_gq_verifier_matches_the_scans():
    rng = random.Random(11)
    outcomes = set()
    for s in _valid_gqs() + [fano_incidence(), grid_3x3()]:
        for t in [s, _relabeled(s, rng), _relabeled(s, rng)]:
            for u in [t] + _damaged_structures(t, rng) + _damaged_structures(t, rng):
                got = _outcome(verify_gq, _fresh(u))
                assert got == _outcome(_reference_verify_gq, _fresh(u))
                outcomes.add(got[2]["axiom"] if len(got) == 3 else 0)
    # a point on one line only, and lines of one point each
    for u in [IncidenceStructure(2, [[0, 1]]),
              IncidenceStructure(3, [[0], [1], [2], [0], [1], [2]])]:
        assert _outcome(verify_gq, u) == _outcome(_reference_verify_gq, _fresh(u))
    # some structures pass, and each axiom fails on some others
    assert outcomes == {0, 1, 2, 3}


def test_design_verifiers_match_the_scans():
    rng = random.Random(12)
    outcomes = set()
    for d0, system0 in _non_triangular_systems() + [_copy_aligned_system(3)]:
        for d, system in [(d0, system0), _relabeled_system(d0, system0, rng)]:
            for sysm in [system] + _damaged_systems(d, system, rng):
                got = _outcome(verify_lrs, d, sysm)
                assert got == _outcome(_reference_verify_lrs, d, sysm)
                nt = _outcome(verify_non_triangular, d, sysm)
                assert nt == _outcome(_reference_verify_ntlrs, d, sysm)
                outcomes.add((got is None, type(nt)))
            blocks = [list(b) for b in d.blocks]
            j = rng.randrange(len(blocks))
            changed = [list(b) for b in blocks]
            changed[j][0] = next(x for x in range(d.point_count) if x not in blocks[j])
            for e in [d, Design(d.point_count, blocks[:j] + blocks[j + 1:]),
                      Design(d.point_count, blocks + [blocks[j]]),
                      Design(d.point_count, changed)]:
                for allow in (False, True):
                    assert _outcome(verify_bibd, e, allow) == _outcome(_reference_verify_bibd, e, allow)
    # no blocks, one point, and blocks of one point
    for e in [Design(3, []), Design(1, [[0]]), Design(3, [[0], [1], [2]])]:
        for allow in (False, True):
            assert _outcome(verify_bibd, e, allow) == _outcome(_reference_verify_bibd, e, allow)
    # blocks 0 and 1 share two points in one class, yet no instance is
    # co-class with both at another point
    d = Design(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    overlap = LocalResolutionSystem([[[0, 1]], [[0]], [[1]], [[2]]])
    assert _outcome(verify_non_triangular, d, overlap) \
        == _outcome(_reference_verify_ntlrs, d, overlap)
    # the damage reached valid and broken systems, triangles and co-class errors
    assert {(True, type(None)), (True, TriangleWitness), (False, tuple)} <= outcomes


def test_fallback_scans_run_only_on_failure(monkeypatch):
    def refuse(*args):
        raise AssertionError("a fallback scan ran on a valid object")
    for name in ["repeated_pair_scan", "axiom3_scan", "triangle_scan"]:
        monkeypatch.setattr(_witness, name, refuse)
    for s in _valid_gqs():
        verify_gq(_fresh(s))
    for d, system in _non_triangular_systems():
        verify_bibd(d)
        verify_lrs(d, system)
        assert verify_non_triangular(d, system) is None


def test_triangle_scan_raises_when_it_finds_no_triangle(sprott4):
    # the mask test never calls it on a non-triangular system; called anyway,
    # it must not pass the system off as clean
    with pytest.raises(RuntimeError, match="found none"):
        _witness.triangle_scan(*sprott4)
