import collections
import contextlib
import itertools
import random
from unittest import mock

import pytest

from gqdesigns import canon, correspondence
from gqdesigns.canon import designs_isomorphic, gq_isomorphic
from gqdesigns.correspondence import (
    OvoidLabeledGQ,
    RegularTraceReport,
    check_regular_traces,
    design_from_ovoid,
    detect_replication,
    gq_from_design,
    provenance_bijection,
    roundtrip_design,
    roundtrip_gq,
)
from gqdesigns.geometry import (hermitian_gq, is_regular_pair, parabolic_gq,
                                trace_pair)
from gqdesigns.search import find_ovoids, find_ntlrs
from gqdesigns.sprott import affine_plane, replicate, sprott_design
from gqdesigns.structures import (
    Design,
    DesignParams,
    IncidenceStructure,
    LocalResolutionSystem,
    VerificationError,
    verify_bibd,
    verify_gq,
    verify_lrs,
    verify_non_triangular,
    verify_ovoid,
)

from conftest import fano_design, fano_incidence


# ---------------------------------------------------------
# Forward map (quadrangle + ovoid -> design + system)
# ---------------------------------------------------------

def test_forward_map_parameters(w2, w2_ovoids):
    for o in w2_ovoids:
        d, system = design_from_ovoid(w2, o)
        assert verify_bibd(d) == DesignParams(5, 10, 6, 3, 3)
        verify_lrs(d, system)
        assert verify_non_triangular(d, system) is None


def test_forward_map_blocks_are_ovoid_neighborhoods(w2, w2_ovoids):
    o = w2_ovoids[0]
    d, _ = design_from_ovoid(w2, o)
    opts = sorted(o)
    outside = [x for x in range(w2.point_count) if x not in o]
    nbr = w2.neighbor_masks
    for j, x in enumerate(outside):
        expect = sorted(i for i, p in enumerate(opts) if (nbr[x] >> p) & 1)
        assert tuple(expect) == d.blocks[j]


def test_forward_map_classes_come_from_pencils(w2, w2_ovoids):
    # the classes about a design point are the lines through the ovoid point
    o = w2_ovoids[0]
    d, system = design_from_ovoid(w2, o)
    s_, t_ = verify_gq(w2)
    for i in range(len(sorted(o))):
        assert len(system.classes[i]) == t_ + 1
        assert all(len(c) == s_ for c in system.classes[i])


def test_forward_map_rejects_bad_ovoids(w2):
    with pytest.raises(VerificationError):
        design_from_ovoid(w2, frozenset(range(5)))
    with pytest.raises(VerificationError):
        design_from_ovoid(fano_incidence(), frozenset({0}))


# ---------------------------------------------------------
# Backward map (design + system -> quadrangle + ovoid)
# ---------------------------------------------------------

def test_backward_map_parameters(sprott4):
    d, system = sprott4
    labeled = gq_from_design(d, system)
    assert verify_gq(labeled.structure) == (3, 5)
    assert labeled.structure.point_count == 64
    assert len(labeled.structure.lines) == 96
    verify_ovoid(labeled.structure, labeled.ovoid)


def test_backward_map_provenance(sprott4):
    d, system = sprott4
    labeled = gq_from_design(d, system)
    tags = labeled.provenance
    assert len(tags) == labeled.structure.point_count
    design_pts = [i for i, (kind, _) in enumerate(tags)
                  if kind == "design-point"]
    instances = [idx for kind, idx in tags if kind == "instance"]
    assert len(design_pts) == d.point_count
    assert sorted(instances) == list(range(len(d.blocks)))
    assert frozenset(design_pts) == labeled.ovoid


def test_provenance_bijection_carries_the_roundtrip(w2, w2_ovoids):
    o = w2_ovoids[0]
    d, system = design_from_ovoid(w2, o)
    rebuilt = gq_from_design(d, system)
    mapping = provenance_bijection(w2, o, rebuilt)
    assert sorted(mapping) == list(range(15))
    assert sorted(mapping.values()) == list(range(15))
    lines = {tuple(sorted(mapping[p] for p in line))
             for line in rebuilt.structure.lines}
    assert lines == set(w2.lines)


def test_backward_map_rejects_triangular_systems(tripled_plane):
    # the copy-aligned system is a valid LRS but fails non-triangularity
    per_point = []
    for p in range(9):
        through = [j for j, blk in enumerate(affine_plane(3).blocks)
                   if p in blk]
        per_point.append([[3 * j + i for j in through] for i in range(3)])
    aligned = LocalResolutionSystem(per_point)
    verify_lrs(tripled_plane, aligned)
    with pytest.raises(ValueError) as exc:
        gq_from_design(tripled_plane, aligned)
    assert "triangle" in str(exc.value)


def test_backward_map_rejects_wrong_parameters():
    # lambda != k blocks the parameter factoring
    with pytest.raises(ValueError):
        gq_from_design(fano_design(), LocalResolutionSystem(
            [[[j for j, blk in enumerate(fano_design().blocks) if p in blk]]
             for p in range(7)]))


# ---------------------------------------------------------
# Round trips
# ---------------------------------------------------------

def test_roundtrip_from_the_design_side(sprott4):
    d, system = sprott4
    assert roundtrip_design(d, system)


def test_roundtrip_from_the_quadrangle_side(w2, w2_ovoids):
    for o in w2_ovoids:
        assert roundtrip_gq(w2, o)


def test_roundtrip_gq_needs_no_canonical_form(w2, w2_ovoids):
    # the provenance bijection is the isomorphism witness; no search for one
    cases = [(w2, o) for o in w2_ovoids]
    for s in (parabolic_gq(3), hermitian_gq(2)):
        cases.append((s, find_ovoids(s, limit=1).solutions[0]))
    with mock.patch.object(canon, "canonical_form",
                           side_effect=AssertionError("canon was called")):
        for s, o in cases:
            assert roundtrip_gq(s, o)


def test_roundtrip_gq_rejects_a_damaged_back_map(w2, w2_ovoids):
    # the back map swaps the first two instances, GQ points v and v + 1
    real = correspondence._gq_from_design

    def damaged(d, system):
        labeled = real(d, system)
        v = d.point_count
        swap = {v: v + 1, v + 1: v}
        lines = [[swap.get(p, p) for p in line] for line in labeled.structure.lines]
        structure = IncidenceStructure(labeled.structure.point_count, lines)
        return OvoidLabeledGQ(structure, labeled.ovoid, labeled.provenance)

    with mock.patch.object(correspondence, "_gq_from_design", damaged):
        for o in w2_ovoids:
            assert not roundtrip_gq(w2, o)


def test_each_verifier_runs_once_per_call(w2, w2_ovoids, sprott4):
    names = ["verify_gq", "verify_ovoid", "verify_bibd", "verify_lrs",
             "verify_non_triangular"]
    # input_check names the verifier that checks each call's input
    calls = [(roundtrip_design, sprott4, "verify_bibd"),
             (roundtrip_gq, (w2, w2_ovoids[0]), "verify_gq"),
             (check_regular_traces, (w2, w2_ovoids[0]), "verify_gq")]
    for fn, args, input_check in calls:
        with contextlib.ExitStack() as stack:
            mocks = {name: stack.enter_context(mock.patch.object(
                         correspondence, name, wraps=getattr(correspondence, name)))
                     for name in names}
            fn(*args)
        counts = {name: m.call_count for name, m in mocks.items()}
        assert max(counts.values()) <= 1, (fn.__name__, counts)
        assert counts[input_check] == 1, (fn.__name__, counts)


def test_roundtrip_through_found_systems(tripled_plane):
    res = find_ntlrs(tripled_plane, limit=1)
    assert res.solutions
    assert roundtrip_design(tripled_plane, res.solutions[0])


def test_backward_then_forward_rebuilds_block_multiset(tripled_plane):
    res = find_ntlrs(tripled_plane, limit=1)
    labeled = gq_from_design(tripled_plane, res.solutions[0])
    d2, _ = design_from_ovoid(labeled.structure, labeled.ovoid)
    assert sorted(d2.blocks) == sorted(tripled_plane.blocks)


# ---------------------------------------------------------
# Regular-trace checks
# ---------------------------------------------------------

def test_regular_trace_check_positive(gq42):
    res = find_ovoids(gq42)
    assert res.exhausted
    passing = [o for o in res.solutions
               if check_regular_traces(gq42, o).ok]
    assert passing
    report = check_regular_traces(gq42, passing[0])
    assert report.blocks_replicated
    assert report.blocks_are_traces
    assert report.failed_point is None
    # one witness per point off the ovoid
    assert len(report.witnesses) == gq42.point_count - len(passing[0])


def test_regular_trace_check_negative(gq42):
    res = find_ovoids(gq42, limit=1)
    report = check_regular_traces(gq42, res.solutions[0])
    assert not report.ok
    assert report.failed_point is not None


def _reference_regular_traces(s, ovoid):
    """The all-pairs scan: every ordered pair of outside points is tried."""
    t = verify_gq(s).t
    o_set = frozenset(ovoid)
    o_index = {p: i for i, p in enumerate(sorted(o_set))}
    outside = [x for x in range(s.point_count) if x not in o_set]
    trace_images = set()
    witnesses = {}
    failed = None
    for x in outside:
        found = None
        for y in outside:
            if y == x or (s.neighbor_masks[x] >> y) & 1:
                continue
            tr = trace_pair(s, x, y)
            if tr <= o_set and is_regular_pair(s, x, y):
                trace_images.add(frozenset(o_index[z] for z in tr))
                if found is None:
                    found = y
        if found is not None:
            witnesses[x] = found
        elif failed is None:
            failed = x
    counts = collections.Counter(
        frozenset(o_index[p] for p in o_set if (s.neighbor_masks[x] >> p) & 1)
        for x in outside)
    return RegularTraceReport(
        failed is None, witnesses, failed,
        all(c == 1 + t for c in counts.values()),
        all(blk in trace_images for blk in counts))


def _relabeled(s, ovoid, rng):
    perm = list(range(s.point_count))
    rng.shuffle(perm)
    lines = [[perm[p] for p in line] for line in s.lines]
    rng.shuffle(lines)
    return IncidenceStructure(s.point_count, lines), {perm[p] for p in ovoid}


def test_regular_traces_match_the_all_pairs_scan(w2, gq42):
    rng = random.Random(32)
    checked = 0
    for s in (w2, parabolic_gq(3), parabolic_gq(4), hermitian_gq(2), gq42):
        for o in find_ovoids(s).solutions:
            cases = [(s, o)] + [_relabeled(s, o, rng) for _ in range(2)]
            for gq, ovoid in cases:
                got = check_regular_traces(gq, ovoid)
                assert got == _reference_regular_traces(gq, ovoid)
                assert list(got.witnesses) == sorted(got.witnesses)
                checked += 1
    assert checked == 3 * (6 + 36 + 120 + 200 + 200)


def test_regular_trace_report_on_a_failing_ovoid():
    s = parabolic_gq(4)
    o = find_ovoids(s, limit=1).solutions[0]
    assert check_regular_traces(s, o) == RegularTraceReport(
        ok=False, witnesses={}, failed_point=2, blocks_replicated=False,
        blocks_are_traces=False)


def test_regular_trace_induced_design_is_a_tripled_plane(gq42):
    res = find_ovoids(gq42)
    o = next(o for o in res.solutions if check_regular_traces(gq42, o).ok)
    d, _ = design_from_ovoid(gq42, o)
    got = detect_replication(d)
    assert got is not None
    base, n = got
    assert n == 3  # 1 + t
    assert designs_isomorphic(base, affine_plane(3))[0]


# ---------------------------------------------------------
# Replication detection
# ---------------------------------------------------------

def test_replication_of_plain_designs():
    assert detect_replication(affine_plane(3)) is None
    base, n = detect_replication(replicate(affine_plane(3), 3))
    assert n == 3
    assert sorted(base.blocks) == sorted(affine_plane(3).blocks)


def test_replication_of_fano_doubles():
    base, n = detect_replication(replicate(fano_design(), 2))
    assert n == 2
    assert sorted(base.blocks) == sorted(fano_design().blocks)


def test_mixed_multiplicities_are_not_replication():
    # two copies of the plane overlaid with a relabeled copy: balanced with
    # pair multiplicity 3, but block multiplicities vary
    plane = affine_plane(3)
    swap = {0: 1, 1: 0}
    relabeled = [[swap.get(p, p) for p in blk] for blk in plane.blocks]
    d = Design(9, list(plane.blocks) * 2 + relabeled)
    assert verify_bibd(d).lam == 3
    assert detect_replication(d) is None


def test_replication_requires_a_balanced_design():
    from gqdesigns.structures import BibdError
    blocks = list(affine_plane(3).blocks) + [affine_plane(3).blocks[0]]
    with pytest.raises(BibdError):
        detect_replication(Design(9, blocks))
