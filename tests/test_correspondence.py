import collections
import contextlib
import functools
import hashlib
import itertools
import random
from unittest import mock

import pytest

from gqdesigns import canon, correspondence, geometry, structures
from gqdesigns.canon import designs_isomorphic, gq_isomorphic
from gqdesigns.correspondence import (
    OvoidLabeledGQ,
    RegularTraceReport,
    check_regular_traces,
    design_from_ovoid,
    gq_from_design,
    roundtrip_design,
    roundtrip_gq,
)
from gqdesigns.fileformats import write_design, write_incidence, write_lrs
from gqdesigns.geometry import (hermitian_gq, is_regular_pair, parabolic_gq,
                                symplectic_gq, trace_pair)
from gqdesigns.search import find_ovoids, find_ntlrs
from gqdesigns.sprott import affine_plane, replicate, sprott_design
from gqdesigns.structures import (
    Design,
    DesignParams,
    IncidenceStructure,
    LocalResolutionSystem,
    VerificationError,
    detect_replication,
    verify_bibd,
    verify_gq,
    verify_lrs,
    verify_non_triangular,
    verify_ovoid,
)

from conftest import fano_design, fano_incidence, grid_3x3


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
    nbr = w2.perp_masks
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
    # the 3x3 grid is a GQ of order (2,1) and its diagonal an ovoid, but
    # both maps need s and t above 1
    for apply in (design_from_ovoid, check_regular_traces):
        with pytest.raises(ValueError, match=r"^order \(2, 1\) needs s and t above 1$"):
            apply(grid_3x3(), {0, 4, 8})


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


def test_backward_map_numbering(sprott4):
    # design point i is GQ point i, instance j is GQ point v + j, and the
    # lines come in class order: point by point, classes as stored
    d, system = sprott4
    v = d.point_count
    labeled = gq_from_design(d, system)
    assert labeled.ovoid == frozenset(range(v))
    built = [(p, c) for p in range(v) for c in system.classes[p]]
    assert len(built) == len(labeled.structure.lines)
    for (p, c), line in zip(built, labeled.structure.lines):
        assert p in line
        for j in range(len(d.blocks)):
            assert (v + j in line) == (j in c)


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
    # the shared numbering is the isomorphism witness; no search for one
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
        return OvoidLabeledGQ(structure, labeled.ovoid)

    with mock.patch.object(correspondence, "_gq_from_design", damaged):
        for o in w2_ovoids:
            assert not roundtrip_gq(w2, o)


def test_each_verifier_runs_once_per_call(w2, w2_ovoids, sprott4):
    names = ["verify_gq", "verify_ovoid", "verify_bibd", "verify_non_triangular"]
    # input_check names the verifier that checks each call's input
    calls = [(roundtrip_design, sprott4, "verify_bibd"),
             (roundtrip_gq, (w2, w2_ovoids[0]), "verify_gq"),
             (check_regular_traces, (w2, w2_ovoids[0]), "verify_gq")]
    for fn, args, input_check in calls:
        with contextlib.ExitStack() as stack:
            mocks = {name: stack.enter_context(mock.patch.object(
                         correspondence, name, wraps=getattr(correspondence, name)))
                     for name in names}
            # only verify_non_triangular calls it, through its own module
            mocks["verify_lrs"] = stack.enter_context(mock.patch.object(
                structures, "verify_lrs", wraps=structures.verify_lrs))
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
            if y == x or (s.perp_masks[x] >> y) & 1:
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
        frozenset(o_index[p] for p in o_set if (s.perp_masks[x] >> p) & 1)
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


def test_maps_read_an_ovoid_given_as_an_iterator(w2, w2_ovoids):
    o = w2_ovoids[0]
    assert design_from_ovoid(w2, iter(sorted(o))) == design_from_ovoid(w2, o)
    assert roundtrip_gq(w2, iter(sorted(o)))
    assert check_regular_traces(w2, iter(sorted(o))) == check_regular_traces(w2, o)


def test_regular_traces_test_one_pair_per_block(gq42):
    # twins share their trace, so one regularity test decides each block;
    # the blocks come from the perp masks, not from a built design
    forbid = mock.Mock(side_effect=AssertionError("no design or system is built"))
    for o in find_ovoids(gq42, limit=20).solutions:
        blocks = {gq42.perp_masks[x] & sum(1 << p for p in o)
                  for x in range(gq42.point_count) if x not in o}
        with mock.patch.object(geometry, "is_regular_pair",
                               wraps=is_regular_pair) as spy, \
                mock.patch.object(correspondence, "Design", forbid), \
                mock.patch.object(correspondence, "LocalResolutionSystem", forbid):
            check_regular_traces(gq42, o)
        assert spy.call_count <= len(blocks)


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
# Frozen outputs of both maps
# ---------------------------------------------------------

# (GQ, ovoid index, relabeled): sha256 of write_design + write_lrs of
# design_from_ovoid, then of write_incidence of gq_from_design on that pair.
# The point, instance and class numbering of both maps is part of the
# contract; a relabeled case runs the GQ under _relabeled with seed = index.
FROZEN_MAPS = {
    ("W(2)", 0, False): (
        "2a6cde772d8cd14e75e362c46ff1f3a70c4bd90bcff853ff6df24fcc5652617e",
        "ccdcddd162692c76a56996c0e6795cf3506a4d9334fe6860830f74291881e839"),
    ("W(2)", 0, True): (
        "5c24b1806dcd8e415cc91f81b81c7d5304149305b0bfcbd89b74ddd9fbe2a429",
        "64f8a1563281a057d2872bbff99674d65e18791ccdfdb7e31eb3ac6d562ae02b"),
    ("W(2)", 1, False): (
        "2a6cde772d8cd14e75e362c46ff1f3a70c4bd90bcff853ff6df24fcc5652617e",
        "ccdcddd162692c76a56996c0e6795cf3506a4d9334fe6860830f74291881e839"),
    ("W(2)", 1, True): (
        "ef5b6bea2ef5f9ddb08f7166d5a81b8b37d59f8e47cb9d27b50cf216a5f90d7f",
        "ba4bb244c90d39bf4409d223be15fa8d3d345914d0ace5252b50f25ae02fdabd"),
    ("W(2)", 2, False): (
        "ba5cbb7f838040207e51dbf8b8855a979080fe607936f7a6562030c131501bfb",
        "4be659a8f1b3ff9ffc23aba7622c913ade9ae25d63470474cb0b08bdb1a8bf87"),
    ("W(2)", 2, True): (
        "5e3a52b85e53d7d77ae283c6185583848a52b627b36fa78ae94e8dc4ae186f4b",
        "ace2cf5076b52f962af47df3631770607fa9ef74ea9ff6bb5359cac0fa338f24"),
    ("W(2)", 3, False): (
        "f7ca1e0b3258421fef913389a197f45c8a6aad38b08702345870956bb5dc2926",
        "b12ac41ae47f7734b6e6c4be24ddb8caa1d08e778f5e83a8cdc23ba2d59b5a68"),
    ("W(2)", 3, True): (
        "b23a482c22bee865209585835274507013d2ce8dfb72fd1c57a602de597f3851",
        "5fd1a95a03e1f863738d7332cd1b903dfe1283b45677cb25849e8bd9494ae7fb"),
    ("W(2)", 4, False): (
        "4eda4a96a599aab6fc2158c444015b04d3225d854e1aab1293bbbc5140a9f22d",
        "677528078abcd47b94e478964743d003c8f698c63d4dfb2937aeaba079d42307"),
    ("W(2)", 4, True): (
        "7eb859cdd3d4895b7eb65dedc73d8f29faf1a2d6d61037afa2939c6bd4c8bd62",
        "4123499079806e8d05a58885834775199d87caa1a46731b1efe912138bbfe657"),
    ("W(2)", 5, False): (
        "2a6cde772d8cd14e75e362c46ff1f3a70c4bd90bcff853ff6df24fcc5652617e",
        "ccdcddd162692c76a56996c0e6795cf3506a4d9334fe6860830f74291881e839"),
    ("W(2)", 5, True): (
        "a8f31b75510c4db4b8ae7e841bfd89c4a732e0a7d3037b4f4f14c588db7e4cfe",
        "caf875a27e3fa59be221a5f27a31853b7029f848fbc048455d80b104ed11db39"),
    ("Q(4,3)", 0, False): (
        "4970c36c138183b9bfc6ac4d02861853ae2a616e3a0c5384c85eaa336a78fd9b",
        "c5c32e6f27f0f52a7cf3dc85e11f86a045ca04144910eff8c4ae4786926b3227"),
    ("Q(4,3)", 0, True): (
        "8b834cf0f5bdcc913336a0e2914873e4a5499b32cb21c433f82d92cbf37494be",
        "2c673e358dd4adac1665dad1370acda3f58cafef82edbf3d3fb6d94912374556"),
    ("Q(4,3)", 1, False): (
        "b12689de1dc9bc2482014909f5269f882b92f4d6a2d1cf809c67219a55701d45",
        "800e6bbefd791c498e215151f8ccfb49c0a65e60a8ac7ba6c92283a0490fa9c9"),
    ("Q(4,3)", 1, True): (
        "82f9114d1dc65989fe0db969d18c984d8f9e02ca4ee6c1a76c2bddbe6a06a3f8",
        "fdf29bdcacfb1895b86f2be97e603d035515c68b69808094bd172fd5c94733e0"),
    ("Q(4,3)", 2, False): (
        "cbc10264a3c739faa512c1a6620d58accf812d010d90ece37e06e58722e8e47b",
        "2d14d27cc507e89aa4d91b0f5ef92e01a7fb750c62ddd45eac399bc7e4c7f1af"),
    ("Q(4,3)", 2, True): (
        "2b887f04a082e18de03547283cb2f04864d7b0269d002b199276313cd94c75c7",
        "31170470ea7e4fb918b27311adaa920bd91726c462bbbf5a5650f1e3f7175995"),
    ("H(3,4)", 0, False): (
        "aa9aefe971ed320607785deef16ad35504ad05ebd24e3378770b38e24a6aa9de",
        "015c150132e7d6b5806460594466c063c923436afba42a0a8b90b01779cc05ed"),
    ("H(3,4)", 0, True): (
        "30890812fbfb845310550c28b6809871395e8ca67f4676ffb9a292aa0844d1ef",
        "b86311dc50ee9a07ae64a66aa29a2a8a65b5d1112352613a79c71080fa50cb30"),
    ("H(3,4)", 1, False): (
        "dbcae914bf6aa14ab9885734f67685c6150d576980901fb451f70ba09f0f4f84",
        "9f012c411933a34f98971c1cf9e8425e0dac0cee9dd8dd5be3182a7d7614dfd4"),
    ("H(3,4)", 1, True): (
        "bfe92e318eb6c273b0523ad2bac8b4ef0c787deb55f0e704ea780b992b886ebf",
        "91babfbeb7017938eb6ea9a062c47f82c466f6310ee89f224786930f25d8990c"),
}

_MAP_SOURCES = {"W(2)": (symplectic_gq, 2, None), "Q(4,3)": (parabolic_gq, 3, 3),
                "H(3,4)": (hermitian_gq, 2, 2)}


@functools.lru_cache(maxsize=None)
def _first_ovoids(name):
    maker, q, limit = _MAP_SOURCES[name]
    s = maker(q)
    return s, find_ovoids(s, limit=limit).solutions


@pytest.mark.parametrize("case", list(FROZEN_MAPS),
                         ids=[f"{n} ovoid {i}{' relabeled' * r}"
                              for n, i, r in FROZEN_MAPS])
def test_frozen_maps(case):
    name, i, relabeled = case
    s, ovoids = _first_ovoids(name)
    o = ovoids[i]
    if relabeled:
        s, o = _relabeled(s, o, random.Random(i))
    d, system = design_from_ovoid(s, o)
    back = gq_from_design(d, system).structure
    got = (hashlib.sha256((write_design(d) + write_lrs(system)).encode()),
           hashlib.sha256(write_incidence(back).encode()))
    assert tuple(h.hexdigest() for h in got) == FROZEN_MAPS[case]


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
