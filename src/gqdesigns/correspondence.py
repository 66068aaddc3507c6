"""The two constructions linking quadrangles with ovoids to resolvable designs.

Forward: a GQ(s,t) with an ovoid yields a design on the ovoid points whose
blocks are the ovoid neighborhoods of the outside points, together with a
non-triangular local resolution system read off the line pencils.  Backward: a
design of matching parameters with such a system becomes a GQ whose points are
the design points plus the block instances, with the design points forming an
ovoid.  Each public map verifies its input once and re-verifies its output
once; a postcondition failure here means a broken construction, and is raised
as a hard internal error.  The private builders do no checking, so the round
trips check each object exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .geometry import is_regular_pair, trace_pair
from .structures import (Design, DesignParams, GQParams, IncidenceStructure,
                         LocalResolutionSystem, verify_bibd, verify_gq,
                         verify_lrs, verify_non_triangular, verify_ovoid)


@dataclass(frozen=True)
class OvoidLabeledGQ:
    """A verified GQ with a distinguished ovoid and point provenance.

    provenance[i] is ("design-point", j) or ("instance", j), recording which
    source object became GQ point i.
    """

    structure: IncidenceStructure
    ovoid: frozenset[int]
    provenance: tuple[tuple[str, int], ...]


def _verify_gq_with_ovoid(s: IncidenceStructure, ovoid) -> GQParams:
    params = verify_gq(s)
    verify_ovoid(s, ovoid)
    if params.s < 2 or params.t < 2:
        raise ValueError(f"order {tuple(params)} needs s and t above 1")
    return params


def _design_from_ovoid(s: IncidenceStructure, ovoid
                       ) -> tuple[Design, LocalResolutionSystem]:
    o_points = sorted(ovoid)
    o_index = {p: i for i, p in enumerate(o_points)}
    o_mask = 0
    for p in o_points:
        o_mask |= 1 << p
    outside = [x for x in range(s.point_count) if not (o_mask >> x) & 1]
    x_index = {x: j for j, x in enumerate(outside)}

    blocks = []
    for x in outside:
        reach = s.neighbor_masks[x] & o_mask
        blk = []
        while reach:
            low = reach & -reach
            blk.append(o_index[low.bit_length() - 1])
            reach ^= low
        blocks.append(tuple(sorted(blk)))
    design = Design(len(o_points), blocks)

    # an ovoid meets each line only at p, so the rest of the line is outside
    classes_by_point = []
    for p in o_points:
        classes = []
        for j in s.lines_through[p]:
            classes.append([x_index[x] for x in s.lines[j] if x != p])
        classes_by_point.append(classes)
    return design, LocalResolutionSystem(classes_by_point)


def design_from_ovoid(s: IncidenceStructure, ovoid
                      ) -> tuple[Design, LocalResolutionSystem]:
    """Design on the ovoid points with one block per outside point.

    Design point i is the i-th smallest ovoid point; block instance j comes
    from the j-th smallest point outside the ovoid and collects the ovoid
    points collinear with it.  Classes about a design point follow the lines
    through the corresponding ovoid point.  Requires s and t above 1; output
    is re-verified (parameters, partitions, and non-triangularity) before
    return.
    """
    params = _verify_gq_with_ovoid(s, ovoid)
    design, system = _design_from_ovoid(s, ovoid)

    got = verify_bibd(design)
    st = params.s * params.t
    want = DesignParams(1 + st, params.s * (1 + st),
                        (1 + params.t) * params.s, 1 + params.t, 1 + params.t)
    if got != want:
        raise RuntimeError(f"derived design has parameters {got}, expected {want}")
    verify_lrs(design, system)
    witness = verify_non_triangular(design, system)
    if witness is not None:
        raise RuntimeError(f"derived system has a triangle: {witness}")
    return design, system


def _factor_parameters(params: DesignParams) -> tuple[int, int]:
    t = params.k - 1
    if params.lam != params.k:
        raise ValueError(
            f"block size {params.k} and pair count {params.lam} must agree")
    if t < 1 or (params.v - 1) % t:
        raise ValueError(f"no integer order fits v={params.v}, k={params.k}")
    s_order = (params.v - 1) // t
    if s_order < 2 or t < 2:
        raise ValueError(f"order ({s_order},{t}) needs s and t above 1")
    return s_order, t


def _gq_from_design(d: Design, system: LocalResolutionSystem) -> OvoidLabeledGQ:
    v = d.point_count
    lines = []
    for p in range(v):
        for cls in system.classes[p]:
            lines.append((p,) + tuple(v + j for j in sorted(cls)))
    structure = IncidenceStructure(v + len(d.blocks), lines)
    provenance = tuple(("design-point", i) for i in range(v))
    provenance += tuple(("instance", j) for j in range(len(d.blocks)))
    return OvoidLabeledGQ(structure, frozenset(range(v)), provenance)


def gq_from_design(d: Design, system: LocalResolutionSystem) -> OvoidLabeledGQ:
    """Quadrangle whose points are the design points then the block instances.

    Each parallel class about point p becomes a line carrying p and the class
    instances (instance j is GQ point v + j).  The design points form an
    ovoid.  Inputs must verify as a BIBD with v = 1 + st, k = lam = 1 + t and
    a non-triangular system; the output is re-verified before return.
    """
    s_order, t = _factor_parameters(verify_bibd(d))
    verify_lrs(d, system)
    witness = verify_non_triangular(d, system)
    if witness is not None:
        raise ValueError(f"system has a triangle about points {witness.points}: "
                         f"instances {witness.blocks}")

    labeled = _gq_from_design(d, system)
    got = verify_gq(labeled.structure)
    if got != (s_order, t):
        raise RuntimeError(f"derived structure has order {tuple(got)}, "
                           f"expected ({s_order},{t})")
    verify_ovoid(labeled.structure, labeled.ovoid)
    return labeled


def roundtrip_design(d: Design, system: LocalResolutionSystem) -> bool:
    """Whether design -> quadrangle -> design reproduces blocks and classes.

    The reconstruction maps design point i to itself and instance j to the
    outside point v + j, so the comparison is direct: equal block multisets
    and equal class partitions at every point.
    """
    labeled = gq_from_design(d, system)
    back_design, back_system = _design_from_ovoid(labeled.structure, labeled.ovoid)
    if back_design.point_count != d.point_count:
        return False
    if sorted(back_design.blocks) != sorted(d.blocks):
        return False
    for p in range(d.point_count):
        if set(system.classes[p]) != set(back_system.classes[p]):
            return False
    return True


def roundtrip_gq(s: IncidenceStructure, ovoid) -> bool:
    """Whether quadrangle -> design -> quadrangle lands back on the input.

    The rebuilt structure is accepted only when provenance_bijection, the
    point map both constructions define, is a bijection onto the points of s
    that sends the rebuilt lines onto the lines of s and the rebuilt ovoid
    onto the given ovoid: an explicit isomorphism witness.
    """
    design, system = design_from_ovoid(s, ovoid)
    labeled = _gq_from_design(design, system)
    mapping = provenance_bijection(s, ovoid, labeled)
    lines = sorted(tuple(sorted(mapping[p] for p in line))
                   for line in labeled.structure.lines)
    return (sorted(mapping.values()) == list(range(s.point_count))
            and lines == sorted(s.lines)
            and {mapping[p] for p in labeled.ovoid} == set(ovoid))


def provenance_bijection(s: IncidenceStructure, ovoid,
                         labeled: OvoidLabeledGQ) -> dict[int, int]:
    """The intended rebuilt-point -> source-point map for a quadrangle roundtrip.

    Design point i returns to the i-th smallest ovoid point; instance j to the
    j-th smallest outside point.
    """
    o_set = frozenset(ovoid)
    o_points = sorted(o_set)
    outside = [x for x in range(s.point_count) if x not in o_set]
    mapping = {}
    for i, (kind, idx) in enumerate(labeled.provenance):
        mapping[i] = o_points[idx] if kind == "design-point" else outside[idx]
    return mapping


@dataclass
class RegularTraceReport:
    """Outcome of the regular-trace coverage check for a GQ with an ovoid.

    ok: every outside point x has a non-collinear outside partner y with
    (x, y) regular and the trace of the pair inside the ovoid.  witnesses
    maps each checked x to its first partner.  blocks_replicated /
    blocks_are_traces describe the induced design: every distinct block
    repeated exactly 1 + t times, and every distinct block equal to the
    ovoid image of some regular trace.
    """

    ok: bool
    witnesses: dict[int, int]
    failed_point: Optional[int]
    blocks_replicated: bool
    blocks_are_traces: bool


def check_regular_traces(s: IncidenceStructure, ovoid) -> RegularTraceReport:
    params = _verify_gq_with_ovoid(s, ovoid)
    o_set = frozenset(ovoid)
    o_points = sorted(o_set)
    o_index = {p: i for i, p in enumerate(o_points)}
    outside = [x for x in range(s.point_count) if x not in o_set]

    trace_images = set()
    witnesses: dict[int, int] = {}
    failed: Optional[int] = None
    for x in outside:
        found = None
        for y in outside:
            if y == x or (s.neighbor_masks[x] >> y) & 1:
                continue
            tr = trace_pair(s, x, y)
            if not tr <= o_set:
                continue
            if not is_regular_pair(s, x, y):
                continue
            trace_images.add(frozenset(o_index[z] for z in tr))
            if found is None:
                found = y
        if found is None and failed is None:
            failed = x
        if found is not None:
            witnesses[x] = found

    counts = _design_from_ovoid(s, o_set)[0].multiplicities
    blocks_replicated = all(c == 1 + params.t for c in counts.values())
    blocks_are_traces = all(frozenset(blk) in trace_images for blk in counts)
    return RegularTraceReport(failed is None, witnesses, failed,
                              blocks_replicated, blocks_are_traces)


def detect_replication(d: Design) -> Optional[tuple[Design, int]]:
    """Largest uniform repetition factor of the block multiset.

    When every distinct block occurs exactly n >= 2 times, returns the
    deduplicated design and n; otherwise None.
    """
    verify_bibd(d, allow_degenerate=True)
    counts = d.multiplicities
    mults = set(counts.values())
    if len(mults) != 1:
        return None
    n = mults.pop()
    if n < 2:
        return None
    return Design(d.point_count, sorted(counts)), n
