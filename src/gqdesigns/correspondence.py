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

from typing import NamedTuple, Optional, Sequence

from .structures import (Design, DesignParams, GQParams, IncidenceStructure,
                         LocalResolutionSystem, _bits, verify_bibd, verify_gq,
                         verify_non_triangular, verify_ovoid)


class OvoidLabeledGQ(NamedTuple):
    """A verified GQ with a distinguished ovoid.

    Points 0..v-1 are the design points and form the ovoid; point v + j is
    block instance j.
    """

    structure: IncidenceStructure
    ovoid: frozenset[int]


def _verify_gq_with_ovoid(s: IncidenceStructure, ovoid) -> GQParams:
    params = verify_gq(s)
    verify_ovoid(s, ovoid)
    if params.s < 2 or params.t < 2:
        raise ValueError(f"order {tuple(params)} needs s and t above 1")
    return params


def _numbering(s: IncidenceStructure, ovoid) -> list[int]:
    """source[i] is the GQ point behind design point i, for i below the ovoid
    size v, or behind block instance i - v: the ovoid points ascending, then
    the other points ascending."""
    o_set = frozenset(ovoid)
    return sorted(o_set) + [x for x in range(s.point_count) if x not in o_set]


def _design_from_ovoid(s: IncidenceStructure, source: Sequence[int], v: int
                       ) -> tuple[Design, LocalResolutionSystem]:
    rank = [0] * len(source)
    o_mask = 0
    for i, x in enumerate(source):
        rank[x] = i
        if i < v:
            o_mask |= 1 << x

    # ranks of ovoid points ascend with the points, so each block comes sorted
    blocks = [[rank[p] for p in _bits(s.perp_masks[x] & o_mask)]
              for x in source[v:]]

    # an ovoid meets each line only at p, so the rest of the line is outside
    classes_by_point = []
    for p in source[:v]:
        classes = []
        for j in _bits(s.point_masks[p]):
            classes.append([rank[x] - v for x in s.lines[j] if x != p])
        classes_by_point.append(classes)
    return Design(v, blocks), LocalResolutionSystem(classes_by_point)


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
    ovoid = frozenset(ovoid)  # read an iterator once
    params = _verify_gq_with_ovoid(s, ovoid)
    st = params.s * params.t
    design, system = _design_from_ovoid(s, _numbering(s, ovoid), 1 + st)

    got = verify_bibd(design)
    want = DesignParams(1 + st, params.s * (1 + st),
                        (1 + params.t) * params.s, 1 + params.t, 1 + params.t)
    if got != want:
        raise RuntimeError(f"derived design has parameters {got}, expected {want}")
    witness = verify_non_triangular(design, system)
    if witness is not None:
        raise RuntimeError(f"derived system has a triangle: {witness}")
    return design, system


def _factor_parameters(params: DesignParams) -> tuple[int, int]:
    """The order (s, t) with v = 1 + st and k = lam = 1 + t, of a design that
    passed verify_bibd, so 3 <= k < v.  Only lam = k needs checking: then
    r(k - 1) = k(v - 1) and k - 1 is coprime to k, so t = k - 1 >= 2 divides
    v - 1, and s = (v - 1)/t > 1 since v > k."""
    if params.lam != params.k:
        raise ValueError(
            f"block size {params.k} and pair count {params.lam} must agree")
    t = params.k - 1
    return (params.v - 1) // t, t


def _gq_from_design(d: Design, system: LocalResolutionSystem) -> OvoidLabeledGQ:
    v = d.point_count
    lines = []
    for p in range(v):
        for cls in system.classes[p]:
            lines.append([p] + [v + j for j in cls])
    structure = IncidenceStructure(v + len(d.blocks), lines)
    return OvoidLabeledGQ(structure, frozenset(range(v)))


def gq_from_design(d: Design, system: LocalResolutionSystem) -> OvoidLabeledGQ:
    """Quadrangle whose points are the design points then the block instances.

    Each parallel class about point p becomes a line carrying p and the class
    instances (instance j is GQ point v + j).  The design points form an
    ovoid.  Inputs must verify as a BIBD with v = 1 + st, k = lam = 1 + t and
    a non-triangular system; the output is re-verified before return.
    """
    s_order, t = _factor_parameters(verify_bibd(d))
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
    outside point v + j, which is read back as instance j, so the comparison
    is instance by instance: equal block lists and equal systems.
    """
    labeled = gq_from_design(d, system)
    back_design, back_system = _design_from_ovoid(
        labeled.structure, range(labeled.structure.point_count), d.point_count)
    return back_design.blocks == d.blocks and back_system == system


def roundtrip_gq(s: IncidenceStructure, ovoid) -> bool:
    """Whether quadrangle -> design -> quadrangle lands back on the input.

    Both maps share one numbering: rebuilt point i < v is the i-th smallest
    ovoid point and rebuilt point v + j the j-th smallest point off the ovoid.
    The rebuilt structure is accepted only when this map sends its lines onto
    the lines of s and its ovoid onto the given ovoid: an explicit isomorphism
    witness.
    """
    ovoid = frozenset(ovoid)
    design, system = design_from_ovoid(s, ovoid)
    rebuilt = _gq_from_design(design, system)
    source = _numbering(s, ovoid)
    lines = sorted(tuple(sorted(source[p] for p in line))
                   for line in rebuilt.structure.lines)
    return (rebuilt.structure.point_count == len(source)
            and {source[p] for p in rebuilt.ovoid} == set(ovoid)
            and lines == sorted(s.lines))


class RegularTraceReport(NamedTuple):
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
    """Regular-trace coverage of a GQ(s,t) with an ovoid O, read off its blocks.

    The partners y of an outside point x, those with {x,y}^perp inside O, are
    exactly its twins: the other outside points with the same block, the
    ovoid points collinear with it.  Every trace of a non-collinear pair and
    every block has t + 1 points (Payne & Thas, 1.3), and the trace lies in
    x^perp and y^perp, so a trace inside O is both blocks; and collinear
    points share only the ovoid point of their line, so twins are
    non-collinear and their trace is their block.  All twins of a group thus
    share one trace and one span, and one regularity test on its two lowest
    members decides the group.  The witness of x is the lowest other member
    of its group.
    """
    from .geometry import is_regular_pair  # the maps need no field arithmetic

    ovoid = frozenset(ovoid)  # read an iterator once
    params = _verify_gq_with_ovoid(s, ovoid)
    o_mask = sum(1 << p for p in ovoid)
    block = {x: s.perp_masks[x] & o_mask
             for x in range(s.point_count) if not o_mask >> x & 1}
    twins: dict[int, list[int]] = {}
    for x, blk in block.items():
        twins.setdefault(blk, []).append(x)
    regular = {blk for blk, g in twins.items()
               if len(g) > 1 and is_regular_pair(s, g[0], g[1])}

    witnesses: dict[int, int] = {}
    for x, blk in block.items():
        if blk in regular:
            g = twins[blk]
            witnesses[x] = g[1] if x == g[0] else g[0]
    failed = next((x for x in block if x not in witnesses), None)
    return RegularTraceReport(
        failed is None, witnesses, failed,
        all(len(g) == 1 + params.t for g in twins.values()),
        len(regular) == len(twins))
