"""Scans that name the first witness of a failed verifier.

structures decides each check by counting on bitmasks.  When a count fails,
it imports this module and runs the scan here, which reports the same
witness the verifier has always reported, in the same order.  A valid
object never loads this module.  When a scan finds nothing the count said it
would, it raises RuntimeError: by the counting arguments in the structures
docstring that cannot happen.  triangle_scan, like verify_non_triangular's
mask test, expects a system that passes verify_lrs.
"""

from __future__ import annotations

from itertools import combinations

from .structures import (Design, GQAxiomError, IncidenceStructure,
                         LocalResolutionSystem, TriangleWitness)


def repeated_pair_scan(s: IncidenceStructure) -> None:
    """Raise axiom 1 on the first point pair, in line order, on two lines."""
    seen_pair: dict[tuple[int, int], int] = {}
    for j, line in enumerate(s.lines):
        for x, y in combinations(line, 2):
            prev = seen_pair.setdefault((x, y), j)
            if prev != j:
                raise GQAxiomError(
                    1, (x, y, prev, j), f"points {x} and {y} lie on two common lines ({prev}, {j})")
    raise RuntimeError("perp counts found a point pair on two lines; the scan found none")


def axiom3_scan(s: IncidenceStructure) -> None:
    """Raise axiom 3 on the first point, then line, that it fails at."""
    masks = s.line_masks
    for x, reach in enumerate(s.perp_masks):
        for j, m in enumerate(masks):
            if m & (1 << x):
                continue
            hits = (m & reach).bit_count()
            if hits != 1:
                raise GQAxiomError(
                    3, (x, j, hits),
                    f"point {x} sees {hits} points of line {j}, expected exactly 1")
    raise RuntimeError("counting found axiom 3 broken; the point-line scan found no witness")


def triangle_scan(d: Design, system: LocalResolutionSystem) -> TriangleWitness:
    """The first triangle of a system that passes verify_lrs.

    Triangles (b1, b2, b3) ascend in b1 and then follow the order in which
    b1's co-class partners were first met.
    """
    partner: list[dict[int, int]] = [dict() for _ in range(len(d.blocks))]
    for p in range(d.point_count):
        for cls in system.classes[p]:
            for bi, bj in combinations(sorted(cls), 2):
                partner[bi][bj] = p
                partner[bj][bi] = p
    for b1, adj1 in enumerate(partner):
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
    raise RuntimeError("co-class masks found a triangle; the triangle scan found none")
