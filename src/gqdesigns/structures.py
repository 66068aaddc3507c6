"""Point-line incidence structures, block designs, and their verifiers.

Verifiers either return the computed parameters or raise a subclass of
VerificationError carrying a concrete witness; they never return a bare
pass/fail without evidence.  Point and line indices are 0-based everywhere.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence


class VerificationError(ValueError):
    """A structure failed one of its defining checks."""


class GQAxiomError(VerificationError):
    def __init__(self, axiom: int, witness: tuple, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class BibdError(VerificationError):
    def __init__(self, witness: tuple, message: str):
        super().__init__(message)
        self.witness = witness


class DegenerateDesignError(VerificationError):
    """Pair counts are uniform but the parameters are trivial (k <= 2 or k >= v)."""

    def __init__(self, params: "DesignParams", message: str):
        super().__init__(message)
        self.params = params


class OvoidError(VerificationError):
    def __init__(self, witness: tuple, message: str):
        super().__init__(message)
        self.witness = witness


class LrsError(VerificationError):
    def __init__(self, point: int, witness: tuple, message: str):
        super().__init__(message)
        self.point = point
        self.witness = witness


class GQParams(NamedTuple):
    s: int
    t: int


class DesignParams(NamedTuple):
    v: int
    b: int
    r: int
    k: int
    lam: int


class TriangleWitness(NamedTuple):
    """Three block instances pairwise co-class about three distinct points."""

    blocks: tuple[int, int, int]
    points: tuple[int, int, int]  # points[i] labels the pair omitting blocks[i]


def _normalize_lines(point_count: int, lines: Iterable[Iterable[int]],
                     kind: str) -> tuple[tuple[int, ...], ...]:
    out = []
    for idx, raw in enumerate(lines):
        pts = tuple(sorted(raw))
        if not pts:
            raise ValueError(f"{kind} {idx} is empty")
        if pts[0] < 0 or pts[-1] >= point_count:
            raise ValueError(f"{kind} {idx} references a point outside 0..{point_count - 1}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"{kind} {idx} repeats a point")
        out.append(pts)
    return tuple(out)


class IncidenceStructure:
    """Finite points and lines, each line a set of points (no repeats inside a line)."""

    def __init__(self, point_count: int, lines: Iterable[Iterable[int]]):
        if point_count < 1:
            raise ValueError("need at least one point")
        self.point_count = point_count
        self.lines = _normalize_lines(point_count, lines, "line")

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.point_count == other.point_count and self.lines == other.lines)

    def __hash__(self):
        return hash((self.point_count, self.lines))

    def __repr__(self):
        return f"IncidenceStructure({self.point_count} points, {len(self.lines)} lines)"

    @cached_property
    def lines_through(self) -> tuple[tuple[int, ...], ...]:
        thru = [[] for _ in range(self.point_count)]
        for j, line in enumerate(self.lines):
            for p in line:
                thru[p].append(j)
        return tuple(tuple(t) for t in thru)

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        masks = []
        for line in self.lines:
            m = 0
            for p in line:
                m |= 1 << p
            masks.append(m)
        return tuple(masks)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per point, bitmask of the other points sharing a line with it."""
        nbr = [0] * self.point_count
        for m in self.line_masks:
            rest = m
            while rest:
                low = rest & -rest
                p = low.bit_length() - 1
                nbr[p] |= m & ~low
                rest ^= low
        return tuple(nbr)


class Design(IncidenceStructure):
    """Block design: blocks all of one size, repeated blocks kept as separate instances."""

    def __init__(self, point_count: int, blocks: Iterable[Iterable[int]]):
        if point_count < 1:
            raise ValueError("need at least one point")
        self.point_count = point_count
        self.lines = _normalize_lines(point_count, blocks, "block")
        if self.lines:
            k = len(self.lines[0])
            for idx, blk in enumerate(self.lines):
                if len(blk) != k:
                    raise ValueError(f"block {idx} has size {len(blk)}, expected {k}")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.lines

    @cached_property
    def multiplicities(self) -> dict[tuple[int, ...], int]:
        """Number of instances of each distinct block content."""
        return dict(Counter(self.lines))

    def __repr__(self):
        return f"Design({self.point_count} points, {len(self.lines)} blocks)"


class LocalResolutionSystem:
    """Per-point partition of the block instances through that point.

    classes[p] lists the parallel classes at point p; each class is a frozenset
    of block-instance indices.  Classes are stored sorted by their smallest
    instance index, so equal systems compare equal regardless of input order.
    """

    def __init__(self, classes_by_point: Sequence[Sequence[Iterable[int]]]):
        rows = []
        for p, classes in enumerate(classes_by_point):
            row = sorted((frozenset(c) for c in classes), key=min)
            for c in row:
                if not c:
                    raise ValueError(f"point {p} has an empty class")
            rows.append(tuple(row))
        self.classes = tuple(rows)
        self.point_count = len(rows)

    def __eq__(self, other):
        return isinstance(other, LocalResolutionSystem) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return f"LocalResolutionSystem({self.point_count} points)"


def verify_gq(s: IncidenceStructure) -> GQParams:
    """Check the generalized-quadrangle axioms; return (s, t) on success.

    The result is cached on the structure, so repeated calls are free.
    """
    cached = getattr(s, "_gq_params", None)
    if cached is not None:
        return cached

    degrees = {len(t) for t in s.lines_through}
    if len(degrees) != 1:
        a = min(degrees)
        b = max(degrees)
        raise GQAxiomError(1, (a, b), f"point degrees are not uniform: found {a} and {b}")
    order_t = degrees.pop() - 1
    if order_t < 1:
        raise GQAxiomError(1, (order_t + 1,), "points must lie on at least two lines")

    seen_pair: dict[tuple[int, int], int] = {}
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
    # two lines sharing two points would repeat a point pair, so the line-pair
    # half of the axiom is already covered by the scan above

    nbr = s.neighbor_masks
    masks = s.line_masks
    for x in range(s.point_count):
        reach = nbr[x] | (1 << x)
        for j, m in enumerate(masks):
            if m & (1 << x):
                continue
            hits = (m & reach).bit_count()
            if hits != 1:
                raise GQAxiomError(
                    3, (x, j, hits),
                    f"point {x} sees {hits} points of line {j}, expected exactly 1")

    params = GQParams(order_s, order_t)
    s._gq_params = params
    return params


def verify_bibd(d: Design, allow_degenerate: bool = False) -> DesignParams:
    """Check balanced incomplete block design conditions; return (v, b, r, k, lam).

    Every unordered point pair must lie in the same number of block instances.
    Trivial parameter sets (k <= 2 or k >= v) raise DegenerateDesignError, with
    the computed parameters attached, unless allow_degenerate is set.
    """
    v = d.point_count
    b = len(d.blocks)
    if b == 0:
        raise BibdError((), "design has no blocks")
    if v < 2:
        raise BibdError((), "design needs at least two points")
    k = len(d.blocks[0])
    if k < 2:
        raise BibdError((k,), "blocks of size 1 cannot balance point pairs")

    counts: dict[tuple[int, int], int] = {}
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
    # uniform pair counts force uniform replication; check the arithmetic anyway
    if any(len(t) != r for t in d.lines_through) \
            or v * r != b * k or r * (k - 1) != lam * (v - 1):
        raise RuntimeError(f"balanced design breaks v*r = b*k or r*(k-1) = lambda*(v-1)"
                           f" at v={v}, b={b}, r={r}, k={k}, lambda={lam}")
    params = DesignParams(v, b, r, k, lam)
    if (k <= 2 or k >= v) and not allow_degenerate:
        raise DegenerateDesignError(
            params, f"uniform design is degenerate: v={v}, k={k}")
    return params


def verify_ovoid(s: IncidenceStructure, ovoid: Iterable[int]) -> None:
    """Check that the point set meets every line exactly once.

    Expects a structure that passes verify_gq; the ovoid size 1 + s*t is then
    a consequence and is checked.
    """
    params = verify_gq(s)
    pts = frozenset(ovoid)
    for p in pts:
        if not 0 <= p < s.point_count:
            raise OvoidError((p,), f"ovoid point {p} out of range")
    mask = 0
    for p in pts:
        mask |= 1 << p
    for j, m in enumerate(s.line_masks):
        hits = (m & mask).bit_count()
        if hits != 1:
            raise OvoidError((j, hits), f"line {j} meets the set in {hits} points, expected 1")
    if len(pts) != 1 + params.s * params.t:
        raise RuntimeError(f"ovoid of {len(pts)} points meets every line once, "
                           f"but a GQ of order {tuple(params)} needs {1 + params.s * params.t}")


def verify_lrs(d: Design, system: LocalResolutionSystem) -> None:
    """Check a local resolution system against its design.

    At every point p the classes must partition the block instances through p,
    and each class, with p removed, must partition the remaining points.
    """
    if system.point_count != d.point_count:
        raise LrsError(-1, (system.point_count, d.point_count),
                       f"system covers {system.point_count} points, design has {d.point_count}")
    blocks = d.blocks
    for p in range(d.point_count):
        through = set(d.lines_through[p])
        assigned: set[int] = set()
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
            covered: dict[int, int] = {}
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


def verify_non_triangular(d: Design, system: LocalResolutionSystem) -> Optional[TriangleWitness]:
    """Search for a triangle of pairwise co-class instances about three distinct points.

    Expects a system that already passes verify_lrs.  Returns None when every
    such triangle closes about a single point (the non-triangular condition),
    otherwise the first offending witness.  Two instances in a common class
    must share exactly that class point; any other overlap is reported as a
    system error.
    """
    blocksets = [frozenset(b) for b in d.blocks]
    partner: list[dict[int, int]] = [dict() for _ in range(len(blocksets))]
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


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and lines.

    Old line j becomes new point j; old point p becomes the new line listing
    the lines through p.  Points on no line would vanish, so they are refused.
    """
    for p, through in enumerate(s.lines_through):
        if not through:
            raise ValueError(f"point {p} lies on no line; dual would drop it")
    return IncidenceStructure(len(s.lines), s.lines_through)
