"""Point-line incidence structures, block designs, and their verifiers.

The constructors alone hold the row rules, and check each row as they read
it: a row is non-empty ints in 0..v-1 with no repeat, a design's blocks are
as long as the first, an LRS class is non-empty and names each instance once.
The first row that breaks a rule raises ValueError naming its index.
_points alone checks that a point set given later holds ints in 0..v-1.
Three bitmask tables are cached from the rows, and they are the only incidence
indexes: line_masks, point_masks (the one table of the lines through a point),
and perp_masks, the one place x^perp (x and every point on a line with x) is
built.

Verifiers either return the computed parameters or raise a subclass of
VerificationError carrying a concrete witness; they never return a bare
pass/fail without evidence.  Point and line indices are 0-based everywhere.

The verifiers decide on bitmasks.  verify_gq counts.  |x^perp| - 1 is at
most the sum of |L| - 1 over the lines L through x, with equality exactly
when no point shares two lines with x; summed over x, axiom 1 holds exactly
when the sum of |x^perp| - 1 equals the sum of |L|(|L| - 1) over all lines.
A triangle-free partial linear space of order (s,t) has at least (s+1)(st+1)
points, with equality exactly when it is a GQ (Payne & Thas, Finite
Generalized Quadrangles, 1.2).
So axiom 3 holds exactly when there are (s+1)(st+1) points and each collinear
pair has s - 1 common neighbours, none off its line L: the masks x^perp & ~L,
x on L, are pairwise disjoint.  verify_non_triangular runs verify_lrs
first, so each class less its point partitions the other points and two
co-class instances share exactly their class point.  It keeps co[b], the
instances co-class with b.  A triangle's three points are then all equal or
all distinct, and the LRS is non-triangular exactly when the masks
co[b] & ~M, b in M, are pairwise disjoint for every class M.  Only when a
test fails does a verifier load _witness, whose scans name the witness in
the order always reported.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Optional


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class IncidenceStructure:
    """Finite points and lines, each line a set of points (no repeats inside a line)."""

    _kind = "line"  # names one line in messages
    _same_size = False  # whether every line must be as long as the first

    def __init__(self, point_count: int, lines: Iterable[Iterable[int]]):
        if not _is_int(point_count):
            raise ValueError(f"point count {point_count!r} is not an int")
        if point_count < 1:
            raise ValueError("need at least one point")
        out = []
        for idx, raw in enumerate(lines):
            pts = tuple(raw)
            for p in pts:
                if type(p) is not int and not _is_int(p):  # skip the call for an int
                    raise ValueError(f"{self._kind} {idx} has point {p!r}, not an int")
            pts = tuple(sorted(pts))
            if not pts:
                raise ValueError(f"{self._kind} {idx} is empty")
            if pts[0] < 0 or pts[-1] >= point_count:
                raise ValueError(f"{self._kind} {idx} references a point outside "
                                 f"0..{point_count - 1}")
            if len(set(pts)) != len(pts):
                raise ValueError(f"{self._kind} {idx} repeats a point")
            if self._same_size and out and len(pts) != len(out[0]):
                raise ValueError(f"{self._kind} {idx} has size {len(pts)}, "
                                 f"expected {len(out[0])}")
            out.append(pts)
        self.point_count = point_count
        self.lines = tuple(out)

    def __eq__(self, other):
        return (isinstance(other, IncidenceStructure)
                and self.point_count == other.point_count and self.lines == other.lines)

    def __hash__(self):
        return hash((self.point_count, self.lines))

    def __repr__(self):
        return f"IncidenceStructure({self.point_count} points, {len(self.lines)} lines)"

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
    def point_masks(self) -> tuple[int, ...]:
        """Per point, bitmask of the lines (block instances) through it."""
        masks = [0] * self.point_count
        for j, line in enumerate(self.lines):
            bit = 1 << j
            for p in line:
                masks[p] |= bit
        return tuple(masks)

    @cached_property
    def perp_masks(self) -> tuple[int, ...]:
        """Per point x, bitmask of x^perp: x and every point sharing a line with it."""
        perps = [1 << p for p in range(self.point_count)]
        for line, m in zip(self.lines, self.line_masks):
            for p in line:
                perps[p] |= m
        return tuple(perps)


class Design(IncidenceStructure):
    """Block design: blocks all of one size, repeated blocks kept as separate instances."""

    _kind = "block"
    _same_size = True

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        return self.lines

    def instances(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each distinct block content, in order of first occurrence, to the ascending
        indices of its instances; not cached, as it is as large as the block list."""
        groups: dict[tuple[int, ...], list[int]] = {}
        for j, blk in enumerate(self.lines):
            groups.setdefault(blk, []).append(j)
        return {blk: tuple(ix) for blk, ix in groups.items()}

    def __repr__(self):
        return f"Design({self.point_count} points, {len(self.lines)} blocks)"


class LocalResolutionSystem:
    """Per-point partition of the block instances through that point.

    classes[p] lists the parallel classes at point p; each class is a frozenset
    of block-instance indices.  Classes are stored sorted by their smallest
    instance index, so equal systems compare equal regardless of input order.
    """

    def __init__(self, classes_by_point: Iterable[Iterable[Iterable[int]]]):
        rows = []
        for p, classes in enumerate(classes_by_point):
            row = []
            for ci, c in enumerate(classes):
                members = tuple(c)
                if not members:
                    raise ValueError(f"point {p} has an empty class")
                for idx in members:
                    if type(idx) is not int and not _is_int(idx):
                        raise ValueError(f"point {p}, class {ci} has instance {idx!r}, not an int")
                c = frozenset(members)
                if len(c) != len(members):
                    raise ValueError(f"point {p}, class {ci} repeats an instance")
                row.append(c)
            row.sort(key=min)
            rows.append(tuple(row))
        self.classes = tuple(rows)
        self.point_count = len(rows)

    def __eq__(self, other):
        return isinstance(other, LocalResolutionSystem) and self.classes == other.classes

    def __hash__(self):
        return hash(self.classes)

    def __repr__(self):
        return f"LocalResolutionSystem({self.point_count} points)"


def _points(s: IncidenceStructure, points: Iterable[int]) -> frozenset[int]:
    """points, read once, as a set of points of s: the first non-int in input
    order, bool included, else the lowest index outside 0..v-1, raises
    ValueError, as malformed input rather than a failed verification."""
    seq = tuple(points)
    for p in seq:
        if type(p) is not int and not _is_int(p):  # skip the call for an int
            raise ValueError(f"point {p!r} is not an int")
    pts = frozenset(seq)
    v = s.point_count
    if pts and (min(pts) < 0 or max(pts) >= v):
        bad = min(p for p in pts if not 0 <= p < v)
        raise ValueError(f"point {bad} outside 0..{v - 1}")
    return pts


def _disjoint(masks: Iterable[int]) -> bool:
    seen = 0
    for m in masks:
        if seen & m:
            return False
        seen |= m
    return True


def verify_gq(s: IncidenceStructure) -> GQParams:
    """Check the generalized-quadrangle axioms; return (s, t) on success.

    The result is cached on the structure, so repeated calls are free.
    """
    cached = getattr(s, "_gq_params", None)
    if cached is not None:
        return cached

    degrees = {m.bit_count() for m in s.point_masks}
    if len(degrees) != 1:
        a = min(degrees)
        b = max(degrees)
        raise GQAxiomError(1, (a, b), f"point degrees are not uniform: found {a} and {b}")
    order_t = degrees.pop() - 1
    if order_t < 1:
        raise GQAxiomError(1, (order_t + 1,), "points must lie on at least two lines")

    # axiom 1 by the global count in the module docstring
    perps = s.perp_masks
    lines = s.lines
    if sum(m.bit_count() for m in perps) - s.point_count \
            != sum(len(line) * (len(line) - 1) for line in lines):
        from ._witness import repeated_pair_scan
        repeated_pair_scan(s)

    sizes = {len(line) for line in lines}
    if len(sizes) != 1:
        a = min(sizes)
        b = max(sizes)
        raise GQAxiomError(2, (a, b), f"line sizes are not uniform: found {a} and {b}")
    order_s = sizes.pop() - 1
    if order_s < 1:
        raise GQAxiomError(2, (order_s + 1,), "lines must carry at least two points")
    # two lines sharing two points would repeat a point pair, so the line-pair
    # half of the axiom is already covered by the test above

    if s.point_count != (order_s + 1) * (order_s * order_t + 1) or not all(
            _disjoint(perps[x] & ~m for x in line) for line, m in zip(lines, s.line_masks)):
        from ._witness import axiom3_scan
        axiom3_scan(s)

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

    through = d.point_masks
    lam = (through[0] & through[1]).bit_count()
    for x in range(v):
        tx = through[x]
        for y in range(x + 1, v):
            c = (tx & through[y]).bit_count()
            if c != lam:
                raise BibdError(
                    (x, y, c, 0, 1, lam),
                    f"pair ({x},{y}) lies in {c} blocks but pair (0,1) lies in {lam}")

    r = through[0].bit_count()
    # uniform pair counts force uniform replication; check the arithmetic anyway
    if any(t.bit_count() != r for t in through) \
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

    Expects a structure that passes verify_gq; a set not of points of s
    fails _points.  Decided in O(|set|) from point_masks: each point is on
    t + 1 of the (t + 1)(1 + st) lines, so a set of 1 + st points meets every
    line once exactly when the lines through its points cover them all.  Only
    a failure scans the lines, to name the first met other than once.
    """
    params = verify_gq(s)
    pts = _points(s, ovoid)
    by_point = s.point_masks
    met = 0
    for p in pts:
        met |= by_point[p]
    size = 1 + params.s * params.t
    if len(pts) != size or met != (1 << len(s.lines)) - 1:
        for j, line in enumerate(s.lines):
            hits = len(pts.intersection(line))
            if hits != 1:
                raise OvoidError((j, hits), f"line {j} meets the set in {hits} points, expected 1")
        raise RuntimeError(f"set of {len(pts)} points meets every line once, "
                           f"but a GQ of order {tuple(params)} needs {size}")


def verify_lrs(d: Design, system: LocalResolutionSystem) -> None:
    """Check a local resolution system against its design.

    At every point p the classes must partition the block instances through p,
    and each class, with p removed, must partition the remaining points.
    """
    if system.point_count != d.point_count:
        raise LrsError(-1, (system.point_count, d.point_count),
                       f"system covers {system.point_count} points, design has {d.point_count}")
    b = len(d.blocks)
    masks = d.line_masks
    full = (1 << d.point_count) - 1
    for p, through in enumerate(d.point_masks):
        rest = full ^ (1 << p)
        assigned = 0
        for ci, cls in enumerate(system.classes[p]):
            union = twice = 0
            for idx in cls:
                if not 0 <= idx < b:
                    raise LrsError(p, (ci, idx), f"point {p}: instance {idx} out of range")
                bit = 1 << idx
                if not through & bit:
                    raise LrsError(p, (ci, idx),
                                   f"point {p}: instance {idx} does not contain the point")
                if assigned & bit:
                    raise LrsError(p, (ci, idx),
                                   f"point {p}: instance {idx} appears in two classes")
                assigned |= bit
                twice |= union & masks[idx]
                union |= masks[idx]
            bad = rest & (twice | ~union)
            if bad:
                x = (bad & -bad).bit_length() - 1
                c = sum(masks[idx] >> x & 1 for idx in cls)
                raise LrsError(p, (ci, x, c),
                               f"point {p}, class {ci}: point {x} covered {c} times")
        if assigned != through:
            missing = ((through ^ assigned) & -(through ^ assigned)).bit_length() - 1
            raise LrsError(p, (missing,),
                           f"point {p}: instance {missing} through the point is unassigned")


def verify_non_triangular(d: Design, system: LocalResolutionSystem) -> Optional[TriangleWitness]:
    """Check a non-triangular local resolution system against its design.

    Runs verify_lrs first, so a system that is no LRS raises its LrsError.
    Then searches for a triangle of pairwise co-class instances about three
    distinct points: returns None when every such triangle closes about a
    single point (the non-triangular condition), otherwise the first
    offending witness.
    """
    verify_lrs(d, system)
    co = [0] * len(d.blocks)
    members: list[tuple[frozenset[int], int]] = []
    for classes in system.classes:
        for cls in classes:
            cmask = 0
            for idx in cls:
                cmask |= 1 << idx
            for idx in cls:
                co[idx] |= cmask
            members.append((cls, cmask))
    if all(_disjoint(co[idx] & ~cmask for idx in cls) for cls, cmask in members):
        return None
    from ._witness import triangle_scan
    return triangle_scan(d, system)


def dual(s: IncidenceStructure) -> IncidenceStructure:
    """Swap the roles of points and lines.

    Old line j becomes new point j; old point p becomes the new line listing
    the lines through p.  Points on no line would vanish, so they are refused.
    """
    through = s.point_masks
    if 0 in through:
        raise ValueError(f"point {through.index(0)} lies on no line; dual would drop it")
    return IncidenceStructure(len(s.lines), map(_bits, through))


def detect_replication(d: Design) -> Optional[tuple[Design, int]]:
    """Largest uniform repetition factor of the block multiset.

    When every distinct block of d.instances() has exactly n >= 2 instances,
    returns the design of the distinct blocks, sorted, and n; otherwise None.
    """
    verify_bibd(d, allow_degenerate=True)
    groups = d.instances()
    mults = {len(ix) for ix in groups.values()}
    if len(mults) != 1:
        return None
    n = mults.pop()
    if n < 2:
        return None
    return Design(d.point_count, sorted(groups)), n
