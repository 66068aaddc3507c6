"""Backtracking searches on bitsets: exact cover, ovoid enumeration, and
local resolution systems with the non-triangularity constraint.

Every set a search touches is a Python int used as a bitset.  All searches
are deterministic, and budgets cut a search short; the result then carries
the solutions found so far with exhausted=False.

Exact cover (solve_exact_cover; find_ovoids covers lines with points) keeps
three kinds of mask: by_elem[e], the candidates covering element e;
conflict[i], every candidate sharing an element with candidate i, i itself
included; and alive, the candidates disjoint from everything chosen so far.
It also keeps the live-candidate counts (by_elem[e] & alive).bit_count() of
the uncovered elements as bit planes: bit e of planes[j] is bit j of e's
count.  Choosing i kills the candidates of alive & conflict[i], and the child
subtracts their masks, cut to the elements still uncovered, from a copy of
the planes, the borrow rippling up from plane 0.  Taken in ascending index
order, a mask joins the current batch if disjoint from it and otherwise
starts the next, and each batch is subtracted as one mask.  In a GQ the
killed points, all collinear with i, share only lines through i, so one
batch takes them all.
A node branches on the uncovered element with the fewest live candidates,
ties to the lowest: starting from the uncovered elements, each plane from
the top down narrows them to those with a 0 in it, where any have one, and
the lowest element left wins.  If it has no live candidate, the node is a
dead end.  Candidates are tried in ascending index order.  nodes ticks once
per node entered, the root and every complete cover included.

Resolution search (find_ntlrs) partitions the instances through each point
p in turn, in ascending order, into parallel classes.  It keeps through[x],
the instances through point x; unused, the instances through p not yet in a
class at p; and nbr[b], every instance already co-class with b.  A class is
started by the lowest unused instance and grows by covering the lowest point
t it misses, trying the instances of unused & through[t] in ascending order.
Instance i joins when it meets the class only at p, its lower identical twin
is not still waiting (the ascending-consumption rule for repeated blocks,
which binds at the block's lowest point), and nbr[i] & reach == 0, where
reach is the union of nbr over the class's members.  That last test is the
pairwise triangle check: it fails exactly when some instance is co-class
with both i and a member at two other points.  nbr is set when a class
closes and undone on backtrack.  nodes ticks once each time a next class is
begun at a point (also when no instance is left, which completes the point)
and once per growth step that still has a point to cover.

Both searches run from an explicit stack of branching nodes, each holding
its untried candidates, so the interpreter's stack depth does not grow with
the size of a solution or of a design.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

from .structures import (Design, IncidenceStructure, LocalResolutionSystem,
                         _bits, _is_int, verify_bibd, verify_gq,
                         verify_non_triangular, verify_ovoid)


@dataclass(frozen=True)
class Budget:
    """Limits on one search: nodes entered (an int >= 0) and wall-clock
    seconds (a finite number >= 0); None is no limit, and 0 cuts the search
    at its first node."""

    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self):
        nodes, seconds = self.max_nodes, self.max_seconds
        if nodes is not None and not (_is_int(nodes) and nodes >= 0):
            raise ValueError(f"max_nodes must be None or an int >= 0, got {nodes!r}")
        if seconds is not None and not (isinstance(seconds, (int, float))
                                        and not isinstance(seconds, bool)
                                        and 0 <= seconds < math.inf):
            raise ValueError("max_seconds must be None or a finite number >= 0, "
                             f"got {seconds!r}")


@dataclass(frozen=True)
class ExactCoverInstance:
    universe: int
    candidates: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not (_is_int(self.universe) and self.universe >= 0):
            raise ValueError(f"universe size must be an int >= 0, got {self.universe!r}")
        for idx, cand in enumerate(self.candidates):
            for e in cand:
                if not _is_int(e):
                    raise ValueError(f"candidate {idx} covers {e!r}, not an int")
                if not 0 <= e < self.universe:
                    raise ValueError(
                        f"candidate {idx} covers element {e} outside 0..{self.universe - 1}")


@dataclass
class SearchResult:
    solutions: list
    exhausted: bool
    nodes: int
    budget_exceeded: bool = False


class _Stop(Exception):
    def __init__(self, budget_hit: bool):
        self.budget_hit = budget_hit


class _Meter:
    """Node counter with optional budget enforcement."""

    __slots__ = ("nodes", "max_nodes", "deadline", "every")

    def __init__(self, budget: Optional[Budget], every: int = 1024):
        self.nodes = 0
        self.every = every  # read the clock at node 1, 1 + every, ...
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_seconds is not None:
            self.deadline = time.monotonic() + budget.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Stop(True)
        if self.deadline is not None and (self.nodes - 1) % self.every == 0:
            if time.monotonic() >= self.deadline:
                raise _Stop(True)


def _check_limit(limit: Optional[int]) -> None:
    if limit is not None and not (_is_int(limit) and limit >= 1):
        raise ValueError(f"limit must be None or an int >= 1, got {limit!r}")


def solve_exact_cover(inst: ExactCoverInstance, limit: Optional[int] = None,
                      budget: Optional[Budget] = None) -> SearchResult:
    """Subsets of candidate indices covering 0..universe-1 exactly once each.

    Branches on the uncovered element with the fewest live candidates.
    """
    _check_limit(limit)
    masks = []
    by_elem = [0] * inst.universe
    for i, cand in enumerate(inst.candidates):
        m = 0
        for e in cand:
            m |= 1 << e
            by_elem[e] |= 1 << i
        masks.append(m)
    conflict = []
    for cand in inst.candidates:
        clash = 0
        for e in cand:
            clash |= by_elem[e]
        conflict.append(clash)
    return _exact_cover(inst.universe, masks, by_elem, conflict, limit, budget)


def _exact_cover(universe: int, masks, by_elem, conflict, limit: Optional[int],
                 budget: Optional[Budget]) -> SearchResult:
    """The engine of solve_exact_cover, on its tables: masks[i], the elements
    candidate i covers; by_elem[e]; conflict[i]."""
    counts = [cands.bit_count() for cands in by_elem]
    depth = max(counts, default=0).bit_length()
    root = [sum((n >> j & 1) << e for e, n in enumerate(counts)) for j in range(depth)]
    top_down = range(depth - 1, -1, -1)
    meter = _Meter(budget)
    tick = meter.tick
    solutions: list[frozenset[int]] = []
    chosen: list[int] = []  # chosen[d]: the candidate being tried at stack[d]
    stack: list[list] = []  # [uncovered, alive, planes, untried candidates]

    def enter(uncovered: int, alive: int, planes: list[int]) -> None:
        tick()
        if not uncovered:
            solutions.append(frozenset(chosen))
            if limit is not None and len(solutions) >= limit:
                raise _Stop(False)
            return
        fewest = uncovered
        for j in top_down:
            low = fewest & ~planes[j]
            if low:
                fewest = low
        live = by_elem[(fewest & -fewest).bit_length() - 1] & alive
        if live:  # else an uncovered element has no live candidate
            stack.append([uncovered, alive, planes, live])

    exhausted = True
    budget_hit = False
    try:
        if universe == 0:
            solutions.append(frozenset())
        else:
            enter((1 << universe) - 1, (1 << len(masks)) - 1, root)
        while stack:
            frame = stack[-1]
            del chosen[len(stack) - 1:]
            uncovered, alive, planes, untried = frame
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            frame[3] = untried ^ low
            i = low.bit_length() - 1
            chosen.append(i)
            uncovered ^= masks[i]
            killed = alive & conflict[i]
            alive ^= killed
            batches = []
            batch = 0
            while killed:
                g = killed & -killed
                killed ^= g
                m = masks[g.bit_length() - 1] & uncovered
                if batch & m:
                    batches.append(batch)
                    batch = m
                else:
                    batch |= m
            batches.append(batch)
            planes = planes[:]
            for borrow in batches:
                for j in range(depth):
                    old = planes[j]
                    planes[j] = old ^ borrow
                    borrow &= ~old
                    if not borrow:
                        break
            enter(uncovered, alive, planes)
    except _Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(solutions, exhausted, meter.nodes, budget_hit)


def find_ovoids(s: IncidenceStructure, limit: Optional[int] = None,
                budget: Optional[Budget] = None) -> SearchResult:
    """Point sets meeting every line exactly once, via exact cover on lines.

    The structure must pass verify_gq.  Solutions are frozensets of points.
    Points clash exactly when collinear, so the masks s caches are the tables.
    """
    _check_limit(limit)
    verify_gq(s)
    conflict = [m | 1 << p for p, m in enumerate(s.neighbor_masks)]
    res = _exact_cover(len(s.lines), s.point_masks, s.line_masks, conflict,
                       limit, budget)
    for ovoid in res.solutions:
        verify_ovoid(s, ovoid)
    return res


def find_ntlrs(design: Design, limit: Optional[int] = None,
               budget: Optional[Budget] = None) -> SearchResult:
    """Non-triangular local resolution systems of a verified BIBD.

    Builds one point at a time in ascending point order, admitting an
    instance to a class only if no instance is already co-class with both it
    and a member, so every emitted system is non-triangular by construction
    (and re-verified before it is returned).  At each point, classes are
    generated in ascending order of their smallest member, and each class
    grows by always covering the lowest uncovered point next.  Repeated block
    contents are interchangeable, so the instances of one content are
    consumed in ascending index order at the content's lowest point; that
    one point's choice fixes their alignment everywhere.
    """
    _check_limit(limit)
    params = verify_bibd(design)
    v = design.point_count
    if (v - 1) % (params.k - 1):
        return SearchResult([], True, 0)
    meter = _Meter(budget)
    tick = meter.tick
    masks = design.line_masks
    full = (1 << v) - 1
    through = design.point_masks
    # guard[p][i] is the bit of i's next lower twin: at p, i may join a
    # class only once that twin has
    guard: list[dict[int, int]] = [{} for _ in range(v)]
    groups: dict[tuple, list[int]] = {}
    for i, blk in enumerate(design.blocks):
        groups.setdefault(blk, []).append(i)
    for content, members in groups.items():
        for prev, i in zip(members, members[1:]):
            guard[content[0]][i] = 1 << prev
    nbr = [0] * len(masks)
    # (point, class mask) in the order the classes closed, so the classes of
    # each point are contiguous and points ascend
    closed: list[tuple[int, int]] = []
    systems: list[LocalResolutionSystem] = []

    def emit() -> None:
        rows: list[list[frozenset[int]]] = [[] for _ in range(v)]
        for p, cls in closed:
            rows[p].append(frozenset(_bits(cls)))
        system = LocalResolutionSystem(rows)
        witness = verify_non_triangular(design, system)
        if witness is not None:  # the co-class test should rule this out
            raise RuntimeError(f"search emitted a triangular system: {witness}")
        systems.append(system)
        if limit is not None and len(systems) >= limit:
            raise _Stop(False)

    def link(cls):
        # toggle co-class bits among the members of cls: none is set
        # before the class closes, so this both sets and clears them
        rest = cls
        while rest:
            low = rest & -rest
            rest ^= low
            nbr[low.bit_length() - 1] ^= cls ^ low

    def descend(p, members, covered, reach, unused):
        # Take the forced steps from a class at p until the next choice.
        # A class whose covered mask is full is complete: record it, then
        # start the next class at p or, with no instance left, move to the
        # next point.  The lowest unused instance leads a new class with no
        # test: it has no class-mates yet, and a waiting twin would be
        # lower still.  Return the choice frame [p, members, covered,
        # reach, unused, untried, len(closed)], or None after a dead end
        # or an emitted solution.
        while covered == full:
            if members:
                closed.append((p, members))
                link(members)
            tick()
            while not unused:
                p += 1
                if p == v:
                    emit()
                    return None
                unused = through[p]
                tick()
            members = unused & -unused
            leader = members.bit_length() - 1
            covered = masks[leader]
            reach = nbr[leader]
            unused ^= members
        tick()
        pbit = 1 << p
        held = guard[p]
        target = full ^ covered
        cands = unused & through[(target & -target).bit_length() - 1]
        untried = 0
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            if (masks[i] & covered) != pbit:
                continue  # meets the class outside p
            if held.get(i, 0) & unused:
                continue  # its lower twin is still unused at p
            if nbr[i] & reach:
                continue  # would close a triangle with two labels
            untried |= low
        if not untried:
            return None
        return [p, members, covered, reach, unused, untried, len(closed)]

    exhausted = True
    budget_hit = False
    try:
        # an empty complete class at point 0 starts the search there
        frame = descend(0, 0, full, 0, through[0])
        stack = [frame] if frame else []
        while stack:
            frame = stack[-1]
            p, members, covered, reach, unused, untried, mark = frame
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            frame[5] = untried ^ low
            while len(closed) > mark:  # reopen the classes closed below here
                link(closed.pop()[1])
            i = low.bit_length() - 1
            frame = descend(p, members | low, covered | masks[i], reach | nbr[i],
                            unused ^ low)
            if frame:
                stack.append(frame)
    except _Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(systems, exhausted, meter.nodes, budget_hit)
