"""Backtracking searches on bitsets: exact cover, ovoid enumeration, and
local resolution systems with the non-triangularity constraint.

Every set a search touches is a Python int used as a bitset.  All searches
are deterministic, and budgets cut a search short; the result then carries
the solutions found so far with exhausted=False.

Exact cover (solve_exact_cover; find_ovoids covers lines with points) keeps
three kinds of mask: by_elem[e], the candidates covering element e;
conflict[i], every candidate sharing an element with candidate i, i itself
included; and alive, the candidates disjoint from everything chosen so far.
A node branches on the uncovered element e with the fewest live candidates,
(by_elem[e] & alive).bit_count(), ties to the lowest e; an element with none
ends the scan and the node at once.  Candidates are tried in ascending index
order, and choosing i clears conflict[i] from alive.  nodes ticks once per
node entered, the root and every complete cover included.

Resolution search (find_local_resolutions, find_ntlrs) partitions the
instances through one point p at a time into parallel classes.  It keeps
through[x], the instances through point x; unused, the instances through p
not yet in a class at p; and nbr[b], every instance already co-class with b.
A class is started by the lowest unused instance and grows by covering the
lowest point t it misses, trying the instances of unused & through[t] in
ascending order.  Instance i joins when it meets the class only at p, its
lower identical twin is not still waiting (the ascending-consumption rule
for repeated blocks), and nbr[i] & reach == 0, where reach is the union of
nbr over the class's members.  That last test is the pairwise triangle
check: it fails exactly when some instance is co-class with both i and a
member at two other points.  nbr is set when a class closes and undone on
backtrack, so at the one point of find_local_resolutions it stays zero and
the test always passes.  nodes ticks once each time a next class is begun
at a point (also when no instance is left, which completes the point) and
once per growth step that still has a point to cover.

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
                         verify_bibd, verify_gq, verify_lrs,
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
        if nodes is not None and not (isinstance(nodes, int) and nodes >= 0):
            raise ValueError(f"max_nodes must be None or an int >= 0, got {nodes!r}")
        if seconds is not None and not (isinstance(seconds, (int, float))
                                        and 0 <= seconds < math.inf):
            raise ValueError("max_seconds must be None or a finite number >= 0, "
                             f"got {seconds!r}")


@dataclass(frozen=True)
class ExactCoverInstance:
    universe: int
    candidates: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe size cannot be negative")
        for idx, cand in enumerate(self.candidates):
            for e in cand:
                if not isinstance(e, int):
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


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def solve_exact_cover(inst: ExactCoverInstance, limit: Optional[int] = None,
                      budget: Optional[Budget] = None) -> SearchResult:
    """Subsets of candidate indices covering 0..universe-1 exactly once each.

    Branches on the uncovered element with the fewest live candidates.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    universe = inst.universe
    masks = []
    by_elem = [0] * universe
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
    elements = [(1 << e, by_elem[e]) for e in range(universe)]
    full = (1 << universe) - 1
    meter = _Meter(budget)
    tick = meter.tick
    solutions: list[frozenset[int]] = []
    chosen: list[int] = []  # chosen[d]: the candidate being tried at stack[d]
    stack: list[list[int]] = []  # [covered, alive, untried candidates]

    def enter(covered: int, alive: int) -> None:
        tick()
        if covered == full:
            solutions.append(frozenset(chosen))
            if limit is not None and len(solutions) >= limit:
                raise _Stop(False)
            return
        fewest = len(masks) + 1
        for bit, cands in elements:
            if covered & bit:
                continue
            live = cands & alive
            count = live.bit_count()
            if count < fewest:
                if not count:
                    return
                fewest = count
                best = live
        stack.append([covered, alive, best])

    exhausted = True
    budget_hit = False
    try:
        if universe == 0:
            solutions.append(frozenset())
        else:
            enter(0, (1 << len(masks)) - 1)
        while stack:
            frame = stack[-1]
            del chosen[len(stack) - 1:]
            untried = frame[2]
            if not untried:
                stack.pop()
                continue
            low = untried & -untried
            frame[2] = untried ^ low
            i = low.bit_length() - 1
            chosen.append(i)
            enter(frame[0] | masks[i], frame[1] & ~conflict[i])
    except _Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(solutions, exhausted, meter.nodes, budget_hit)


def find_ovoids(s: IncidenceStructure, limit: Optional[int] = None,
                budget: Optional[Budget] = None) -> SearchResult:
    """Point sets meeting every line exactly once, via exact cover on lines.

    The structure must pass verify_gq.  Solutions are frozensets of points.
    """
    verify_gq(s)
    inst = ExactCoverInstance(len(s.lines),
                              tuple(frozenset(t) for t in s.lines_through))
    res = solve_exact_cover(inst, limit=limit, budget=budget)
    for ovoid in res.solutions:
        verify_ovoid(s, ovoid)
    return res


class _ResolutionSearch:
    """Shared engine for local-resolution enumeration.

    Canonical form: at each point, classes are generated in ascending order of
    their smallest member, and each class grows by always covering the lowest
    uncovered point next.  Repeated block contents are interchangeable, so
    instances of one content are consumed in ascending index order; the rule
    binds at a single point per content (its lowest point) in system mode,
    where one point's choice fixes the alignment everywhere, and at every
    point in single-point mode.
    """

    def __init__(self, design: Design, meter: _Meter, rule_all_groups: bool):
        self.meter = meter
        self.masks = design.line_masks
        self.full = (1 << design.point_count) - 1
        self.through = [0] * design.point_count
        for i, blk in enumerate(design.blocks):
            for x in blk:
                self.through[x] |= 1 << i
        # guard[p][i] is the bit of i's next lower twin: at p, i may join a
        # class only once that twin has
        self.guard: list[dict[int, int]] = [{} for _ in range(design.point_count)]
        groups: dict[tuple, list[int]] = {}
        for i, blk in enumerate(design.blocks):
            groups.setdefault(blk, []).append(i)
        for content, members in groups.items():
            for prev, i in zip(members, members[1:]):
                for p in content if rule_all_groups else content[:1]:
                    self.guard[p][i] = 1 << prev

    def run(self, first: int, last: int, emit) -> None:
        """Partition the instances through each of the points first..last-1 in
        turn; emit(closed) fires once per full choice.

        closed lists (point, class mask) in the order the classes closed, so
        the classes of each point are contiguous and points ascend.
        """
        tick = self.meter.tick
        masks, full, through, guard = self.masks, self.full, self.through, self.guard
        nbr = [0] * len(masks)
        closed: list[tuple[int, int]] = []

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
                    if p == last:
                        emit(closed)
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

        # an empty complete class at first starts the search at that point
        frame = descend(first, 0, full, 0, through[first])
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


def find_local_resolutions(design: Design, point: int,
                           limit: Optional[int] = None,
                           budget: Optional[Budget] = None) -> SearchResult:
    """All partitions of the instances through one point into parallel classes.

    The design must pass verify_bibd.  Each solution is a tuple of frozensets
    of instance indices; partitions differing only by swapping instances of a
    repeated block are reported once.
    """
    params = verify_bibd(design)
    if not 0 <= point < design.point_count:
        raise ValueError(f"point {point} out of range")
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    meter = _Meter(budget)
    solutions: list[tuple[frozenset[int], ...]] = []

    def emit(closed: list[tuple[int, int]]) -> None:
        solutions.append(tuple(frozenset(_bits(cls)) for _, cls in closed))
        if limit is not None and len(solutions) >= limit:
            raise _Stop(False)

    exhausted = True
    budget_hit = False
    if (design.point_count - 1) % (params.k - 1) == 0:
        engine = _ResolutionSearch(design, meter, rule_all_groups=True)
        try:
            engine.run(point, point + 1, emit)
        except _Stop as stop:
            exhausted = False
            budget_hit = stop.budget_hit
    return SearchResult(solutions, exhausted, meter.nodes, budget_hit)


def find_ntlrs(design: Design, limit: Optional[int] = None,
               budget: Optional[Budget] = None) -> SearchResult:
    """Non-triangular local resolution systems of a verified BIBD.

    Builds one point at a time in ascending point order, admitting an
    instance to a class only if no instance is already co-class with both it
    and a member, so every emitted system is non-triangular by construction
    (and re-verified before it is returned).
    """
    params = verify_bibd(design)
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    meter = _Meter(budget)
    if (design.point_count - 1) % (params.k - 1):
        return SearchResult([], True, 0)
    engine = _ResolutionSearch(design, meter, rule_all_groups=False)
    systems: list[LocalResolutionSystem] = []

    def emit(closed: list[tuple[int, int]]) -> None:
        rows: list[list[frozenset[int]]] = [[] for _ in range(design.point_count)]
        for p, cls in closed:
            rows[p].append(frozenset(_bits(cls)))
        system = LocalResolutionSystem(rows)
        verify_lrs(design, system)
        witness = verify_non_triangular(design, system)
        if witness is not None:  # the co-class test should rule this out
            raise RuntimeError(f"search emitted a triangular system: {witness}")
        systems.append(system)
        if limit is not None and len(systems) >= limit:
            raise _Stop(False)

    exhausted = True
    budget_hit = False
    try:
        engine.run(0, design.point_count, emit)
    except _Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(systems, exhausted, meter.nodes, budget_hit)
