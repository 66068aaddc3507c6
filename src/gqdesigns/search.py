"""Backtracking searches: exact cover, ovoid enumeration, and local
resolution systems with the non-triangularity constraint.

All searches are deterministic: the branching element is always the most
constrained one (fewest remaining candidates, ties to the lowest index) and
candidates are tried in ascending index order.  Budgets cut a search short;
the result then carries partial solutions with exhausted=False.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .structures import (Design, IncidenceStructure, LocalResolutionSystem,
                         LrsError, verify_bibd, verify_gq, verify_lrs,
                         verify_non_triangular, verify_ovoid)


@dataclass(frozen=True)
class Budget:
    max_nodes: Optional[int] = None
    max_seconds: Optional[float] = None


@dataclass(frozen=True)
class ExactCoverInstance:
    universe: int
    candidates: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError("universe size cannot be negative")
        for idx, cand in enumerate(self.candidates):
            for e in cand:
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
        self.every = every  # read the clock once per this many nodes
        self.max_nodes = budget.max_nodes if budget else None
        self.deadline = None
        if budget and budget.max_seconds is not None:
            self.deadline = time.monotonic() + budget.max_seconds

    def tick(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _Stop(True)
        if self.deadline is not None and self.nodes % self.every == 0:
            if time.monotonic() > self.deadline:
                raise _Stop(True)


def solve_exact_cover(inst: ExactCoverInstance, limit: Optional[int] = None,
                      budget: Optional[Budget] = None) -> SearchResult:
    """Subsets of candidate indices covering 0..universe-1 exactly once each.

    Branches on the uncovered element with the fewest usable candidates.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    universe = inst.universe
    masks = []
    for cand in inst.candidates:
        m = 0
        for e in cand:
            m |= 1 << e
        masks.append(m)
    full = (1 << universe) - 1
    by_element = [[i for i, m in enumerate(masks) if (m >> e) & 1] for e in range(universe)]
    meter = _Meter(budget)
    solutions: list[frozenset[int]] = []
    chosen: list[int] = []

    def rec(covered: int) -> None:
        meter.tick()
        if covered == full:
            solutions.append(frozenset(chosen))
            if limit is not None and len(solutions) >= limit:
                raise _Stop(False)
            return
        best_e = -1
        best = None
        rest = full & ~covered
        while rest:
            low = rest & -rest
            e = low.bit_length() - 1
            rest ^= low
            avail = [i for i in by_element[e] if not masks[i] & covered]
            if best is None or len(avail) < len(best):
                best = avail
                best_e = e
                if not avail:
                    break
        assert best_e >= 0
        for i in best:
            chosen.append(i)
            rec(covered | masks[i])
            chosen.pop()

    exhausted = True
    budget_hit = False
    try:
        if universe == 0:
            solutions.append(frozenset())
        else:
            rec(0)
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


class ParallelGraph:
    """Graph on block instances whose edges join co-class pairs.

    Two instances sharing a parallel class at point p become an edge labeled p;
    the label is forced, because co-class instances intersect exactly in the
    class point.  A full system is non-triangular exactly when every triangle
    here carries a single label, so add_pair refuses any edge that would close
    a two-label triangle, and the trail supports search rollback.
    """

    def __init__(self, design: Design):
        self._blocksets = [frozenset(b) for b in design.blocks]
        self.labels: list[dict[int, int]] = [dict() for _ in design.blocks]
        self._trail: list[tuple[int, int]] = []

    def can_add(self, b: int, c: int, p: int) -> bool:
        lb = self.labels[b]
        lc = self.labels[c]
        if len(lb) > len(lc):
            lb, lc = lc, lb
        for e, lab in lb.items():
            other = lc.get(e)
            if other is not None and not (lab == p and other == p):
                return False
        return True

    def add_pair(self, b: int, c: int, p: int) -> bool:
        """Add the edge if admissible; report False (and add nothing) otherwise."""
        inter = self._blocksets[b] & self._blocksets[c]
        if inter != {p}:
            raise LrsError(p, (b, c, tuple(sorted(inter))),
                           f"instances {b},{c} cannot be co-class at {p}: "
                           f"they share {sorted(inter)}")
        assert c not in self.labels[b]
        if not self.can_add(b, c, p):
            return False
        self.labels[b][c] = p
        self.labels[c][b] = p
        self._trail.append((b, c))
        return True

    def checkpoint(self) -> int:
        return len(self._trail)

    def rollback(self, mark: int) -> None:
        while len(self._trail) > mark:
            b, c = self._trail.pop()
            del self.labels[b][c]
            del self.labels[c][b]


class _ResolutionSearch:
    """Shared engine for local-resolution enumeration.

    Canonical form: at each point, classes are generated in ascending order of
    their smallest member, and each class grows by always covering the lowest
    uncovered point next.  Repeated block contents are interchangeable, so
    instances of one content are consumed in ascending index order; the rule
    binds at a single point per content (its lowest point) in system mode,
    where one point's choice fixes the alignment everywhere, and at the focal
    point in single-point mode.
    """

    def __init__(self, design: Design, use_graph: bool, meter: _Meter):
        self.design = design
        self.blocks = design.blocks
        self.block_masks = design.line_masks
        self.meter = meter
        self.graph = ParallelGraph(design) if use_graph else None
        prev_same: dict[int, int] = {}
        head_pt: dict[int, int] = {}
        groups: dict[tuple, list[int]] = {}
        for i, blk in enumerate(self.blocks):
            groups.setdefault(blk, []).append(i)
        for content, members in groups.items():
            for pos, i in enumerate(members):
                if pos:
                    prev_same[i] = members[pos - 1]
                head_pt[i] = content[0]
        self.prev_same = prev_same
        self.head_pt = head_pt

    def run_point(self, p: int, rule_all_groups: bool, emit) -> None:
        """Enumerate partitions at point p; emit() fires per complete partition.

        With rule_all_groups the ascending-consumption rule for repeated
        contents applies to every content group at p (single-point mode);
        otherwise only to groups whose head point is p (system mode).
        """
        design = self.design
        pbit = 1 << p
        goal = ((1 << design.point_count) - 1) ^ pbit
        through = design.lines_through[p]
        acc: list[frozenset[int]] = []

        def eligible(i: int, unused: set[int]) -> bool:
            prev = self.prev_same.get(i)
            if prev is None or prev not in unused:
                return True
            return not rule_all_groups and self.head_pt[i] != p

        def next_class(unused: set[int]) -> None:
            self.meter.tick()
            if not unused:
                emit(tuple(acc))
                return
            # min(unused) is always eligible: an unconsumed identical twin
            # would have a smaller index
            leader = min(unused)
            unused.discard(leader)
            grow([leader], self.block_masks[leader] ^ pbit, unused)
            unused.add(leader)

        def grow(members: list[int], covered: int, unused: set[int]) -> None:
            # covered tracks points other than p reached by the class so far
            if covered == goal:
                acc.append(frozenset(members))
                next_class(unused)
                acc.pop()
                return
            self.meter.tick()
            target = (~covered & goal)
            target = (target & -target).bit_length() - 1
            for i in sorted(unused):
                m = self.block_masks[i] ^ pbit
                if not (m >> target) & 1 or m & covered:
                    continue
                if not eligible(i, unused):
                    continue
                if self.graph is not None:
                    mark = self.graph.checkpoint()
                    if not all(self.graph.add_pair(i, b, p) for b in members):
                        self.graph.rollback(mark)
                        continue
                unused.discard(i)
                members.append(i)
                grow(members, covered | m, unused)
                members.pop()
                unused.add(i)
                if self.graph is not None:
                    self.graph.rollback(mark)

        next_class(set(through))


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

    def emit(classes: tuple[frozenset[int], ...]) -> None:
        solutions.append(classes)
        if limit is not None and len(solutions) >= limit:
            raise _Stop(False)

    engine = _ResolutionSearch(design, use_graph=False, meter=meter)
    exhausted = True
    budget_hit = False
    if (design.point_count - 1) % (params.k - 1) == 0:
        try:
            engine.run_point(point, rule_all_groups=True, emit=emit)
        except _Stop as stop:
            exhausted = False
            budget_hit = stop.budget_hit
    return SearchResult(solutions, exhausted, meter.nodes, budget_hit)


def find_ntlrs(design: Design, limit: Optional[int] = None,
               budget: Optional[Budget] = None) -> SearchResult:
    """Non-triangular local resolution systems of a verified BIBD.

    Builds one point at a time in ascending point order, keeping the running
    co-class graph triangle-clean, so every emitted system is non-triangular
    by construction (and re-verified before it is returned).
    """
    params = verify_bibd(design)
    if limit is not None and limit < 1:
        raise ValueError("limit must be positive")
    meter = _Meter(budget)
    if (design.point_count - 1) % (params.k - 1):
        return SearchResult([], True, 0)
    engine = _ResolutionSearch(design, use_graph=True, meter=meter)
    chosen: list[tuple[frozenset[int], ...]] = []
    systems: list[LocalResolutionSystem] = []

    def at_point(p: int) -> None:
        if p == design.point_count:
            system = LocalResolutionSystem(chosen)
            verify_lrs(design, system)
            witness = verify_non_triangular(design, system)
            if witness is not None:  # incremental pruning should rule this out
                raise RuntimeError(f"search emitted a triangular system: {witness}")
            systems.append(system)
            if limit is not None and len(systems) >= limit:
                raise _Stop(False)
            return

        def emit(classes: tuple[frozenset[int], ...]) -> None:
            chosen.append(classes)
            at_point(p + 1)
            chosen.pop()

        engine.run_point(p, rule_all_groups=False, emit=emit)

    exhausted = True
    budget_hit = False
    try:
        at_point(0)
    except _Stop as stop:
        exhausted = False
        budget_hit = stop.budget_hit
    return SearchResult(systems, exhausted, meter.nodes, budget_hit)
