"""Refinement of canon's ordered partitions, held as int masks.

A partition of a graph's vertices is cells, a map from each cell's start,
the offset of its first vertex in the vertex order, to the int mask of its
vertices: nauty's lab/ptn arrays name cells by start, and its dense mode
holds them as set words (McKay & Piperno, "Practical graph isomorphism,
II", J. Symb. Comput. 60, 2014).  Each cell lists its vertices in ascending
order (color cells are built so, a split keeps its cell's order, and
individualizing v puts [v] before the rest), so the mask loses nothing.
Beside the map, live masks the vertices of non-singleton cells, and the
list cell_at gives each of them its cell's start (a vertex that leaves live
keeps a stale entry).  The graph enters as am, ColoredGraph.adj itself.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

from .structures import _bits

if TYPE_CHECKING:  # names used in annotations only
    from .canon import CanonStats


def _starts(cells: dict[int, int], cell_at: list[int], touched: int) -> list[int]:
    """Starts, ascending, of the cells that meet touched, a mask of vertices
    in non-singleton cells: one cell_at lookup per cell, by its lowest
    touched vertex, then the whole cell leaves the mask."""
    out = []
    while touched:
        start = cell_at[(touched & -touched).bit_length() - 1]
        out.append(start)
        touched &= ~cells[start]
    out.sort()
    return out


def refine(am: Sequence[int], cells: dict[int, int], cell_at: list[int],
           live: int, trace: list[int], work, stats: CanonStats) -> int:
    """Split cells by neighbor counts into splitters, the cells whose starts
    work lists first, until the partition is equitable; returns the new live.

    cells, cell_at and live are as in the module docstring; cells and
    cell_at are updated in place.  A split puts its pieces, in count order,
    at the cell's own start onward, so no other cell moves and the first
    piece keeps its start.  Touched cells are visited in start order, which
    is their order in the partition.  The split events
    (cell start, count, part size, ...) go to the trace, which is what
    search ordering compares; start stands in for the cell's index because
    it grows with it (see the canon docstring).  A split cell still waiting
    to split others queues all its pieces; any other queues all but its
    first largest piece, whose counts follow from the whole cell's and the
    other pieces' (Hopcroft's rule).  Only cells meeting a splitter's
    neighborhood are examined, and the worklist drains as soon as the
    partition is discrete.  A larger splitter adds its members' masks into
    bit planes, plane k holding bit k of every vertex's count, and splits
    each touched cell by the planes from the top down, 0-side first, which
    leaves the pieces in count order.  A splitter of one vertex u counts
    nothing: am[u] is its one plane.  Under one plane, from either kind of
    splitter, each touched cell parts with two ANDs into the members outside
    it (count 0) and those in it (count 1).
    """
    n = len(am)
    work = deque(work)
    queued = set(work)
    splitters = splits = 0
    while work and len(cells) < n:
        splitter = work.popleft()
        queued.discard(splitter)
        splitters += 1
        members = cells[splitter]
        if members & (members - 1):
            planes: list[int] = []
            while members:
                low = members & -members
                members ^= low
                carry = am[low.bit_length() - 1]
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ carry
                    carry &= plane
                    if not carry:
                        break
                else:
                    planes.append(carry)
        else:
            planes = [am[members.bit_length() - 1]]
        if len(planes) == 1:
            nb = planes[0]
            for start in _starts(cells, cell_at, nb & live):
                cell = cells[start]
                hit = cell & nb
                if hit == cell:
                    continue
                miss = cell ^ hit
                m, h = miss.bit_count(), hit.bit_count()
                mid = start + m
                splits += 1
                trace += (-1, start, 0, m, 1, h)
                cells[start] = miss
                cells[mid] = hit
                if m == 1:
                    live ^= miss
                if h == 1:
                    live ^= hit
                else:
                    for x in _bits(hit):
                        cell_at[x] = mid
                # as below: a queued cell adds its hit piece, any other its
                # smaller piece, the hit piece on a tie (max keeps the first)
                if start in queued or h <= m:
                    start = mid
                queued.add(start)
                work.append(start)
            continue
        union = 0
        for plane in planes:
            union |= plane
        planes.reverse()
        for start in _starts(cells, cell_at, union & live):
            parts = [(0, cells[start])]
            for plane in planes:
                halves = []
                for key, part in parts:
                    hi = part & plane
                    if hi != part:
                        halves.append((2 * key, part ^ hi))
                    if hi:
                        halves.append((2 * key + 1, hi))
                parts = halves
            if len(parts) == 1:
                continue
            splits += 1
            trace.append(-1)
            trace.append(start)
            sizes = [part.bit_count() for _, part in parts]
            largest = -1 if start in queued else sizes.index(max(sizes))
            for i, (key, piece) in enumerate(parts):
                cells[start] = piece
                trace.append(key)
                trace.append(sizes[i])
                if sizes[i] == 1:
                    live ^= piece
                elif i:
                    for x in _bits(piece):
                        cell_at[x] = start
                if i != largest and start not in queued:
                    queued.add(start)
                    work.append(start)
                start += sizes[i]
    stats.splitters += splitters
    stats.splits += splits
    return live


def target(am: Sequence[int], cells: dict[int, int], cell_at: list[int],
           live: int) -> int:
    """Start of the first non-singleton cell joined non-trivially (some but
    not all members adjacent) to the most non-singleton cells; cell_at and
    live are refine's.  The partition is equitable, so one member stands
    for its cell."""
    most, chosen = -1, 0
    for start in _starts(cells, cell_at, live):
        nb = am[cells[start].bit_length() - 1] & live
        joined = 0
        while nb:
            other = cells[cell_at[(nb & -nb).bit_length() - 1]]
            hit = nb & other
            joined += hit != other
            nb ^= hit
        if joined > most:
            most, chosen = joined, start
    return chosen
