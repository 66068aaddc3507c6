"""Canonical labeling of colored graphs, for isomorphism of structures.

The engine is individualization-refinement: refine an ordered partition to
equitability, branch on each vertex of one target cell, and keep the
lexicographically least (refinement trace, relabeled adjacency) over all
leaves.  The target is the first non-singleton cell joined non-trivially to
the most non-singleton cells, bliss's "fm" rule (Junttila & Kaski,
"Engineering an efficient canonical labeling tool for large and sparse
graphs", ALENEX 2007).  Refinement queues all but the largest piece of a
split cell, as in Hopcroft's "An n log n algorithm for minimizing states in
a finite automaton" (1971), so a child, its parent already equitable,
refines by the one vertex it individualized.  Such a one-vertex splitter,
as in nauty, splits each cell it touches by membership in the vertex's
neighbor set, with no counts built.  Subtrees whose trace already compares
worse than the best leaf are cut.  Automorphisms prune the rest, as in
McKay & Piperno, "Practical graph isomorphism, II" (J. Symb. Comput. 60,
2014):

* a leaf equal to the first leaf or to the best leaf gives an automorphism;
* each node skips every child covered by the orbits of those it searched
  under the automorphisms that fix its path pointwise, and closes that set
  again under each such automorphism as soon as it is found;
* after a new automorphism the search jumps back to the node where the
  current path leaves the path of the matched leaf, because the subtree
  below is the image of one already searched.

None of these cuts a leaf better than the kept best, so the canonical form
does not depend on them.

An ordered partition is held as a map from each cell's start, the offset of
its first vertex in the vertex order, to the cell, as nauty's lab/ptn arrays
name cells.  A split leaves every other cell where it was, so nothing is
renumbered, and a child node copies one map.  Traces name cells by start;
traces that agree so far describe the same partition, on which start grows
with a cell's index, so they compare as they would with indices.

Incidence structures and designs enter as colored bipartite graphs read
straight off their rows (structures._points checks marked points);
repeated blocks, the groups of Design.instances(), collapse to one vertex
colored by their number, which keeps huge instance-permutation groups out
of the search entirely.  build_graph checks the edges and colors a caller
supplies.
"""

from __future__ import annotations

import hashlib
from collections import deque
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .search import Budget, _Meter, _Record, _Stop
from .structures import Design, IncidenceStructure, _is_int, _points


class ColoredGraph(NamedTuple):
    n: int
    adj: tuple[frozenset[int], ...]
    colors: tuple[tuple[int, int], ...]


class CanonStats(_Record):
    """What one canonical-form search did.

    nodes: search nodes entered, the root and leaves included.  leaves:
    discrete partitions reached.  generators: automorphisms found.
    orbit_prunes: children skipped as images of a searched sibling.  jumps:
    nodes left early after a new automorphism.  splitters: cells that
    refinement split others by.  splits: cells refinement split.
    """

    __slots__ = ("nodes", "leaves", "generators", "orbit_prunes", "jumps",
                 "splitters", "splits")

    def __init__(self, nodes: int = 0, leaves: int = 0, generators: int = 0,
                 orbit_prunes: int = 0, jumps: int = 0, splitters: int = 0,
                 splits: int = 0):
        self.nodes = nodes
        self.leaves = leaves
        self.generators = generators
        self.orbit_prunes = orbit_prunes
        self.jumps = jumps
        self.splitters = splitters
        self.splits = splits

    def add(self, other: CanonStats) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class BudgetExceeded(Exception):
    """A canonical-form search ran out of budget; no form is returned."""

    def __init__(self, stats: CanonStats):
        super().__init__("canonical form cut by its budget")
        self.stats = stats


class CanonicalForm(NamedTuple):
    """Complete isomorphism invariant plus the labeling that realizes it;
    stats takes no part in == or hash."""

    size: int
    colors: tuple[tuple[int, int], ...]  # color at each canonical position
    rows: tuple[tuple[int, ...], ...]    # neighbor positions at each position
    order: tuple[int, ...]               # canonical position -> input vertex
    digest: str
    stats: CanonStats

    def key(self):
        return (self.size, self.colors, self.rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:5] != other[:5]

    def __hash__(self) -> int:
        return hash(self[:5])


def build_graph(n: int, edges: Iterable[tuple[int, int]],
                colors: Iterable[tuple[int, int]]) -> ColoredGraph:
    adj = [set() for _ in range(n)]
    for u, w in edges:
        if not (_is_int(u) and _is_int(w)):
            raise ValueError(f"edge ({u!r}, {w!r}) has a vertex that is not an int")
        if u == w:
            raise ValueError("loops are not supported")
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge ({u}, {w}) has a vertex outside 0..{n - 1}")
        adj[u].add(w)
        adj[w].add(u)
    cols = tuple(colors)
    if len(cols) != n:
        raise ValueError("need one color per vertex")
    # sorting needs one kind, and the digest hashes repr(colors), so equal
    # colors must print alike: 1, 1.0 and True, all equal, may not be mixed
    for v, c in enumerate(cols):
        if type(c) is not type(cols[0]) or not (
                type(c) is int or type(c) is tuple and all(type(x) is int for x in c)):
            raise ValueError(f"vertex {v} has color {c!r}; colors must be all "
                             "ints or all tuples of ints")
    return ColoredGraph(n, tuple(frozenset(a) for a in adj), cols)


def _bipartite(v: int, rows, colors) -> ColoredGraph:
    """Each point p in 0..v-1 joined to vertex v + j of every row j holding p.
    Sets first: a frozenset copied from a set gets a table sized to fit, and
    from a list up to half again as large.  Reading the rows caches nothing
    on the structure, as its point_masks would."""
    adj = [set() for _ in range(v)]
    for j, row in enumerate(rows):
        for p in row:
            adj[p].add(v + j)
    adj += map(set, rows)
    return ColoredGraph(len(adj), tuple(map(frozenset, adj)), tuple(colors))


def incidence_graph(s: IncidenceStructure,
                    ovoid: Optional[Iterable[int]] = None) -> ColoredGraph:
    """Bipartite point/line graph; an ovoid, if given, marks its points."""
    marked = _points(s, ovoid) if ovoid is not None else frozenset()
    colors = [(0, 1 if p in marked else 0) for p in range(s.point_count)]
    return _bipartite(s.point_count, s.lines, colors + [(1, 0)] * len(s.lines))


def design_graph(d: Design) -> ColoredGraph:
    """Bipartite point/block graph with repeated blocks merged.

    Each content of d.instances(), sorted, is one vertex colored (1, number
    of its instances), so isomorphism treats copies of a block as interchangeable.
    """
    groups = d.instances()
    contents = sorted(groups)
    colors = [(0, 0)] * d.point_count + [(1, len(groups[c])) for c in contents]
    return _bipartite(d.point_count, contents, colors)


def _refine(adj, cells: dict[int, list[int]], trace: list[int], work,
            stats: CanonStats) -> dict[int, int]:
    """Split cells by neighbor counts into splitters, the cells whose starts
    work lists first, until the partition is equitable; returns the map from
    each vertex of a non-singleton cell to its cell's start.

    cells maps each cell's start to the cell and is updated in place.  A
    split puts its pieces, in count order, at the cell's own start onward,
    so no other cell moves and the touched cells are visited in start
    order, which is their order in the partition.  The split events (cell
    start, count, part size, ...) go to the trace, which is what search
    ordering compares; start stands in for the cell's index because it
    grows with it (see the module docstring).  A split cell still waiting
    to split others queues all its pieces; any other queues all but its
    first largest piece, whose counts follow from the whole cell's and the
    other pieces' (Hopcroft's rule).  Only cells meeting a splitter's
    neighborhood are examined, and the worklist drains as soon as the
    partition is discrete.  A splitter of one vertex u makes the same
    splits without counting: each cell it touches parts into the members
    outside adj[u] (count 0) and those in it (count 1).
    """
    n = len(adj)
    cell_at = {x: start for start, cell in cells.items() if len(cell) > 1
               for x in cell}
    work = deque(work)
    queued = set(work)
    splitters = splits = 0
    while work and len(cells) < n:
        splitter = work.popleft()
        queued.discard(splitter)
        splitters += 1
        members = cells[splitter]
        if len(members) == 1:
            nb = adj[members[0]]
            for start in sorted({cell_at[w] for w in nb if w in cell_at}):
                cell = cells[start]
                hit = [x for x in cell if x in nb]
                if len(hit) == len(cell):
                    continue
                miss = [x for x in cell if x not in nb]
                mid = start + len(miss)
                splits += 1
                trace += (-1, start, 0, len(miss), 1, len(hit))
                cells[start] = miss
                cells[mid] = hit
                if len(miss) == 1:
                    del cell_at[miss[0]]
                if len(hit) == 1:
                    del cell_at[hit[0]]
                else:
                    for x in hit:
                        cell_at[x] = mid
                # as below: a queued cell adds its hit piece, any other its
                # smaller piece, the hit piece on a tie (max keeps the first)
                if start in queued or len(hit) <= len(miss):
                    start = mid
                queued.add(start)
                work.append(start)
            continue
        cnt: dict[int, int] = {}
        for u in members:
            for w in adj[u]:
                cnt[w] = cnt.get(w, 0) + 1
        starts = {cell_at[w] for w in cnt if w in cell_at}
        for start in sorted(starts):
            parts: dict[int, list[int]] = {}
            for x in cells[start]:
                parts.setdefault(cnt.get(x, 0), []).append(x)
            if len(parts) == 1:
                continue
            splits += 1
            trace.append(-1)
            trace.append(start)
            keys = sorted(parts)
            largest = None if start in queued else max(keys, key=lambda k: len(parts[k]))
            for key in keys:
                piece = parts[key]
                cells[start] = piece
                trace.append(key)
                trace.append(len(piece))
                if len(piece) > 1:
                    for x in piece:
                        cell_at[x] = start
                else:
                    del cell_at[piece[0]]
                if key != largest and start not in queued:
                    queued.add(start)
                    work.append(start)
                start += len(piece)
    stats.splitters += splitters
    stats.splits += splits
    return cell_at


def _target(adj, cells: dict[int, list[int]], cell_at: dict[int, int]) -> int:
    """Start of the first non-singleton cell joined non-trivially (some but
    not all members adjacent) to the most non-singleton cells; cell_at is
    _refine's map.  The partition is equitable, so one member stands for its
    cell."""
    most, target = -1, 0
    for start in sorted(s for s, cell in cells.items() if len(cell) > 1):
        cnt: dict[int, int] = {}
        for w in adj[cells[start][0]]:
            other = cell_at.get(w)
            if other is not None:
                cnt[other] = cnt.get(other, 0) + 1
        joined = sum(c < len(cells[other]) for other, c in cnt.items())
        if joined > most:
            most, target = joined, start
    return target


def _leaf(adj, cells):
    order = [cells[start][0] for start in range(len(cells))]
    pos = {vtx: i for i, vtx in enumerate(order)}
    rows = tuple(tuple(sorted(map(pos.__getitem__, adj[vtx]))) for vtx in order)
    return rows, tuple(order)


def _close(covered: set[int], stack: list[int], gens) -> None:
    """Add to covered every image of the stacked points under gens, repeatedly."""
    while stack:
        x = stack.pop()
        for gen in gens:
            y = gen[x]
            if y not in covered:
                covered.add(y)
                stack.append(y)


def canonical_form(g: ColoredGraph,
                   budget: Optional[Budget] = None) -> CanonicalForm:
    """Canonical labeling of g; raises BudgetExceeded if the budget runs out.

    The budget is ticked once per search node, and its clock is read at
    every node, since each node costs a full refinement.
    """
    n = g.n
    adj = g.adj
    stats = CanonStats()
    meter = _Meter(budget, every=1)
    by_color: dict[tuple[int, int], list[int]] = {}
    for vtx in range(n):
        by_color.setdefault(g.colors[vtx], []).append(vtx)
    colored = [by_color[key] for key in sorted(by_color)]
    cells0 = dict(zip(accumulate(map(len, colored), initial=0), colored))
    trace0: list[int] = []
    at0 = _refine(adj, cells0, trace0, list(cells0), stats)

    # a leaf is (trace, rows, order, path)
    first: Optional[tuple] = None
    best: Optional[tuple] = None
    version = 0
    gens: list[list[int]] = []

    # tight means the trace so far is an exact prefix of the best leaf's
    # trace; only then can the new segment rule a subtree in or out.  A best
    # found below the current node restores tightness for later siblings.
    # Returns the depth at which the search resumes: len(path) normally, less
    # when a new automorphism shows that the subtree there was searched.
    def rec(cells: dict[int, list[int]], cell_at: dict[int, int],
            trace: list[int], base: int, tight: bool, path: list[int]) -> int:
        nonlocal best, first, version
        meter.tick()
        depth = len(path)
        if best is not None and tight:
            seg = tuple(trace[base:])
            ref = best[0][base:base + len(seg)]
            if seg > ref:
                return depth
            if seg < ref:
                tight = False
        if len(cells) == n:
            stats.leaves += 1
            rows, order = _leaf(adj, cells)
            tr = tuple(trace)
            if best is None or not tight or len(tr) < len(best[0]) or rows < best[1]:
                best = (tr, rows, order, tuple(path))
                if first is None:
                    first = best
                version += 1
                return depth
            if len(tr) == len(best[0]) and rows == best[1]:
                match = best
            elif tr == first[0] and rows == first[1]:
                match = first
            else:
                return depth
            # the matched leaf was found in an earlier sibling subtree of the
            # node where the two paths part; the map fixes the path there
            perm = [0] * n
            for i in range(n):
                perm[match[2][i]] = order[i]
            gens.append(perm)
            stats.generators += 1
            other = match[3]
            k = 0
            while path[k] == other[k]:
                k += 1
            return k
        # covered: the orbits of the searched children under the generators
        # that fix the path, which map the target cell onto itself
        fixing: list[list[int]] = []
        merged = 0
        covered: set[int] = set()
        start = _target(adj, cells, cell_at)
        cell = cells[start]
        for v in cell:
            if merged < len(gens):
                new = [gen for gen in gens[merged:] if [gen[x] for x in path] == path]
                merged = len(gens)
                if new:
                    fixing += new
                    _close(covered, list(covered), fixing)
            if v in covered:
                stats.orbit_prunes += 1
                continue
            covered.add(v)
            _close(covered, [v], fixing)
            child = dict(cells)
            child[start], child[start + 1] = [v], [x for x in cell if x != v]
            child_trace = list(trace)
            child_trace.append(-2)
            child_trace.append(start)
            child_at = _refine(adj, child, child_trace, [start], stats)
            here = version
            path.append(v)
            resume = rec(child, child_at, child_trace, len(trace), tight, path)
            path.pop()
            if resume < depth:
                stats.jumps += 1
                return resume
            if version != here:
                tight = True
        return depth

    try:
        rec(cells0, at0, trace0, 0, True, [])
    except _Stop:
        raise BudgetExceeded(stats) from None
    finally:
        stats.nodes = meter.nodes
    _, rows, order, _ = best
    colors = tuple(g.colors[v] for v in order)
    payload = f"{n};{colors!r};{rows!r}".encode()
    digest = hashlib.sha256(payload).hexdigest()
    return CanonicalForm(n, colors, rows, order, digest, stats)


def are_isomorphic(a: ColoredGraph, b: ColoredGraph,
                   budget: Optional[Budget] = None,
                   stats: Optional[CanonStats] = None):
    """Color-preserving graph isomorphism; returns (flag, vertex bijection).

    The bijection comes from aligning canonical labelings and is then checked
    edge by edge before being handed back.  The budget bounds each of the two
    canonical forms; BudgetExceeded is raised when either runs out.  The
    counters of both forms, or of as much as ran, are added to stats if given.
    """
    if a.n != b.n or sorted(a.colors) != sorted(b.colors):
        return False, None
    total = stats if stats is not None else CanonStats()
    try:
        ca = canonical_form(a, budget)
        total.add(ca.stats)
        cb = canonical_form(b, budget)
        total.add(cb.stats)
    except BudgetExceeded as exc:
        total.add(exc.stats)
        raise
    if ca.key() != cb.key():
        return False, None
    mapping = {ca.order[i]: cb.order[i] for i in range(a.n)}
    for v in range(a.n):
        if (a.colors[v] != b.colors[mapping[v]]
                or {mapping[w] for w in a.adj[v]} != set(b.adj[mapping[v]])):
            raise RuntimeError(f"canonical labelings disagree at vertex {v}")
    return True, mapping


def _point_map(g1: ColoredGraph, g2: ColoredGraph, points: int, budget, stats):
    """are_isomorphic on the graphs, restricted to the points; its check at
    every vertex already carries the lines (or blocks) of one onto the other."""
    ok, mapping = are_isomorphic(g1, g2, budget, stats)
    return ok, {p: mapping[p] for p in range(points)} if ok else None


def gq_isomorphic(s1: IncidenceStructure, s2: IncidenceStructure,
                  ovoid1: Optional[Iterable[int]] = None,
                  ovoid2: Optional[Iterable[int]] = None,
                  budget: Optional[Budget] = None,
                  stats: Optional[CanonStats] = None):
    """Point-line isomorphism of incidence structures, via their graphs.

    Returns (flag, point bijection).  Ovoids, when supplied on both sides,
    must correspond under the bijection.  budget and stats are as for
    are_isomorphic.
    """
    if (ovoid1 is None) != (ovoid2 is None):
        raise ValueError("supply ovoids for both structures or neither")
    return _point_map(incidence_graph(s1, ovoid1), incidence_graph(s2, ovoid2),
                      s1.point_count, budget, stats)


def designs_isomorphic(d1: Design, d2: Design,
                       budget: Optional[Budget] = None,
                       stats: Optional[CanonStats] = None):
    """Design isomorphism respecting how often each block repeats.

    Returns (flag, point bijection); a repeated block's vertex is colored by
    its number of instances, so instances of repeated blocks match in number.
    budget and stats are as for are_isomorphic.
    """
    return _point_map(design_graph(d1), design_graph(d2), d1.point_count, budget, stats)
