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
neighbor set, with no counts built; a larger one counts neighbors in bit
planes.  Subtrees whose trace already compares worse than the best leaf are
cut.  Automorphisms prune the rest, as in McKay & Piperno, "Practical graph
isomorphism, II" (J. Symb. Comput. 60, 2014):

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
its first vertex in the vertex order, to the cell as an int mask of its
vertices, beside a mask of the vertices in non-singleton cells and a list
of each one's start; _partition refines it.  A split leaves every other
cell where it was, so nothing is renumbered, and a child node copies the
map and the list.  Traces name cells by start; traces that agree so far
describe the same partition, on which start grows with a cell's index, so
they compare as they would with indices.

A graph's adj holds each vertex's neighbors as an int mask, as refinement
reads them.  Structures and designs enter as colored bipartite graphs read
off the structure's point_masks and line_masks (structures._points checks
marked points); repeated blocks, the groups of Design.instances(), are one
vertex colored by their number, which keeps huge instance-permutation
groups out of the search.  build_graph checks a caller's edges and colors.
"""

from __future__ import annotations

import hashlib
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional

from .search import Budget, _Meter, _Record, _Stop
from .structures import Design, IncidenceStructure, _bits, _is_int, _points


class ColoredGraph(NamedTuple):
    n: int
    adj: tuple[int, ...]  # each vertex's neighbor mask
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
    adj = [0] * n
    for u, w in edges:
        if not (_is_int(u) and _is_int(w)):
            raise ValueError(f"edge ({u!r}, {w!r}) has a vertex that is not an int")
        if u == w:
            raise ValueError("loops are not supported")
        if not (0 <= u < n and 0 <= w < n):
            raise ValueError(f"edge ({u}, {w}) has a vertex outside 0..{n - 1}")
        adj[u] |= 1 << w
        adj[w] |= 1 << u
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
    return ColoredGraph(n, tuple(adj), cols)


def _bipartite(s: IncidenceStructure, colors) -> ColoredGraph:
    """Points 0..v-1, line j as vertex v + j, read off s's mask tables."""
    v = s.point_count
    adj = tuple(m << v for m in s.point_masks) + s.line_masks
    return ColoredGraph(len(adj), adj, tuple(colors))


def incidence_graph(s: IncidenceStructure,
                    ovoid: Optional[Iterable[int]] = None) -> ColoredGraph:
    """Bipartite point/line graph; an ovoid, if given, marks its points."""
    marked = _points(s, ovoid) if ovoid is not None else frozenset()
    colors = [(0, 1 if p in marked else 0) for p in range(s.point_count)]
    return _bipartite(s, colors + [(1, 0)] * len(s.lines))


def design_graph(d: Design) -> ColoredGraph:
    """Bipartite point/block graph with repeated blocks merged.

    Each content of d.instances(), sorted, is one vertex colored (1, number
    of its instances), so isomorphism treats copies of a block as interchangeable.
    """
    groups = d.instances()
    contents = sorted(groups)
    colors = [(0, 0)] * d.point_count + [(1, len(groups[c])) for c in contents]
    return _bipartite(IncidenceStructure(d.point_count, contents), colors)


def _leaf(adj, cells):
    order = [cells[start].bit_length() - 1 for start in range(len(cells))]
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
    # the refinement engine loads with the first form, not with canon, whose
    # graph builders and types are imported without it
    from ._partition import refine, target

    n = g.n
    am = g.adj
    adj = [_bits(m) for m in am]  # neighbor lists for _leaf
    stats = CanonStats()
    meter = _Meter(budget, every=1)
    by_color: dict[tuple[int, int], int] = {}
    for vtx in range(n):
        by_color[g.colors[vtx]] = by_color.get(g.colors[vtx], 0) | 1 << vtx
    keys = sorted(by_color)
    starts = dict(zip(keys, accumulate((by_color[k].bit_count() for k in keys),
                                       initial=0)))
    cells0 = {starts[k]: by_color[k] for k in keys}
    at0 = [starts[c] for c in g.colors]
    live0 = sum(cell for cell in cells0.values() if cell & (cell - 1))
    trace0: list[int] = []
    live0 = refine(am, cells0, at0, live0, trace0, list(cells0), stats)

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
    def rec(cells: dict[int, int], cell_at: list[int], live: int,
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
        start = target(am, cells, cell_at, live)
        cell = cells[start]
        vertices = _bits(cell)
        rest_at = cell_at[:]
        for x in vertices:
            rest_at[x] = start + 1
        for v in vertices:
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
            rest = cell ^ 1 << v
            child = dict(cells)
            child[start], child[start + 1] = 1 << v, rest
            child_live = live ^ (1 << v if rest & (rest - 1) else cell)
            child_trace = list(trace)
            child_trace.append(-2)
            child_trace.append(start)
            child_at = rest_at[:]
            child_live = refine(am, child, child_at, child_live, child_trace,
                                [start], stats)
            here = version
            path.append(v)
            resume = rec(child, child_at, child_live, child_trace, len(trace),
                         tight, path)
            path.pop()
            if resume < depth:
                stats.jumps += 1
                return resume
            if version != here:
                tight = True
        return depth

    try:
        rec(cells0, at0, live0, trace0, 0, True, [])
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
                or sum(1 << mapping[w] for w in _bits(a.adj[v])) != b.adj[mapping[v]]):
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
