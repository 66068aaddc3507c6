"""Canonical labeling of colored graphs, for isomorphism of structures.

The engine is individualization-refinement: refine an ordered partition to
equitability, branch on one vertex of the first smallest non-singleton cell,
and keep the lexicographically least (refinement trace, relabeled adjacency)
over all leaves.  Subtrees whose trace already compares worse than the best
leaf are cut.  Automorphisms prune the rest, as in McKay & Piperno,
"Practical graph isomorphism, II" (J. Symb. Comput. 60, 2014):

* a leaf equal to the first leaf or to the best leaf gives an automorphism;
* each node skips every child covered by the orbits of those it searched
  under the automorphisms that fix its path pointwise, and closes that set
  again under each such automorphism as soon as it is found;
* after a new automorphism the search jumps back to the node where the
  current path leaves the path of the matched leaf, because the subtree
  below is the image of one already searched.

None of these cuts a leaf better than the kept best, so the canonical form
does not depend on them.

Incidence structures and designs enter as colored bipartite graphs; repeated
blocks collapse to one vertex colored by multiplicity, which keeps huge
instance-permutation groups out of the search entirely.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional

from .search import Budget, _Meter, _Stop
from .structures import Design, IncidenceStructure, _is_int


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    adj: tuple[frozenset[int], ...]
    colors: tuple[tuple[int, int], ...]


@dataclass
class CanonStats:
    """What one canonical-form search did."""

    nodes: int = 0         # search nodes entered, the root and leaves included
    leaves: int = 0        # discrete partitions reached
    generators: int = 0    # automorphisms found
    orbit_prunes: int = 0  # children skipped as images of a searched sibling
    jumps: int = 0         # nodes left early after a new automorphism
    refines: int = 0       # refinements to equitability

    def add(self, other: "CanonStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class BudgetExceeded(Exception):
    """A canonical-form search ran out of budget; no form is returned."""

    def __init__(self, stats: CanonStats):
        super().__init__("canonical form cut by its budget")
        self.stats = stats


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant plus the labeling that realizes it."""

    size: int
    colors: tuple[tuple[int, int], ...]  # color at each canonical position
    rows: tuple[tuple[int, ...], ...]    # neighbor positions at each position
    order: tuple[int, ...]               # canonical position -> input vertex
    digest: str
    stats: CanonStats = field(compare=False)

    def key(self):
        return (self.size, self.colors, self.rows)


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
    return ColoredGraph(n, tuple(frozenset(a) for a in adj), cols)


def incidence_graph(s: IncidenceStructure,
                    ovoid: Optional[Iterable[int]] = None) -> ColoredGraph:
    """Bipartite point/line graph; an ovoid, if given, marks its points."""
    marked = frozenset(ovoid) if ovoid is not None else frozenset()
    v = s.point_count
    for p in marked:
        if not _is_int(p):
            raise ValueError(f"marked point {p!r} is not an int")
    for p in sorted(marked):
        if not 0 <= p < v:
            raise ValueError(f"marked point {p} outside 0..{v - 1}")
    edges = []
    for j, line in enumerate(s.lines):
        for p in line:
            edges.append((p, v + j))
    colors = [(0, 1 if p in marked else 0) for p in range(v)]
    colors += [(1, 0)] * len(s.lines)
    return build_graph(v + len(s.lines), edges, colors)


def design_graph(d: Design) -> ColoredGraph:
    """Bipartite point/block graph with repeated blocks merged.

    Each distinct block content is one vertex colored by its multiplicity, so
    isomorphism treats instances of a repeated block as interchangeable.
    """
    counts = d.multiplicities
    contents = sorted(counts)
    v = d.point_count
    edges = []
    colors = [(0, 0)] * v
    for j, content in enumerate(contents):
        colors.append((1, counts[content]))
        for p in content:
            edges.append((p, v + j))
    return build_graph(v + len(contents), edges, colors)


def _refine(adj, cells: list[list[int]], trace: list[int], work_init=None) -> None:
    """Split cells by neighbor counts into given splitters until equitable.

    Mutates cells in place; appends the split events (cell position, count,
    part size, ...) to the trace, which is what search ordering compares.
    Only cells meeting a splitter's neighborhood are examined, and the
    worklist drains as soon as the partition is discrete.
    """
    cell_at: dict[int, list[int]] = {}   # vertex -> its cell object
    pos: dict[int, int] = {}             # id(cell) -> current index
    nonsingleton = 0
    for i, cell in enumerate(cells):
        pos[id(cell)] = i
        if len(cell) > 1:
            nonsingleton += 1
            for x in cell:
                cell_at[x] = cell
    work = deque(cells if work_init is None else work_init)
    while work and nonsingleton:
        splitter = work.popleft()
        cnt: dict[int, int] = {}
        for u in splitter:
            for w in adj[u]:
                cnt[w] = cnt.get(w, 0) + 1
        touched: dict[int, list[int]] = {}
        for w in cnt:
            cell = cell_at.get(w)
            if cell is not None:
                touched[id(cell)] = cell
        for cid in sorted(touched, key=pos.__getitem__):
            cell = touched[cid]
            parts: dict[int, list[int]] = {}
            for x in cell:
                parts.setdefault(cnt.get(x, 0), []).append(x)
            if len(parts) == 1:
                continue
            i = pos.pop(cid)
            keys = sorted(parts)
            pieces = [parts[key] for key in keys]
            cells[i:i + 1] = pieces
            nonsingleton -= 1
            trace.append(-1)
            trace.append(i)
            for key, piece in zip(keys, pieces):
                trace.append(key)
                trace.append(len(piece))
                if len(piece) > 1:
                    nonsingleton += 1
                    for x in piece:
                        cell_at[x] = piece
                else:
                    cell_at.pop(piece[0], None)
            shift = len(pieces) - 1
            for j, piece in enumerate(pieces):
                pos[id(piece)] = i + j
            for later in cells[i + len(pieces):]:
                pos[id(later)] += shift
            work.extend(pieces)


def _leaf(adj, cells):
    order = [cell[0] for cell in cells]
    pos = {vtx: i for i, vtx in enumerate(order)}
    rows = tuple(tuple(sorted(pos[w] for w in adj[vtx])) for vtx in order)
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
    cells0 = [by_color[key] for key in sorted(by_color)]
    trace0: list[int] = []
    _refine(adj, cells0, trace0)
    stats.refines += 1

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
    def rec(cells: list[list[int]], trace: list[int], base: int,
            tight: bool, path: list[int]) -> int:
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
        target = -1
        size = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (size is None or len(cell) < size):
                target = i
                size = len(cell)
        if target < 0:
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
        cell = cells[target]
        for v in cell:
            if merged < len(gens):
                new = [gen for gen in gens[merged:] if all(gen[x] == x for x in path)]
                merged = len(gens)
                if new:
                    fixing += new
                    _close(covered, list(covered), fixing)
            if v in covered:
                stats.orbit_prunes += 1
                continue
            covered.add(v)
            _close(covered, [v], fixing)
            fresh = [[v], [x for x in cell if x != v]]
            child = cells[:target] + fresh + cells[target + 1:]
            child_trace = list(trace)
            child_trace.append(-2)
            child_trace.append(target)
            _refine(adj, child, child_trace, work_init=fresh)
            stats.refines += 1
            here = version
            path.append(v)
            resume = rec(child, child_trace, len(trace), tight, path)
            path.pop()
            if resume < depth:
                stats.jumps += 1
                return resume
            if version != here:
                tight = True
        return depth

    try:
        rec(cells0, trace0, 0, True, [])
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


def _point_map(g1: ColoredGraph, g2: ColoredGraph, s1: IncidenceStructure,
               s2: IncidenceStructure, noun: str, budget, stats):
    """are_isomorphic on the graphs, restricted to points and checked to
    carry the lines (or blocks, as noun says) of s1 onto those of s2."""
    ok, mapping = are_isomorphic(g1, g2, budget, stats)
    if not ok:
        return False, None
    point_map = {p: mapping[p] for p in range(s1.point_count)}
    mapped = sorted(tuple(sorted(point_map[p] for p in line)) for line in s1.lines)
    if mapped != sorted(s2.lines):
        raise RuntimeError(f"point bijection does not carry {noun} onto {noun}")
    return True, point_map


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
                      s1, s2, "lines", budget, stats)


def designs_isomorphic(d1: Design, d2: Design,
                       budget: Optional[Budget] = None,
                       stats: Optional[CanonStats] = None):
    """Design isomorphism respecting block multiplicities.

    Returns (flag, point bijection); the mapped block multiset is checked
    against the target, so instances of repeated blocks match in number.
    budget and stats are as for are_isomorphic.
    """
    return _point_map(design_graph(d1), design_graph(d2), d1, d2, "blocks",
                      budget, stats)
