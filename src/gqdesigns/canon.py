"""Canonical labeling of colored graphs, for isomorphism of structures.

The engine is individualization-refinement: refine an ordered partition to
equitability, branch on one vertex of the first smallest non-singleton cell,
and keep the lexicographically least (refinement trace, relabeled adjacency)
over all leaves.  Subtrees whose trace already compares worse than the best
leaf are cut, as are branch vertices equivalent under automorphisms found at
earlier leaves.

Incidence structures and designs enter as colored bipartite graphs; repeated
blocks collapse to one vertex colored by multiplicity, which keeps huge
instance-permutation groups out of the search entirely.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .structures import Design, IncidenceStructure


@dataclass(frozen=True)
class ColoredGraph:
    n: int
    adj: tuple[frozenset[int], ...]
    colors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CanonicalForm:
    """Complete isomorphism invariant plus the labeling that realizes it."""

    size: int
    colors: tuple[tuple[int, int], ...]  # color at each canonical position
    rows: tuple[tuple[int, ...], ...]    # neighbor positions at each position
    order: tuple[int, ...]               # canonical position -> input vertex
    digest: str

    def key(self):
        return (self.size, self.colors, self.rows)


def build_graph(n: int, edges: Iterable[tuple[int, int]],
                colors: Iterable[tuple[int, int]]) -> ColoredGraph:
    adj = [set() for _ in range(n)]
    for u, w in edges:
        if u == w:
            raise ValueError("loops are not supported")
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


class _Find:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def canonical_form(g: ColoredGraph) -> CanonicalForm:
    n = g.n
    adj = g.adj
    by_color: dict[tuple[int, int], list[int]] = {}
    for vtx in range(n):
        by_color.setdefault(g.colors[vtx], []).append(vtx)
    cells0 = [by_color[key] for key in sorted(by_color)]
    trace0: list[int] = []
    _refine(adj, cells0, trace0)

    best: Optional[tuple[tuple[int, ...], tuple, tuple[int, ...]]] = None
    version = 0
    gens: list[tuple[int, ...]] = []

    # tight means the trace so far is an exact prefix of the best leaf's
    # trace; only then can the new segment rule a subtree in or out.  A best
    # found below the current node restores tightness for later siblings.
    def rec(cells: list[list[int]], trace: list[int], base: int,
            tight: bool, path: list[int]) -> None:
        nonlocal best, version
        if best is not None and tight:
            seg = tuple(trace[base:])
            ref = best[0][base:base + len(seg)]
            if seg > ref:
                return
            if seg < ref:
                tight = False
        target = -1
        size = None
        for i, cell in enumerate(cells):
            if len(cell) > 1 and (size is None or len(cell) < size):
                target = i
                size = len(cell)
        if target < 0:
            rows, order = _leaf(adj, cells)
            tr = tuple(trace)
            if best is None or not tight or len(tr) < len(best[0]) or rows < best[1]:
                best = (tr, rows, order)
                version += 1
            elif len(tr) == len(best[0]) and rows == best[1]:
                perm = [0] * n
                for i in range(n):
                    perm[best[2][i]] = order[i]
                if any(perm[v] != v for v in range(n)):
                    gens.append(tuple(perm))
            return
        uf = _Find(n)
        for gen in gens:
            if all(gen[x] == x for x in path):
                for v in range(n):
                    uf.union(v, gen[v])
        seen: set[int] = set()
        for v in cells[target]:
            root = uf.find(v)
            if root in seen:
                continue
            seen.add(root)
            child = []
            fresh = None
            for cell in cells:
                if len(cell) > 1 and v in cell:
                    rest = [x for x in cell if x != v]
                    child.append([v])
                    child.append(rest)
                    fresh = [child[-2], child[-1]]
                else:
                    child.append(cell)
            child_trace = list(trace)
            child_trace.append(-2)
            child_trace.append(target)
            _refine(adj, child, child_trace, work_init=fresh)
            here = version
            path.append(v)
            rec(child, child_trace, len(trace), tight, path)
            path.pop()
            if version != here:
                tight = True

    rec(cells0, trace0, 0, True, [])
    assert best is not None
    _, rows, order = best
    colors = tuple(g.colors[v] for v in order)
    payload = f"{n};{colors!r};{rows!r}".encode()
    digest = hashlib.sha256(payload).hexdigest()
    return CanonicalForm(n, colors, rows, order, digest)


def are_isomorphic(a: ColoredGraph, b: ColoredGraph):
    """Color-preserving graph isomorphism; returns (flag, vertex bijection).

    The bijection comes from aligning canonical labelings and is then checked
    edge by edge before being handed back.
    """
    if a.n != b.n or sorted(a.colors) != sorted(b.colors):
        return False, None
    ca = canonical_form(a)
    cb = canonical_form(b)
    if ca.key() != cb.key():
        return False, None
    mapping = {ca.order[i]: cb.order[i] for i in range(a.n)}
    for v in range(a.n):
        if (a.colors[v] != b.colors[mapping[v]]
                or {mapping[w] for w in a.adj[v]} != set(b.adj[mapping[v]])):
            raise RuntimeError(f"canonical labelings disagree at vertex {v}")
    return True, mapping


def gq_isomorphic(s1: IncidenceStructure, s2: IncidenceStructure,
                  ovoid1: Optional[Iterable[int]] = None,
                  ovoid2: Optional[Iterable[int]] = None):
    """Point-line isomorphism of incidence structures, via their graphs.

    Returns (flag, point bijection).  Ovoids, when supplied on both sides,
    must correspond under the bijection.
    """
    if (ovoid1 is None) != (ovoid2 is None):
        raise ValueError("supply ovoids for both structures or neither")
    g1 = incidence_graph(s1, ovoid1)
    g2 = incidence_graph(s2, ovoid2)
    ok, mapping = are_isomorphic(g1, g2)
    if not ok:
        return False, None
    point_map = {p: mapping[p] for p in range(s1.point_count)}
    mapped = sorted(tuple(sorted(point_map[p] for p in line)) for line in s1.lines)
    if mapped != sorted(s2.lines):
        raise RuntimeError("point bijection does not carry lines onto lines")
    return True, point_map


def designs_isomorphic(d1: Design, d2: Design):
    """Design isomorphism respecting block multiplicities.

    Returns (flag, point bijection); the mapped block multiset is checked
    against the target, so instances of repeated blocks match in number.
    """
    ok, mapping = are_isomorphic(design_graph(d1), design_graph(d2))
    if not ok:
        return False, None
    point_map = {p: mapping[p] for p in range(d1.point_count)}
    mapped = sorted(tuple(sorted(point_map[p] for p in blk)) for blk in d1.blocks)
    if mapped != sorted(d2.blocks):
        raise RuntimeError("point bijection does not carry blocks onto blocks")
    return True, point_map
