"""Answer checks that do not call the code under test.

Each check raises Mismatch with a one-line reason.  Closed forms come from
the geometry of generalized quadrangles (Payne & Thas, Finite Generalized
Quadrangles); counts that only this library computes are frozen at the
commit that introduced the benchmark and are named FROZEN_* below.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

# Computed by this library at the commit that added the benchmark; no
# independent source.  They hold for the as-built labelings only: the
# system search reduces by instance order, so a relabeled design can report
# another count.
FROZEN_H34_OVOIDS = 200        # all ovoids of H(3,4)
FROZEN_AG3X3_SYSTEMS = 72      # all systems of 3 x AG(2,3), as built
FROZEN_GF16_SYSTEMS = 1        # all systems of the GF(16), lambda 6 design


class Mismatch(Exception):
    """A task returned a wrong answer."""


def expect(cond: bool, reason: str) -> None:
    if not cond:
        raise Mismatch(reason)


def gq_size(s: int, t: int) -> tuple[int, int]:
    """Point and line counts of a GQ of order (s, t)."""
    return (s + 1) * (s * t + 1), (t + 1) * (s * t + 1)


def design_params(s: int, t: int) -> tuple[int, int, int, int, int]:
    """(v, b, r, k, lambda) of the design an ovoid of a GQ(s, t) induces."""
    st = s * t
    return (1 + st, s * (1 + st), (1 + t) * s, 1 + t, 1 + t)


def q4_ovoid_count(q: int) -> int:
    """Ovoids of Q(4, q) for q prime: q^2 (q^2 - 1) / 2."""
    return q * q * (q * q - 1) // 2


def check_gq_shape(struct, s: int, t: int) -> None:
    """Counts, line sizes and point degrees of a GQ of order (s, t)."""
    points, lines = gq_size(s, t)
    expect(struct.point_count == points,
           f"{struct.point_count} points, want {points}")
    expect(len(struct.lines) == lines, f"{len(struct.lines)} lines, want {lines}")
    expect(all(len(line) == s + 1 for line in struct.lines),
           f"a line does not have {s + 1} points")
    degree = Counter(p for line in struct.lines for p in line)
    expect(all(degree[p] == t + 1 for p in range(points)),
           f"a point is not on {t + 1} lines")


def check_ovoid(struct, ovoid) -> None:
    """Every line meets the point set exactly once."""
    members = set(ovoid)
    for j, line in enumerate(struct.lines):
        hits = sum(1 for p in line if p in members)
        expect(hits == 1, f"line {j} meets the ovoid {hits} times")


def check_params(got, s: int, t: int) -> None:
    want = design_params(s, t)
    expect(tuple(got) == want, f"design parameters {tuple(got)}, want {want}")


def check_design_shape(design, params) -> None:
    """Block count, block size, replication and pair counts of a BIBD."""
    v, b, r, k, lam = params
    expect(design.point_count == v and len(design.blocks) == b,
           f"design has {design.point_count} points and {len(design.blocks)} "
           f"blocks, want {v} and {b}")
    expect(all(len(blk) == k for blk in design.blocks), f"a block is not of size {k}")
    reps = Counter(p for blk in design.blocks for p in blk)
    expect(all(reps[p] == r for p in range(v)), f"a point is not on {r} blocks")
    pairs = Counter(pair for blk in design.blocks for pair in combinations(blk, 2))
    expect(len(pairs) == v * (v - 1) // 2 and set(pairs.values()) == {lam},
           f"a pair is not covered {lam} times")


def check_system(design, system) -> None:
    """A non-triangular local resolution system, checked by enumeration.

    At each point p the classes partition the instances through p, and each
    class minus p partitions the other points.  No three instances are
    pairwise co-class at two or more distinct points.
    """
    v = design.point_count
    expect(len(system.classes) == v, "system does not cover every point")
    labels: dict[tuple[int, int], set[int]] = {}
    for p in range(v):
        through = sorted(j for j, blk in enumerate(design.blocks) if p in blk)
        got = sorted(j for cls in system.classes[p] for j in cls)
        expect(got == through, f"classes at {p} do not partition its instances")
        others = sorted(set(range(v)) - {p})
        for cls in system.classes[p]:
            cover = sorted(x for j in cls for x in design.blocks[j] if x != p)
            expect(cover == others, f"a class at {p} does not partition the rest")
            for b, c in combinations(sorted(cls), 2):
                labels.setdefault((b, c), set()).add(p)
    nbrs: dict[int, set[int]] = {}
    for b, c in labels:
        nbrs.setdefault(b, set()).add(c)
    for (a, b), ab in labels.items():
        for c in nbrs.get(b, ()):
            if c in nbrs.get(a, ()):
                at = ab | labels[(a, c)] | labels[(b, c)]
                expect(len(at) < 2, f"instances {a},{b},{c} form a triangle")


def check_point_map(src, dst, point_map, src_ovoid=None, dst_ovoid=None) -> None:
    """A bijection sending the lines (or blocks, with multiplicity) of src
    onto those of dst, and the ovoid, if given, onto the ovoid."""
    n = src.point_count
    expect(sorted(point_map) == list(range(n))
           and sorted(point_map.values()) == list(range(dst.point_count)),
           "map is not a bijection of the points")
    moved = Counter(tuple(sorted(point_map[p] for p in line)) for line in src.lines)
    expect(moved == Counter(dst.lines), "map does not send lines onto lines")
    if src_ovoid is not None:
        expect({point_map[p] for p in src_ovoid} == set(dst_ovoid),
               "map does not send the ovoid onto the ovoid")
