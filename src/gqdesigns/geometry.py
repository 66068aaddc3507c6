"""Classical generalized quadrangles over finite fields, and point regularity.

Projective points are coordinate tuples over the field, normalized so the
first nonzero coordinate is 1, and indexed in lexicographic order of the
tuple.  Each construction re-indexes its own point set densely from 0.
"""

from __future__ import annotations

from itertools import product

from .field import Field, field_of_order, make_field
from .structures import IncidenceStructure, verify_gq


def _projective_points(f: Field, ncoords: int) -> list[tuple[int, ...]]:
    pts = []
    for vec in product(f.elements(), repeat=ncoords):
        for c in vec:
            if c == 0:
                continue
            if c == 1:
                pts.append(vec)
            break
    return pts


def _normalize(f: Field, vec: tuple[int, ...]) -> tuple[int, ...]:
    for c in vec:
        if c:
            if c == 1:
                return vec
            s = f.inv(c)
            return tuple(f.mul(s, x) for x in vec)
    raise ValueError("zero vector has no projective class")


def _line_points(f: Field, u: tuple[int, ...], w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All projective points on the line spanned by two distinct points."""
    pts = [w]
    for lam in f.elements():
        vec = tuple(f.add(a, f.mul(lam, b)) for a, b in zip(u, w))
        pts.append(_normalize(f, vec))
    return pts


def symplectic_gq(q: int) -> IncidenceStructure:
    """Points of PG(3,q) with the totally isotropic lines of a symplectic form.

    The form is x0*y1 - x1*y0 + x2*y3 - x3*y2.  Order (q, q).
    """
    f = field_of_order(q)
    pts = _projective_points(f, 4)
    index = {p: i for i, p in enumerate(pts)}

    def form(x, y):
        a = f.sub(f.mul(x[0], y[1]), f.mul(x[1], y[0]))
        b = f.sub(f.mul(x[2], y[3]), f.mul(x[3], y[2]))
        return f.add(a, b)

    lines = set()
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if form(pts[i], pts[j]) == 0:
                line = frozenset(index[p] for p in _line_points(f, pts[i], pts[j]))
                lines.add(tuple(sorted(line)))
    # a totally isotropic line arises from every pair on it, hence the dedupe
    return IncidenceStructure(n, sorted(lines))


def parabolic_gq(q: int) -> IncidenceStructure:
    """Points and lines of the quadric x0^2 = x1*x2 + x3*x4 in PG(4,q).

    Order (q, q); lines are the projective lines fully contained in the quadric.
    """
    f = field_of_order(q)
    on_quadric = []
    for p in _projective_points(f, 5):
        lhs = f.mul(p[0], p[0])
        rhs = f.add(f.mul(p[1], p[2]), f.mul(p[3], p[4]))
        if lhs == rhs:
            on_quadric.append(p)
    index = {p: i for i, p in enumerate(on_quadric)}
    lines = set()
    n = len(on_quadric)
    for i in range(n):
        for j in range(i + 1, n):
            span = _line_points(f, on_quadric[i], on_quadric[j])
            if all(p in index for p in span):
                lines.add(tuple(sorted(index[p] for p in span)))
    return IncidenceStructure(n, sorted(lines))


def hermitian_gq(q: int) -> IncidenceStructure:
    """Points and lines of the surface x0^(q+1) + x1^(q+1) + x2^(q+1) + x3^(q+1) = 0
    in PG(3, q^2).  Order (q^2, q)."""
    base = field_of_order(q)
    f = make_field(base.p, 2 * base.a)
    on_surface = []
    for pt in _projective_points(f, 4):
        acc = 0
        for c in pt:
            acc = f.add(acc, f.pow(c, q + 1))
        if acc == 0:
            on_surface.append(pt)
    index = {p_: i for i, p_ in enumerate(on_surface)}
    lines = set()
    n = len(on_surface)
    for i in range(n):
        for j in range(i + 1, n):
            span = _line_points(f, on_surface[i], on_surface[j])
            if all(pt in index for pt in span):
                lines.add(tuple(sorted(index[pt] for pt in span)))
    return IncidenceStructure(n, sorted(lines))


def perp(s: IncidenceStructure, x: int) -> frozenset[int]:
    """x together with every point collinear with x."""
    if not 0 <= x < s.point_count:
        raise ValueError(f"point {x} out of range")
    return _mask_to_set(s.neighbor_masks[x] | (1 << x))


def trace_pair(s: IncidenceStructure, x: int, y: int) -> frozenset[int]:
    """Intersection of the perps of two distinct points."""
    if x == y:
        raise ValueError("trace needs two distinct points")
    mx = s.neighbor_masks[x] | (1 << x)
    my = s.neighbor_masks[y] | (1 << y)
    return _mask_to_set(mx & my)


def span_pair(s: IncidenceStructure, x: int, y: int) -> frozenset[int]:
    """Points collinear with every point of trace_pair(s, x, y)."""
    if x == y:
        raise ValueError("span needs two distinct points")
    mx = s.neighbor_masks[x] | (1 << x)
    my = s.neighbor_masks[y] | (1 << y)
    acc = (1 << s.point_count) - 1
    rest = mx & my
    while rest:
        low = rest & -rest
        z = low.bit_length() - 1
        acc &= s.neighbor_masks[z] | low
        rest ^= low
    return _mask_to_set(acc)


def _mask_to_set(mask: int) -> frozenset[int]:
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def is_regular_pair(s: IncidenceStructure, x: int, y: int) -> bool:
    """Whether the span of a non-collinear pair reaches its maximum size t + 1."""
    params = verify_gq(s)
    if x == y or (s.neighbor_masks[x] >> y) & 1:
        raise ValueError("regularity is defined for non-collinear point pairs")
    return len(span_pair(s, x, y)) == params.t + 1


def is_regular_point(s: IncidenceStructure, x: int) -> bool:
    """Whether every pair {x, y} with y non-collinear to x is regular."""
    verify_gq(s)
    reach = s.neighbor_masks[x] | (1 << x)
    for y in range(s.point_count):
        if (reach >> y) & 1:
            continue
        if not is_regular_pair(s, x, y):
            return False
    return True


def payne_derivation(s: IncidenceStructure, x: int) -> IncidenceStructure:
    """Derived quadrangle about a regular point of a GQ of order (q, q).

    Points: the points not collinear with x.  Lines: the lines missing x, each
    restricted to the new point set, together with the spans through x, each
    with x removed (spans counted once).  Order (q - 1, q + 1).
    """
    params = verify_gq(s)
    if params.s != params.t:
        raise ValueError(f"derivation needs order (q, q), got {tuple(params)}")
    if not is_regular_point(s, x):
        raise ValueError(f"point {x} is not regular")

    reach = s.neighbor_masks[x] | (1 << x)
    keep = [p for p in range(s.point_count) if not (reach >> p) & 1]
    new_index = {p: i for i, p in enumerate(keep)}

    lines = set()
    for line in s.lines:
        if x in line:
            continue
        restricted = tuple(sorted(new_index[p] for p in line if not (reach >> p) & 1))
        assert len(restricted) == len(line) - 1  # a line misses perp(x) in one point
        lines.add(restricted)
    for y in keep:
        hyper = span_pair(s, x, y)
        assert x in hyper
        lines.add(tuple(sorted(new_index[p] for p in hyper if p != x)))
    return IncidenceStructure(len(keep), sorted(lines))
