"""Classical generalized quadrangles over finite fields, and point regularity.

Projective points are coordinate tuples over the field, normalized so the
first nonzero coordinate is 1, and indexed in lexicographic order of the
tuple.  Each construction re-indexes its own point set densely from 0.

W(q), Q(4,q) and H(3,q^2) come from one builder, `_polar_gq` (Payne & Thas,
Finite Generalized Quadrangles, 3.1): the points of a variety and the lines
on which its polar form B vanishes.  A line through a point x lies in x^perp
and meets a hyperplane that misses x in one point, so for each x the builder
walks the singular points z of x^perp on a coordinate hyperplane missing x
and joins x to each z not yet on a line through x.  Each line is built once,
from its smallest point.

Every point of a GQ lies on t + 1 lines, and point 0 is walked in full, so
the builder learns t + 1 from point 0 and then skips each point already on
that many built lines, and ends a walk as soon as its point reaches it.
W(7) walks 56 of its 400 points, Q(4,5) 36 of 156 and H(3,9) 28 of 280, each
over about q^(n-3) candidates in n coordinates.  After the loop every point
must lie on t + 1 lines, or the builder raises RuntimeError.

Points are found by table, not by normalizing.  A vector v has the integer
code sum(v[j] * q^(n-1-j)), and one dict maps, for every point p and every
coordinate j with p[j] != 0, the code of the multiple of p with a 1 at j to
the index of p: at most n entries per point, so the table grows with the
point set, not with q^n.  A candidate z has a 1 at its first nonzero free
coordinate, and x is scaled to x[m] = 1, so every x + lam*z of a line, as
z[m] = 0, has a 1 at m: each is read straight off the table with no
normalization.  All arithmetic reads the add/mul/neg/inv tables of
`field.field_tables`, and H(3,q^2) also reads Frobenius and norm tables.

The regularity functions check their points with structures._points.
"""

from __future__ import annotations

from itertools import product

from .field import Field, field_of_order, field_tables, make_field
from .structures import IncidenceStructure, _bits, _points, verify_gq


def _projective_points(q: int, ncoords: int) -> list[tuple[int, ...]]:
    """The normalized points of PG(ncoords - 1, q) in lexicographic order."""
    return [(0,) * k + (1,) + rest for k in range(ncoords - 1, -1, -1)
            for rest in product(range(q), repeat=ncoords - 1 - k)]


def _polar_gq(f: Field, ncoords: int, on_variety, polar) -> IncidenceStructure:
    """The points satisfying on_variety and the lines inside the variety.

    polar(x) is the vector c with B(x, y) = sum(c[i] * y[i]); for singular
    points x and z the line xz lies in the variety exactly when B(x, z) = 0.
    Raises RuntimeError when the points do not all lie on as many lines as
    point 0, as for a map that is not a polarity.
    """
    add, mul, neg, inv = field_tables(f)
    q = f.q
    pts = [p for p in _projective_points(q, ncoords) if on_variety(p)]
    # the code of a vector v is sum(v[j] * weight[j]); plus[j][a][b] is the
    # share of a + b at coordinate j
    weight = [q ** (ncoords - 1 - j) for j in range(ncoords)]
    plus = [[[e * w for e in row] for row in add] for w in weight]
    # for every nonzero value c of a point p: the code of p / c, the multiple
    # with a 1 wherever p has c -> the index of p
    index = {}
    for i, p in enumerate(pts):
        for c in set(p) - {0}:
            row = mul[inv[c]]
            index[sum([row[pj] * w for pj, w in zip(p, weight)])] = i

    free = _projective_points(q, ncoords - 2)
    joined = [0] * len(pts)  # bit j of joined[i]: a built line holds i and j
    degree = [0] * len(pts)  # built lines through each point
    full = None  # point 0's degree once its walk is done
    lines = []
    for i, x in enumerate(pts):
        if degree[i] == full:
            continue
        c = polar(x)
        m = max(k for k, xk in enumerate(x) if xk)  # x misses z[m] = 0
        k = next(k for k, ck in enumerate(c) if ck and k != m)
        rest = [j for j in range(ncoords) if j not in (m, k)]
        solve = mul[neg[inv[c[k]]]]
        # scaled to x[m] = 1, which each x + lam * z keeps, as z[m] = 0
        scale = mul[inv[x[m]]]
        shift = [t[scale[xj]].__getitem__ for t, xj in zip(plus, x)]  # b -> share of x[j] + b
        for u in free:  # z[m] = 0, z[rest] = u (first nonzero 1), B(x, z) = 0 fixes z[k]
            z = [0] * ncoords
            acc = code = 0
            for j, uj in zip(rest, u):
                z[j] = uj
                acc = add[acc][mul[c[j]][uj]]
                code += uj * weight[j]
            z[k] = solve[acc]
            if not on_variety(z):
                continue
            j = index[code + z[k] * weight[k]]
            if joined[i] >> j & 1:
                continue
            # z, then x + lam * z for every lam
            line = [j, *map(index.__getitem__, map(sum, zip(*[
                map(s, mul[zj]) for s, zj in zip(shift, z)])))]
            mask = sum(1 << p for p in line)
            for p in line:
                joined[p] |= mask
                degree[p] += 1
            lines.append(tuple(sorted(line)))
            if degree[i] == full:
                break
        if full is None:
            full = degree[0]
    for p, d in enumerate(degree):
        if d != full:
            raise RuntimeError(f"point {p} lies on {d} lines, not the {full} "
                               f"point 0 had when its walk ended")
    return IncidenceStructure(len(pts), sorted(lines))


def symplectic_gq(q: int) -> IncidenceStructure:
    """Points of PG(3,q) with the totally isotropic lines of a symplectic form.

    The form is x0*y1 - x1*y0 + x2*y3 - x3*y2.  Order (q, q).
    """
    f = field_of_order(q)
    neg = field_tables(f)[2]
    return _polar_gq(f, 4, lambda x: True,
                     lambda x: (neg[x[1]], x[0], neg[x[3]], x[2]))


def parabolic_gq(q: int) -> IncidenceStructure:
    """Points and lines of the quadric x0^2 = x1*x2 + x3*x4 in PG(4,q).

    Order (q, q); lines are the projective lines fully contained in the quadric.
    """
    f = field_of_order(q)
    add, mul, neg, _ = field_tables(f)
    return _polar_gq(
        f, 5, lambda x: mul[x[0]][x[0]] == add[mul[x[1]][x[2]]][mul[x[3]][x[4]]],
        lambda x: (add[x[0]][x[0]], neg[x[2]], neg[x[1]], neg[x[4]], neg[x[3]]))


def hermitian_gq(q: int) -> IncidenceStructure:
    """Points and lines of the surface x0^(q+1) + x1^(q+1) + x2^(q+1) + x3^(q+1) = 0
    in PG(3, q^2).  Order (q^2, q)."""
    base = field_of_order(q)
    f = make_field(base.p, 2 * base.a)
    add = field_tables(f)[0]
    frob = [f.pow(c, q) for c in f.elements()]
    norm = [f.pow(c, q + 1) for c in f.elements()]
    return _polar_gq(
        f, 4, lambda x: add[add[norm[x[0]]][norm[x[1]]]][add[norm[x[2]]][norm[x[3]]]] == 0,
        lambda x: tuple(frob[c] for c in x))  # B(x, y) = sum x_i y_i^q, raised to q


def perp(s: IncidenceStructure, x: int) -> frozenset[int]:
    """x together with every point collinear with x."""
    _points(s, (x,))
    return frozenset(_bits(s.neighbor_masks[x] | (1 << x)))


def _trace_mask(s: IncidenceStructure, x: int, y: int, what: str) -> int:
    """Mask of the perps' meet of distinct points x, y; what names the caller."""
    _points(s, (x, y))
    if x == y:
        raise ValueError(f"{what} needs two distinct points")
    return (s.neighbor_masks[x] | (1 << x)) & (s.neighbor_masks[y] | (1 << y))


def trace_pair(s: IncidenceStructure, x: int, y: int) -> frozenset[int]:
    """Intersection of the perps of two distinct points."""
    return frozenset(_bits(_trace_mask(s, x, y, "trace")))


def span_pair(s: IncidenceStructure, x: int, y: int) -> frozenset[int]:
    """Points collinear with every point of trace_pair(s, x, y)."""
    acc = (1 << s.point_count) - 1
    for z in _bits(_trace_mask(s, x, y, "span")):
        acc &= s.neighbor_masks[z] | (1 << z)
    return frozenset(_bits(acc))


def is_regular_pair(s: IncidenceStructure, x: int, y: int) -> bool:
    """Whether the span of a non-collinear pair reaches its maximum size t + 1."""
    _points(s, (x, y))
    params = verify_gq(s)
    if x == y or (s.neighbor_masks[x] >> y) & 1:
        raise ValueError("regularity is defined for non-collinear point pairs")
    return len(span_pair(s, x, y)) == params.t + 1


def _spans_about(s: IncidenceStructure, x: int) -> list[frozenset[int]] | None:
    """The spans {x,y}^perp-perp, y off x^perp, each once; None if x is not regular.

    Every trace of a non-collinear pair has t + 1 points (Payne & Thas, 1.3).
    A point y' != x of the span of {x, y} is off x^perp and collinear with
    all of {x,y}^perp, so {x,y'}^perp contains that trace, equals it, and
    gives the same span.  The spans through x thus split the points off
    x^perp into classes, and the span of the lowest point of each class
    decides every pair {x, y} in it.
    """
    t = verify_gq(s).t
    _points(s, (x,))
    left = ((1 << s.point_count) - 1) & ~(s.neighbor_masks[x] | (1 << x))
    spans = []
    while left:
        y = (left & -left).bit_length() - 1
        span = span_pair(s, x, y)
        if x not in span:
            raise RuntimeError(f"span of ({x}, {y}) does not hold {x}")
        if len(span) != t + 1:
            return None
        spans.append(span)
        for p in span:
            left &= ~(1 << p)
    return spans


def is_regular_point(s: IncidenceStructure, x: int) -> bool:
    """Whether every pair {x, y} with y non-collinear to x is regular."""
    return _spans_about(s, x) is not None


def payne_derivation(s: IncidenceStructure, x: int) -> IncidenceStructure:
    """Derived quadrangle about a regular point of a GQ of order (q, q), q > 1.

    Points: the points not collinear with x.  Lines: the lines missing x, each
    restricted to the new point set, together with the spans through x, each
    with x removed.  A restricted line holds collinear points and a span
    non-collinear ones, so no line comes twice.  Order (q - 1, q + 1).
    """
    params = verify_gq(s)
    _points(s, (x,))
    if params.s != params.t or params.s < 2:
        raise ValueError(f"derivation needs order (q, q), q > 1, got {tuple(params)}")
    spans = _spans_about(s, x)
    if spans is None:
        raise ValueError(f"point {x} is not regular")

    reach = s.neighbor_masks[x] | (1 << x)
    keep = [p for p in range(s.point_count) if not (reach >> p) & 1]
    new_index = {p: i for i, p in enumerate(keep)}

    lines = [tuple(sorted(new_index[p] for p in span if p != x)) for span in spans]
    for line in s.lines:
        if x in line:
            continue
        restricted = tuple(sorted(new_index[p] for p in line if not (reach >> p) & 1))
        if len(restricted) != len(line) - 1:
            raise RuntimeError(f"line {line} meets perp({x}) in other than one point")
        lines.append(restricted)
    return IncidenceStructure(len(keep), sorted(lines))
