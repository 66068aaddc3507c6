import hashlib
import itertools
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from gqdesigns import geometry
from gqdesigns.field import field_of_order, make_field
from gqdesigns.fileformats import write_incidence
from gqdesigns.geometry import (
    hermitian_gq,
    is_regular_pair,
    is_regular_point,
    parabolic_gq,
    payne_derivation,
    perp,
    span_pair,
    symplectic_gq,
    trace_pair,
)
from gqdesigns.structures import GQParams, IncidenceStructure, dual, verify_gq

from conftest import _gq42, child_env


# ---------------------------------------------------------
# Classical families
# ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_symplectic_parameters(q):
    s = symplectic_gq(q)
    assert verify_gq(s) == GQParams(q, q)
    assert s.point_count == (1 + q) * (1 + q * q)
    assert len(s.lines) == (1 + q) * (1 + q * q)


@pytest.mark.parametrize("q", [2, 3])
def test_parabolic_parameters(q):
    s = parabolic_gq(q)
    assert verify_gq(s) == GQParams(q, q)


def test_hermitian_parameters():
    s = hermitian_gq(2)
    assert verify_gq(s) == GQParams(4, 2)
    assert s.point_count == 45
    assert len(s.lines) == 27


# sha256 of write_incidence for each construction: point order and line
# order are part of the contract, files written earlier rely on them
FROZEN_LABELINGS = [
    (symplectic_gq, 2, "6f03b46baf3edcede60a5b386ec296bc70c7056fbe7e6c63a67f864d15cd515b"),
    (symplectic_gq, 3, "c15c2c923732a9b00f48a43a01cfce6f05d270e7c21b848df03bf19eb518359c"),
    (symplectic_gq, 4, "a113558ca97a958d54108eeea529eb4cade6523c978e2adba06b2fdbc66b1c19"),
    (symplectic_gq, 5, "d20115aeba8e89cc507040cad99ca09ea096f6454e741a7019f751837c8f774d"),
    (symplectic_gq, 7, "434cbc7fcd7b27cb161a6469786c220b14a34ec5a35c23cd89859b1bf4c1875c"),
    (symplectic_gq, 8, "582125d53e8f701ac38dafdb712a95fc5b6ad83f40ddc656891f7ff76ad07f3e"),
    (symplectic_gq, 9, "7e97c4a918bcfde294b006d3a6cb04ba6423b99fdb812e46497c3b8ab044a239"),
    (parabolic_gq, 2, "45ee30c8799d078e6f0eccb64e7d9859ff3e1beb6239f54984bbe832c0ab610d"),
    (parabolic_gq, 3, "1e1d2b22cb5afb0315f0c0043092ae577d90b4f344d21d9295af140b7d75da5f"),
    (parabolic_gq, 4, "6e681cec3317e2d3a5da7c27caaaa5cff644a6c065883eebeaa5eb93a8123c02"),
    (parabolic_gq, 5, "d324453094413465800c324d0b486c106f9267d1ca37d95ab6e4af82b7ca5e2c"),
    (parabolic_gq, 7, "ada207ccbbd2d4cbcfb051ac1cba7102901fdc815497fdabef8eb7b1262d9d18"),
    (parabolic_gq, 8, "cb356c91de8b259a90ca17bda41365c34ccdad3978652518382510c51c9b2af7"),
    (parabolic_gq, 9, "29fa49c11fe52e9ed575cf67d9b97cc9bffa810306f1caf0c4512cb43515d798"),
    (hermitian_gq, 2, "015c150132e7d6b5806460594466c063c923436afba42a0a8b90b01779cc05ed"),
    (hermitian_gq, 3, "d18843f5647e888de1714464126d8cafd0aea8593f1c225341d44c18b14d1022"),
]


@pytest.mark.parametrize("maker,q,digest", FROZEN_LABELINGS,
                         ids=[f"{m.__name__}({q})" for m, q, _ in FROZEN_LABELINGS])
def test_frozen_labelings(maker, q, digest):
    text = write_incidence(maker(q))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _oracle_gq(f, ncoords, on_variety, form):
    """Points and lines of a polar space by the definition, without `_polar_gq`.

    The points are the normalized vectors on the variety, in lexicographic
    order; a line is the span of a pair x, y with form(x, y) = 0 whose q + 1
    points all lie on the variety.
    """
    def normalized(v):
        scale = f.inv(next(c for c in v if c))
        return tuple(f.mul(scale, c) for c in v)

    pts = sorted(v for v in itertools.product(f.elements(), repeat=ncoords)
                 if any(v) and normalized(v) == v and on_variety(v))
    index = {p: i for i, p in enumerate(pts)}
    lines = set()
    for x, y in itertools.combinations(pts, 2):
        if form(x, y):
            continue
        span = {y} | {normalized([f.add(a, f.mul(lam, b)) for a, b in zip(x, y)])
                      for lam in f.elements()}
        if all(on_variety(p) for p in span):
            lines.add(tuple(sorted(index[p] for p in span)))
    return len(pts), sorted(lines)


def _symplectic_oracle(q):
    f = field_of_order(q)
    return _oracle_gq(f, 4, lambda x: True, lambda x, y: f.add(
        f.sub(f.mul(x[0], y[1]), f.mul(x[1], y[0])),
        f.sub(f.mul(x[2], y[3]), f.mul(x[3], y[2]))))


def _parabolic_oracle(q):
    f = field_of_order(q)

    def quad(x):  # x0^2 - x1*x2 - x3*x4
        return f.sub(f.mul(x[0], x[0]), f.add(f.mul(x[1], x[2]), f.mul(x[3], x[4])))

    def form(x, y):  # Q(x + y) - Q(x) - Q(y)
        return f.sub(quad([f.add(a, b) for a, b in zip(x, y)]), f.add(quad(x), quad(y)))

    return _oracle_gq(f, 5, lambda x: quad(x) == 0, form)


def _hermitian_oracle(q):
    base = field_of_order(q)
    f = make_field(base.p, 2 * base.a)

    def total(terms):
        acc = 0
        for t in terms:
            acc = f.add(acc, t)
        return acc

    return _oracle_gq(f, 4, lambda x: total(f.pow(c, q + 1) for c in x) == 0,
                      lambda x, y: total(f.mul(a, f.pow(b, q)) for a, b in zip(x, y)))


@pytest.mark.parametrize("maker,oracle,q", [
    (symplectic_gq, _symplectic_oracle, 2), (symplectic_gq, _symplectic_oracle, 3),
    (symplectic_gq, _symplectic_oracle, 4), (parabolic_gq, _parabolic_oracle, 2),
    (parabolic_gq, _parabolic_oracle, 3), (hermitian_gq, _hermitian_oracle, 2)],
    ids=["W(2)", "W(3)", "W(4)", "Q(4,2)", "Q(4,3)", "H(3,4)"])
def test_polar_builder_matches_the_all_pairs_definition(maker, oracle, q):
    # the builder skips points whose lines are all built; the pair scan walks
    # every pair, so a line the skip lost would show here
    s = maker(q)
    assert (s.point_count, list(s.lines)) == oracle(q)


def test_polar_builder_refuses_points_of_unequal_degree():
    # a constant map is no polarity: B(x, z) = z0 + z1 + z2 + z3 whatever x is,
    # so the points do not all come to lie on as many lines as point 0
    with pytest.raises(RuntimeError, match="lies on"):
        geometry._polar_gq(field_of_order(3), 4, lambda x: True, lambda x: (1, 1, 1, 1))


def test_symplectic_is_self_dual_at_q2(w2):
    # q even: W(q) and its dual carry the same parameters and are isomorphic;
    # here we only need the parameter statement, canon covers isomorphism
    assert verify_gq(dual(w2)) == GQParams(2, 2)


# ---------------------------------------------------------
# Perp, trace, span
# ---------------------------------------------------------

def test_perp_size(w2):
    s, t = verify_gq(w2)
    for x in range(w2.point_count):
        assert len(perp(w2, x)) == 1 + s * (t + 1)
        assert x in perp(w2, x)


def test_trace_of_noncollinear_pair_has_t_plus_one_points(w2):
    s, t = verify_gq(w2)
    nbr = [perp(w2, x) for x in range(w2.point_count)]
    for x, y in itertools.combinations(range(w2.point_count), 2):
        if y in nbr[x]:
            continue
        tr = trace_pair(w2, x, y)
        assert len(tr) == t + 1
        assert tr == nbr[x] & nbr[y]


def test_span_by_double_perp_oracle(w2):
    # oracle: recompute the span as the intersection of all perps of the trace
    pairs = [(x, y) for x in range(4) for y in range(w2.point_count)
             if y not in perp(w2, x)][:6]
    assert pairs
    for x, y in pairs:
        tr = trace_pair(w2, x, y)
        expect = set(range(w2.point_count))
        for z in tr:
            expect &= perp(w2, z)
        assert span_pair(w2, x, y) == expect
        assert {x, y} <= span_pair(w2, x, y)


def test_regularity_rejects_collinear_or_equal_pairs(w2):
    line = w2.lines[0]
    with pytest.raises(ValueError):
        is_regular_pair(w2, line[0], line[1])
    with pytest.raises(ValueError):
        is_regular_pair(w2, line[0], line[0])
    with pytest.raises(ValueError):
        span_pair(w2, 3, 3)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_every_symplectic_point_is_regular(q):
    # the double perp of a noncollinear pair is a full hyperbolic line
    s = symplectic_gq(q)
    for x in (0, s.point_count // 2):
        assert is_regular_point(s, x)


@pytest.mark.parametrize("make", [
    lambda: symplectic_gq(2), lambda: symplectic_gq(3), lambda: parabolic_gq(3),
    lambda: parabolic_gq(4), lambda: hermitian_gq(2), lambda: _gq42()],
    ids=["W(2)", "W(3)", "Q(4,3)", "Q(4,4)", "H(3,4)", "GQ(4,2)"])
def test_regular_point_means_every_pair_is_regular(make):
    s = make()
    for x in range(s.point_count):
        reach = perp(s, x)
        pairs = all(is_regular_pair(s, x, y)
                    for y in range(s.point_count) if y not in reach)
        assert is_regular_point(s, x) == pairs, x


def test_parabolic_odd_points_are_not_regular():
    s = parabolic_gq(3)
    assert not is_regular_point(s, 0)


# ---------------------------------------------------------
# Payne derivation
# ---------------------------------------------------------

@pytest.mark.parametrize("q,pt", [(2, 0), (3, 0), (4, 0), (3, 7)])
def test_payne_parameters(q, pt):
    s = symplectic_gq(q)
    derived = payne_derivation(s, pt)
    assert verify_gq(derived) == GQParams(q - 1, q + 1)
    assert derived.point_count == q * q * q


# sha256 of write_incidence(payne_derivation(s, x)) at points 0, n//2, n-1:
# the point and line order of each derived quadrangle is part of the contract
FROZEN_DERIVATIONS = [
    (symplectic_gq, 2, (
        "2a560094bdfecb9f425ea30315b94402046037ecf146c5aa69b3a0173bb170af",
        "aa8c483ac56c94ef357c5f9bd773db1914cc61eed0323e3d994d864811f73ebf",
        "75bfb8b0473ac24e7653b16bce82ffcc882b394590913fde0c6609945107abe4")),
    (symplectic_gq, 3, (
        "210c046ddbea82559863d4acf905eefbd892318807cce5d92c92ed2c1c4c2e38",
        "e1cbd624873604d1486b907db9e55fdc14a1bc2f1b1cb609022c1a8beb7419b7",
        "5923c4a1d0a204ae3839ba739051fc69dc4c7ee9d2c0158d574f5cd4e28ff613")),
    (symplectic_gq, 4, (
        "e53429ee4f85d76b31bd8c53d7736b47b10ea52004963fb19c54062a1ca0a2f2",
        "f702a7b8a6ec67ad6cd947e38e535e25c54019255d8b0e2e935ebd43081213f3",
        "a2872236485e9245d822bc419002f962747c42b920293a4bb19286b02ed7490b")),
    (symplectic_gq, 5, (
        "4b501b7505cd97f79213971917462ff7b9a502c6dfe80f58c25e760c932f473d",
        "0af18730d4915c669967b2786fdc4297b0041fd5e04693d573508fc9f8c0079f",
        "cb8782ff4f7e42b0aea1a7cf0816c8f972af0a88449ea17d46a55344adace807")),
    (parabolic_gq, 4, (
        "5ab37d692276325b83da23c1ea4c60cdba3dc1cb0edfa98308c7796a08b521b8",
        "9b5c8809d6e857b1c66481e8f4cd29a6328afe9876a4a176e23d2de135ada4e4",
        "14347a578bb48c622b31ad57ba806d2f2cf512a1fa176eae0b6669edf1e52290")),
]


@pytest.mark.parametrize("maker,q,digests", FROZEN_DERIVATIONS,
                         ids=[f"{m.__name__}({q})" for m, q, _ in FROZEN_DERIVATIONS])
def test_frozen_derivations(maker, q, digests):
    s = maker(q)
    n = s.point_count
    for x, digest in zip((0, n // 2, n - 1), digests):
        text = write_incidence(payne_derivation(s, x))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, x


@pytest.mark.parametrize("q", [3, 4])
def test_payne_computes_one_span_per_line_through_the_centre(q):
    # q^3 points lie off x^perp and each span through x holds q of them
    s = symplectic_gq(q)
    with mock.patch.object(geometry, "span_pair", wraps=geometry.span_pair) as spy:
        payne_derivation(s, 0)
    assert spy.call_count == q * q


def test_payne_rejects_non_regular_point():
    s = parabolic_gq(3)
    with pytest.raises(ValueError):
        payne_derivation(s, 0)


def test_payne_and_regularity_reject_points_out_of_range():
    s = symplectic_gq(3)
    for x in (s.point_count, -1):
        for fn in (payne_derivation, is_regular_point, perp):
            with pytest.raises(ValueError, match=f"point {x} outside 0..39"):
                fn(s, x)
        for fn in (trace_pair, span_pair, is_regular_pair):
            with pytest.raises(ValueError, match=f"point {x} outside 0..39"):
                fn(s, x, 0)


def test_points_must_be_ints():
    # True would otherwise stand for point 1, and 1.0 fail inside a bit shift
    s = symplectic_gq(2)
    for x in (True, False, 1.0, "1"):
        for fn in (payne_derivation, is_regular_point, perp):
            with pytest.raises(ValueError, match="is not an int"):
                fn(s, x)
        for fn in (trace_pair, span_pair, is_regular_pair):
            with pytest.raises(ValueError, match="is not an int"):
                fn(s, 3, x)


def test_payne_rejects_unequal_orders(gq42):
    with pytest.raises(ValueError):
        payne_derivation(gq42, 0)


def test_payne_rejects_order_one():
    # the 2x2 grid, a GQ(1,1): its derivation would be no quadrangle
    grid = IncidenceStructure(4, [[0, 1], [2, 3], [0, 2], [1, 3]])
    assert verify_gq(grid) == GQParams(1, 1)
    with pytest.raises(ValueError, match=r"q > 1, got \(1, 1\)"):
        payne_derivation(grid, 0)


def test_payne_points_avoid_the_perp(w2):
    # derived points are exactly the points not collinear with the center
    derived = payne_derivation(w2, 0)
    assert derived.point_count == w2.point_count - len(perp(w2, 0))


def test_dual_payne_w3_is_gq_4_2(gq42):
    assert verify_gq(gq42) == GQParams(4, 2)


def check_payne_invariant_raises():
    """A span that drops the centre breaks payne_derivation's invariant.

    Also run under python -O, where assert statements vanish.
    """
    s = symplectic_gq(2)
    real = geometry.span_pair

    def span_without_x(s_, x, y):
        return real(s_, x, y) - {x}

    # the regularity check reads span_pair too; let it pass, so the broken
    # span reaches the derivation itself
    with mock.patch.object(geometry, "span_pair", span_without_x), \
            mock.patch.object(geometry, "is_regular_point", return_value=True):
        with pytest.raises(RuntimeError):
            payne_derivation(s, 0)


def test_payne_invariant_raises():
    check_payne_invariant_raises()


def test_payne_invariant_raises_under_optimize():
    code = ("import sys, test_geometry\n"
            "if __debug__: sys.exit('assertions are still on')\n"
            "test_geometry.check_payne_invariant_raises()\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          cwd=Path(__file__).parent, env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
