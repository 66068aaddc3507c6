import hashlib
import itertools
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from gqdesigns import geometry
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
from gqdesigns.structures import GQParams, dual, verify_gq

from conftest import child_env


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


def test_payne_rejects_non_regular_point():
    s = parabolic_gq(3)
    with pytest.raises(ValueError):
        payne_derivation(s, 0)


def test_payne_and_regularity_reject_points_out_of_range():
    s = symplectic_gq(3)
    for x in (s.point_count, -1):
        for fn in (payne_derivation, is_regular_point, perp):
            with pytest.raises(ValueError, match=f"point {x} out of range"):
                fn(s, x)


def test_payne_rejects_unequal_orders(gq42):
    with pytest.raises(ValueError):
        payne_derivation(gq42, 0)


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
