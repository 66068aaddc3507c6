import random

import pytest

from gqdesigns.field import Field, factor_prime_power, field_tables, is_prime, \
    make_field


# ---------------------------------------------------------
# Construction
# ---------------------------------------------------------

def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # oracle: of the four monic quadratics over GF(2), only t^2+t+1 has no root
    candidates = [(c0, c1, 1) for c0 in (0, 1) for c1 in (0, 1)]
    irreducible = [m for m in candidates
                   if all(m[0] ^ (m[1] & r) ^ r for r in (0, 1))]
    assert irreducible == [(1, 1, 1)]
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    assert f.q == 4


def test_gf3_primitive_element_is_two():
    # hand oracle: 1 has order 1 mod 3, 2 has order 2
    assert pow(1, 1, 3) == 1
    assert pow(2, 1, 3) == 2 and pow(2, 2, 3) == 1
    f = make_field(3, 1)
    assert f.generator == 2


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 17)  # 2^17 over the order bound


def test_is_prime_and_factoring():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]
    assert factor_prime_power(16) == (2, 4)
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None


def test_exp_log_are_inverse_bijections():
    for p, a in [(2, 4), (3, 2), (5, 1), (7, 2)]:
        f = make_field(p, a)
        assert len(set(f.exp)) == f.q - 1
        assert f.exp[0] == 1
        for i, u in enumerate(f.exp):
            assert f.log[u] == i


# ---------------------------------------------------------
# Arithmetic examples
# ---------------------------------------------------------

def test_addition_examples():
    f4 = make_field(2, 2)
    for u in range(4):
        assert f4.add(u, u) == 0
    # encodings as base-2 coefficient vectors: (10)+(11)=(01)
    assert f4.add(2, 3) == 1
    f3 = make_field(3, 1)
    assert f3.add(1, 2) == 0


def test_multiplication_examples():
    f4 = make_field(2, 2)
    for u in range(4):
        assert f4.mul(u, 1) == u
        assert f4.mul(u, 0) == 0
    # t * t = t + 1 modulo t^2+t+1
    assert f4.mul(2, 2) == 3


def test_power_examples():
    f16 = make_field(2, 4)
    x = f16.generator
    assert f16.pow(x, 15) == 1
    for u in range(1, 16):
        assert f16.pow(u, 0) == 1
    assert len({f16.pow(x, i) for i in range(15)}) == 15


def test_zero_division_errors():
    f = make_field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    with pytest.raises(ValueError):
        f.add(0, 9)  # out of range


# ---------------------------------------------------------
# Ring and field laws
# ---------------------------------------------------------

def _random_triples(f: Field, n=200, seed=2024):
    rng = random.Random(seed)
    return [(rng.randrange(f.q), rng.randrange(f.q), rng.randrange(f.q))
            for _ in range(n)]


@pytest.mark.parametrize("p,a", [(2, 5), (3, 3), (5, 2), (13, 1)])
def test_ring_laws_on_random_triples(p, a):
    f = make_field(p, a)
    for u, v, w in _random_triples(f):
        assert f.add(u, v) == f.add(v, u)
        assert f.mul(u, v) == f.mul(v, u)
        assert f.add(f.add(u, v), w) == f.add(u, f.add(v, w))
        assert f.mul(f.mul(u, v), w) == f.mul(u, f.mul(v, w))
        assert f.mul(u, f.add(v, w)) == f.add(f.mul(u, v), f.mul(u, w))


def test_log_is_a_homomorphism():
    for p, a in [(2, 4), (3, 2), (7, 1)]:
        f = make_field(p, a)
        for u in range(1, f.q):
            for v in range(1, f.q):
                expect = (f.log[u] + f.log[v]) % (f.q - 1)
                assert f.log[f.mul(u, v)] == expect


def test_frobenius_is_additive_exhaustively():
    # every field of order at most 256
    orders = [q for q in range(2, 257) if factor_prime_power(q)]
    assert 2 in orders and 256 in orders and 12 not in orders
    for q in orders:
        p, a = factor_prime_power(q)
        f = make_field(p, a)
        for u in range(q):
            for v in range(q):
                left = f.pow(f.add(u, v), p)
                assert left == f.add(f.pow(u, p), f.pow(v, p))


def test_inverses_round_trip():
    for p, a in [(2, 4), (3, 2), (11, 1)]:
        f = make_field(p, a)
        for u in range(1, f.q):
            assert f.mul(u, f.inv(u)) == 1
            assert f.div(u, u) == 1


@pytest.mark.parametrize("p,a", [(2, 3), (3, 2), (7, 1)])
def test_tables_agree_with_checked_operations(p, a):
    f = make_field(p, a)
    tables = field_tables(f)
    assert field_tables(make_field(p, a)) is tables  # built once per field
    add, mul, neg, inv = tables
    for u in f.elements():
        assert neg[u] == f.neg(u)
        if u:
            assert inv[u] == f.inv(u)
        for v in f.elements():
            assert add[u][v] == f.add(u, v)
            assert mul[u][v] == f.mul(u, v)
