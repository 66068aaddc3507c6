"""Finite field arithmetic GF(p^a) backed by discrete exp/log tables.

Elements are integers 0..q-1, read as coefficient vectors base p: the integer
sum(c_i * p^i) stands for the polynomial sum(c_i * t^i) in GF(p)[t] reduced
modulo a fixed primitive polynomial.  With that convention the element `p`
itself is the class of t, and because the modulus is chosen primitive, t
generates the multiplicative group, so one exp table covers all of it.
"""

from __future__ import annotations

from functools import lru_cache

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, a) with q == p**a and p prime, or None."""
    if q < 2:
        return None
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p:
            continue
        a = 0
        rest = q
        while rest % p == 0:
            rest //= p
            a += 1
        return (p, a) if rest == 1 else None
    return (q, 1)  # q has no factor <= sqrt(q), so it is prime


class Field:
    """GF(p**a) with integer-encoded elements and table-based arithmetic.

    Do not construct directly; use make_field, which picks the canonical
    modulus and populates the tables.
    """

    __slots__ = ("p", "a", "q", "modulus", "exp", "log")

    def __init__(self, p: int, a: int, modulus: tuple[int, ...],
                 exp: tuple[int, ...], log: tuple[int, ...]):
        self.p = p
        self.a = a
        self.q = p ** a
        self.modulus = modulus
        self.exp = exp
        self.log = log

    def __repr__(self):
        return f"Field(p={self.p}, a={self.a})"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.a) == (other.p, other.a)

    def __hash__(self):
        return hash((Field, self.p, self.a))

    def elements(self) -> range:
        return range(self.q)

    @property
    def generator(self) -> int:
        """The fixed primitive element (class of t, or -c0 when a == 1)."""
        return self.exp[1]

    def _check(self, u: int) -> None:
        if not 0 <= u < self.q:
            raise ValueError(f"element {u} out of range for GF({self.q})")

    def add(self, u: int, v: int) -> int:
        self._check(u)
        self._check(v)
        p = self.p
        if p == 2:
            return u ^ v
        w = 0
        shift = 1
        while u or v:
            w += ((u + v) % p) * shift
            u //= p
            v //= p
            shift *= p
        return w

    def neg(self, u: int) -> int:
        self._check(u)
        p = self.p
        if p == 2:
            return u
        w = 0
        shift = 1
        while u:
            w += (-u % p) * shift
            u //= p
            shift *= p
        return w

    def sub(self, u: int, v: int) -> int:
        return self.add(u, self.neg(v))

    def mul(self, u: int, v: int) -> int:
        self._check(u)
        self._check(v)
        if u == 0 or v == 0:
            return 0
        return self.exp[(self.log[u] + self.log[v]) % (self.q - 1)]

    def inv(self, u: int) -> int:
        self._check(u)
        if u == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.exp[-self.log[u] % (self.q - 1)]

    def div(self, u: int, v: int) -> int:
        return self.mul(u, self.inv(v))

    def pow(self, u: int, n: int) -> int:
        self._check(u)
        if u == 0:
            if n < 0:
                raise ZeroDivisionError("0 cannot be raised to a negative power")
            return 1 if n == 0 else 0
        return self.exp[(self.log[u] * n) % (self.q - 1)]


def _try_modulus(p: int, a: int, low: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Build exp/log tables for modulus t^a + low, or None if t is not primitive.

    t^(e+1) is t^e with every coefficient moved up one place; the one, c,
    moved past t^(a-1) stands for c * t^a, which is -c * low modulo
    t^a + low.  For a == 1 the step multiplies by -low[0], so GF(p) takes
    the same loop.
    """
    q = p ** a
    exp = [1] * (q - 1)
    log = [0] * q
    cur = [1] + [0] * (a - 1)  # coefficients of t^e, constant term first
    for e in range(1, q):
        top = cur[-1]
        cur = [(c - top * m) % p for c, m in zip([0] + cur[:-1], low)]
        w = 0
        for c in reversed(cur):
            w = w * p + c
        if e == q - 1:
            return (tuple(exp), tuple(log)) if w == 1 else None
        if w <= 1 or log[w]:
            return None  # order of t divides e < q-1, or modulus not coprime
        exp[e] = w
        log[w] = e


@lru_cache(maxsize=None)
def make_field(p: int, a: int) -> Field:
    """Construct GF(p**a) over the canonical primitive modulus.

    The modulus is the monic degree-a polynomial, primitive over GF(p), whose
    low-order coefficient vector has the smallest base-p integer encoding.
    Primitivity is certified directly while filling the exp table: the q-1
    powers of t must be pairwise distinct and return to 1.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if a < 1:
        raise ValueError(f"extension degree must be >= 1, got {a}")
    q = p ** a
    if q > MAX_ORDER:
        raise ValueError(f"field order {q} exceeds supported bound {MAX_ORDER}")
    for m in range(q):
        low = []
        rest = m
        for _ in range(a):
            low.append(rest % p)
            rest //= p
        tables = _try_modulus(p, a, tuple(low))
        if tables is not None:
            exp, log = tables
            return Field(p, a, tuple(low) + (1,), exp, log)
    raise RuntimeError(f"no primitive polynomial of degree {a} over GF({p})")  # unreachable


@lru_cache(maxsize=None)
def field_tables(f: Field) -> tuple:
    """Whole-field operation tables (add, mul, neg, inv), built once per field.

    add[u][v] and mul[u][v] are f.add(u, v) and f.mul(u, v), neg[u] is
    f.neg(u) and inv[u] is f.inv(u); inv[0] is 0, a placeholder, as 0 has no
    inverse.  The tables hold about 2*q*q entries, so they suit the small
    fields of the geometric constructions, where one field serves many
    thousands of operations.
    """
    r = f.elements()
    return (tuple(tuple(f.add(u, v) for v in r) for u in r),
            tuple(tuple(f.mul(u, v) for v in r) for u in r),
            tuple(f.neg(u) for u in r),
            (0,) + tuple(f.inv(u) for u in r[1:]))


def field_of_order(q: int) -> Field:
    """GF(q); raises ValueError when q is not a prime power."""
    pa = factor_prime_power(q)
    if pa is None:
        raise ValueError(f"order {q} is not a prime power")
    return make_field(*pa)
