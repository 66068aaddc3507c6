"""Difference-family designs on the additive group of GF(p^a).

The family fixes a primitive element x and takes the m = (q-1)/(lam-1) base
blocks {0, x^i, x^(i+m), ..., x^(i+(lam-2)m)} for i < m; the design consists
of all q translates of every base block, giving a BIBD with v = q, k = lam,
and every pair covered lam times.  Repeated blocks are kept as separate
instances.
"""

from __future__ import annotations

from operator import xor
from typing import NamedTuple

from .field import Field, field_of_order, make_field
from .structures import Design, LocalResolutionSystem, _is_int


class DifferenceFamily(NamedTuple):
    field: Field
    base_blocks: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.base_blocks)


def sprott_family(p: int, a: int, lam: int) -> DifferenceFamily:
    """The base blocks only; see sprott_design for the developed design."""
    f = make_field(p, a)
    q = f.q
    if not _is_int(lam) or lam < 2:
        raise ValueError(f"block size must be an int >= 2, got {lam!r}")
    if lam >= q:
        raise ValueError(f"block size {lam} must be smaller than the field order {q}")
    if (q - 1) % (lam - 1):
        raise ValueError(f"{lam - 1} does not divide {q - 1}; no such family")
    m = (q - 1) // (lam - 1)
    blocks = []
    for i in range(m):
        blk = [0] + [f.exp[(i + j * m) % (q - 1)] for j in range(lam - 1)]
        if len(set(blk)) != lam:
            raise ValueError(f"base block {i} has coincident entries")  # never for lam < q
        blocks.append(tuple(sorted(blk)))
    return DifferenceFamily(f, tuple(blocks))


def sprott_design(p: int, a: int, lam: int) -> tuple[DifferenceFamily, Design]:
    """Develop the family through all translates.

    Block instances are ordered by (content, base-block index, shift), which
    pins down instance indices and groups repeated contents together.
    """
    fam = sprott_family(p, a, lam)
    f = fam.field
    # every element is in range, so no add needs Field.add's checks;
    # GF(2^a) adds by xor
    plus = xor if p == 2 else f._add
    translates = []
    for i, base in enumerate(fam.base_blocks):
        for g in f.elements():
            translates.append((tuple(sorted([plus(e, g) for e in base])), i, g))
    translates.sort()
    return fam, Design(f.q, [t[0] for t in translates])


def affine_plane(q: int) -> Design:
    """Lines of AG(2,q): point (x,y) is index x*q + y.

    Slope lines y = m*x + c come first (m ascending, then c), verticals last.
    """
    f = field_of_order(q)
    blocks = []
    for m in f.elements():
        for c in f.elements():
            blocks.append(tuple(sorted(x * q + f.add(f.mul(m, x), c) for x in f.elements())))
    for c in f.elements():
        blocks.append(tuple(c * q + y for y in f.elements()))
    return Design(q * q, blocks)


def replicate(d: Design, n: int) -> Design:
    """n consecutive instances of every block, in block order."""
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"replication count must be an int >= 1, got {n!r}")
    return Design(d.point_count, [b for b in d.blocks for _ in range(n)])


def sprott_lrs(q: int) -> tuple[Design, LocalResolutionSystem]:
    """Explicit non-triangular local resolution system for the family with
    v = q^2 and block size q + 2, where q is a power of 2, q >= 4.

    About the zero point the classes are: the m base blocks themselves, and for
    each j in 0..q one class of the q - 1 multiples x^(j + (q+1)i) of the fixed
    block (0, 1, x^(q-1) + 1, ..., x^(q(q-1)) + 1).  Classes about any other
    point v are the translates by v of the classes about 0.

    Each of the m * q^2 instances is recorded once as its base block i and
    shift g, and so is each block of a class about 0; the translate by v of
    (i, g) is the instance of (i, g + v), read from that record, so no
    translated class is sorted or hashed.
    """
    if not _is_int(q) or q < 4 or q & (q - 1):
        raise ValueError(f"need a power of 2 with q >= 4, got {q!r}")
    fam, design = sprott_design(2, 2 * (q.bit_length() - 1), q + 2)
    f = fam.field
    qq = f.q  # q^2 points

    special = tuple(sorted([0, 1] + [f.add(f.exp[(j * (q - 1)) % (qq - 1)], 1)
                                     for j in range(1, q + 1)]))
    zero_classes: list[list[tuple[int, ...]]] = [list(fam.base_blocks)]
    for j in range(q + 1):
        cls = []
        for i in range(q - 1):
            scale = f.exp[(j + (q + 1) * i) % (qq - 1)]
            cls.append(tuple(sorted(f.mul(scale, e) for e in special)))
        zero_classes.append(cls)

    # no block of this family repeats, so each content names one instance
    index = {blk: j for j, blk in enumerate(design.blocks)}
    if len(index) != len(design.blocks):
        raise RuntimeError("the developed design repeats a block")

    # instance[i][g] is base block i shifted by g, origin[j] = (i, g) of
    # instance j; GF(2^a) adds by xor
    instance = []
    origin = [None] * len(design.blocks)
    for i, base in enumerate(fam.base_blocks):
        row = [index[tuple(sorted([e ^ g for e in base]))] for g in range(qq)]
        for g, j in enumerate(row):
            origin[j] = (i, g)
        instance.append(row)
    zero_origins = [[origin[index[content]] for content in cls] for cls in zero_classes]

    classes_by_point = [[[instance[i][g ^ v] for i, g in cls] for cls in zero_origins]
                        for v in range(qq)]
    return design, LocalResolutionSystem(classes_by_point)
