import hashlib
import itertools
from unittest import mock

import pytest

from gqdesigns import sprott
from gqdesigns.fileformats import write_design, write_lrs
from gqdesigns.field import make_field
from gqdesigns.sprott import (
    affine_plane,
    replicate,
    sprott_design,
    sprott_family,
    sprott_lrs,
)
from gqdesigns.structures import (
    Design,
    DesignParams,
    verify_bibd,
    verify_lrs,
    verify_non_triangular,
)


# ---------------------------------------------------------
# Difference families
# ---------------------------------------------------------

def test_base_block_count():
    fam = sprott_family(2, 4, 6)
    assert fam.m == 3
    assert len(fam.base_blocks) == 3
    assert all(len(b) == 6 for b in fam.base_blocks)


def test_family_differences_cover_each_nonzero_lambda_times():
    # the defining property, checked by raw counting
    for (p, a, lam) in [(2, 4, 6), (3, 2, 3), (2, 4, 4), (5, 1, 3)]:
        f = make_field(p, a)
        fam = sprott_family(p, a, lam)
        counts = {u: 0 for u in range(1, f.q)}
        for blk in fam.base_blocks:
            for u, v in itertools.permutations(blk, 2):
                counts[f.sub(u, v)] += 1
        assert set(counts.values()) == {lam}


def test_family_precondition_errors():
    with pytest.raises(ValueError):
        sprott_family(2, 4, 7)  # 6 does not divide 15
    with pytest.raises(ValueError):
        sprott_family(2, 2, 1)  # lambda too small
    with pytest.raises(ValueError):
        sprott_family(2, 2, 4)  # lambda = q


def test_development_parameters():
    _, d = sprott_design(2, 4, 6)
    assert verify_bibd(d) == DesignParams(16, 48, 18, 6, 6)
    _, d = sprott_design(3, 2, 3)
    assert verify_bibd(d) == DesignParams(9, 36, 12, 3, 3)


def test_development_is_translate_closed():
    # every block plus a field element is again a block
    f = make_field(2, 4)
    _, d = sprott_design(2, 4, 6)
    blocks = {tuple(sorted(b)) for b in d.blocks}
    for blk in list(blocks)[:8]:
        for g in range(f.q):
            shifted = tuple(sorted(f.add(u, g) for u in blk))
            assert shifted in blocks


def test_instance_order_is_sorted_and_deterministic():
    _, d1 = sprott_design(2, 4, 6)
    _, d2 = sprott_design(2, 4, 6)
    assert d1.blocks == d2.blocks
    assert list(d1.blocks) == sorted(d1.blocks)


# ---------------------------------------------------------
# Affine planes and replication
# ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_affine_plane_parameters(q):
    d = affine_plane(q)
    params = verify_bibd(d, allow_degenerate=True)
    assert params == DesignParams(q * q, q * q + q, q + 1, q, 1)


def test_parallel_lines_partition_the_plane():
    d = affine_plane(3)
    # lines of equal slope are disjoint and cover all 9 points
    for start in range(0, 12, 3):
        trio = d.blocks[start:start + 3]
        assert sorted(p for blk in trio for p in blk) == list(range(9))


def test_replicate_multiplies_counts():
    d = replicate(affine_plane(3), 3)
    assert verify_bibd(d) == DesignParams(9, 36, 12, 3, 3)
    with pytest.raises(ValueError):
        replicate(affine_plane(3), 0)


@pytest.mark.parametrize("count", [True, 2.0, -1])
def test_replication_count_must_be_an_int(count):
    # True was taken for one copy
    with pytest.raises(ValueError, match="replication count must be an int >= 1"):
        replicate(affine_plane(3), count)


def test_replicated_blocks_are_adjacent_copies():
    base = affine_plane(3)
    d = replicate(base, 3)
    for j, blk in enumerate(base.blocks):
        for i in range(3):
            assert d.blocks[3 * j + i] == blk


# ---------------------------------------------------------
# The explicit resolution system
# ---------------------------------------------------------

def test_explicit_system_verifies(sprott4):
    d, system = sprott4
    assert verify_bibd(d) == DesignParams(16, 48, 18, 6, 6)
    verify_lrs(d, system)
    assert verify_non_triangular(d, system) is None


def test_explicit_system_class_shape(sprott4):
    d, system = sprott4
    for p in range(d.point_count):
        classes = system.classes[p]
        assert len(classes) == 6          # r / class size
        assert all(len(c) == 3 for c in classes)


def test_explicit_system_only_for_even_prime_powers():
    with pytest.raises(ValueError):
        sprott_lrs(3)
    with pytest.raises(ValueError):
        sprott_lrs(2)
    with pytest.raises(ValueError):
        sprott_lrs(12)


def test_explicit_system_at_q8_verifies():
    d, system = sprott_lrs(8)
    assert verify_bibd(d) == DesignParams(64, 448, 70, 10, 10)
    verify_lrs(d, system)
    assert verify_non_triangular(d, system) is None


# sha256 of write_design + write_lrs of sprott_lrs(q): instance and class
# numbering are part of the contract
FROZEN_SYSTEMS = {
    4: "58cc3e811e1ff7732a8fd8e5cbb0fb76eda32de56313b01211a9e4dc0fb82ecb",
    8: "d7173c39a51d3adc8ac32ba4a2850845dc5041f4379e8f82b8f412f03b6fc850",
    16: "b80e6276039960cd4ec675ffdc309dbf89e01fad5d6c62802751a2db53633aba",
}


@pytest.mark.parametrize("q", list(FROZEN_SYSTEMS))
def test_frozen_explicit_systems(q):
    d, system = sprott_lrs(q)
    text = write_design(d) + write_lrs(system)
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_SYSTEMS[q]


@pytest.mark.parametrize("a", [2, 3, 4])
def test_explicit_system_designs_repeat_no_block(a):
    _, d = sprott_design(2, 2 * a, 2 ** a + 2)
    assert len(set(d.blocks)) == len(d.blocks)


def test_explicit_system_rejects_a_repeated_block():
    real = sprott._develop

    def doubled(fam):
        d, origin = real(fam)
        return Design(d.point_count, d.blocks[:1] + d.blocks[:1] + d.blocks[2:]), origin

    with mock.patch.object(sprott, "_develop", doubled):
        with pytest.raises(RuntimeError):
            sprott_lrs(4)
