import random
import statistics

import pytest

from covtrans import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    ElementaryAbelianGroup,
    GroupSubset,
    SymmetricGroup,
    random_subset,
    translate_into,
)
from covtrans.subsets import _translate_bits


def test_roundtrip_and_size():
    g = CyclicGroup(10)
    s = GroupSubset.from_indices(g, [7, 1, 4, 1])
    assert s.indices() == [1, 4, 7]
    assert s.size == 3
    assert 4 in s and 5 not in s and -1 not in s
    assert list(s) == [1, 4, 7]


def test_out_of_range_rejected():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        GroupSubset.from_indices(g, [4])
    with pytest.raises(ValueError):
        GroupSubset(g, 1 << 4)


def test_set_algebra():
    g = CyclicGroup(8)
    a = GroupSubset.from_indices(g, [0, 1, 2])
    b = GroupSubset.from_indices(g, [2, 3])
    assert (a & b).indices() == [2]
    assert (a | b).indices() == [0, 1, 2, 3]
    assert a.complement().indices() == [3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        a & GroupSubset.from_indices(CyclicGroup(9), [1])


def test_rotation_path_matches_generic_translation():
    # C1 x Cn multiplies exactly like Cn but takes the oracle (non-rotation) path
    n = 24
    cyc = CyclicGroup(n)
    twin = DirectProductGroup(CyclicGroup(1), CyclicGroup(n))
    assert not twin.additive_rotation and cyc.additive_rotation
    rng = random.Random(3)
    members = rng.sample(range(n), 9)
    fast = GroupSubset.from_indices(cyc, members)
    slow = GroupSubset.from_indices(twin, members)
    for g in range(n):
        assert fast.right_translate(g).indices() == slow.right_translate(g).indices()
        assert fast.left_translate(g).indices() == slow.left_translate(g).indices()


@pytest.mark.parametrize(
    "group", [CyclicGroup(30), DihedralGroup(6), SymmetricGroup(4)], ids=lambda g: g.name
)
def test_translation_preserves_cardinality(group):
    rng = random.Random(7)
    s = random_subset(group, 0.4, rng)
    for g in [0, 1, group.order - 1, rng.randrange(group.order)]:
        assert s.right_translate(g).size == s.size
        assert s.left_translate(g).size == s.size
    assert s.inverse_set().size == s.size


def test_translate_definitions():
    d = DihedralGroup(4)
    s = GroupSubset.from_indices(d, [1, 5])
    g = 6
    assert s.right_translate(g).indices() == sorted({d.mul(x, g) for x in [1, 5]})
    assert s.left_translate(g).indices() == sorted({d.mul(g, x) for x in [1, 5]})


@pytest.mark.parametrize(
    "group",
    [
        SymmetricGroup(4),
        DihedralGroup(6),
        ElementaryAbelianGroup(2, 4),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(6)),
        CyclicGroup(12),
    ],
    ids=lambda g: g.name,
)
def test_translate_bits_matches_naive_translates(group):
    rng = random.Random(5)
    s = random_subset(group, 0.4, rng)
    members = s.indices()
    # one subset translated by every element, as the verifiers do
    for g in range(group.order):
        left = GroupSubset(group, _translate_bits(group, s, g, left=True))
        right = GroupSubset(group, _translate_bits(group, s, g, left=False))
        assert left.indices() == sorted({group.mul(g, x) for x in members})
        assert right.indices() == sorted({group.mul(x, g) for x in members})
    with pytest.raises(ValueError):
        _translate_bits(group, s, group.order, left=False)
    with pytest.raises(ValueError):
        _translate_bits(group, s, -1, left=True)


def test_random_subset_extremes_and_determinism():
    g = CyclicGroup(100)
    assert random_subset(g, 0.0, random.Random(1)).size == 0
    assert random_subset(g, 1.0, random.Random(1)).size == 100
    a = random_subset(g, 0.3, random.Random(42))
    b = random_subset(g, 0.3, random.Random(42))
    assert a.bits == b.bits
    c = random_subset(g, 0.3, random.Random(43))
    assert a.bits != c.bits
    with pytest.raises(ValueError):
        random_subset(g, 1.5, random.Random(1))


def test_random_subset_binomial_statistics():
    # mean over 100 seeds stays within 3 sd of np = 3000 (sd ~ 45.83)
    g = CyclicGroup(10_000)
    sizes = [random_subset(g, 0.3, random.Random(seed)).size for seed in range(100)]
    sd = (10_000 * 0.3 * 0.7) ** 0.5
    assert abs(statistics.fmean(sizes) - 3000.0) < 3 * sd


def test_translate_into_singletons():
    g = DihedralGroup(5)
    for x in range(g.order):
        for y in range(g.order):
            found = translate_into(g, [y], GroupSubset.from_indices(g, [x]))
            assert found == g.mul(x, g.inv(y))


def test_translate_into_whole_group_and_obstructions():
    g = CyclicGroup(6)
    full = GroupSubset.full(g)
    assert translate_into(g, list(range(6)), full) == 0
    assert translate_into(g, [], GroupSubset.empty(g)) == 0
    big = GroupSubset.from_indices(g, [0, 1, 2])
    small = GroupSubset.from_indices(g, [4])
    assert translate_into(g, big.indices(), small) is None
    # smallest valid translator is reported
    x = GroupSubset.from_indices(g, [2, 3, 5])
    y = [0, 1]
    found = translate_into(g, y, x)
    candidates = [h for h in range(6) if all(g.mul(h, yi) in x for yi in y)]
    assert found == min(candidates)
