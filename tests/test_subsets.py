import math
import random
import statistics
import sys
from itertools import islice

import pytest
from conftest import (
    full_rotation_translate_into,
    full_subset,
    naive_set_bits,
    reference_random_subset_bits,
    right_translate,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covtrans import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    ElementaryAbelianGroup,
    GroupSubset,
    SymmetricGroup,
    construct_intersecting_family,
    random_subset,
    translate_into,
)
from covtrans.covering import _union
from covtrans.subsets import _TABLE_STEP, ROTATION_WINDOW, _translate_bits
from covtrans.util import iter_set_bits, uniform_draws


def test_roundtrip_and_size():
    g = CyclicGroup(10)
    s = GroupSubset.from_indices(g, [7, 1, 4, 1])
    assert list(s) == [1, 4, 7]
    assert s.size == 3
    assert 4 in s and 5 not in s and -1 not in s
    assert list(s) == [1, 4, 7]


def test_out_of_range_rejected():
    g = CyclicGroup(4)
    with pytest.raises(ValueError):
        GroupSubset.from_indices(g, [4])
    with pytest.raises(ValueError):
        GroupSubset(g, 1 << 4)


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(1), CyclicGroup(20), CyclicGroup(4099), SymmetricGroup(4)],
    ids=["C1", "C20", "C4099", "S4"],
)
def test_membership_reads_the_mask_bit(group):
    # Membership reads one byte of the doubled image, whose upper half repeats
    # the mask: n, n + 1 and 2n - 1 must still read as non-members.
    n = group.order
    rng = random.Random(n)
    spots = {0, n - 1, n, n + 1, 2 * n - 1, -1, -8, 7, 8, 9, 15, 16, 4095, 4096, 4097, 4098}
    full = (1 << n) - 1
    for bits in (0, full, rng.getrandbits(n), full // 3, 1 | 1 << (n - 1)):
        s = GroupSubset(group, bits)
        for i in sorted(spots):
            assert (i in s) == (i >= 0 and (bits >> i) & 1 == 1), (bits, i)


def test_from_indices_matches_or_loop():
    rng = random.Random(8)
    # byte boundaries, 4096 and its neighbours, and C131072, where a list of
    # indices below 64 needs flags only up to its largest index
    for n in (1, 7, 8, 9, 20, 4096, 4097, 5040, 131072):
        g = CyclicGroup(n)
        members = [rng.randrange(n) for _ in range(min(n // 3, 2000) + 1)] + [n - 1, 0]
        low = [rng.randrange(min(n, 64)) for _ in range(40)]  # unsorted, with repeats
        for listed in (members, low, low[::-1], [0], [n - 1]):
            bits = 0
            for i in listed:
                bits |= 1 << i
            assert GroupSubset.from_indices(g, listed).bits == bits
            assert GroupSubset.from_indices(g, iter(listed)).bits == bits
        assert GroupSubset.from_indices(g, []).bits == 0
        for bad in (-1, -n, n, n + 8):
            with pytest.raises(ValueError, match="out of range"):
                GroupSubset.from_indices(g, [0, bad])
    # a refusal names the least index if it is negative, else the largest
    c20 = CyclicGroup(20)
    for listed, bad in (([5, -1, 99], -1), ([99, 5], 99), ([-3, -1], -3), ([20, 19], 20)):
        with pytest.raises(ValueError, match=rf"^index {bad} out of range for C20$"):
            GroupSubset.from_indices(c20, listed)


@pytest.mark.parametrize("width", [0, 1, 64, 255, 256, 257, 4096, 131072])
def test_iter_set_bits_matches_naive_loop(width):
    rng = random.Random(width)
    masks = [0]
    if width:
        top = 1 << (width - 1)
        sparse = sum(1 << i for i in range(0, width, 97))
        masks = [top, (1 << width) - 1, rng.getrandbits(width) | top, 1 | top, sparse | top]
    for x in masks:
        assert x.bit_length() == width
        assert list(iter_set_bits(x)) == naive_set_bits(x)


# n below 2^32 takes one 32-bit word per candidate; the powers of two and
# their neighbours move the shift and the rejection rate to each extreme
one_word_orders = st.one_of(
    st.sampled_from([1, 2, 3, 10007]),
    st.builds(lambda j, d: 2**j + d, st.integers(1, 31), st.sampled_from([-1, 0, 1])),
)


@given(one_word_orders, st.integers(0, 2**64 - 1))
@example(1, 0)
@example(2, 3)
@example(3, 4)
@example(2**31 - 1, 5)  # width 31, the widest that decides in 32-bit lanes
@example(2**31, 1)
@example(2**31 + 1, 2)
@example(2**17, 11)  # the stage-3 kernel of tower:20,1024,131072: half of all words rejected
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_uniform_draws_equal_randrange(n, seed):
    # 20,000 values take 20,000 to 40,000 words: several 4096-word batches
    rng = random.Random(seed)
    want = [rng.randrange(n) for _ in range(20_000)]
    assert list(islice(uniform_draws(seed, n), 20_000)) == want


@pytest.mark.parametrize("shift", [0, 1, 8])
def test_uniform_draws_reject_a_word_equal_to_n_shifted(shift):
    # a word w = n << shift would give n itself, so randrange rejects it;
    # n is chosen so that one such word lies in the first 4096-word batch
    rng = random.Random(5)
    words = [rng.getrandbits(32) for _ in range(4096)]
    n = next(w >> shift for w in words if w >> 31 and not w & ((1 << shift) - 1))
    rng = random.Random(5)
    want = [rng.randrange(n) for _ in range(4096)]
    assert list(islice(uniform_draws(5, n), 4096)) == want


@pytest.mark.parametrize("n", [2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3])
def test_uniform_draws_equal_randrange_on_either_side_of_one_word(n):
    # from 2^32 on a candidate takes several words, and randrange draws them
    for seed in (0, 7):
        rng = random.Random(seed)
        want = [rng.randrange(n) for _ in range(5000)]
        assert list(islice(uniform_draws(seed, n), 5000)) == want
    with pytest.raises(ValueError):
        uniform_draws(0, 0)


def test_set_algebra():
    # the union of a draw's members, which construct_k_covering checks, is
    # the naive union of their member lists
    g = CyclicGroup(8)
    a = GroupSubset.from_indices(g, [0, 1, 2])
    b = GroupSubset.from_indices(g, [2, 3])
    assert list(_union(g, [a, b])) == [0, 1, 2, 3]
    for group, k in ((CyclicGroup(256), 2), (SymmetricGroup(5), 1)):
        family = construct_intersecting_family(group, k, seed=3)
        union = _union(group, family.subsets)
        assert list(union) == sorted({x for s in family.subsets for x in s})
        assert union.size == len(list(union))


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
        assert list(right_translate(fast, g)) == list(right_translate(slow, g))
        assert _translate_bits(cyc, fast, g) == _translate_bits(twin, slow, g)


@pytest.mark.parametrize(
    "group", [CyclicGroup(30), DihedralGroup(6), SymmetricGroup(4)], ids=lambda g: g.name
)
def test_translation_preserves_cardinality(group):
    rng = random.Random(7)
    s = random_subset(group, 0.4, rng)
    for g in [0, 1, group.order - 1, rng.randrange(group.order)]:
        assert right_translate(s, g).size == s.size
        assert _translate_bits(group, s, g).bit_count() == s.size


def test_translate_definitions():
    d = DihedralGroup(4)
    s = GroupSubset.from_indices(d, [1, 5])
    g = 6
    assert list(right_translate(s, g)) == sorted({d.mul(x, g) for x in [1, 5]})


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
    members = list(s)
    # one subset translated by every element, as the verifiers do
    for g in range(group.order):
        right = GroupSubset(group, _translate_bits(group, s, g))
        assert list(right) == sorted({group.mul(x, g) for x in members})
    with pytest.raises(ValueError):
        _translate_bits(group, s, group.order)
    with pytest.raises(ValueError):
        _translate_bits(group, s, -1)


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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 1023, 1024, 1025, 2047, 4097, 131072])
def test_random_subset_matches_the_per_element_loop(n):
    # element i is a member iff the i-th draw is below p, and no draw is
    # consumed beyond the n-th; a draw equal to p is tested on real words below
    g = CyclicGroup(n)
    for p in (0.0, 0.062, 0.5, 1.0):
        ours, theirs = random.Random(n), random.Random(n)
        assert random_subset(g, p, ours).bits == reference_random_subset_bits(n, p, theirs)
        assert ours.random() == theirs.random(), p


class _Ties(random.Random):
    """A generator whose draws are exactly the tested probability."""

    def random(self):
        return 0.5


class _OwnBits(random.Random):
    """A generator whose getrandbits is not the Mersenne Twister's."""

    def getrandbits(self, k):
        return (1 << k) - 1


@pytest.mark.parametrize("n", [1, 1023, 1025, 2049])
def test_random_subset_on_real_word_ties(n):
    # p is the j-th draw itself or one of its float neighbours: element j is
    # a member exactly when its draw is below p, at a batch's first lane, at
    # its last and at the set's last element
    g = CyclicGroup(n)
    for seed in (0, 1):
        rng = random.Random(seed)
        draws = [rng.random() for _ in range(n)]
        for j in sorted({0, n - 1} | {j for j in (1023, 1024, 2047, 2048) if j < n}):
            for p in (draws[j], math.nextafter(draws[j], 0.0), math.nextafter(draws[j], 1.0)):
                ours, theirs = random.Random(seed), random.Random(seed)
                got = random_subset(g, p, ours)
                assert got.bits == reference_random_subset_bits(n, p, theirs)
                assert (j in got) == (draws[j] < p)
                assert ours.getstate() == theirs.getstate()


def test_random_subset_refuses_any_other_generator():
    # the lanes decide members from Mersenne Twister words, which only a plain
    # random.Random is known to give, so a subclass overriding either draw,
    # or any other generator, is refused before it draws
    for rng in (_Ties(9), _OwnBits(9)):
        with pytest.raises(TypeError, match=f"needs a random.Random, got {type(rng).__name__}$"):
            random_subset(CyclicGroup(9), 0.5, rng)
        assert rng.getstate() == random.Random(9).getstate()
    with pytest.raises(TypeError, match="got SystemRandom$"):
        random_subset(CyclicGroup(9), 0.5, random.SystemRandom())


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-string digit limit here"
)
def test_masks_convert_as_binary_under_the_int_string_digit_limit():
    # Masks are built from and read as binary numerals, which the limit
    # exempts; a decimal conversion of these 4096- and 131072-bit masks
    # would raise ValueError under it.
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        g = CyclicGroup(131072)
        members = [0, 5, 4095, 4096, 70001, 131071]
        s = GroupSubset.from_indices(g, members)
        assert list(s) == members
        assert [i for i in (-1, 0, 1, 5, 4096, 70000, 131071, 131072) if i in s] == [
            0, 5, 4096, 131071
        ]
        drawn = random_subset(g, 0.5, random.Random(4))
        assert drawn.bits == reference_random_subset_bits(131072, 0.5, random.Random(4))
        assert [i for i in range(131072) if i in drawn] == list(drawn)
        twin = DirectProductGroup(CyclicGroup(1), CyclicGroup(4096))
        x = GroupSubset.from_indices(twin, [0, 1, 4095])
        assert naive_set_bits(_translate_bits(twin, x, 1)) == [0, 1, 2]
        assert 4095 in GroupSubset(twin, _translate_bits(twin, x, 4094))
    finally:
        sys.set_int_max_str_digits(previous)


def test_random_subset_binomial_statistics():
    # mean over 100 seeds stays within 3 sd of np = 3000 (sd ~ 45.83)
    g = CyclicGroup(10_000)
    sizes = [random_subset(g, 0.3, random.Random(seed)).size for seed in range(100)]
    sd = (10_000 * 0.3 * 0.7) ** 0.5
    assert abs(statistics.fmean(sizes) - 3000.0) < 3 * sd


def test_translate_into_singletons():
    g = CyclicGroup(10)
    for x in range(g.order):
        for y in range(g.order):
            found = translate_into(g, [y], GroupSubset.from_indices(g, [x]))
            assert found == g.mul(x, g.inv(y))


def test_translate_into_whole_group_and_obstructions():
    g = CyclicGroup(6)
    full = full_subset(g)
    assert translate_into(g, list(range(6)), full) == 0
    assert translate_into(g, [], GroupSubset(g, 0)) == 0
    big = GroupSubset.from_indices(g, [0, 1, 2])
    small = GroupSubset.from_indices(g, [4])
    assert translate_into(g, list(big), small) is None
    # smallest valid translator is reported
    x = GroupSubset.from_indices(g, [2, 3, 5])
    y = [0, 1]
    found = translate_into(g, y, x)
    candidates = [h for h in range(6) if all(g.mul(h, yi) in x for yi in y)]
    assert found == min(candidates)


def test_translate_into_refuses_non_elements():
    # a rotation carrier would otherwise read y mod n
    c20 = CyclicGroup(20)
    for ys, bad in [([0, 20], 20), ([-1], -1)]:
        with pytest.raises(ValueError, match=rf"y = {bad} is not an element of C20"):
            translate_into(c20, ys, full_subset(c20))
    # every other carrier is refused, elements or not
    s3, twin = SymmetricGroup(3), DirectProductGroup(CyclicGroup(1), CyclicGroup(6))
    for group, ys in [(s3, [6]), (s3, [1]), (s3, []), (twin, [0, 1])]:
        with pytest.raises(ValueError, match=f"needs a rotation carrier, got {group.name}"):
            translate_into(group, ys, full_subset(group))


@pytest.mark.parametrize("n", [20, 4099, 131072])
def test_windowed_translate_into_matches_full_rotation(n):
    g = CyclicGroup(n)
    rng = random.Random(n)

    def agree(ys, x):
        found = translate_into(g, ys, x)
        assert found == full_rotation_translate_into(g, ys, x)
        return found

    # A lone solution planted at n - 1 and at and around the table-entry edges
    # of the first two windows and of the last one (each window edge is an
    # entry edge), with offsets that wrap past n and a duplicated offset.
    offset_sets = [[0, 3, 11], [0, n - 1, n - 2], [n - 5, 2, n - 5], [7]]
    step, window = _TABLE_STEP, ROTATION_WINDOW
    edges = [e for e in range(step, n, step) if e <= 2 * window or e >= n - window]
    near = {e + d for e in edges for d in (-8, -7, -1, 0, 1, 7, 8)}
    for target in sorted({0, 1, n - 1} | {t for t in near if 0 <= t < n}):
        for ys in offset_sets:
            x = GroupSubset.from_indices(g, {(target + y) % n for y in ys})
            if len(set(ys)) > 1:
                assert agree(ys, x) == target
            else:
                assert agree(ys, x) is not None
    # Random sets and offset lists, with Y also passed as a subset.
    for density in (0.05, 0.3, 0.7):
        x = random_subset(g, density, rng)
        for size in (1, 2, 3, 4):
            ys = [rng.randrange(n) for _ in range(size)]
            agree(ys, x)
            agree(GroupSubset.from_indices(g, ys), x)
    # No translate: Y = {0, 1} into a set with no two neighbours, wrap included.
    evens = GroupSubset.from_indices(g, range(0, n - 3, 2))
    assert agree([0, 1], evens) is None
    assert agree([n - 1, 0], evens) is None
    assert agree([1, 2], GroupSubset(g, 0)) is None
    assert agree([], GroupSubset(g, 0)) == 0
