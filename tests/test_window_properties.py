"""Property tests of the windowed searches against whole-set translates.

Both searches in covtrans.subsets AND windows of ROTATION_WINDOW bits,
each one shifted entry of a set's cached window table, whose entries start
every _TABLE_STEP bits.  The orders and edges below are derived from those
two constants, and the first test checks the geometry the scans assume.
The table property compares every table read with a byte-slice read of the
doubled mask and with a full rotation, at orders on and beside the window
and table-step edges.  The others compare the searches with full rotations
on cyclic groups of order near one, two and four windows, where a single
planted common element lands on or next to a table-entry edge.  The scan
takes the drawn translators g_1, ..., g_k, so it is also checked with g_1
arbitrary, with later g_i equal to g_1 (a read at offset 0), and on
carriers that look its translators up through mul and inv.
"""

import random

from conftest import full_rotation_translate_into, naive_empty_tuple_test, right_translate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covtrans import CyclicGroup, GroupSubset, group_from_descriptor
from covtrans.subsets import (
    _TABLE_LOW,
    _TABLE_SHIFT,
    _TABLE_STEP,
    ROTATION_WINDOW,
    first_disjoint_tuple,
    translate_into,
)

PROPERTY_SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

W, B = ROTATION_WINDOW, _TABLE_STEP


def near(m):
    return st.integers(m - 8, m + 8)


orders = st.one_of(near(W), near(2 * W), near(4 * W))


def edges(n):
    """Elements of C_n in the last byte before a table-entry edge or n, or at or after an edge.

    Every window edge is an entry edge.
    """
    ends = [min(e, n) for e in range(B, n + B, B)]
    starts = [0, 1, 7, 8] + [e + d for e in range(B, n, B) for d in (0, 1, 7, 8)]
    return [v % n for v in starts + [e - d for e in ends for d in range(1, 9)]]


def test_window_geometry_is_what_the_scans_assume():
    # Entries start on byte boundaries every B = 2^shift bits, so a start s is
    # entry s >> shift shifted by s & (B - 1), and every window starts on an
    # entry, so a window's first entry is a >> shift.
    assert B & (B - 1) == 0 and B % 8 == 0
    assert B == 1 << _TABLE_SHIFT and _TABLE_LOW == B - 1
    assert W % B == 0


def spots(n):
    """An element of C_n, drawn often at an edge."""
    return st.one_of(st.sampled_from(edges(n)), st.integers(0, n - 1))


def noise(draw, n) -> int:
    """A random mask over C_n with few, some or many members."""
    density = draw(st.sampled_from([0.0, 0.0005, 0.01, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return sum(1 << i for i in range(n) if rng.random() < density)


# below one table step, one step either side, and the window edges: n < B,
# n a multiple of B or of W, and n not a multiple of 8
table_orders = st.one_of(st.just(20), st.integers(B - 1, B + 1), near(W), near(2 * W))


@given(table_orders, st.sampled_from([0.0005, 0.01, 0.3, 1.0]), st.integers(0, 2**32))
@example(B - 1, 0.3, 1)
@example(B, 0.3, 2)
@example(W, 0.3, 3)
@example(W + 8, 1.0, 4)
@example(2 * W, 0.01, 5)
@example(2 * W + 8, 0.3, 6)
@settings(max_examples=16, derandomize=True, database=None, deadline=None)
def test_window_table_reads_match_byte_slices_and_full_rotations(n, density, seed):
    group = CyclicGroup(n)
    rng = random.Random(seed)
    x = GroupSubset(group, sum(1 << i for i in range(n) if rng.random() < density))
    table = x._window_table()
    w = ROTATION_WINDOW
    cut = (1 << w) - 1
    image = (x.bits | x.bits << n).to_bytes(2 * ((n + 7) >> 3), "little")

    def read(start):
        return table[start >> _TABLE_SHIFT] >> (start & _TABLE_LOW) & cut

    # every start a search can make, a + d with a < n and d < n
    for start in range(2 * n - 1):
        lo = start >> 3
        sliced = int.from_bytes(image[lo : lo + (w >> 3) + 1], "little") >> (start & 7)
        assert read(start) == sliced & cut
    # window [a, a + W) of X - d, cut at n, is the read at a + d
    for d in range(n):
        rotated = right_translate(x, group.inv(d)).bits
        for a in range(0, n, w):
            edge = (1 << min(w, n - a)) - 1
            assert read(a + d) & edge == rotated >> a & edge


@st.composite
def translate_cases(draw):
    n = draw(orders)
    ys = draw(st.lists(spots(n), min_size=1, max_size=4))
    bits = noise(draw, n)
    if draw(st.booleans()):
        target = draw(st.sampled_from(edges(n)))
        for y in ys:
            bits |= 1 << (target + y) % n
    return CyclicGroup(n), ys, bits


@given(translate_cases())
@PROPERTY_SETTINGS
def test_translate_into_matches_full_rotation(case):
    group, ys, bits = case
    x = GroupSubset(group, bits)
    assert translate_into(ys, x) == full_rotation_translate_into(ys, x)


@st.composite
def meet_cases(draw):
    n = draw(orders)
    k = draw(st.integers(1, 3))
    shifts = [draw(st.integers(0, n - 1)) for _ in range(k - 1)]
    first = noise(draw, n)
    rest = [noise(draw, n) for _ in shifts]
    if draw(st.booleans()):
        common = draw(st.sampled_from(edges(n)))
        first |= 1 << common
        rest = [bits | 1 << (common - h) % n for bits, h in zip(rest, shifts)]
    return CyclicGroup(n), first, rest, shifts, draw(st.booleans())


@given(meet_cases())
@PROPERTY_SETTINGS
def test_translates_meet_matches_full_rotation(case):
    group, first_bits, rest_bits, shifts, shared = case
    first = GroupSubset(group, first_bits)
    if shared:
        # one set listed k - 1 times, holding every planted element
        union = 0
        for bits in rest_bits:
            union |= bits
        rest = [GroupSubset(group, union)] * len(rest_bits)
    else:
        rest = [GroupSubset(group, bits) for bits in rest_bits]
    acc = first.bits
    for s, h in zip(rest, shifts):
        acc &= right_translate(s, h).bits
    assert (first_disjoint_tuple(first, rest, [(0, *shifts)]) is None) == bool(acc)


@st.composite
def drawn_meet_cases(draw):
    """k sets of C_n and translators as drawn: g_1 anywhere, a later g_i often equal to it."""
    n = draw(orders)
    k = draw(st.integers(1, 3))
    g1 = draw(spots(n))
    gs = [g1] + [draw(st.one_of(st.just(g1), spots(n))) for _ in range(k - 1)]
    sets = [noise(draw, n) for _ in gs]
    if draw(st.booleans()):
        common = draw(st.sampled_from(edges(n)))
        sets = [bits | 1 << (common - g) % n for bits, g in zip(sets, gs)]
    return CyclicGroup(n), sets, gs


@given(drawn_meet_cases())
@PROPERTY_SETTINGS
def test_translates_meet_takes_the_drawn_translators(case):
    group, sets, gs = case
    subsets = [GroupSubset(group, bits) for bits in sets]
    acc = (1 << group.order) - 1
    for s, g in zip(subsets, gs):
        acc &= right_translate(s, g).bits
    assert (first_disjoint_tuple(subsets[0], subsets[1:], [gs]) is None) == bool(acc)


@st.composite
def oracle_meet_cases(draw):
    """k sets of a non-rotation carrier, translators as drawn, often a planted common element."""
    group = group_from_descriptor(draw(st.sampled_from(["S4", "D6", "C2xC6"])))
    n, k = group.order, draw(st.integers(1, 3))
    g1 = draw(st.integers(0, n - 1))
    gs = [g1] + [draw(st.one_of(st.just(g1), st.integers(0, n - 1))) for _ in range(k - 1)]
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    member_lists = [{x for x in range(n) if rng.random() < density} for _ in gs]
    if draw(st.booleans()):
        common = draw(st.integers(0, n - 1))
        for members, g in zip(member_lists, gs):
            members.add(group.mul(common, group.inv(g)))
    return group, [sorted(m) for m in member_lists], gs


@given(oracle_meet_cases())
@PROPERTY_SETTINGS
def test_translates_meet_through_the_oracles_matches_naive_translates(case):
    group, member_lists, gs = case
    subsets = [GroupSubset.from_indices(group, members) for members in member_lists]
    empty = naive_empty_tuple_test(group, member_lists)
    met = first_disjoint_tuple(subsets[0], subsets[1:], [gs]) is None
    assert met == (not empty(gs))
