"""Dense bit-vector subsets of oracle groups."""

from __future__ import annotations

import functools
import math
import random
from itertools import islice, repeat
from typing import Iterable, Iterator

from .groups import FiniteGroup
from .util import iter_set_bits, lane_copies, lowest_set_bit

# bits W read per step by the windowed searches, and B between table entries;
# of W = 512..4096 (B = W / 4), 512 beat 1024 by 5% at k = 3 but lost at k = 4
ROTATION_WINDOW = 1024
_TABLE_STEP = ROTATION_WINDOW // 4
_TABLE_SHIFT = _TABLE_STEP.bit_length() - 1
_TABLE_LOW = _TABLE_STEP - 1
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # flag bytes to binary digits
_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to flag bytes
# elements random_subset decides per getrandbits call, one 64-bit lane each;
# of 256 to 4096 it timed best on C1024 to C131072
_LANES = 1024


class GroupSubset:
    """Subset of a finite group stored as an integer bitmask over indices.

    The scans read three cached views of the bits: _member_list, _flag_image
    and _window_table.  list(subset) decodes the members without caching.
    """

    __slots__ = ("group", "bits", "_size", "_members", "_flags", "_table")

    def __init__(self, group: FiniteGroup, bits: int):
        if bits < 0 or bits >> group.order:
            raise ValueError(f"bitmask has members outside 0..{group.order - 1}")
        self.group = group
        self.bits = bits
        self._size: int | None = None
        self._members: list[int] | None = None
        self._flags: bytes | None = None
        self._table: list[int] | None = None

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        """The subset with the given member indices (repeats allowed).

        One min and one max check the range, and a refusal names the least
        index if negative, else the largest.  The flag bytes go up to the
        largest index only (see _from_flags), so memory goes with that
        index, not with the carrier order.
        """
        listed = list(indices)
        if not listed:
            return cls(group, 0)
        low, high = min(listed), max(listed)
        if low < 0 or high >= group.order:
            raise ValueError(f"index {low if low < 0 else high} out of range for {group.name}")
        flags = bytearray(high + 1)
        for i in listed:
            flags[i] = 1
        return cls._from_flags(group, flags)

    @classmethod
    def _from_flags(cls, group: FiniteGroup, flags: bytes) -> "GroupSubset":
        """The subset whose element i is a member iff flags[i] is 1 (flags: non-empty, 0s and 1s).

        The one place that turns flags into masks: the flag bytes, translated
        to binary digits, reversed and read as one binary numeral (exempt
        from the int-string digit limit), are the mask.
        """
        return cls(group, int(flags.translate(_DIGITS)[::-1], 2))

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.bits.bit_count()
        return self._size

    def __contains__(self, i: int) -> bool:
        # one byte of the cached byte image, not a shift of the whole mask
        return 0 <= i < self.group.order and self._flag_image()[i] == 1

    def _flag_image(self) -> bytes:
        """One byte per element, 1 iff a member: bin(bits) reversed, translated, padded to n."""
        if self._flags is None:
            digits = bin(self.bits)[:1:-1].encode()
            self._flags = digits.translate(_FLAGS).ljust(self.group.order, b"\0")
        return self._flags

    def __iter__(self) -> Iterator[int]:
        return iter_set_bits(self.bits)

    def _member_list(self) -> list[int]:
        if self._members is None:
            self._members = list(iter_set_bits(self.bits))
        return self._members

    def _window_table(self) -> list[int]:
        """Entries j = bits [j B, j B + W + B) of the doubled mask bits | bits << n, cached.

        W is ROTATION_WINDOW and B = W / 4 is _TABLE_STEP, so the entries take
        5n / 4 bytes.  On a rotation carrier, bits a .. a + W of X * g^{-1}
        are bits s = a + g onward of the doubled mask, for 0 <= g < n, and
        entry s >> log2 B shifted right by s & (B - 1) starts with them: a
        window of any rotation is one shift of one entry, with no rotation of
        the whole mask and no byte conversion per read.  Its bits past W are
        cleared by the window the read is ANDed into.  Entries are slices of
        the doubled mask's bytes, so the build shifts the 2n-bit mask once.
        """
        if self._table is None:
            n = self.group.order
            doubled = (self.bits | self.bits << n).to_bytes(2 * ((n + 7) >> 3), "little")
            step, span = _TABLE_STEP >> 3, (ROTATION_WINDOW + _TABLE_STEP) >> 3
            self._table = [
                int.from_bytes(doubled[lo : lo + span], "little")
                for lo in range(0, len(doubled), step)
            ]
        return self._table

    def _require_same_carrier(self, group: FiniteGroup) -> None:
        if self.group is not group and (
            self.group.order != group.order or self.group.name != group.name
        ):
            raise ValueError(f"carrier mismatch: {self.group.name} vs {group.name}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupSubset):
            return NotImplemented
        return (
            self.group.order == other.group.order
            and self.group.name == other.group.name
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.group.name, self.group.order, self.bits))

    def __repr__(self) -> str:
        shown = list(islice(self, 12))
        tail = ", ..." if self.size > 12 else ""
        return f"GroupSubset({self.group.name}, size={self.size}, {{{', '.join(map(str, shown))}{tail}}})"


def _translate_bits(group: FiniteGroup, subset: GroupSubset, g: int) -> int:
    """Bitmask of the right translate X*g, X = subset.

    Cyclic carriers rotate the bitmask; other carriers build it from the
    products x*g over the subset's cached member list, so translating one
    set many times extracts its bits once.
    """
    if not 0 <= g < group.order:
        raise ValueError(f"index {g} out of range for {group.name}")
    if group.additive_rotation:
        bits = subset.bits
        if g == 0:
            return bits
        n = group.order
        return ((bits << g) | (bits >> (n - g))) & ((1 << n) - 1)
    return GroupSubset.from_indices(group, map(group.mul, subset._member_list(), repeat(g))).bits


@functools.cache
def _lane_masks() -> tuple[int, int, int]:
    """Masks of a (bits 26..52) and b (bits 0..25) in every lane, and 1 in every lane.

    Built on the first draw, not at import: made at import, the three 8 KB
    ints raised the peak RSS of the deep-tower and cyclic-certify bench
    workloads by 0.15 to 0.3 MB (four runs each).
    """
    return tuple(lane_copies(x, 8, _LANES) for x in (((1 << 27) - 1) << 26, (1 << 26) - 1, 1))


def random_subset(group: FiniteGroup, p: float, rng: random.Random) -> GroupSubset:
    """Include each group element independently with probability p.

    Deterministic given the generator state: element i is a member iff the
    i-th of exactly order-many uniform draws is below p.

    For a plain random.Random the draws are decided _LANES at a time
    without a Python call per element.  random() is (a 2^26 + b) / 2^53,
    with a and b the top 27 and 26 bits of two consecutive Mersenne Twister
    words, so a draw is below p exactly when a 2^26 + b < c = ceil(p 2^53).
    One getrandbits(64 m) call puts m elements' word pairs in 64-bit lanes,
    lowest first.  Shifts and masks line up a 2^26 + b in each lane, and
    taking it from 2^53 + c - 1 leaves bit 53 set exactly when it is below
    c, with no borrow between lanes.  After a shift by 53, byte 0 of each
    lane is that member flag, as the lane's bits above 53 are zero.  The
    words consumed are those of a per-element random() loop, so the set and
    the final generator state are the same.  Any other generator, a subclass
    included, is refused with TypeError.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"inclusion probability must be in [0, 1], got {p}")
    if type(rng) is not random.Random:
        raise TypeError(f"random_subset needs a random.Random, got {type(rng).__name__}")
    n = group.order
    a_mask, b_mask, ones = _lane_masks()
    tops = ((1 << 53) + math.ceil(p * (1 << 53)) - 1) * ones
    getrandbits = rng.getrandbits
    flags = bytearray()
    for start in range(0, n, _LANES):
        lanes = min(_LANES, n - start)
        words = getrandbits(64 * lanes)
        a, b = words << 21 & a_mask, words >> 38 & b_mask
        rest = (tops >> 64 * (_LANES - lanes)) - a - b
        flags += (rest >> 53).to_bytes(8 * lanes, "little")[::8]
    return GroupSubset._from_flags(group, flags)


def translate_into(group: FiniteGroup, y, x: GroupSubset) -> int | None:
    """Smallest g with g + Y inside X on a rotation carrier, or None if none works.

    g + y in X for all y is equivalent to g in the intersection of the
    rotations X - y, so the answer is that intersection's lowest set bit.
    The rotations are ANDed in ascending windows of ROTATION_WINDOW bits,
    stopping at the first non-empty window.  Window [a, a + W) of X - y is
    bits a + y onward of X's doubled mask, one shifted entry of X's cached
    window table (see GroupSubset._window_table).  Any other carrier, and a
    y outside 0..n-1, raise ValueError.
    """
    if not group.additive_rotation:
        raise ValueError(f"translate_into needs a rotation carrier, got {group.name}")
    ys = list(y)
    if not ys:
        return group.identity
    n = group.order
    low, high = min(ys), max(ys)
    if low < 0 or high >= n:
        raise ValueError(f"y = {low if low < 0 else high} is not an element of {group.name}")
    table = x._window_table()
    for a in range(0, n, ROTATION_WINDOW):
        acc = (1 << min(ROTATION_WINDOW, n - a)) - 1
        for yi in ys:
            start = a + yi
            acc &= table[start >> _TABLE_SHIFT] >> (start & _TABLE_LOW)
            if not acc:
                break
        else:
            return a + lowest_set_bit(acc)
    return None


def first_disjoint_tuple(
    group: FiniteGroup,
    first: GroupSubset,
    rest: list[GroupSubset],
    tuples: Iterable[tuple[int, ...]],
) -> tuple[int, tuple[int, ...]] | None:
    """(index, tuple) of the first tuple whose right translates do not meet, or None.

    A tuple lists the translators g_1, ..., g_k of X_1 = first and
    X_{i+1} = rest[i].  The translates meet iff X_1 and the X_i g_i g_1^{-1}
    do.  All of a verification's trials run in this one scan, which stops at
    the first common element of each trial and at the first tuple that fails.
    Rotation carriers AND the sets in ascending windows of ROTATION_WINDOW
    bits: window [a, a + W) of X (g_i - g_1) is bits a + d onward of X's
    doubled mask, d = (g_1 - g_i) mod n.  W is a multiple of the table step
    B, so with w = a / B that is entry w + high of X's cached window table
    shifted right by low, (high, low) = divmod(d, B): fixed once per trial
    for the second set, found per window for later ones.  No oracle is
    called.  Only X_1's non-empty windows are read, and X_1's bits there
    clear what lies past W or past n; at k = 1 a trial fails iff X_1 is
    empty.  Other carriers walk X_1's members and look each x g_1 g_i^{-1}
    up in X_i's cached byte image, k - 1 inv calls per trial.  Byte images
    and window tables are cached on the sets, so a set listed twice in rest
    is read from one.
    """
    n = group.order
    if group.additive_rotation:
        first_bytes = first.bits.to_bytes((n + 7) >> 3, "little")
        windows = []  # (start entry, X_1's bits there); empty windows cannot meet
        for a in range(0, n, ROTATION_WINDOW):
            bits = int.from_bytes(first_bytes[a >> 3 : (a + ROTATION_WINDOW) >> 3], "little")
            if bits:
                windows.append((a >> _TABLE_SHIFT, bits))
        if not rest:  # k = 1: every trial meets unless X_1 is empty
            return None if windows else next(enumerate(tuples), None)
        second = rest[0]._window_table()
        later = list(enumerate((s._window_table() for s in rest[1:]), 2))
        for index, gs in enumerate(tuples):
            g1 = gs[0]
            d = (g1 - gs[1]) % n
            high, low = d >> _TABLE_SHIFT, d & _TABLE_LOW
            for w, acc in windows:
                acc &= second[w + high] >> low
                for i, table in later:
                    if not acc:
                        break
                    d = (g1 - gs[i]) % n
                    acc &= table[w + (d >> _TABLE_SHIFT)] >> (d & _TABLE_LOW)
                if acc:
                    break
            else:
                return index, gs
        return None

    mul, inv = group.mul, group.inv
    members = first._member_list()
    flags = [s._flag_image() for s in rest]
    for index, gs in enumerate(tuples):
        g1 = gs[0]
        shifts = [mul(g1, inv(g)) for g in gs[1:]]
        lookups = list(zip(flags, shifts))
        for x in members:
            for flag, shift in lookups:
                if not flag[mul(x, shift)]:
                    break
            else:
                break
        else:
            return index, gs
    return None
