"""Dense bit-vector subsets of oracle groups."""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from .groups import FiniteGroup
from .util import iter_set_bits, lowest_set_bit

ROTATION_WINDOW = 4096  # bits of a rotated set read per step by the windowed searches
_WINDOW_SPAN = (ROTATION_WINDOW >> 3) + 1  # bytes holding W bits from any bit offset
_OR_BUILD_ORDER = 4096  # from_indices builds masks by OR up to this carrier order


class GroupSubset:
    """Subset of a finite group stored as an integer bitmask over indices."""

    __slots__ = ("group", "bits", "_size", "_members", "_image")

    def __init__(self, group: FiniteGroup, bits: int, size: int | None = None):
        if bits < 0 or bits >> group.order:
            raise ValueError(f"bitmask has members outside 0..{group.order - 1}")
        self.group = group
        self.bits = bits
        self._size = size
        self._members: list[int] | None = None
        self._image: bytes | None = None

    @classmethod
    def empty(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, 0, 0)

    @classmethod
    def full(cls, group: FiniteGroup) -> "GroupSubset":
        return cls(group, (1 << group.order) - 1, group.order)

    @classmethod
    def from_indices(cls, group: FiniteGroup, indices: Iterable[int]) -> "GroupSubset":
        """The subset with the given member indices (repeats allowed).

        Carriers of order up to _OR_BUILD_ORDER OR each bit into an int, which
        is cheapest on small masks; larger ones set bits in a bytearray and
        convert once, because each OR into a long int copies it.
        """
        n = group.order
        if n <= _OR_BUILD_ORDER:
            bits = 0
            for i in indices:
                if not 0 <= i < n:
                    raise ValueError(f"index {i} out of range for {group.name}")
                bits |= 1 << i
            return cls(group, bits)
        buf = bytearray((n + 7) >> 3)
        for i in indices:
            if not 0 <= i < n:
                raise ValueError(f"index {i} out of range for {group.name}")
            buf[i >> 3] |= 1 << (i & 7)
        return cls(group, int.from_bytes(buf, "little"))

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = self.bits.bit_count()
        return self._size

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.bits != 0

    def __contains__(self, i: int) -> bool:
        # one byte of the cached image, not a shift of the whole mask
        return 0 <= i < self.group.order and self._rotation_image()[i >> 3] >> (i & 7) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_set_bits(self.bits)

    def _member_list(self) -> list[int]:
        if self._members is None:
            self._members = list(iter_set_bits(self.bits))
        return self._members

    def _rotation_image(self) -> bytes:
        """Little-endian bytes of the doubled mask bits | bits << n, cached.

        On a rotation carrier, bits a .. a + W of X * g^{-1} are bits
        a + g .. a + g + W of this image, for 0 <= g < n: a window of any
        rotation is one slice, with no rotation of the whole mask.  On any
        carrier its low half is the mask itself, which membership reads.
        """
        if self._image is None:
            n = self.group.order
            self._image = (self.bits | self.bits << n).to_bytes(2 * ((n + 7) >> 3), "little")
        return self._image

    def indices(self) -> list[int]:
        """Member indices in ascending order."""
        return list(self._member_list())

    def _require_same_carrier(self, other: "GroupSubset") -> None:
        if self.group is not other.group and (
            self.group.order != other.group.order or self.group.name != other.group.name
        ):
            raise ValueError(f"carrier mismatch: {self.group.name} vs {other.group.name}")

    def __and__(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_carrier(other)
        return GroupSubset(self.group, self.bits & other.bits)

    def __or__(self, other: "GroupSubset") -> "GroupSubset":
        self._require_same_carrier(other)
        return GroupSubset(self.group, self.bits | other.bits)

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

    def complement(self) -> "GroupSubset":
        n = self.group.order
        return GroupSubset(self.group, ~self.bits & ((1 << n) - 1), n - self.size)

    def right_translate(self, g: int) -> "GroupSubset":
        """The set {x * g : x in self}; same cardinality (translation is a bijection)."""
        return GroupSubset(self.group, _translate_bits(self.group, self, g, left=False), self._size)

    def left_translate(self, g: int) -> "GroupSubset":
        """The set {g * x : x in self}."""
        return GroupSubset(self.group, _translate_bits(self.group, self, g, left=True), self._size)

    def inverse_set(self) -> "GroupSubset":
        group = self.group
        bits = 0
        for x in iter_set_bits(self.bits):
            bits |= 1 << group.inv(x)
        return GroupSubset(group, bits, self._size)

    def __repr__(self) -> str:
        shown = self.indices()[:12]
        tail = ", ..." if self.size > 12 else ""
        return f"GroupSubset({self.group.name}, size={self.size}, {{{', '.join(map(str, shown))}{tail}}})"


def _translate_bits(group: FiniteGroup, subset: GroupSubset, g: int, left: bool) -> int:
    """Bitmask of g*X (left) or X*g (right), X = subset.

    Cyclic carriers rotate the bitmask; other carriers walk the subset's
    cached member list, so translating one set many times extracts its
    bits once.
    """
    if not 0 <= g < group.order:
        raise ValueError(f"index {g} out of range for {group.name}")
    if group.additive_rotation:
        bits = subset.bits
        if g == 0:
            return bits
        n = group.order
        return ((bits << g) | (bits >> (n - g))) & ((1 << n) - 1)
    mul = group.mul
    out = 0
    if left:
        for x in subset._member_list():
            out |= 1 << mul(g, x)
    else:
        for x in subset._member_list():
            out |= 1 << mul(x, g)
    return out


def random_subset(group: FiniteGroup, p: float, rng: random.Random) -> GroupSubset:
    """Include each group element independently with probability p.

    Deterministic given the generator state: exactly order-many uniform
    draws are consumed, in index order.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"inclusion probability must be in [0, 1], got {p}")
    n = group.order
    buf = bytearray((n + 7) >> 3)
    rand = rng.random
    for i in range(n):
        if rand() < p:
            buf[i >> 3] |= 1 << (i & 7)
    return GroupSubset(group, int.from_bytes(buf, "little"))


def _first_common_window(windows, reads) -> tuple[int, int] | None:
    """First (a, bits) left non-zero after ANDing every read into a window.

    `windows` yields (a, bits): a window's start bit and the bits to AND
    into.  `reads` lists (image, offset) pairs; a read's window [a, a + W)
    is bits a + offset onward of a doubled image (see
    GroupSubset._rotation_image), and the window's bits cut it to W bits or
    fewer.  Each window stops at its first empty AND.
    """
    span = _WINDOW_SPAN
    from_bytes = int.from_bytes
    for a, acc in windows:
        for image, offset in reads:
            start = a + offset
            lo = start >> 3
            acc &= from_bytes(image[lo : lo + span], "little") >> (start & 7)
            if not acc:
                break
        else:
            return a, acc
    return None


def translate_into(group: FiniteGroup, y, x: GroupSubset) -> int | None:
    """Smallest-index g with g*Y contained in X, or None if no translate works.

    g*y in X for all y is equivalent to g in the intersection of the right
    translates X*y^{-1}, so the answer is that intersection's lowest set bit.
    Rotation carriers AND the translates in ascending windows of
    ROTATION_WINDOW bits, each read from X's cached doubled image (window
    [a, a + W) of X - y starts at bit a + y), and stop at the first
    non-empty window.  Other carriers intersect whole translated bitmasks.
    """
    ys = list(y) if not isinstance(y, GroupSubset) else y.indices()
    if not ys:
        return group.identity
    n = group.order
    if group.additive_rotation:
        image = x._rotation_image()
        windows = (
            (a, (1 << min(ROTATION_WINDOW, n - a)) - 1) for a in range(0, n, ROTATION_WINDOW)
        )
        hit = _first_common_window(windows, [(image, yi % n) for yi in ys])
        return None if hit is None else hit[0] + lowest_set_bit(hit[1])
    acc = None
    for yi in ys:
        t = _translate_bits(group, x, group.inv(yi), left=False)
        acc = t if acc is None else acc & t
        if not acc:
            return None
    return lowest_set_bit(acc)


def translates_meet(group: FiniteGroup, first: GroupSubset, rest: list[GroupSubset]):
    """Predicate meets(shifts): do X_1 and the right translates rest[i] * shifts[i] meet?

    Built once per verification call, so each trial pays only for the search,
    which stops at the first common element.  Rotation carriers AND the sets
    in ascending windows of ROTATION_WINDOW bits: window [a, a + W) of X h is
    bits a + n - h onward of X's cached doubled image.  Only X_1's non-empty
    windows are read, and X_1's bits there clear what lies past W or past n.
    Other carriers walk X_1's members and look each x * shifts[i]^{-1} up in
    a flag array of rest[i].  A set listed more than once in rest gets one
    image.
    """
    n = group.order
    if group.additive_rotation:
        first_bytes = first.bits.to_bytes((n + 7) >> 3, "little")
        windows = []  # (start bit, X_1's bits there); empty windows cannot meet
        for a in range(0, n, ROTATION_WINDOW):
            bits = int.from_bytes(first_bytes[a >> 3 : (a + ROTATION_WINDOW) >> 3], "little")
            if bits:
                windows.append((a, bits))
        images = [s._rotation_image() for s in rest]

        def meets(shifts: list[int]) -> bool:
            reads = [(image, n - h) for image, h in zip(images, shifts)]
            return _first_common_window(windows, reads) is not None

        return meets

    mul, inv = group.mul, group.inv
    members = first._member_list()
    flag_of = {}
    for key, s in {id(s): s for s in rest}.items():
        flag = flag_of[key] = bytearray(n)
        for x in s._member_list():
            flag[x] = 1
    flags = [flag_of[id(s)] for s in rest]

    def meets(shifts: list[int]) -> bool:
        lookups = [(flag, inv(h)) for flag, h in zip(flags, shifts)]
        for x in members:
            for flag, h_inv in lookups:
                if not flag[mul(x, h_inv)]:
                    break
            else:
                return True
        return False

    return meets
