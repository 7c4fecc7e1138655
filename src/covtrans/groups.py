"""Finite groups as element-index oracles.

Elements of a group of order n are the indices 0..n-1 and the identity is
always index 0.  Groups expose `mul` and `inv` oracles and one batched
oracle, `left_products(ys)`, which sends a to the products a y for y in ys;
never full multiplication tables, so cyclic groups of order ~10^9 cost O(1)
memory.  By default left_products calls `mul` once per product.  S_m keeps
its m! permutations as m-byte strings (at most 8! of them), still not a
multiplication table; a product is one bytes.translate and one dict lookup,
and a whole left translate a ys is one bytes.translate of the joined images
of ys.  The one table built from these oracles is the columns of x y^{-1}
that covering.exact_covering_number makes for its carriers of at most 16
elements and drops when its search ends.
"""

from __future__ import annotations

import itertools
import struct


class FiniteGroup:
    """Oracle-backed finite group on indices 0..order-1 (identity = 0)."""

    name: str
    order: int
    identity: int = 0
    # When set, right/left translation of index sets is bitmask rotation.
    additive_rotation: bool = False

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def left_products(self, ys: list[int]):
        """A function sending a to an iterator of the indices a y, y in ys, in order."""
        mul = self.mul
        return lambda a: map(mul, itertools.repeat(a), ys)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, order={self.order})"


class CyclicGroup(FiniteGroup):
    """Additive group of integers mod n."""

    additive_rotation = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"cyclic group order must be >= 1, got {n}")
        self.order = n
        self.name = f"C{n}"

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order


class DirectProductGroup(FiniteGroup):
    """Direct product with mixed-radix indices: index = i_left * |right| + i_right."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        self.left = left
        self.right = right
        self.order = left.order * right.order
        self.name = f"{left.name}x{right.name}"

    def mul(self, a: int, b: int) -> int:
        m = self.right.order
        a1, a2 = divmod(a, m)
        b1, b2 = divmod(b, m)
        return self.left.mul(a1, b1) * m + self.right.mul(a2, b2)

    def inv(self, a: int) -> int:
        m = self.right.order
        a1, a2 = divmod(a, m)
        return self.left.inv(a1) * m + self.right.inv(a2)


class DihedralGroup(FiniteGroup):
    """Dihedral group of order 2m: indices 0..m-1 are rotations a^i,
    indices m..2m-1 are reflections a^i s."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"dihedral parameter must be >= 1, got {m}")
        self.m = m
        self.order = 2 * m
        self.name = f"D{m}"

    def mul(self, a: int, b: int) -> int:
        m = self.m
        ai, afl = a % m, a >= m
        bi, bfl = b % m, b >= m
        # a^i s * a^j = a^(i-j) s ; a^i s * a^j s = a^(i-j)
        ci = (ai - bi) % m if afl else (ai + bi) % m
        return ci + m * (afl != bfl)

    def inv(self, a: int) -> int:
        m = self.m
        if a >= m:
            return a  # reflections are involutions
        return (-a) % m


class SymmetricGroup(FiniteGroup):
    """Symmetric group on m <= 8 points, backed by its m! permutations.

    Indices follow the lexicographic order of permutations, which is the
    Lehmer-code order, so index 0 is the identity.  Each permutation is
    kept as m bytes, p[i] the image of point i, with its rank: O(m!)
    memory, 4.4 MB at m = 8 by tracemalloc (7.0 MB with tuples).  So mul
    and inv are one C-level byte relabelling and a dict lookup; there is
    no n x n table.  mul(a, b) composes "apply b, then a": p_b.translate(t)
    replaces each byte v of p_b by t[v], and t is p_a padded to the 256
    entries a translation table needs.  left_products(ys) joins the images
    of ys once, so each left factor a relabels all of them in one translate
    by the same table, and one struct unpack splits the result back into
    m-byte permutations to rank.
    """

    MAX_POINTS = 8

    def __init__(self, m: int):
        if m < 1:
            raise ValueError(f"symmetric parameter must be >= 1, got {m}")
        if m > self.MAX_POINTS:
            raise ValueError(
                f"symmetric groups limited to m <= {self.MAX_POINTS} "
                f"(order m! must stay dense-representable), got {m}"
            )
        self.m = m
        self._perms = list(map(bytes, itertools.permutations(range(m))))
        self._rank = {p: i for i, p in enumerate(self._perms)}
        self._pad = bytes(range(m, 256))
        self.order = len(self._perms)
        self.name = f"S{m}"

    def mul(self, a: int, b: int) -> int:
        perms = self._perms
        # a negative index would otherwise wrap silently into the list
        if not (0 <= a < self.order and 0 <= b < self.order):
            raise ValueError(f"indices {(a, b)} out of range for {self.name}")
        return self._rank[perms[b].translate(perms[a] + self._pad)]

    def left_products(self, ys: list[int]):
        n, perms, pad = self.order, self._perms, self._pad
        low, high = (min(ys), max(ys)) if ys else (0, 0)
        bad = low if low < 0 else high  # a negative index would wrap into the list
        if not 0 <= bad < n:
            raise ValueError(f"index {bad} out of range for {self.name}")
        images = b"".join(map(perms.__getitem__, ys))
        split = struct.Struct(f"{self.m}s" * len(ys)).unpack
        rank = self._rank.__getitem__

        def products(a: int):
            if not 0 <= a < n:
                raise ValueError(f"index {a} out of range for {self.name}")
            return map(rank, split(images.translate(perms[a] + pad)))

        return products

    def inv(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"index {a} out of range for {self.name}")
        # the table sends p_a[i] to i, so relabelling the identity by it gives p_a^{-1}
        perms = self._perms
        return self._rank[perms[0].translate(bytes.maketrans(perms[a], perms[0]))]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class ElementaryAbelianGroup(FiniteGroup):
    """(Z/p)^d with base-p digit indices and componentwise addition."""

    def __init__(self, p: int, d: int):
        if not _is_prime(p):
            raise ValueError(f"elementary abelian base must be prime, got {p}")
        if d < 1:
            raise ValueError(f"elementary abelian rank must be >= 1, got {d}")
        self.p = p
        self.d = d
        self.order = p**d
        self.name = f"EA({p},{d})"

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            # digitwise addition mod 2 is XOR
            return a ^ b
        out = 0
        weight = 1
        for _ in range(self.d):
            out += ((a + b) % p) * weight
            a //= p
            b //= p
            weight *= p
        return out

    def inv(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out = 0
        weight = 1
        for _ in range(self.d):
            out += (-a % p) * weight
            a //= p
            weight *= p
        return out


def _parse_factor(token: str) -> FiniteGroup:
    token = token.strip()
    if token.startswith("EA(") and token.endswith(")"):
        inner = token[3:-1]
        parts = inner.split(",")
        if len(parts) != 2:
            raise ValueError(f"unrecognized group descriptor {token!r}")
        return ElementaryAbelianGroup(int(parts[0]), int(parts[1]))
    if len(token) >= 2 and token[0] in "CDS" and token[1:].isdigit():
        n = int(token[1:])
        if token[0] == "C":
            return CyclicGroup(n)
        if token[0] == "D":
            return DihedralGroup(n)
        return SymmetricGroup(n)
    raise ValueError(f"unrecognized group descriptor {token!r}")


def group_from_descriptor(descriptor: str) -> FiniteGroup:
    """Parse compact descriptors: "C4096", "D5", "S4", "EA(2,5)", "C20xC4"."""
    text = descriptor.strip()
    if not text:
        raise ValueError("empty group descriptor")
    # 'x' never occurs inside a single factor token, so a flat split is safe.
    factors = [_parse_factor(tok) for tok in text.split("x")]
    group = factors[0]
    for rhs in factors[1:]:
        group = DirectProductGroup(group, rhs)
    return group


class Epimorphism:
    """The reduction x -> x mod N from C_{N n} onto C_N, one step of a tower.

    The kernel, generated by N, is presented as C_n through v -> N v, and
    the section picks the least nonnegative representative h of each target
    element, so factored membership tests are well-defined and O(1).
    """

    def __init__(self, modulus_small: int, modulus_large: int):
        if modulus_small < 1 or modulus_large < 1:
            raise ValueError("moduli must be positive")
        if modulus_large % modulus_small != 0:
            raise ValueError(f"{modulus_small} does not divide {modulus_large}")
        self.modulus = modulus_small
        self.source = CyclicGroup(modulus_large)
        self.target = CyclicGroup(modulus_small)
        self.kernel_group = CyclicGroup(modulus_large // modulus_small)
        self.name = f"C{modulus_large}->C{modulus_small}"

    def map(self, x: int) -> int:
        return x % self.modulus

    def section(self, h: int) -> int:
        return h

    def embed_kernel(self, v: int) -> int:
        """Source index of the kernel-group element v."""
        return v * self.modulus

    def kernel_coords(self, x: int) -> int:
        """Kernel-group index of a source element lying in the kernel."""
        q, r = divmod(x, self.modulus)
        if r:
            raise ValueError(f"{x} is not in the kernel of reduction mod {self.modulus}")
        return q

    def __repr__(self) -> str:
        return f"Epimorphism({self.name})"
