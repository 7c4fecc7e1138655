"""Independent checks of covtrans documents.

Nothing here imports covtrans.  Group elements are rebuilt from their
document indices with this module's own arithmetic (integers mod n,
rotation/reflection pairs, digit vectors, permutation tuples in
lexicographic rank order, and pairs for direct products), and every
property is recomputed from the document alone.  Each `check_*` function
returns a list of problems; an empty list means the document passed.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

STEP_BUDGET = 10**8  # covtrans's default; auto must pick a complete method within it
PAIRWISE_LIMIT = 10**4


class Carrier:
    """A finite group given by its document index order and its own law."""

    def __init__(self, name: str, elements: list, mul, inv):
        self.name = name
        self.elements = elements  # elements[index] is the element at that index
        self.order = len(elements)
        self.mul = mul
        self.inv = inv


def _cyclic(n: int) -> Carrier:
    return Carrier(f"C{n}", list(range(n)), lambda a, b: (a + b) % n, lambda a: -a % n)


def _dihedral(m: int) -> Carrier:
    # index i < m is the rotation r^i; index m + i is r^i s, with s r = r^-1 s
    def mul(a, b):
        (i, f), (j, g) = a, b
        return ((i - j if f else i + j) % m, f ^ g)

    def inv(a):
        i, f = a
        return a if f else (-i % m, 0)

    return Carrier(f"D{m}", [(i, 0) for i in range(m)] + [(i, 1) for i in range(m)], mul, inv)


def _symmetric(m: int) -> Carrier:
    # permutations in one-line notation, indexed by lexicographic rank;
    # the product a * b applies b first, then a
    def mul(a, b):
        return tuple(map(a.__getitem__, b))

    def inv(a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[v] = i
        return tuple(out)

    return Carrier(f"S{m}", list(permutations(range(m))), mul, inv)


def _elementary_abelian(p: int, d: int) -> Carrier:
    # digit vectors, least significant base-p digit first
    elements = [tuple(reversed(digits)) for digits in product(range(p), repeat=d)]

    def mul(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def inv(a):
        return tuple(-x % p for x in a)

    return Carrier(f"EA({p},{d})", elements, mul, inv)


def _direct_product(left: Carrier, right: Carrier) -> Carrier:
    # index = i_left * |right| + i_right
    def mul(a, b):
        return (left.mul(a[0], b[0]), right.mul(a[1], b[1]))

    def inv(a):
        return (left.inv(a[0]), right.inv(a[1]))

    elements = [(x, y) for x in left.elements for y in right.elements]
    return Carrier(f"{left.name}x{right.name}", elements, mul, inv)


def _factor(token: str) -> Carrier:
    if token.startswith("EA(") and token.endswith(")"):
        p, d = token[3:-1].split(",")
        return _elementary_abelian(int(p), int(d))
    kind, size = token[0], int(token[1:])
    return {"C": _cyclic, "D": _dihedral, "S": _symmetric}[kind](size)


def carrier(descriptor: str) -> Carrier:
    """Parse a document group descriptor such as C4096, D60, S7, EA(2,9), C32xC32."""
    factors = [_factor(tok) for tok in descriptor.split("x")]
    group = factors[0]
    for rhs in factors[1:]:
        group = _direct_product(group, rhs)
    return group


def quotient_covers(group: Carrier, xs, ys) -> bool:
    """True iff {x^-1 y : x in xs, y in ys} is the whole group."""
    el, mul, inv = group.elements, group.mul, group.inv
    right = [el[y] for y in ys]
    seen = set()
    for x in xs:
        ix = inv(el[x])
        seen.update(mul(ix, y) for y in right)
    return len(seen) == group.order


def least_quotient_cover(group: Carrier) -> tuple[int, ...]:
    """Lexicographically first smallest X with X^-1 X = G, by plain search."""
    for size in range(1, group.order + 1):
        for xs in combinations(range(group.order), size):
            if quotient_covers(group, xs, xs):
                return xs
    raise AssertionError(f"{group.name}: the whole group must cover")


def sample_probability(n: int, k: int) -> float:
    """p = ((k log n + log 2) / n)^(1/k), the paper's inclusion probability."""
    return ((k * math.log(n) + math.log(2)) / n) ** (1.0 / k)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * abs(b)


def _index_set(listed, n: int, what: str, problems: list) -> list:
    if sorted(set(listed)) != listed or (listed and not 0 <= listed[0] <= listed[-1] < n):
        problems.append(f"{what}: not a sorted duplicate-free index list in 0..{n - 1}")
    return listed


def check_cover_doc(doc: dict) -> list[str]:
    """A k-covering document: p, the 2pn member cap, |X| <= n/2, X^-1 X = G at k=2."""
    problems: list[str] = []
    group = carrier(doc["group"])
    n, k = group.order, doc["k"]
    p = sample_probability(n, k)
    if not _close(doc["p"], p):
        problems.append(f"p = {doc['p']} but the formula gives {p}")
    if any(size > 2 * p * n for size in doc["sizes"]) or len(doc["sizes"]) != k:
        problems.append(f"member sizes {doc['sizes']} break the 2pn cap {2 * p * n:.6g}")
    xs = _index_set(doc["elements"], n, "covering set", problems)
    if len(xs) != doc["size"] or 2 * len(xs) > n:
        problems.append(f"union of size {len(xs)} (declared {doc['size']}) exceeds n/2 = {n / 2}")
    if k == 2 and not quotient_covers(group, xs, xs):
        problems.append("X^-1 X misses an element of the group")
    return problems


def check_family_doc(doc: dict, target_size: int) -> list[str]:
    """An intersecting family enlarged to `target_size`; X1^-1 X2 = G when exhaustive."""
    problems: list[str] = []
    group = carrier(doc["group"])
    n, k = group.order, doc["k"]
    p = sample_probability(n, k)
    if not _close(doc["p"], p):
        problems.append(f"p = {doc['p']} but the formula gives {p}")
    if not 2 * p * n < target_size <= n:
        problems.append(f"target size {target_size} is not above the 2pn cap {2 * p * n:.6g}")
    members = [_index_set(m, n, f"member {i + 1}", problems) for i, m in enumerate(doc["subsets"])]
    if len(members) != k or [len(m) for m in members] != [target_size] * k:
        problems.append(f"member sizes {[len(m) for m in members]} differ from {target_size}")
    if doc["sizes"] != [len(m) for m in members] or doc["target_size"] != target_size:
        problems.append("declared sizes disagree with the listed members")
    exhaustive = doc["verification"]["mode"] == "exhaustive"
    if k == 2 and exhaustive and not quotient_covers(group, members[0], members[1]):
        problems.append("X1^-1 X2 misses an element of the group")
    return problems


def check_verdict(verdict: dict, code: int, source: dict) -> list[str]:
    """A re-verification of `source` passed with a complete method."""
    problems = []
    record = verdict["verification"]
    if code != 0 or record["result"] is not True:
        problems.append(f"re-verification failed (exit {code}, witness {record['witness']})")
    n = carrier(source["group"]).order
    k = source["k"]
    complete_possible = (
        n**k <= STEP_BUDGET
        if source["kind"] == "intersecting-family"
        else n * math.comb(n, k) <= STEP_BUDGET or (k == 2 and n <= PAIRWISE_LIMIT)
    )
    if complete_possible and record["mode"] != "exhaustive":
        problems.append(f"auto re-verification chose {record['mode']} within budget")
    if verdict["input_kind"] != source["kind"] or verdict["group"] != source["group"]:
        problems.append("verdict names another document")
    return problems


def check_exact_doc(doc: dict, least_cover_size: dict) -> list[str]:
    """exact-cov gives 1 at k=1 and the least |X| with X^-1 X = G at k=2."""
    k, value = doc["k"], doc["value"]
    expected = 1 if k == 1 else least_cover_size[doc["group"]]
    if value != expected:
        return [f"{doc['group']} k={k}: exact value {value}, independent search {expected}"]
    return []


def _thin_bound(i: int) -> int:
    return 1 if i == 0 else i


class TowerMembership:
    """Stage sets rebuilt from a tower document's covers alone.

    x is in X_s iff floor(x / |G_{s-1}|) is in L_s and x mod |G_{s-1}| is in
    X_{s-1}; X_0 is {0} in the trivial group.
    """

    def __init__(self, doc: dict):
        self.orders = [1]
        for n in doc["kernel_orders"]:
            self.orders.append(self.orders[-1] * n)
        self.covers = [None] + [set(stage["cover"]) for stage in doc["stages"]]

    def member(self, s: int, x: int) -> bool:
        while s > 0:
            below = self.orders[s - 1]
            if x // below not in self.covers[s]:
                return False
            x %= below
            s -= 1
        return x == 0


def check_tower_doc(doc: dict) -> list[str]:
    """Stage sizes are the factored products and obey |X_i| 2^i <= |G_i|."""
    problems = []
    orders = TowerMembership(doc).orders
    size = 1
    for i, stage in enumerate(doc["stages"], start=1):
        cover = stage["cover"]
        kernel = doc["kernel_orders"][i - 1]
        _index_set(cover, kernel, f"stage {i} cover", problems)
        size *= len(cover)
        if stage["group_order"] != orders[i] or stage["set_size"] != size:
            problems.append(f"stage {i}: declared sizes disagree with the covers")
        if size * 2**i > orders[i]:
            problems.append(f"stage {i}: |X_{i}| = {size} breaks |G_{i}| / 2^{i}")
        if stage["covering_k"] == 2 and not quotient_covers(_cyclic(kernel), cover, cover):
            problems.append(f"stage {i}: the 2-cover misses a quotient")
    return problems


def check_translation_doc(doc: dict, tower_doc: dict, samples: int) -> list[str]:
    """Each thin set is thin and its translator lands it inside X_d."""
    problems = []
    stages = TowerMembership(tower_doc)
    d = doc["depth"]
    top = stages.orders[d]
    if doc["samples"] != samples or doc["success"] != samples or len(doc["results"]) != samples:
        problems.append(f"expected {samples} translated thin sets")
    for r, result in enumerate(doc["results"]):
        ys, g = result["elements"], result["translator"]
        for i in range(d + 1):
            if len({y % stages.orders[i] for y in ys}) > _thin_bound(i):
                problems.append(f"result {r}: level {i} image is not thin")
        if not 0 <= g < top or not all(stages.member(d, (g + y) % top) for y in ys):
            problems.append(f"result {r}: translator {g} does not land {ys} inside X_{d}")
        if len(problems) > 20:
            break
    return problems
