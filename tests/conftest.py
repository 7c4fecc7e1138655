"""Shared naive oracles, deliberately independent of the library internals.

These use plain python sets and explicit loops so they exercise none of the
bitmask or difference-set machinery they are used to check.  Besides the
covering oracles, among them the quotient-set criterion
difference_product_full, and the reference group products there are S_m's
permutation decode and rank in lexicographic (Lehmer) order, the axiom
checker, which asserts the identity, inverse and associativity laws of a
group's oracles, and element orders by repeated multiplication.  Whole sets
are built by full_subset and translated by right_translate, a wrapper of
subsets._translate_bits, whose own test compares it with naive translates:
the two full-translate sampled loops and the full-rotation translate search
use it so that they stay fast on C131072.  random_subset's masks are
checked against a per-element loop over a bit buffer.  Then come the
tower's stage measures, its stage members, its thin-set sampler by
randrange, a thin set's level images mapped down through the stage maps,
its thin-set lift computed through those maps (the lift shares
translate_into with the library), a thin set's translator sets T_i
and their pullbacks along the tower's reductions (the sets are right
translates of the stage masks), the element-by-element canonical JSON
emitter that util.canonical_json replaced for lists of ints, the
quotient-map contract of a tower's reduction, and a text comparison that
stays fast on large documents.
"""

import functools
import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial

import pytest

from covtrans import CyclicGroup, GroupSubset, make_thin_set, thin_bound, translate_into
from covtrans.subsets import _translate_bits


def naive_is_k_covering(group, members, k) -> bool:
    """Every size-k subset Y has some g with {g*y} inside the member set."""
    ms = set(members)
    n = group.order
    for ys in combinations(range(n), k):
        if not any(all(group.mul(g, y) in ms for y in ys) for g in range(n)):
            return False
    return True


def naive_exact_cov(group, k) -> int:
    for s in range(group.order + 1):
        for members in combinations(range(group.order), s):
            if naive_is_k_covering(group, members, k):
                return s
    raise AssertionError("no covering subset at all")


def naive_is_intersecting(group, member_lists) -> bool:
    """Every tuple of right translates has a common element."""
    n = group.order
    sets = [set(m) for m in member_lists]
    tuples = [()]
    for _ in sets:
        tuples = [t + (g,) for t in tuples for g in range(n)]
    for tup in tuples:
        translated = [{group.mul(x, g) for x in s} for s, g in zip(sets, tup)]
        common = translated[0]
        for t in translated[1:]:
            common = common & t
        if not common:
            return False
    return True


def naive_empty_tuple_test(group, member_lists):
    """Predicate on (g_1, ..., g_k): do the right translates X_i * g_i all miss?"""
    n = group.order
    tables = [[{group.mul(x, g) for x in members} for g in range(n)] for members in member_lists]

    def empty(tup) -> bool:
        common = tables[0][tup[0]]
        for table, g in zip(tables[1:], tup[1:]):
            common = common & table[g]
        return not common

    return empty


def naive_first_empty_tuple(group, member_lists):
    """Lexicographically first failing tuple over all n^k, or None."""
    empty = naive_empty_tuple_test(group, member_lists)
    for tup in product(range(group.order), repeat=len(member_lists)):
        if empty(tup):
            return tup
    return None


def naive_untranslatable_test(group, members):
    """Predicate on a sorted Y: is there no g with {g*y} inside the member set?"""
    ms = set(members)
    n = group.order
    return lambda ys: not any(all(group.mul(g, y) in ms for y in ys) for g in range(n))


def naive_first_untranslatable(group, members, k):
    """Lexicographically first untranslatable sorted Y over all C(n,k), or None."""
    untranslatable = naive_untranslatable_test(group, members)
    for ys in combinations(range(group.order), k):
        if untranslatable(ys):
            return ys
    return None


def difference_product_full(group, members) -> bool:
    """Whether the quotient set {a^{-1} b : a, b in X} is the whole group.

    For an abelian carrier this is the difference-set criterion X - X = G,
    and X is 2-covering iff it holds.  Built as a python set over mul and
    inv, stopping once it holds all n elements.
    """
    xs = list(members)
    quotients = set()
    for a in xs:
        a_inv = group.inv(a)
        quotients.update(group.mul(a_inv, b) for b in xs)
        if len(quotients) == group.order:
            return True
    return False


@functools.lru_cache(maxsize=8)
def _lexicographic_permutations(m: int):
    perms = list(permutations(range(m)))
    return perms, {p: i for i, p in enumerate(perms)}


def perm_of(group, idx: int) -> list[int]:
    """Permutation of range(m) with index idx in S_m: the idx-th in lexicographic order."""
    perms, _ = _lexicographic_permutations(group.m)
    if not 0 <= idx < len(perms):
        raise ValueError(f"index {idx} out of range for {group.name}")
    return list(perms[idx])


def index_of(group, perm) -> int:
    """Index in S_m of a permutation of range(m), the inverse of perm_of."""
    _, rank = _lexicographic_permutations(group.m)
    idx = rank.get(tuple(perm))
    if idx is None:
        raise ValueError(f"{perm!r} is not a permutation of range({group.m})")
    return idx


def lehmer_perm_of(m: int, idx: int) -> list[int]:
    """Permutation of range(m) with Lehmer-code index idx (0 is the identity)."""
    pool = list(range(m))
    out = []
    for pos in range(m):
        q, idx = divmod(idx, factorial(m - 1 - pos))
        out.append(pool.pop(q))
    return out


def lehmer_index_of(m: int, perm) -> int:
    pool = list(range(m))
    idx = 0
    for pos, v in enumerate(perm):
        j = pool.index(v)
        idx += j * factorial(m - 1 - pos)
        pool.pop(j)
    return idx


def lehmer_mul(m: int, a: int, b: int) -> int:
    """Index of "apply b, then a" in S_m."""
    pa = lehmer_perm_of(m, a)
    pb = lehmer_perm_of(m, b)
    return lehmer_index_of(m, [pa[pb[i]] for i in range(m)])


def lehmer_inv(m: int, a: int) -> int:
    out = [0] * m
    for i, v in enumerate(lehmer_perm_of(m, a)):
        out[v] = i
    return lehmer_index_of(m, out)


def digitwise_mul(p: int, d: int, a: int, b: int) -> int:
    """(Z/p)^d addition on base-p digit indices, one digit at a time."""
    out = 0
    weight = 1
    for _ in range(d):
        out += ((a + b) % p) * weight
        a //= p
        b //= p
        weight *= p
    return out


_AXIOM_EXHAUSTIVE_ORDER = 64
_AXIOM_ELEMENTWISE_ORDER = 4096


def check_group_axioms(group, rng, triples: int = 10_000) -> None:
    """Assert the identity, inverse and associativity laws of group's oracles.

    Identity and inverse are checked at every element up to order 4096 and
    at 4096 random ones above; associativity at every triple up to order 64
    and at `triples` random ones above.
    """
    n, e = group.order, group.identity
    if n <= _AXIOM_ELEMENTWISE_ORDER:
        probe = range(n)
    else:
        probe = [rng.randrange(n) for _ in range(_AXIOM_ELEMENTWISE_ORDER)]
    for x in probe:
        assert group.mul(e, x) == x == group.mul(x, e), f"{group.name}: identity law at {x}"
        assert group.mul(x, group.inv(x)) == e, f"{group.name}: inverse law at {x}"
    if n <= _AXIOM_EXHAUSTIVE_ORDER:
        abcs = product(range(n), repeat=3)
    else:
        abcs = [(rng.randrange(n), rng.randrange(n), rng.randrange(n)) for _ in range(triples)]
    for a, b, c in abcs:
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c)), (
            f"{group.name}: associativity at {(a, b, c)}"
        )


def element_order(group, a: int) -> int:
    """Multiplicative order of a, by multiplying until the identity."""
    current, k = a, 1
    while current != group.identity:
        current, k = group.mul(current, a), k + 1
        assert k <= group.order, f"{group.name}: {a} never reaches the identity"
    return k


def element_orders(group) -> list[int]:
    """Sorted multiset of element orders; an isomorphism diagnostic."""
    return sorted(element_order(group, x) for x in range(group.order))


def full_subset(group) -> GroupSubset:
    """The whole group as a subset."""
    return GroupSubset(group, (1 << group.order) - 1)


def right_translate(subset, g: int) -> GroupSubset:
    """The set {x * g : x in subset}, as subsets._translate_bits computes it."""
    return GroupSubset(subset.group, _translate_bits(subset, g))


def full_translate_sampled_intersecting(group, subsets, trials, seed):
    """(result, trials, witness) of the sampled tuple check, translating in full.

    Draws like verify_intersecting's sampled mode, and on each trial
    right-translates every X_i, i >= 2, by g_i g_1^{-1} as a whole set.  The
    reference for the verifier's early-stopping meet test.
    """
    rng = random.Random(seed)
    n = group.order
    for t in range(trials):
        tup = tuple(rng.randrange(n) for _ in subsets)
        inv_first = group.inv(tup[0])
        acc = subsets[0].bits
        for s, g in zip(subsets[1:], tup[1:]):
            acc &= right_translate(s, group.mul(g, inv_first)).bits
        if not acc:
            return False, t + 1, tup
    return True, trials, None


def full_translate_sampled_covering(group, x, k, trials, seed):
    """(result, trials, witness) of the sampled k-covering check, translating in full.

    Draws like verify_k_covering's sampled mode: k uniform translators g_i
    per trial, repeats included.  g Y lies in X iff g is in every X y^{-1},
    so Y = {g_1^{-1}, ..., g_k^{-1}} is untranslatable iff the whole right
    translates X g_i have no common element.  A failing trial is reported as
    that Y, sorted and without repeats.
    """
    rng = random.Random(seed)
    n = group.order
    for t in range(trials):
        gs = [rng.randrange(n) for _ in range(k)]
        acc = (1 << n) - 1
        for g in gs:
            acc &= right_translate(x, g).bits
        if not acc:
            return False, t + 1, tuple(sorted({group.inv(g) for g in gs}))
    return True, trials, None


def full_rotation_translate_into(y, x):
    """Smallest g with g*Y inside X, or None, by intersecting whole translates.

    ANDs the full right translates X*y^{-1}, each computed by
    right_translate, and takes the lowest set bit.  The reference
    for translate_into's windowed search on rotation carriers.
    """
    group = x.group
    ys = list(y)
    if not ys:
        return group.identity
    acc = (1 << group.order) - 1
    for yi in ys:
        acc &= right_translate(x, group.inv(yi)).bits
    if not acc:
        return None
    return (acc & -acc).bit_length() - 1


def stage_measures(tower) -> list[Fraction]:
    """|X_s| / |G_s| for each built stage s, read off stage.subset."""
    return [Fraction(stage.subset.size, stage.subset.group.order) for stage in tower.stages]


def naive_set_bits(x):
    """Set-bit indices of x >= 0, ascending, read off its binary string."""
    return [i for i, c in enumerate(reversed(bin(x)[2:])) if c == "1"]


def reference_random_subset_bits(n: int, p: float, rng: random.Random) -> int:
    """Mask of a random p-subset of n elements: bit i is set iff the i-th rng.random() is below p.

    One draw per element in index order, into a bit buffer: it shares no
    code with GroupSubset.from_indices, which random_subset builds through.
    """
    buf = bytearray((n + 7) >> 3)
    for i in range(n):
        if rng.random() < p:
            buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def naive_enlarge_bits(bits: int, n: int, l: int) -> int:
    """bits with non-members added one at a time, least first, until l of the n elements are in."""
    members = set(naive_set_bits(bits))
    for i in range(n):
        if len(members) == l:
            break
        members.add(i)
    return sum(1 << i for i in members)


def naive_factored_members(phi, base, cover):
    """embed(v) * section(b) for b in base and v in cover, through the stage map phi.

    The factored enumeration the tower used before its sets became digit
    products: it goes through the epimorphism's section and kernel embedding,
    never through divmod.  Sorted, with repeats kept, so a length check
    catches a product that fails to be injective.
    """
    mul = phi.source.mul
    shifts = [phi.embed_kernel(v) for v in cover]
    return sorted(mul(shift, phi.section(b)) for b in base for shift in shifts)


def naive_stage_members(tower, i):
    """Members of the tower's X_i, by naive_factored_members stage after stage."""
    members = [0]
    for s, stage in enumerate(tower.stages[:i], start=1):
        phi = tower.spec.quotient_map(s)
        members = naive_factored_members(phi, members, list(stage.subset.kernel_cover))
    return members


def level_images(spec, thin) -> list:
    """The level images Y_0, ..., Y_d of a thin set, each sorted.

    Y_d is the set's elements, and Y_{i-1} is the image of Y_i under the
    stage map G_i -> G_{i-1}, spec.quotient_map(i).map, one level at a time,
    not by the direct reductions mod |G_i| that make_thin_set and
    translate_thin compute.
    """
    images = [tuple(thin.elements)]
    for i in range(thin.depth, 0, -1):
        images.append(tuple(sorted(set(map(spec.quotient_map(i).map, images[-1])))))
    return images[::-1]


def reference_lift(tower, thin):
    """(translator, stage translators g_0, ..., g_d) of translate_thin, lifted through the stage maps.

    The lift as the tower computed it before it became integer arithmetic:
    take the canonical preimage section(g) of g_{s-1}, read the kernel
    coordinates of each shifted fiber element w section(map(w))^{-1}, and
    embed the translator u found back as embed_kernel(u) section(g).  It
    shares translate_into with the library and no arithmetic.
    """
    g, chain, images = 0, [0], level_images(tower.spec, thin)
    for s in range(1, thin.depth + 1):
        phi, cover = tower.spec.quotient_map(s), tower.stages[s - 1].subset.kernel_cover
        mul, inv = phi.source.mul, phi.source.inv
        g_tilde = phi.section(g)
        offsets = set()
        for y in images[s]:
            w = mul(g_tilde, y)
            offsets.add(phi.kernel_coords(mul(w, inv(phi.section(phi.map(w))))))
        u = translate_into(sorted(offsets), cover)
        assert u is not None, (s, sorted(offsets))
        g = mul(phi.embed_kernel(u), g_tilde)
        chain.append(g)
    return g, tuple(chain)


def reference_sample_thin_set(spec, depth, rng, fullness=1.0):
    """sample_thin_set as it drew before its draws were inlined: by rng.randrange.

    Level i draws, thin_bound(i) times, a pick h of level i - 1 and a kernel
    element v, both by randrange, and picks embed_kernel(v) h in G_i unless
    it is already picked; with fullness below 1 each top-level pick is then
    kept on one rng.random() draw.
    """
    levels = [[0]]
    for i in range(1, depth + 1):
        phi = spec.quotient_map(i)
        prev, chosen = levels[-1], []
        for _ in range(thin_bound(i)):
            h = prev[rng.randrange(len(prev))]
            x = phi.source.mul(phi.embed_kernel(rng.randrange(spec.kernel_orders[i - 1])), h)
            if x not in chosen:
                chosen.append(x)
        levels.append(chosen)
    kept = levels[depth]
    if fullness < 1.0:
        kept = [x for x in kept if rng.random() < fullness]
    return make_thin_set(spec, depth, kept)


@functools.lru_cache(maxsize=4)
def naive_stage_masks(tower) -> tuple[int, ...]:
    """Bitmasks of the tower's X_0, ..., X_d from naive_stage_members, once per tower."""
    return tuple(
        sum(1 << x for x in naive_stage_members(tower, i)) for i in range(tower.depth + 1)
    )


def witness_levels(tower, thin) -> list:
    """Translator sets T_i = {h in G_i : h * Y_i inside X_i} for i = 0..d.

    T_i is the intersection of the right translates X_i * y^{-1} over the
    level-i image Y_i of level_images, each computed by right_translate.
    """
    levels = []
    for i, image in enumerate(level_images(tower.spec, thin)):
        group = CyclicGroup(tower.spec.group_order(i))
        stage = GroupSubset(group, naive_stage_masks(tower)[i])
        acc = (1 << group.order) - 1
        for y in image:
            acc &= right_translate(stage, group.inv(y)).bits
        levels.append(GroupSubset(group, acc))
    return levels


def pullback_dense(modulus: int, kernel_order: int, target_bits: int) -> int:
    """The preimage over C_{N n} of a bitmask over C_N, N = modulus, n = kernel_order."""
    if target_bits < 0 or target_bits >> modulus:
        name = f"C{modulus * kernel_order}->C{modulus}"
        raise ValueError(f"{name} is not a cyclic reduction onto the bitmask's carrier")
    repunit = ((1 << (modulus * kernel_order)) - 1) // ((1 << modulus) - 1)
    return target_bits * repunit


def witness_sets_nested(tower, levels) -> bool:
    """Whether each T_{i+1} lies within the pullback of T_i."""
    for i, (low, high) in enumerate(zip(levels, levels[1:])):
        lifted = pullback_dense(tower.spec.group_order(i), tower.spec.kernel_orders[i], low.bits)
        if high.bits & ~lifted:
            return False
    return True


def reference_canonical_json(obj, indent: int = 2) -> str:
    """canonical_json as emitted element by element, with no fast path for int lists."""
    out = []

    def emit(obj, level):
        pad = " " * (indent * (level + 1))
        close_pad = " " * (indent * level)
        if obj is None:
            out.append("null")
        elif obj is True:
            out.append("true")
        elif obj is False:
            out.append("false")
        elif isinstance(obj, int):
            out.append(str(obj))
        elif isinstance(obj, float):
            out.append(format(obj, ".12g"))
        elif isinstance(obj, str):
            out.append(json.dumps(obj))
        elif isinstance(obj, dict):
            if not obj:
                out.append("{}")
                return
            out.append("{\n")
            for i, (key, value) in enumerate(obj.items()):
                out.append(pad + json.dumps(key) + ": ")
                emit(value, level + 1)
                out.append(",\n" if i + 1 < len(obj) else "\n")
            out.append(close_pad + "}")
        else:
            seq = list(obj)
            if not seq:
                out.append("[]")
                return
            out.append("[\n")
            for i, value in enumerate(seq):
                out.append(pad)
                emit(value, level + 1)
                out.append(",\n" if i + 1 < len(seq) else "\n")
            out.append(close_pad + "]")

    emit(obj, 0)
    return "".join(out)


_CONTRACT_EXHAUSTIVE_ORDER = 4096
_CONTRACT_PROBES = 4096


def naive_reduction_contract(phi) -> None:
    """Assert the quotient-map contract of phi through its methods and group oracles.

    map(section(h)) = h; map(a b) = map(a) map(b); {embed_kernel(v)} is the
    fiber of e; kernel_coords inverts embed_kernel and raises off the kernel.
    Every element and every pair of a source of order up to 4096 is checked;
    above that, seeded random ones, with fiber elements drawn as
    x section(map(x))^{-1}.
    """
    src, tgt, ker = phi.source, phi.target, phi.kernel_group
    assert ker.order * tgt.order == src.order
    e, rng = tgt.identity, random.Random(0)
    exhaustive = src.order <= _CONTRACT_EXHAUSTIVE_ORDER

    def elements(group):
        if exhaustive:
            return range(group.order)
        return [rng.randrange(group.order) for _ in range(_CONTRACT_PROBES)]

    for h in elements(tgt):
        assert phi.map(phi.section(h)) == h, h
    pairs = product(range(src.order), repeat=2) if exhaustive else zip(elements(src), elements(src))
    for a, b in pairs:
        assert phi.map(src.mul(a, b)) == tgt.mul(phi.map(a), phi.map(b)), (a, b)
    for v in elements(ker):
        assert phi.kernel_coords(phi.embed_kernel(v)) == v, v
    if exhaustive:
        fiber = {x for x in range(src.order) if phi.map(x) == e}
        assert {phi.embed_kernel(v) for v in range(ker.order)} == fiber
    else:
        fiber = {src.mul(x, src.inv(phi.section(phi.map(x)))) for x in elements(src)}
        for x in fiber:
            assert phi.map(x) == e and phi.embed_kernel(phi.kernel_coords(x)) == x, x
    for x in elements(src):
        if phi.map(x) != e:
            with pytest.raises(ValueError, match="not in the kernel"):
                phi.kernel_coords(x)


def assert_same_text(got: str, want: str) -> None:
    """Fail at the first differing offset; a bare assert would diff whole documents."""
    if got != want:
        at = next(i for i, (a, b) in enumerate(zip(got + "\0", want + "\1")) if a != b)
        lo = max(at - 20, 0)
        pytest.fail(f"first difference at offset {at}: {got[lo : at + 20]!r} vs {want[lo : at + 20]!r}")
