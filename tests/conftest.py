"""Shared naive oracles, deliberately independent of the library internals.

These use plain python sets and explicit loops so they exercise none of the
bitmask or difference-set machinery they are used to check.  The two
full-translate sampled loops and the full-rotation translate search at the
end are the exception: they translate whole sets with
GroupSubset.right_translate, whose own test compares it with naive
translates, so that they stay fast on C131072.
"""

import random
from itertools import combinations, product
from math import factorial


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
            acc &= s.right_translate(group.mul(g, inv_first)).bits
        if not acc:
            return False, t + 1, tup
    return True, trials, None


def full_translate_sampled_covering(group, x, k, trials, seed):
    """(result, trials, witness) of the sampled subset check, translating in full.

    Draws like verify_k_covering's sampled mode, and on each trial
    right-translates X by y^{-1} y_1 for every later y of the drawn Y.
    """
    rng = random.Random(seed)
    for t in range(trials):
        ys = sorted(rng.sample(range(group.order), k))
        acc = x.bits
        for y in ys[1:]:
            acc &= x.right_translate(group.mul(group.inv(y), ys[0])).bits
        if not acc:
            return False, t + 1, tuple(ys)
    return True, trials, None


def full_rotation_translate_into(group, y, x):
    """Smallest g with g*Y inside X, or None, by intersecting whole translates.

    ANDs the full right translates X*y^{-1}, each computed by
    GroupSubset.right_translate, and takes the lowest set bit.  The reference
    for translate_into's windowed search on rotation carriers.
    """
    ys = list(y)
    if not ys:
        return group.identity
    acc = (1 << group.order) - 1
    for yi in ys:
        acc &= x.right_translate(group.inv(yi)).bits
    if not acc:
        return None
    return (acc & -acc).bit_length() - 1


def naive_set_bits(x):
    """Set-bit indices of x >= 0, ascending, read off its binary string."""
    return [i for i, c in enumerate(reversed(bin(x)[2:])) if c == "1"]


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
    for stage in tower.stages[:i]:
        phi = tower.spec.quotient_map(stage.index)
        members = naive_factored_members(phi, members, stage.subset.kernel_cover.indices())
    return members
