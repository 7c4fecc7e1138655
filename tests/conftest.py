"""Shared naive oracles, deliberately independent of the library internals.

These use plain python sets and explicit loops so they exercise none of the
bitmask or difference-set machinery they are used to check.
"""

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
