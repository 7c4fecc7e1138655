"""Property tests of the quotient-set kernel against the naive oracles.

Both complete k = 2 checks build a quotient set {a^{-1} b : a in X, b in Y}:
the tuple scan of an intersecting pair takes X = X_2 and Y = X_1, the
difference-set criterion of a 2-covering set takes X = Y.  These compare
their witnesses with the conftest oracles, which translate plain python
sets, on non-abelian carriers (where X_2^{-1} X_1, X_1^{-1} X_2, X_1 X_2^{-1}
and X_2 X_1 all differ) as well as on rotation and XOR carriers.

Rotation carriers OR bitmask rotations; every other carrier gathers the
products of group.left_products into one set.  S_m computes a whole left
translate by one byte relabelling; S3, S4 and S5 check that path on
passing and failing sets.  The twin-carrier test pits the two branches against
each other on C_n and C1 x C_n, which multiply alike on the same indices,
at orders up to 5040 where the full-group stop comes late or never.
"""

import itertools
import os
import random
from unittest import mock

import pytest
from conftest import (
    naive_first_empty_tuple,
    naive_first_untranslatable,
    naive_is_k_covering,
    naive_untranslatable_test,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from covtrans import (
    CyclicGroup,
    DirectProductGroup,
    GroupSubset,
    group_from_descriptor,
    verify_intersecting,
    verify_k_covering,
)
from covtrans.covering import _quotient_witness

PROPERTY_SETTINGS = settings(max_examples=120, derandomize=True, database=None, deadline=None)

NON_ABELIAN = ["S3", "S4", "S5", "D4", "D5", "D6", "D7", "C2xS3", "S3xC2"]

carriers = st.one_of(
    st.sampled_from(NON_ABELIAN),
    st.integers(3, 32).map(lambda n: f"C{n}"),
    st.integers(1, 5).map(lambda d: f"EA(2,{d})"),
).map(group_from_descriptor)


def subsets(draw, group) -> GroupSubset:
    """A subset of the carrier: empty, full, or of low, middling or high density."""
    density = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.8, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return GroupSubset.from_indices(group, [i for i in range(group.order) if rng.random() < density])


@st.composite
def pairs(draw):
    group = draw(carriers)
    return group, subsets(draw, group), subsets(draw, group)


@st.composite
def singles(draw):
    group = draw(carriers)
    return group, subsets(draw, group)


@given(pairs())
@PROPERTY_SETTINGS
def test_pair_tuple_scan_matches_naive_first_empty_tuple(case):
    group, x1, x2 = case
    expected = naive_first_empty_tuple(group, [list(x1), list(x2)])
    rec = verify_intersecting(group, [x1, x2], mode="exhaustive")
    assert (rec.mode, rec.method) == ("exhaustive", "tuple-scan")
    assert (rec.result, rec.witness) == (expected is None, expected)


@given(singles())
@PROPERTY_SETTINGS
def test_difference_witness_matches_naive_first_untranslatable(case):
    group, x = case
    expected = naive_first_untranslatable(group, list(x), 2)
    assert _quotient_witness(group, x, x, 1) == expected
    # the same witness through verify_k_covering, which proves k = 2 by this kernel at any budget
    with mock.patch.dict(os.environ, {"COVTRANS_BUDGET": "1"}):
        rec = verify_k_covering(group, x, 2, mode="exhaustive")
    assert (rec.method, rec.result, rec.witness) == ("difference-set", expected is None, expected)


@pytest.mark.parametrize("k", [1, 2, 3])
@given(data=st.data())
@PROPERTY_SETTINGS
def test_k_covering_is_the_k_fold_family_check(k, data):
    # X g_1, ..., X g_k meet iff {g_1^{-1}, ..., g_k^{-1}} translates into X,
    # so for k <= n X is k-covering iff (X, ..., X) is intersecting: a tuple
    # with repeats names a smaller set, which translates whenever a size-k
    # set holding it does.  The naive k = 3 oracle is kept to order <= 24.
    group = data.draw(carriers if k < 3 else carriers.filter(lambda g: g.order <= 24))
    x = subsets(data.draw, group)
    covering = naive_is_k_covering(group, list(x), k)
    rec = verify_k_covering(group, x, k, mode="exhaustive")
    assert (rec.mode, rec.result) == ("exhaustive", covering)
    if k > group.order:  # no size-k subsets: vacuous, where the family asks for smaller ones
        assert rec.method == "vacuous"
        return
    family = verify_intersecting(group, [x] * k, mode="exhaustive")
    assert family.result == covering
    if not covering:  # the family's first empty tuple names an untranslatable Y
        ys = sorted({group.inv(g) for g in family.witness})
        assert naive_untranslatable_test(group, list(x))(ys)


def test_pair_tuple_scan_uses_x2_inverse_x1_not_x1_inverse_x2():
    # in S3, X_2^{-1} X_1 = {0, 1, 2, 4}, while X_1^{-1} X_2 = {0, 1, 2, 3}
    group = group_from_descriptor("S3")
    x1 = GroupSubset.from_indices(group, [0, 3])
    x2 = GroupSubset.from_indices(group, [2, 3])
    assert _quotient_witness(group, x2, x1, 0) != _quotient_witness(group, x1, x2, 0)
    expected = naive_first_empty_tuple(group, [list(x1), list(x2)])
    assert expected == (0, 3)
    rec = verify_intersecting(group, [x1, x2], mode="exhaustive")
    assert (rec.result, rec.witness) == (False, (0, 3))
    swapped = verify_intersecting(group, [x2, x1], mode="exhaustive")
    assert swapped.witness == naive_first_empty_tuple(group, [list(x2), list(x1)])
    assert swapped.witness == (0, 4)


def _twin_sets(n: int) -> dict[str, list[int]]:
    """Empty, two disjoint sparse (about 2 sqrt(n) members), dense (about n/2) and full sets.

    The sparse pair has no common member, so its quotient set misses 0 and
    the witnesses at start 0 and 1 differ.
    """
    rng = random.Random(n)
    sparse_p = min(0.5, 2 / n**0.5)
    sparse = {i for i in range(n) if rng.random() < sparse_p}
    return {
        "empty": [],
        "sparse": sorted(sparse),
        "other sparse": [i for i in range(n) if i not in sparse and rng.random() < sparse_p],
        "dense": [i for i in range(n) if rng.random() < 0.5],
        "full": list(range(n)),
    }


@pytest.mark.parametrize("n", [7, 64, 1031, 5040])
def test_flag_array_branch_matches_rotation_branch_on_a_twin_carrier(n):
    # C1 x C_n multiplies exactly like C_n on the same indices, but it is not
    # a rotation carrier, so its quotient sets take the set branch
    cyc = CyclicGroup(n)
    twin = DirectProductGroup(CyclicGroup(1), CyclicGroup(n))
    assert cyc.additive_rotation and not twin.additive_rotation
    sets = _twin_sets(n)
    for xs, ys in itertools.product(sets.values(), repeat=2):
        for start in (0, 1):
            expected = _quotient_witness(
                cyc, GroupSubset.from_indices(cyc, xs), GroupSubset.from_indices(cyc, ys), start
            )
            got = _quotient_witness(
                twin, GroupSubset.from_indices(twin, xs), GroupSubset.from_indices(twin, ys), start
            )
            assert got == expected, (n, len(xs), len(ys), start)
