import math
import random

import pytest
from conftest import (
    full_translate_sampled_covering,
    full_translate_sampled_intersecting,
    naive_empty_tuple_test,
    naive_exact_cov,
    naive_first_empty_tuple,
    naive_first_untranslatable,
    naive_is_intersecting,
    naive_is_k_covering,
    naive_untranslatable_test,
)

from covtrans import (
    CyclicGroup,
    DihedralGroup,
    GroupSubset,
    construct_intersecting_family,
    construct_k_covering,
    covering,
    covering_condition,
    covering_number_bounds,
    difference_product_full,
    exact_covering_number,
    greedy_shrink_intersection,
    group_from_descriptor,
    intersecting_family_feasible,
    member_size_cap,
    random_subset,
    sample_probability,
    verify_intersecting,
    verify_k_covering,
)
from covtrans.errors import (
    BudgetExceededError,
    ConstructionError,
    FeasibilityError,
)
from covtrans.subsets import translates_meet
from covtrans.util import canonical_json

REL = 1e-12
# carriers on which verifier witnesses are compared with the full-scan oracles
WITNESS_GROUPS = ("C8", "C12", "D4", "D6", "S3", "S4", "C2xC4")


def test_feasibility_frozen_values():
    assert intersecting_family_feasible(100, 2)
    assert intersecting_family_feasible(1024, 2)
    assert not intersecting_family_feasible(3, 3)
    assert (3 - math.log(2)) / math.log(3) == pytest.approx(2.0997879263090544, rel=REL)
    with pytest.raises(FeasibilityError):
        intersecting_family_feasible(2, 1)
    with pytest.raises(FeasibilityError):
        intersecting_family_feasible(10, 0)


def test_sample_probability_frozen_values():
    assert sample_probability(100, 2) == pytest.approx(0.31469807041887193, rel=REL)
    assert sample_probability(512, 2) == pytest.approx(0.16038160322677822, rel=REL)
    # k = 1 exponent collapses to (log n + log 2) / n
    assert sample_probability(100, 1) == pytest.approx((math.log(100) + math.log(2)) / 100, rel=REL)
    assert member_size_cap(512, 2) == pytest.approx(164.2307617042209, rel=REL)
    with pytest.raises(FeasibilityError):
        sample_probability(3, 3)


def test_covering_condition_frozen_values():
    assert covering_condition(1024, 2) and 64 * (2 * math.log(1024) + math.log(2)) == pytest.approx(
        931.5898106725665, rel=REL
    )
    assert covering_condition(131072, 3)
    assert not covering_condition(64, 2)
    assert 64 * (2 * math.log(64) + math.log(2)) == pytest.approx(576.6984542258745, rel=REL)


def test_verify_intersecting_full_sets_and_singletons():
    g = CyclicGroup(6)
    full = GroupSubset.full(g)
    rec = verify_intersecting(g, [full, full, full], mode="exhaustive")
    assert rec.result and rec.witness is None

    c2 = CyclicGroup(2)
    e = GroupSubset.from_indices(c2, [0])
    rec = verify_intersecting(c2, [e, e], mode="exhaustive")
    assert not rec.result
    assert rec.witness == (0, 1)


def test_verify_intersecting_difference_set_pair():
    g = CyclicGroup(7)
    qr = GroupSubset.from_indices(g, [1, 2, 4])
    rec = verify_intersecting(g, [qr, qr], mode="exhaustive")
    assert rec.result  # all 49 translate pairs meet


def test_verify_intersecting_matches_naive_oracle():
    rng = random.Random(5)
    g = CyclicGroup(6)
    d = DihedralGroup(3)
    for group in (g, d):
        for _ in range(25):
            subsets = [random_subset(group, rng.uniform(0.2, 0.8), rng) for _ in range(2)]
            rec = verify_intersecting(group, subsets, mode="exhaustive")
            assert rec.result == naive_is_intersecting(group, [s.indices() for s in subsets])


def test_verify_intersecting_triple_families_match_naive_oracle():
    rng = random.Random(41)
    for group in (CyclicGroup(5), CyclicGroup(6), DihedralGroup(3)):
        for _ in range(15):
            subsets = [random_subset(group, rng.uniform(0.3, 0.9), rng) for _ in range(3)]
            members = [s.indices() for s in subsets]
            rec = verify_intersecting(group, subsets, mode="exhaustive")
            assert rec.result == naive_is_intersecting(group, members)
            # the witness is the lexicographically first failing triple
            assert rec.witness == naive_first_empty_tuple(group, members)


def test_verify_intersecting_witness_is_lexicographic_first():
    g = CyclicGroup(5)
    a = GroupSubset.from_indices(g, [0, 1])
    b = GroupSubset.from_indices(g, [0])
    rec = verify_intersecting(g, [a, b], mode="exhaustive")
    assert not rec.result
    # recompute by brute force
    expected = None
    for g1 in range(5):
        for g2 in range(5):
            ta = {(x + g1) % 5 for x in (0, 1)}
            tb = {(0 + g2) % 5}
            if not ta & tb:
                expected = (g1, g2)
                break
        if expected:
            break
    assert rec.witness == expected


def test_verify_intersecting_witnesses_match_naive_oracles():
    # Low densities make some draws fail, so witnesses are compared too.  The
    # sampled replay draws the same tuples and judges each with the oracle.
    rng = random.Random(9)
    outcomes = set()
    sampled_outcomes = set()
    for desc in WITNESS_GROUPS:
        group = group_from_descriptor(desc)
        for k in (1, 2, 3):
            for _ in range(4):
                subsets = [random_subset(group, rng.uniform(0.02, 0.95), rng) for _ in range(k)]
                members = [s.indices() for s in subsets]
                expected = naive_first_empty_tuple(group, members)
                got = verify_intersecting(group, subsets, mode="exhaustive")
                assert got.method == "tuple-scan"
                assert (got.result, got.witness) == (expected is None, expected)
                outcomes.add((k, expected is None))

                empty = naive_empty_tuple_test(group, members)
                draws = random.Random(k)
                replay = (True, 30, None)
                for t in range(30):
                    tup = tuple(draws.randrange(group.order) for _ in range(k))
                    if empty(tup):
                        replay = (False, t + 1, tup)
                        break
                got = verify_intersecting(group, subsets, mode="sampled", trials=30, seed=k)
                assert (got.result, got.trials, got.witness) == replay
                sampled_outcomes.add(replay[0])
    assert sampled_outcomes == {True, False}
    assert outcomes == {(k, ok) for k in (1, 2, 3) for ok in (True, False)}


def test_verify_budget_guard(monkeypatch):
    g = CyclicGroup(512)
    s = GroupSubset.full(g)
    monkeypatch.setenv("COVTRANS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="sampled"):
        verify_intersecting(g, [s, s], mode="exhaustive")
    rec = verify_intersecting(g, [s, s], mode="auto", trials=50)
    assert rec.mode == "sampled" and rec.result and rec.trials == 50


def test_construct_family_desk_case():
    g = CyclicGroup(512)
    fam = construct_intersecting_family(g, 2, seed=7)
    cap = member_size_cap(512, 2)
    assert fam.attempts_used <= 100
    assert all(s <= cap for s in fam.sizes)
    assert fam.verification.mode == "exhaustive" and fam.verification.result


def test_construct_family_k1_nonempty():
    g = CyclicGroup(512)
    fam = construct_intersecting_family(g, 1, seed=3)
    assert len(fam.subsets) == 1 and fam.sizes[0] > 0
    assert fam.verification.result


def test_construct_family_determinism():
    g = CyclicGroup(256)
    a = construct_intersecting_family(g, 2, seed=123)
    b = construct_intersecting_family(g, 2, seed=123)
    assert canonical_json(a.document()) == canonical_json(b.document())
    c = construct_intersecting_family(g, 2, seed=124)
    assert [s.bits for s in a.subsets] != [s.bits for s in c.subsets]


def test_construct_family_enlargement():
    g = CyclicGroup(1024)
    fam = construct_intersecting_family(g, 2, seed=5, target_size=512)
    assert fam.sizes == [512, 512]
    # enlargement never breaks the property: re-verify from scratch
    rec = verify_intersecting(g, fam.subsets, mode="exhaustive")
    assert rec.result
    cap = member_size_cap(1024, 2)  # ~244.18
    with pytest.raises(FeasibilityError):
        construct_intersecting_family(g, 2, seed=5, target_size=244)
    with pytest.raises(FeasibilityError):
        construct_intersecting_family(g, 2, seed=5, target_size=1025)
    assert cap < 245  # 245 is the smallest admissible integer target


def test_enlargement_invariance_random_supersets():
    g = CyclicGroup(128)
    fam = construct_intersecting_family(g, 2, seed=17)
    rng = random.Random(2)
    enlarged = []
    for s in fam.subsets:
        extra = rng.sample(range(128), 20)
        enlarged.append(GroupSubset.from_indices(g, s.indices() + extra))
    assert verify_intersecting(g, enlarged, mode="exhaustive").result


def test_construct_family_attempts_exhausted():
    # seed 15 draws an empty set on its first attempt at (n, k) = (3, 1)
    with pytest.raises(ConstructionError) as exc:
        construct_intersecting_family(CyclicGroup(3), 1, seed=15, max_attempts=1)
    assert exc.value.attempts == 1
    assert exc.value.history[0]["reason"] == "empty-intersection"
    fam = construct_intersecting_family(CyclicGroup(3), 1, seed=15, max_attempts=100)
    assert fam.attempts_used == 2


def test_construct_k_covering_bound_and_precondition():
    g = CyclicGroup(1024)
    cert = construct_k_covering(g, 2, seed=7)
    assert cert.covering_set.size <= 512
    assert verify_k_covering(g, cert.covering_set, 2, mode="exhaustive").result
    with pytest.raises(FeasibilityError, match="576"):
        construct_k_covering(CyclicGroup(64), 2, seed=1)


def test_verify_k_covering_trivial_cases():
    g = CyclicGroup(9)
    assert verify_k_covering(g, GroupSubset.full(g), 3, mode="exhaustive").result
    rec = verify_k_covering(g, GroupSubset.empty(g), 1, mode="exhaustive")
    assert not rec.result and rec.witness == (0,)
    # k > n: vacuously covering
    tiny = CyclicGroup(2)
    assert verify_k_covering(tiny, GroupSubset.empty(tiny), 3).result


@pytest.mark.parametrize("k", [2, 5])
def test_verify_k_covering_refuses_an_unknown_mode_for_every_k(k):
    # k = 5 > n takes the vacuous path, which must check the mode all the same
    g = CyclicGroup(3)
    with pytest.raises(ValueError, match="unknown verification mode 'bogus'"):
        verify_k_covering(g, GroupSubset.empty(g), k, mode="bogus")


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
def test_verify_k_covering_vacuous_record_in_every_valid_mode(mode):
    g = CyclicGroup(3)
    rec = verify_k_covering(g, GroupSubset.empty(g), 5, mode=mode)
    assert (rec.mode, rec.method, rec.result) == ("exhaustive", "vacuous", True)


def test_verify_k_covering_frozen_c4():
    g = CyclicGroup(4)
    assert verify_k_covering(g, GroupSubset.from_indices(g, [0, 1, 2]), 2, mode="exhaustive").result
    rec = verify_k_covering(g, GroupSubset.from_indices(g, [0, 1]), 2, mode="exhaustive")
    assert not rec.result and rec.witness == (0, 2)


def test_verify_k_covering_matches_naive_oracle():
    rng = random.Random(11)
    for group in (CyclicGroup(8), DihedralGroup(4), CyclicGroup(10)):
        for _ in range(20):
            x = random_subset(group, rng.uniform(0.1, 0.9), rng)
            for k in (1, 2):
                got = verify_k_covering(group, x, k, mode="exhaustive")
                assert got.method == "subset-scan"
                assert got.result == naive_is_k_covering(group, x.indices(), k)


def test_verify_k_covering_witnesses_match_naive_oracles():
    rng = random.Random(19)
    outcomes = set()
    sampled_outcomes = set()
    for desc in WITNESS_GROUPS:
        group = group_from_descriptor(desc)
        for k in (1, 2, 3):
            for _ in range(4):
                x = random_subset(group, rng.uniform(0.0, 0.6), rng)
                expected = naive_first_untranslatable(group, x.indices(), k)
                got = verify_k_covering(group, x, k, mode="exhaustive")
                assert got.method == "subset-scan"
                assert (got.result, got.witness) == (expected is None, expected)
                outcomes.add((k, expected is None))

                untranslatable = naive_untranslatable_test(group, x.indices())
                draws = random.Random(k)
                replay = (True, 30, None)
                for t in range(30):
                    ys = tuple(sorted(draws.sample(range(group.order), k)))
                    if untranslatable(ys):
                        replay = (False, t + 1, ys)
                        break
                got = verify_k_covering(group, x, k, mode="sampled", trials=30, seed=k)
                assert (got.result, got.trials, got.witness) == replay
                sampled_outcomes.add(replay[0])
    assert sampled_outcomes == {True, False}
    assert outcomes == {(k, ok) for k in (1, 2, 3) for ok in (True, False)}


@pytest.mark.parametrize(
    "descriptor,k",
    [
        # n > 4096 and not a multiple of 8: rotated windows cross window edges
        ("C4099", 2),
        ("C4099", 3),
        ("C10007", 2),
        ("C10007", 3),
        ("C131072", 2),
        ("C131072", 3),
        ("S6", 3),
        ("S7", 2),
        ("D60", 2),
        ("D60", 3),
    ],
)
def test_sampled_meet_test_matches_full_translates(descriptor, k):
    # Densities give about 0.5, 2 and 40 expected common elements per trial,
    # so draws fail early, fail late and pass.
    group = group_from_descriptor(descriptor)
    n = group.order
    rng = random.Random(n + k)
    outcomes = {"intersecting": set(), "covering": set()}
    for common in (0.5, 2.0, 40.0):
        density = (common / n) ** (1.0 / k)
        subsets = [random_subset(group, density, rng) for _ in range(k)]
        for seed in (1, 2):
            got = verify_intersecting(group, subsets, mode="sampled", trials=40, seed=seed)
            want = full_translate_sampled_intersecting(group, subsets, 40, seed)
            assert (got.result, got.trials, got.witness) == want
            outcomes["intersecting"].add(want[0])

            got = verify_k_covering(group, subsets[0], k, mode="sampled", trials=40, seed=seed)
            want = full_translate_sampled_covering(group, subsets[0], k, 40, seed)
            assert (got.result, got.trials, got.witness) == want
            outcomes["covering"].add(want[0])
    assert outcomes == {"intersecting": {True, False}, "covering": {True, False}}


def test_meet_test_finds_one_common_element_at_window_edges():
    # A single common element at and around each 4096-bit window edge; shifts
    # 0..7 start the reads at every bit offset within a byte.
    for n in (4099, 10007):
        group = CyclicGroup(n)
        rng = random.Random(n)
        edges = [e + d for e in range(4096, n, 4096) for d in (-8, -7, -1, 0, 1, 7)]
        spots = [0, n - 1] + [j for j in edges if j < n]
        for j in spots:
            first = GroupSubset.from_indices(group, [j])
            for h in [*range(8), n - 1] + [rng.randrange(n) for _ in range(4)]:
                for other in ((j - h) % n, (j - h + 1) % n):
                    second = GroupSubset.from_indices(group, [other])
                    meets = translates_meet(group, first, [second, second])
                    expected = bool(first.bits & second.right_translate(h).bits)
                    assert meets([h, h]) == expected


def test_verify_k_covering_sampled_mode():
    g = CyclicGroup(64)
    x = GroupSubset.from_indices(g, range(40))
    rec = verify_k_covering(g, x, 2, mode="sampled", trials=200, seed=4)
    assert rec.mode == "sampled"
    assert rec.result == verify_k_covering(g, x, 2, mode="exhaustive").result


def test_pairwise_criterion_agreement():
    rng = random.Random(23)
    for n in (8, 16, 64):
        g = CyclicGroup(n)
        for t in range(50):
            x = random_subset(g, 0.05 + 0.9 * (t / 50), rng)
            covering = verify_k_covering(g, x, 2, mode="exhaustive").result
            assert covering == difference_product_full(g, x)


def test_pairwise_criterion_frozen_examples():
    def both(g, x):
        return verify_k_covering(g, x, 2, mode="exhaustive").result, difference_product_full(g, x)

    g7 = CyclicGroup(7)
    assert both(g7, GroupSubset.from_indices(g7, [1, 2, 4])) == (True, True)
    assert both(g7, GroupSubset.full(g7)) == (True, True)
    g4 = CyclicGroup(4)
    assert both(g4, GroupSubset.from_indices(g4, [0, 1])) == (False, False)


def test_difference_route_when_scan_over_budget(monkeypatch):
    # force the subset scan over budget; the complete pairwise route takes over
    g = CyclicGroup(64)
    x = GroupSubset.from_indices(g, range(40))
    monkeypatch.setenv("COVTRANS_BUDGET", "1000")
    rec = verify_k_covering(g, x, 2, mode="exhaustive")
    assert rec.method == "difference-set"
    assert rec.result == difference_product_full(g, x)
    monkeypatch.delenv("COVTRANS_BUDGET")
    honest = verify_k_covering(g, x, 2, mode="exhaustive")
    assert honest.method == "subset-scan"
    assert (rec.result, rec.witness) == (honest.result, honest.witness)


@pytest.mark.parametrize("descriptor", ["D6", "S4", "EA(2,4)", "C2xC6", "C12"])
def test_difference_set_witness_matches_naive_oracle(descriptor, monkeypatch):
    # X^-1 X and X X^-1 differ on non-abelian carriers; the witness must use the former
    g = group_from_descriptor(descriptor)
    rng = random.Random(29)
    monkeypatch.setenv("COVTRANS_BUDGET", "10")
    for t in range(40):
        x = random_subset(g, 0.15 + 0.5 * (t / 40), rng)
        expected = naive_first_untranslatable(g, x.indices(), 2)
        rec = verify_k_covering(g, x, 2, mode="exhaustive")
        assert rec.method == "difference-set"
        assert (rec.result, rec.witness) == (expected is None, expected)
        assert difference_product_full(g, x) == (expected is None)


def test_exact_covering_frozen_values():
    assert exact_covering_number(CyclicGroup(4), 2) == 3
    assert exact_covering_number(CyclicGroup(7), 2) == 3
    assert exact_covering_number(CyclicGroup(16), 2) == 5
    assert exact_covering_number(DihedralGroup(4), 2) == 4
    assert exact_covering_number(DihedralGroup(3), 2) == 4
    assert exact_covering_number(CyclicGroup(5), 3) == 4
    assert exact_covering_number(CyclicGroup(3), 3) == 3
    for g in (CyclicGroup(5), DihedralGroup(3)):
        assert exact_covering_number(g, 1) == 1
    with pytest.raises(BudgetExceededError):
        exact_covering_number(CyclicGroup(17), 2)


# exact_covering_number over the 29 groups of acceptance test 3 at k = 1, 2,
# frozen from the unreduced search (every size from 0, every candidate)
EXACT_SWEEP_K2 = {
    **{f"C{n}": v for n, v in zip(range(2, 17), (2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5))},
    **{f"D{m}": v for m, v in zip(range(3, 9), (4, 4, 5, 5, 6, 6))},
    "S3": 4,
    "EA(2,2)": 3,
    "EA(2,3)": 5,
    "EA(2,4)": 6,
    "EA(3,2)": 4,
    "C2xC4": 4,
    "C2xC6": 5,
    "C4xC4": 6,
}


def test_exact_covering_sweep_values():
    assert len(EXACT_SWEEP_K2) == 29
    for descriptor, value in EXACT_SWEEP_K2.items():
        group = group_from_descriptor(descriptor)
        assert exact_covering_number(group, 1) == 1, descriptor
        assert exact_covering_number(group, 2) == value, descriptor


def test_exact_covering_matches_naive_oracle():
    for descriptor in ("C6", "C9", "D3", "S3", "C2xC4", "EA(2,3)"):
        group = group_from_descriptor(descriptor)
        for k in (1, 2, 3):
            assert exact_covering_number(group, k) == naive_exact_cov(group, k), (descriptor, k)


@pytest.mark.parametrize("descriptor", ["C1", "C2", "C3", "C4", "C5", "D3"])
def test_exact_covering_at_and_beyond_the_order(descriptor):
    group = group_from_descriptor(descriptor)
    n = group.order
    for k in range(max(1, n - 1), n + 3):
        assert exact_covering_number(group, k) == naive_exact_cov(group, k), k
    # no k-subsets exist above the order, so the empty set covers vacuously
    assert exact_covering_number(group, n + 1) == 0
    assert exact_covering_number(group, n + 2) == 0


@pytest.mark.parametrize("descriptor, k", [("C16", 2), ("D6", 2), ("C2xC4", 2), ("C9", 3)])
def test_exact_covering_tries_only_anchored_candidates_from_the_counting_bound(
    descriptor, k, monkeypatch
):
    group = group_from_descriptor(descriptor)
    n = group.order
    tried = []
    verify = covering.verify_k_covering

    def recording(g, x, kk, mode="auto", **kwargs):
        tried.append(x.indices())
        return verify(g, x, kk, mode, **kwargs)

    monkeypatch.setattr(covering, "verify_k_covering", recording)
    value = exact_covering_number(group, k)
    # the least size s that n*C(s,k) >= C(n,k) allows
    least = min(s for s in range(n + 1) if n * math.comb(s, k) >= math.comb(n, k))
    assert tried and len(tried[0]) == least
    assert all(members[0] == 0 and len(members) >= least for members in tried)
    assert len(tried[-1]) == value
    # the anchored candidates of each size are tried in lexicographic order
    assert tried == sorted(tried, key=lambda members: (len(members), members))


def test_exact_covering_lower_bound_holds_up_to_k3():
    for n in range(3, 11):
        group = CyclicGroup(n)
        for k in (1, 2, 3):
            exact = exact_covering_number(group, k)
            assert exact**k >= n ** (k - 1)  # exact >= n^(1-1/k) in integer form


def test_exact_covering_upper_bound_implication():
    # the randomized upper bound applies exactly when the union construction does
    for n in range(3, 17):
        group = CyclicGroup(n)
        for k in (1, 2):
            if covering_condition(n, k):
                _, upper = covering_number_bounds(n, k)
                assert exact_covering_number(group, k) <= upper


def test_covering_number_bounds():
    lower, upper = covering_number_bounds(4, 2)
    assert lower == pytest.approx(2.0, rel=REL)
    lower7, upper7 = covering_number_bounds(7, 2)
    assert lower7 == pytest.approx(2.6457513110645907, rel=REL)
    assert lower7 <= exact_covering_number(CyclicGroup(7), 2) <= upper7
    assert upper7 == 7.0  # clamped at n
    assert covering_number_bounds(100, 1)[0] == pytest.approx(1.0, rel=REL)
    big_lower, big_upper = covering_number_bounds(10**6, 2)
    assert big_upper == pytest.approx(
        4 * (2 * math.log(10**6) + math.log(2)) ** 0.5 * 1000.0, rel=REL
    )
    assert big_lower <= big_upper


def test_greedy_shrink_full_group_and_small_set():
    g = CyclicGroup(100)
    full = GroupSubset.full(g)
    res = greedy_shrink_intersection(g, full, 3)
    assert res.final_size == 100 and res.elements == (0, 0, 0)

    rng = random.Random(31)
    x = GroupSubset.from_indices(g, rng.sample(range(100), 9))
    res = greedy_shrink_intersection(g, x, 2)
    assert res.final_size == 0  # floor(81 / 100) = 0
    assert res.elements[0] == 0


def test_greedy_shrink_stepwise_bound():
    rng = random.Random(77)
    for n, k in ((50, 2), (100, 2), (60, 3)):
        g = CyclicGroup(n)
        for _ in range(20):
            size = rng.randrange(1, n)
            x = GroupSubset.from_indices(g, rng.sample(range(n), size))
            res = greedy_shrink_intersection(g, x, k)
            for prev, nxt in zip(res.sizes, res.sizes[1:]):
                assert nxt <= (prev * size) // n
            assert res.final_size <= size**k // n ** (k - 1)


def test_certificate_documents_are_deterministic():
    g = CyclicGroup(1024)
    a = construct_k_covering(g, 2, seed=9)
    b = construct_k_covering(g, 2, seed=9)
    assert canonical_json(a.document()) == canonical_json(b.document())
    doc = a.document()
    assert list(doc)[:7] == ["kind", "group", "k", "p", "seed", "attempts", "sizes"]
