import itertools
import math
import random
import sys
import types

import pytest
from conftest import (
    assert_same_text,
    difference_product_full,
    full_rotation_translate_into,
    full_subset,
    full_translate_sampled_covering,
    full_translate_sampled_intersecting,
    naive_empty_tuple_test,
    naive_enlarge_bits,
    naive_exact_cov,
    naive_first_empty_tuple,
    naive_first_untranslatable,
    naive_is_intersecting,
    naive_is_k_covering,
    naive_untranslatable_test,
    right_translate,
)

from covtrans import (
    CyclicGroup,
    TowerSpec,
    build_tower,
    extend_covering,
    DihedralGroup,
    GroupSubset,
    SymmetricGroup,
    construct_intersecting_family,
    construct_k_covering,
    covering,
    covering_condition,
    covering_number_bounds,
    exact_covering_number,
    greedy_shrink_intersection,
    group_from_descriptor,
    intersecting_family_feasible,
    member_size_cap,
    parse_mode,
    random_subset,
    sample_probability,
    verify_intersecting,
    verify_k_covering,
)
from covtrans.covering import _VERIFY_SALT, DEFAULT_SAMPLE_TRIALS, _enlarge_to, _union
from covtrans.errors import (
    BudgetExceededError,
    ConstructionError,
    FeasibilityError,
    SoundnessError,
)
from covtrans.subsets import _TABLE_STEP, first_disjoint_tuple
from covtrans.util import canonical_json, derive_seed, iter_set_bits, uniform_draws

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
    full = full_subset(g)
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


def test_verify_intersecting_refuses_a_member_on_another_carrier():
    g = CyclicGroup(6)
    twin = CyclicGroup(6)  # another object with the same order and name is the same carrier
    members = [full_subset(g), GroupSubset.from_indices(twin, [0, 3])]
    assert verify_intersecting(g, members, mode="exhaustive").result
    for other in (CyclicGroup(7), DihedralGroup(3)):  # D3 has order 6 too
        members = [full_subset(g), full_subset(other)]
        for mode in ("exhaustive", "sampled"):
            with pytest.raises(ValueError, match=f"carrier mismatch: {other.name} vs C6"):
                verify_intersecting(g, members, mode=mode)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_k_covering_refuses_a_set_on_another_carrier(k):
    # a C16 set read as a C8 one would be scanned past the group: every mode
    # is refused before any verdict, as verify_intersecting refuses a member
    g = CyclicGroup(8)
    assert verify_k_covering(g, GroupSubset.from_indices(CyclicGroup(8), [0, 1, 2, 4]), 1).result
    x = GroupSubset.from_indices(CyclicGroup(16), [0, 1, 2, 9])
    for mode in ("auto", "exhaustive", "sampled:50"):
        with pytest.raises(ValueError, match="carrier mismatch: C16 vs C8"):
            verify_k_covering(g, x, k, mode)


def test_verify_intersecting_matches_naive_oracle():
    rng = random.Random(5)
    g = CyclicGroup(6)
    d = DihedralGroup(3)
    for group in (g, d):
        for _ in range(25):
            subsets = [random_subset(group, rng.uniform(0.2, 0.8), rng) for _ in range(2)]
            rec = verify_intersecting(group, subsets, mode="exhaustive")
            assert rec.result == naive_is_intersecting(group, [list(s) for s in subsets])


def test_verify_intersecting_triple_families_match_naive_oracle():
    rng = random.Random(41)
    for group in (CyclicGroup(5), CyclicGroup(6), DihedralGroup(3)):
        for _ in range(15):
            subsets = [random_subset(group, rng.uniform(0.3, 0.9), rng) for _ in range(3)]
            members = [list(s) for s in subsets]
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
        for k in (1, 2, 3, 4) if group.order <= 8 else (1, 2, 3):
            low, high = (0.02, 0.95) if k < 4 else (0.3, 1.0)  # sparse k = 4 families all fail
            for _ in range(4):
                subsets = [random_subset(group, rng.uniform(low, high), rng) for _ in range(k)]
                members = [list(s) for s in subsets]
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
                got = verify_intersecting(group, subsets, mode="sampled:30", seed=k)
                assert (got.result, got.trials, got.witness) == replay
                sampled_outcomes.add(replay[0])
    assert sampled_outcomes == {True, False}
    assert outcomes == {(k, ok) for k in (1, 2, 3, 4) for ok in (True, False)}


def test_verify_budget_guard(monkeypatch):
    g = CyclicGroup(512)
    s = full_subset(g)
    monkeypatch.setenv("COVTRANS_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="sampled"):
        verify_intersecting(g, [s, s], mode="exhaustive")
    rec = verify_intersecting(g, [s, s], mode="auto")
    assert rec.mode == "sampled" and rec.result and rec.trials == DEFAULT_SAMPLE_TRIALS


def test_pair_tuple_scan_has_no_order_gate_beyond_the_budget(monkeypatch):
    # the k = 2 tuple scan shares its kernel with the difference-set route,
    # but not that route's order limit: only the n^2 budget decides
    g = CyclicGroup(10007)
    assert g.order > covering._PAIRWISE_PRODUCT_LIMIT
    full = full_subset(g)
    point = GroupSubset.from_indices(g, [0])
    monkeypatch.setenv("COVTRANS_BUDGET", str(g.order**2 - 1))
    with pytest.raises(BudgetExceededError, match="sampled"):
        verify_intersecting(g, [full, full], mode="exhaustive")
    monkeypatch.setenv("COVTRANS_BUDGET", str(g.order**2))
    for mode in ("exhaustive", "auto"):
        rec = verify_intersecting(g, [full, full], mode=mode)
        assert (rec.mode, rec.method, rec.result, rec.witness) == (
            "exhaustive",
            "tuple-scan",
            True,
            None,
        )
    rec = verify_intersecting(g, [point, point], mode="exhaustive")
    assert (rec.method, rec.result, rec.witness) == ("tuple-scan", False, (0, 1))


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
    assert_same_text(canonical_json(b.document()), canonical_json(a.document()))
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


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(1), CyclicGroup(7), CyclicGroup(64), CyclicGroup(1024), CyclicGroup(4096),
     SymmetricGroup(4)],
    ids=["C1", "C7", "C64", "C1024", "C4096", "S4"],
)
def test_enlarge_to_matches_adding_the_least_non_member_one_at_a_time(group):
    n = group.order
    rng = random.Random(n)
    for p in (0.0, 0.1, 0.6, 1.0):
        x = random_subset(group, p, rng)
        for need in sorted({0, 1, 5, n // 3, n - x.size}):
            if x.size + need > n:
                continue
            got = _enlarge_to(x, x.size + need)
            assert got.bits == naive_enlarge_bits(x.bits, n, x.size + need), (p, need)
            assert got.size == x.size + need and got.group is group
    if n > 1:
        with pytest.raises(SoundnessError):
            _enlarge_to(GroupSubset.from_indices(group, [0, 1]), 1)


def test_enlargement_invariance_random_supersets():
    g = CyclicGroup(128)
    fam = construct_intersecting_family(g, 2, seed=17)
    rng = random.Random(2)
    enlarged = []
    for s in fam.subsets:
        extra = rng.sample(range(128), 20)
        enlarged.append(GroupSubset.from_indices(g, list(s) + extra))
    assert verify_intersecting(g, enlarged, mode="exhaustive").result


def test_construct_family_attempts_exhausted():
    # seed 15 draws an empty set on its first attempt at (n, k) = (3, 1)
    with pytest.raises(ConstructionError) as exc:
        construct_intersecting_family(CyclicGroup(3), 1, seed=15, max_attempts=1)
    assert exc.value.attempts == 1
    assert exc.value.history[0]["reason"] == "empty-intersection"
    fam = construct_intersecting_family(CyclicGroup(3), 1, seed=15, max_attempts=100)
    assert fam.attempts_used == 2
    # seed 86 draws six elements at (7, 1), over the 2pn cap of about 5.28
    with pytest.raises(ConstructionError) as exc:
        construct_intersecting_family(CyclicGroup(7), 1, seed=86, max_attempts=1)
    assert exc.value.history == [{"attempt": 0, "sizes": [6], "reason": "size-cap"}]


def test_a_rejected_cover_shows_the_seed_of_its_check():
    # A passing sampled record is the same at every seed; a rejected draw's
    # is not.  At k = 1 an empty member fails the first sampled trial, and
    # its witness is the inverse of that trial's translator, drawn from
    # derive_seed(seed, attempt, _VERIFY_SALT): the seed covering verify
    # takes to repeat a construction's check.
    group = CyclicGroup(20)
    p = sample_probability(20, 1)
    seed = next(
        s for s in range(10**4)
        if not random_subset(group, p, random.Random(derive_seed(s, 0))).bits
    )
    with pytest.raises(ConstructionError) as exc:
        construct_k_covering(group, 1, seed=seed, max_attempts=1, mode="sampled:5")
    check_seed = derive_seed(seed, 0, _VERIFY_SALT)
    g = next(uniform_draws(check_seed, 20))
    assert exc.value.history == [
        {"attempt": 0, "sizes": [0], "reason": "empty-intersection", "witness": (-g % 20,)}
    ]
    rerun = verify_k_covering(group, GroupSubset(group, 0), 1, "sampled:5", seed=check_seed)
    assert (rerun.result, rerun.trials, rerun.witness) == (False, 1, (-g % 20,))


def test_construct_k_covering_bound_and_precondition():
    g = CyclicGroup(1024)
    cert = construct_k_covering(g, 2, seed=7)
    assert cert.covering_set.size <= 512
    assert verify_k_covering(g, cert.covering_set, 2, mode="exhaustive").result
    with pytest.raises(FeasibilityError, match="576"):
        construct_k_covering(CyclicGroup(64), 2, seed=1)


def test_verify_k_covering_trivial_cases():
    g = CyclicGroup(9)
    assert verify_k_covering(g, full_subset(g), 3, mode="exhaustive").result
    rec = verify_k_covering(g, GroupSubset(g, 0), 1, mode="exhaustive")
    assert not rec.result and rec.witness == (0,)
    # k > n: vacuously covering
    tiny = CyclicGroup(2)
    assert verify_k_covering(tiny, GroupSubset(tiny, 0), 3).result


@pytest.mark.parametrize("k", [2, 5])
def test_verify_k_covering_refuses_an_unknown_mode_for_every_k(k):
    # k = 5 > n takes the vacuous path, which must check the mode all the same
    g = CyclicGroup(3)
    with pytest.raises(ValueError, match="unknown verification mode 'bogus'"):
        verify_k_covering(g, GroupSubset(g, 0), k, mode="bogus")


# each bad mode token and parse_mode's refusal of it, word for word
MODE_REFUSALS = {
    "sampled:0": "sampled trial count must be >= 1, got 0 in mode 'sampled:0'",
    "sampled:-1": "sampled trial count must be >= 1, got -1 in mode 'sampled:-1'",
    "sampled:x": "bad sampled trial count 'x' in mode 'sampled:x'",
    "sampled:": "bad sampled trial count '' in mode 'sampled:'",
    "bogus": "unknown verification mode 'bogus'",
    "Sampled": "unknown verification mode 'Sampled'",
}


def test_parse_mode_reads_every_token_form():
    assert parse_mode("auto") == ("auto", DEFAULT_SAMPLE_TRIALS)
    assert parse_mode("exhaustive") == ("exhaustive", DEFAULT_SAMPLE_TRIALS)
    assert parse_mode("sampled") == ("sampled", DEFAULT_SAMPLE_TRIALS)
    assert parse_mode("sampled:1") == ("sampled", 1)
    assert parse_mode("sampled:500") == ("sampled", 500)
    for token, message in MODE_REFUSALS.items():
        with pytest.raises(ValueError) as info:
            parse_mode(token)
        assert str(info.value) == message


def _mode_takers(group):
    """Every public function that takes a mode, as mode -> result, on small valid input."""
    x = GroupSubset.from_indices(group, [0])
    return {
        "verify_intersecting": lambda mode: verify_intersecting(group, [x, x], mode),
        "verify_k_covering": lambda mode: verify_k_covering(group, x, 3, mode),
        "verify_k_covering vacuous": lambda mode: verify_k_covering(
            group, x, group.order + 1, mode
        ),
        "construct_intersecting_family": lambda mode: construct_intersecting_family(
            group, 2, seed=1, mode=mode
        ),
        "construct_k_covering": lambda mode: construct_k_covering(group, 2, seed=1, mode=mode),
        "extend_covering at k = 0": lambda mode: extend_covering(
            20, GroupSubset.from_indices(CyclicGroup(1), [0]), 0, seed=1, mode=mode
        ),
        "build_tower at depth 1": lambda mode: build_tower(TowerSpec([20]), 1, mode=mode),
        "build_tower at depth 2": lambda mode: build_tower(TowerSpec([20, 1024]), 1, mode=mode),
    }


@pytest.mark.parametrize("token", ["sampled:0", "sampled:-1", "sampled:x", "bogus"])
def test_a_bad_mode_is_refused_before_any_draw(token, monkeypatch):
    # at the parent, a depth-1 build_tower ignored the mode and "sampled" with
    # trials=0 certified a pass on no trials; now the token is read first
    def tripwire(*args, **kwargs):
        raise AssertionError(f"drew or verified before refusing {token!r}")

    for name in ("random_subset", "uniform_draws", "first_disjoint_tuple", "_translate_bits"):
        monkeypatch.setattr(covering, name, tripwire)
    monkeypatch.setattr(covering, "random", types.SimpleNamespace(Random=tripwire))
    for name, call in _mode_takers(CyclicGroup(1024)).items():
        with pytest.raises(ValueError) as info:
            call(token)
            pytest.fail(f"{name} accepted mode {token!r}")
        assert str(info.value) == MODE_REFUSALS[token], name


@pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
def test_verify_k_covering_vacuous_record_in_every_valid_mode(mode):
    g = CyclicGroup(3)
    rec = verify_k_covering(g, GroupSubset(g, 0), 5, mode=mode)
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
                assert got.method == ("difference-set" if k == 2 else "subset-scan")
                assert got.result == naive_is_k_covering(group, list(x), k)


def test_verify_k_covering_witnesses_match_naive_oracles():
    rng = random.Random(19)
    outcomes = set()
    sampled_outcomes = set()
    for desc in WITNESS_GROUPS:
        group = group_from_descriptor(desc)
        for k in (1, 2, 3, 4) if group.order <= 8 else (1, 2, 3):
            low, high = (0.0, 0.6) if k < 4 else (0.3, 1.0)  # sparse sets never 4-cover
            for _ in range(4):
                x = random_subset(group, rng.uniform(low, high), rng)
                expected = naive_first_untranslatable(group, list(x), k)
                got = verify_k_covering(group, x, k, mode="exhaustive")
                assert got.method == ("difference-set" if k == 2 else "subset-scan")
                assert (got.result, got.witness) == (expected is None, expected)
                outcomes.add((k, expected is None))

                untranslatable = naive_untranslatable_test(group, list(x))
                draws = random.Random(k)
                replay = (True, 30, None)
                for t in range(30):
                    # a trial's Y: the sorted, distinct inverses of k uniform translators
                    gs = [draws.randrange(group.order) for _ in range(k)]
                    ys = tuple(sorted({group.inv(g) for g in gs}))
                    if untranslatable(ys):
                        replay = (False, t + 1, ys)
                        break
                got = verify_k_covering(group, x, k, mode="sampled:30", seed=k)
                assert (got.result, got.trials, got.witness) == replay
                sampled_outcomes.add(replay[0])
    assert sampled_outcomes == {True, False}
    assert outcomes == {(k, ok) for k in (1, 2, 3, 4) for ok in (True, False)}


@pytest.mark.parametrize("descriptor", ["C4", "C5", "D3", "S3"])
def test_subset_scan_at_k_near_n_matches_naive_oracle(descriptor):
    # at k = n - 1 and k = n the ascending ranges leave exactly room for the tail:
    # X = G passes, and X = G minus one element fails only at k = n, on Y = G
    group = group_from_descriptor(descriptor)
    n = group.order
    for missing in (None, *range(n)):
        members = [g for g in range(n) if g != missing]
        x = GroupSubset.from_indices(group, members)
        for k in (n - 1, n):
            expected = naive_first_untranslatable(group, members, k)
            got = verify_k_covering(group, x, k, mode="exhaustive")
            assert got.method == "subset-scan"
            assert (got.result, got.witness) == (expected is None, expected)
            assert expected == (tuple(range(n)) if missing is not None and k == n else None)


def test_subset_scan_at_k_n_past_the_recursion_limit():
    # n * C(n, n) = n fits the budget, so the scan's depth k - 1 is bounded by n alone
    n = sys.getrecursionlimit() + 100
    group = CyclicGroup(n)
    rec = verify_k_covering(group, full_subset(group), n)
    assert (rec.mode, rec.result, rec.method) == ("exhaustive", True, "subset-scan")
    rec = verify_k_covering(group, GroupSubset.from_indices(group, range(1, n)), n)
    assert (rec.result, rec.witness) == (False, tuple(range(n)))


@pytest.mark.parametrize(
    "descriptor,k",
    [
        # n spans several windows and is not a multiple of 8, so rotated windows
        # cross window and table-entry edges: C4099 holds four window edges
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
            got = verify_intersecting(group, subsets, mode="sampled:40", seed=seed)
            want = full_translate_sampled_intersecting(group, subsets, 40, seed)
            assert (got.result, got.trials, got.witness) == want
            outcomes["intersecting"].add(want[0])

            got = verify_k_covering(group, subsets[0], k, mode="sampled:40", seed=seed)
            want = full_translate_sampled_covering(group, subsets[0], k, 40, seed)
            assert (got.result, got.trials, got.witness) == want
            outcomes["covering"].add(want[0])
    assert outcomes == {"intersecting": {True, False}, "covering": {True, False}}


def test_meet_test_finds_one_common_element_at_window_edges():
    # A single common element at and around each window-table entry edge, of
    # which every window edge is one; shifts 0..7 start the reads at every bit
    # offset within a byte.
    for n in (4099, 10007):
        group = CyclicGroup(n)
        rng = random.Random(n)
        offsets = (-8, -7, -1, 0, 1, 7, 8)
        edges = [e + d for e in range(_TABLE_STEP, n, _TABLE_STEP) for d in offsets]
        spots = [0, n - 1] + [j for j in edges if j < n]
        for j in spots:
            first = GroupSubset.from_indices(group, [j])
            for h in [*range(8), n - 1] + [rng.randrange(n) for _ in range(4)]:
                for other in ((j - h) % n, (j - h + 1) % n):
                    second = GroupSubset.from_indices(group, [other])
                    miss = first_disjoint_tuple(group, first, [second, second], [(0, h, h)])
                    expected = bool(first.bits & right_translate(second, h).bits)
                    assert (miss is None) == expected


def _assert_planted_failures(descriptor, k, hole):
    # X_1 = {e}, X_hole = G minus one element d, every other set is all of G:
    # a tuple fails exactly when g_1 g_hole^{-1} = d.  Taking d from a chosen
    # trial whose value of g_1 g_hole^{-1} is new plants the first failure there.
    group = group_from_descriptor(descriptor)
    n = group.order
    seed, trials = 17, 60
    rng = random.Random(seed)
    drawn = [tuple(rng.randrange(n) for _ in range(k)) for _ in range(trials)]
    values = [group.mul(tup[0], group.inv(tup[hole])) for tup in drawn]
    firsts = [t for t in range(trials) if values[t] not in values[:t]]
    for t in (firsts[0], firsts[len(firsts) // 2], firsts[-1]):
        d = values[t]
        full = GroupSubset(group, (1 << n) - 1)
        subsets = [GroupSubset.from_indices(group, [group.identity])] + [full] * (k - 1)
        subsets[hole] = GroupSubset(group, full.bits ^ 1 << d)
        for count in (t + 1, trials):
            want = full_translate_sampled_intersecting(group, subsets, count, seed)
            assert want == (False, t + 1, drawn[t])
            got = verify_intersecting(group, subsets, mode=f"sampled:{count}", seed=seed)
            assert (got.result, got.trials, got.witness) == want
            scanned = first_disjoint_tuple(group, subsets[0], subsets[1:], iter(drawn[:count]))
            assert scanned == (t, drawn[t])
    assert firsts[0] == 0 and firsts[-1] > firsts[len(firsts) // 2] > 0


@pytest.mark.parametrize("descriptor", ["C4099", "C131072", "S4", "D60"])
@pytest.mark.parametrize("k", [2, 3])
def test_scan_reports_a_planted_failure_at_the_first_middle_and_last_trial(descriptor, k):
    _assert_planted_failures(descriptor, k, k - 1)


@pytest.mark.parametrize("descriptor", ["C4099", "C131072"])
@pytest.mark.parametrize("hole", [1, 2, 3])
def test_scan_reports_a_planted_failure_on_each_later_set_at_k_4(descriptor, hole):
    # the rotation scan reads the second set at an offset fixed per trial and
    # each later one at its own: a miss on any of them must be found
    _assert_planted_failures(descriptor, 4, hole)


@pytest.mark.parametrize("descriptor", ["C4099", "C131072"])
def test_scan_at_k_1_fails_exactly_on_an_empty_set(descriptor):
    # one translate meets itself unless it is empty: the first trial fails or none does
    group = group_from_descriptor(descriptor)
    tuples = [(5,), (group.order - 1,), (0,)]
    empty, single = GroupSubset(group, 0), GroupSubset.from_indices(group, [group.order - 1])
    assert first_disjoint_tuple(group, empty, [], iter(tuples)) == (0, (5,))
    assert first_disjoint_tuple(group, single, [], iter(tuples)) is None
    assert first_disjoint_tuple(group, empty, [], iter([])) is None
    for x in (empty, single):
        record = verify_intersecting(group, [x], mode="sampled:30", seed=2)
        assert (record.result, record.trials, record.witness) == (
            full_translate_sampled_intersecting(group, [x], 30, 2)
        )


def test_sampled_covering_check_inverts_k_minus_one_times_per_trial():
    # The scan tests X against each X g_i g_1^{-1}, so each trial pays k - 1
    # inv calls on a carrier with oracles and none on a cyclic one; a failing
    # trial pays k more, to report its Y as the inverses of its translators.
    outcomes = set()
    for descriptor, k in (("S6", 3), ("C1031", 3)):
        group = group_from_descriptor(descriptor)
        family = construct_intersecting_family(group, k, seed=5, mode="sampled:500")
        cover = _union(group, family.subsets)
        for x in (cover, GroupSubset.from_indices(group, list(cover)[::4])):
            calls = []
            inv = group.inv
            group.inv = lambda a: calls.append(a) or inv(a)
            try:
                record = verify_k_covering(group, x, k, mode="sampled:400", seed=9)
            finally:
                del group.inv
            want = full_translate_sampled_covering(group, x, k, 400, seed=9)
            assert (record.result, record.trials, record.witness) == want
            per_trial = 0 if group.additive_rotation else k - 1
            assert len(calls) == per_trial * record.trials + (0 if record.result else k)
            outcomes.add(record.result)
    assert outcomes == {True, False}


def test_sampled_covering_check_reports_a_planted_union_miss_on_c131072():
    # Take trial t's Y, the inverses of its three translators, and remove
    # g + y_1 from a dense X for every g with g + Y inside X.  Y is then
    # untranslatable, every earlier trial still passes, and the check must
    # stop at trial t and report Y.
    group = CyclicGroup(131072)
    n, t, seed = group.order, 20, 9
    x = random_subset(group, 0.2, random.Random(3))
    drawn = list(itertools.islice(zip(*[uniform_draws(seed, n)] * 3), t + 1))
    ys = sorted({-g % n for g in drawn[t]})
    translators = (1 << n) - 1
    for y in ys:
        translators &= right_translate(x, -y % n).bits
    assert translators
    planted = x.bits
    for g in iter_set_bits(translators):
        planted &= ~(1 << (g + ys[0]) % n)
    planted = GroupSubset(group, planted)
    record = verify_k_covering(group, planted, 3, mode="sampled:50", seed=seed)
    assert (record.result, record.trials, record.witness) == (False, t + 1, tuple(ys))
    assert full_translate_sampled_covering(group, planted, 3, 50, seed) == (False, t + 1, tuple(ys))
    assert full_rotation_translate_into(group, record.witness, planted) is None
    assert full_rotation_translate_into(group, record.witness, x) is not None


def test_verify_k_covering_sampled_mode():
    g = CyclicGroup(64)
    x = GroupSubset.from_indices(g, range(40))
    rec = verify_k_covering(g, x, 2, mode="sampled:200", seed=4)
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
    assert both(g7, full_subset(g7)) == (True, True)
    g4 = CyclicGroup(4)
    assert both(g4, GroupSubset.from_indices(g4, [0, 1])) == (False, False)


def test_difference_route_when_scan_over_budget(monkeypatch):
    # k = 2 takes the one pairwise route whether or not n * C(n, 2) fits the budget
    g = CyclicGroup(64)
    x = GroupSubset.from_indices(g, range(40))
    monkeypatch.setenv("COVTRANS_BUDGET", "1000")
    rec = verify_k_covering(g, x, 2, mode="exhaustive")
    assert rec.method == "difference-set"
    assert rec.result == difference_product_full(g, x)
    monkeypatch.delenv("COVTRANS_BUDGET")
    honest = verify_k_covering(g, x, 2, mode="exhaustive")
    assert honest.method == "difference-set"
    assert (rec.result, rec.witness) == (honest.result, honest.witness)


def _refuse_prefix_scan(first, tables, ascending):
    raise AssertionError(f"prefix scan reached at k = {len(tables) + 1}")


def test_exhaustive_k2_takes_one_route_at_every_budget(monkeypatch):
    # the same k = 2 record unset, at budget 1 and at n * C(n, 2), none from the prefix scan
    monkeypatch.setattr(covering, "_first_empty_meet", _refuse_prefix_scan)
    rng = random.Random(37)
    outcomes = set()
    for desc in ("C12", "C16", "D6", "S4", "C2xC6"):
        group = group_from_descriptor(desc)
        n = group.order
        for t in range(12):
            x = random_subset(group, 0.15 + 0.6 * t / 12, rng)
            records = set()
            for budget in (None, "1", str(n * math.comb(n, 2))):
                if budget is None:
                    monkeypatch.delenv("COVTRANS_BUDGET", raising=False)
                else:
                    monkeypatch.setenv("COVTRANS_BUDGET", budget)
                rec = verify_k_covering(group, x, 2, mode="exhaustive")
                records.add((rec.mode, rec.result, rec.witness, rec.method))
            expected = naive_first_untranslatable(group, list(x), 2)
            assert records == {("exhaustive", expected is None, expected, "difference-set")}
            outcomes.add((group.additive_rotation, expected is None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_k2_label_rule_above_the_pairwise_limit(monkeypatch):
    # past _PAIRWISE_PRODUCT_LIMIT only n^2 steps against the budget decide,
    # the fewer of n^k and n C(n, k), as verify_intersecting counts at k = 2
    monkeypatch.setattr(covering, "_first_empty_meet", _refuse_prefix_scan)
    g = CyclicGroup(10007)
    n = g.order
    assert n > covering._PAIRWISE_PRODUCT_LIMIT
    x = GroupSubset.from_indices(g, range(100))  # X - X = {-99, ..., 99}
    monkeypatch.delenv("COVTRANS_BUDGET", raising=False)
    rec = verify_k_covering(g, x, 2)
    assert rec.mode == "sampled"
    assert (rec.result, rec.trials, rec.witness) == full_translate_sampled_covering(
        g, x, 2, DEFAULT_SAMPLE_TRIALS, seed=0
    )
    rec = verify_k_covering(g, full_subset(g), 2)  # a pass runs every trial auto takes
    assert (rec.mode, rec.result, rec.trials) == ("sampled", True, DEFAULT_SAMPLE_TRIALS)
    with pytest.raises(BudgetExceededError, match="sampled"):
        verify_k_covering(g, x, 2, mode="exhaustive")
    monkeypatch.setenv("COVTRANS_BUDGET", str(n * n - 1))
    assert verify_k_covering(g, x, 2).mode == "sampled"
    for budget in (n * n, n * math.comb(n, 2)):
        monkeypatch.setenv("COVTRANS_BUDGET", str(budget))
        for mode in ("auto", "exhaustive"):
            rec = verify_k_covering(g, x, 2, mode)
            assert (rec.mode, rec.result, rec.witness, rec.method) == (
                "exhaustive",
                False,
                (0, 100),
                "difference-set",
            )


def test_k3_covers_are_budgeted_as_their_k_fold_family(monkeypatch):
    # the covering check counts the fewer of n^k, which its k-fold family's
    # check counts, and C(n,k) n: a cover is proven wherever its family
    # would be, and wherever it was before
    monkeypatch.delenv("COVTRANS_BUDGET", raising=False)
    g = CyclicGroup(200)  # 200^3 fits the default budget, 200 C(200, 3) does not
    rng = random.Random(4)
    outcomes = set()
    for density in (0.1, 0.6):
        x = random_subset(g, density, rng)
        rec, family = verify_k_covering(g, x, 3), verify_intersecting(g, [x] * 3)
        assert (rec.mode, family.mode) == ("exhaustive", "exhaustive")
        assert rec.result == family.result
        outcomes.add(rec.result)
    assert outcomes == {True, False}
    monkeypatch.setenv("COVTRANS_BUDGET", str(200**3 - 1))
    with pytest.raises(BudgetExceededError, match="needs 8000000 steps"):
        verify_k_covering(g, x, 3, mode="exhaustive")
    g16 = CyclicGroup(16)  # at k = 8, 16 C(16, 8) = 205920 is far below 16^8
    monkeypatch.setenv("COVTRANS_BUDGET", "205920")
    assert verify_k_covering(g16, full_subset(g16), 8, mode="exhaustive").result
    monkeypatch.setenv("COVTRANS_BUDGET", "205919")
    with pytest.raises(BudgetExceededError, match="needs 205920 steps"):
        verify_k_covering(g16, full_subset(g16), 8, mode="exhaustive")


@pytest.mark.parametrize("descriptor", ["D6", "S4", "EA(2,4)", "C2xC6", "C12"])
def test_difference_set_witness_matches_naive_oracle(descriptor, monkeypatch):
    # X^-1 X and X X^-1 differ on non-abelian carriers; the witness must use the former
    g = group_from_descriptor(descriptor)
    rng = random.Random(29)
    monkeypatch.setenv("COVTRANS_BUDGET", "10")
    for t in range(40):
        x = random_subset(g, 0.15 + 0.5 * (t / 40), rng)
        expected = naive_first_untranslatable(g, list(x), 2)
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


def test_exact_covering_at_k1_calls_no_oracle():
    # at k = 1 the subset scan reads no x y^{-1} column, so none is built
    group = DihedralGroup(8)
    calls = []
    mul, inv = group.mul, group.inv
    group.mul = lambda a, b: calls.append("mul") or mul(a, b)
    group.inv = lambda a: calls.append("inv") or inv(a)
    try:
        assert exact_covering_number(group, 1) == 1
        assert calls == []
        exact_covering_number(group, 2)  # the k = 2 search does build its table
        assert calls.count("mul") >= 256 and calls.count("inv") >= 16
    finally:
        del group.mul, group.inv


def test_exact_covering_matches_naive_oracle():
    # D4-D6 are non-abelian, so x y^{-1} and y^{-1} x differ there; EA(3,2)
    # and C2xC6 are product carriers, translated through mul, not rotation
    for descriptor in (
        "C6", "C9", "D3", "S3", "C2xC4", "EA(2,3)", "D4", "D5", "D6", "EA(3,2)", "C2xC6"
    ):
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


@pytest.mark.parametrize(
    "descriptor, k", [("C16", 2), ("D6", 2), ("C2xC4", 2), ("C4xC4", 2), ("C9", 3)]
)
def test_exact_covering_tries_only_anchored_candidates_from_the_counting_bound(
    descriptor, k, monkeypatch
):
    group = group_from_descriptor(descriptor)
    n = group.order
    tried, verified = [], []
    decide = covering._anchored_candidate_covers
    verify = covering.verify_k_covering

    def recording(columns, members, kk):
        tried.append(list(members))
        return decide(columns, members, kk)

    def verifying(g, x, kk, mode="auto", **kwargs):
        verified.append((list(x), kk, mode))
        return verify(g, x, kk, mode, **kwargs)

    monkeypatch.setattr(covering, "_anchored_candidate_covers", recording)
    monkeypatch.setattr(covering, "verify_k_covering", verifying)
    value = exact_covering_number(group, k)
    # the least size s that n*C(s,k) >= C(n,k) allows
    least = min(s for s in range(n + 1) if n * math.comb(s, k) >= math.comb(n, k))
    assert tried and len(tried[0]) == least
    assert all(members[0] == 0 and len(members) >= least for members in tried)
    assert len(tried[-1]) == value
    # the anchored candidates of each size are tried in lexicographic order
    assert tried == sorted(tried, key=lambda members: (len(members), members))
    # one exhaustive re-proof per search, of the last candidate, the one accepted
    assert verified == [(tried[-1], k, "exhaustive")]


def test_exact_covering_decider_matches_the_quotient_criterion(monkeypatch):
    # X is 2-covering iff every element other than e is some a^{-1} b with a, b
    # in X.  D6 has anchored sets that are 2-covering from one side only (D3-D5
    # have none), so a table of y^{-1} x columns in place of x y^{-1} fails here.
    group = group_from_descriptor("D6")
    n = group.order
    tables = []
    decide = covering._anchored_candidate_covers

    def capturing(columns, members, k):
        tables.append(columns)
        return decide(columns, members, k)

    monkeypatch.setattr(covering, "_anchored_candidate_covers", capturing)
    exact_covering_number(group, 2)
    columns = tables[0]
    for size in range(1, n + 1):
        for rest in itertools.combinations(range(1, n), size - 1):
            members = (0,) + rest
            quotients = {group.mul(group.inv(a), b) for a in members for b in members}
            assert decide(columns, members, 2) == (len(quotients) == n), members


def test_exact_covering_refuses_a_winner_the_verifier_refutes(monkeypatch):
    group = CyclicGroup(16)
    # the first anchored candidate at the counting bound (size 5) is not 2-covering
    assert not naive_is_k_covering(group, [0, 1, 2, 3, 4], 2)
    monkeypatch.setattr(covering, "_anchored_candidate_covers", lambda columns, members, k: True)
    with pytest.raises(SoundnessError, match=r"\[0, 1, 2, 3, 4\]"):
        exact_covering_number(group, 2)


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
    full = full_subset(g)
    res = greedy_shrink_intersection(g, full, 3)
    assert res.sizes[-1] == 100 and res.elements == (0, 0, 0)

    rng = random.Random(31)
    x = GroupSubset.from_indices(g, rng.sample(range(100), 9))
    res = greedy_shrink_intersection(g, x, 2)
    assert res.sizes[-1] == 0  # floor(81 / 100) = 0
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
            assert res.sizes[-1] <= size**k // n ** (k - 1)


def test_certificate_documents_are_deterministic():
    g = CyclicGroup(1024)
    a = construct_k_covering(g, 2, seed=9)
    b = construct_k_covering(g, 2, seed=9)
    assert_same_text(canonical_json(b.document()), canonical_json(a.document()))
    doc = a.document()
    assert list(doc)[:7] == ["kind", "group", "k", "p", "seed", "attempts", "sizes"]
