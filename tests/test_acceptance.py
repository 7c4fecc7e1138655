"""Acceptance suite: every checkable guarantee at desk scale, with timings.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per check.
"""

import json
import random
import time
from fractions import Fraction

from conftest import (
    assert_same_text,
    difference_product_full,
    naive_stage_members,
    pullback_dense,
    stage_measures,
    witness_levels,
    witness_sets_nested,
)

from covtrans import (
    CyclicGroup,
    DihedralGroup,
    ElementaryAbelianGroup,
    GroupSubset,
    SymmetricGroup,
    TowerSpec,
    build_tower,
    construct_intersecting_family,
    construct_k_covering,
    exact_covering_number,
    greedy_shrink_intersection,
    group_from_descriptor,
    member_size_cap,
    random_subset,
    sample_thin_set,
    translate_thin,
    verify_k_covering,
)
from covtrans.cli import run_config


def _report(number: int, name: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nacceptance {number}/9 {name}: PASS ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"{name} took {elapsed:.2f}s, limit {limit}s"


def test_1_intersecting_families_at_desk_scale():
    started = time.perf_counter()
    for n in (256, 512, 1024):
        case_start = time.perf_counter()
        group = CyclicGroup(n)
        family = construct_intersecting_family(group, 2, seed=7)
        cap = member_size_cap(n, 2)
        assert family.attempts_used <= 100
        assert all(size <= cap for size in family.sizes)
        assert family.verification.mode == "exhaustive"
        assert family.verification.method == "tuple-scan"
        assert family.verification.result
        case_elapsed = time.perf_counter() - case_start
        assert case_elapsed < 10.0, f"C{n} took {case_elapsed:.2f}s"
    _report(1, "intersecting families at desk scale", started)


def test_2_covering_union_bound():
    started = time.perf_counter()
    for n in (1024, 2048):
        group = CyclicGroup(n)
        certificate = construct_k_covering(group, 2, seed=7)
        assert certificate.covering_set.size <= n // 2
        record = verify_k_covering(group, certificate.covering_set, 2, mode="exhaustive")
        assert record.method == "difference-set"  # the complete O(n^2) route
        assert record.result
    _report(2, "2-covering sets within half the group", started, limit=5.0)


def _builtin_groups_up_to(max_order: int):
    groups = [CyclicGroup(n) for n in range(2, max_order + 1)]
    groups += [DihedralGroup(m) for m in range(3, 9) if 2 * m <= max_order]
    groups += [SymmetricGroup(3)]
    groups += [
        ElementaryAbelianGroup(2, 2),
        ElementaryAbelianGroup(2, 3),
        ElementaryAbelianGroup(2, 4),
        ElementaryAbelianGroup(3, 2),
    ]
    groups += [
        group_from_descriptor("C2xC4"),
        group_from_descriptor("C2xC6"),
        group_from_descriptor("C4xC4"),
    ]
    return [g for g in groups if g.order <= max_order]


def test_3_exact_covering_sizes_respect_bounds():
    started = time.perf_counter()
    groups = _builtin_groups_up_to(16)
    assert len(groups) >= 25
    for group in groups:
        n = group.order
        for k in (1, 2):
            exact = exact_covering_number(group, k)
            assert exact**k >= n ** (k - 1)  # n^(1-1/k) <= exact, integer form
            assert exact <= n
    assert exact_covering_number(CyclicGroup(4), 2) == 3
    assert exact_covering_number(CyclicGroup(7), 2) == 3
    _report(3, "exact covering numbers within the general bounds", started, limit=60.0)


def test_4_pair_covering_equivalence():
    started = time.perf_counter()
    rng = random.Random(2024)
    disagreements = 0
    for n in (8, 16, 64, 256):
        group = CyclicGroup(n)
        for trial in range(200):
            p = 0.02 + 0.9 * (trial / 200.0)
            x = random_subset(group, p, rng)
            covering = verify_k_covering(group, x, 2, mode="exhaustive").result
            if covering != difference_product_full(group, x):
                disagreements += 1
    assert disagreements == 0
    _report(4, "pair covering equals the quotient-set criterion", started)


def test_5_greedy_shrinking_beats_the_average():
    started = time.perf_counter()
    group = CyclicGroup(100)
    rng = random.Random(5)
    for _ in range(100):
        x = GroupSubset.from_indices(group, rng.sample(range(100), 9))
        result = greedy_shrink_intersection(group, x, 2)
        assert result.sizes[-1] == 0  # floor(9^2 / 100) = 0
        for prev, nxt in zip(result.sizes, result.sizes[1:]):
            assert nxt <= (prev * 9) // 100
    _report(5, "greedy intersection shrinking reaches empty", started)


def test_6_tower_depth_two():
    started = time.perf_counter()
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    assert tower.stage_set(1).size <= 10
    assert tower.stage_set(2).size <= 5120
    assert stage_measures(tower)[0] <= Fraction(1, 2)
    assert stage_measures(tower)[1] <= Fraction(1, 4)

    rng = random.Random(99)
    group = CyclicGroup(spec.group_order(2))
    translations = []
    for _ in range(1000):
        thin = sample_thin_set(spec, 2, rng)
        g = translate_thin(tower, thin)
        for y in thin.elements:
            assert tower.member(2, group.mul(g, y))
        levels = witness_levels(tower, thin)
        assert witness_sets_nested(tower, levels)
        translations.append((thin, levels))

    # fiber-union structure: the level sets pulled back to G_2 equal the
    # directly computed translator sets, checked on a subsample
    for thin, levels in translations[:10]:
        for i in (1, 2):
            direct = 0
            for g in range(20480):
                if all(
                    tower.member(i, group.mul(g, y) % spec.group_order(i))
                    for y in thin.elements
                ):
                    direct |= 1 << g
            lifted = levels[i].bits
            for s in range(i + 1, 3):
                lifted = pullback_dense(spec.group_order(s - 1), spec.kernel_orders[s - 1], lifted)
            assert direct == lifted
    _report(6, "depth-2 tower with 1000 verified translations", started, limit=30.0)


def test_7_tower_depth_three_factored():
    started = time.perf_counter()
    spec = TowerSpec([20, 1024, 131072])
    stage3 = spec.admissibility(3)
    assert stage3.strengthened_ok and stage3.strengthened_value < 131072
    tower = build_tower(spec, 11)
    size2, size3 = tower.stage_set(2).size, tower.stage_set(3).size
    assert size3 == tower.stages[2].subset.kernel_cover.size * size2
    assert size3 * 8 <= spec.group_order(3)

    rng = random.Random(7)
    group = CyclicGroup(spec.group_order(3))
    for _ in range(100):
        thin = sample_thin_set(spec, 3, rng)
        g = translate_thin(tower, thin)
        for y in thin.elements:
            assert tower.member(3, group.mul(g, y))
    _report(7, "depth-3 tower in factored form", started, limit=120.0)


def test_8_factored_and_dense_membership_agree():
    started = time.perf_counter()
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    members = naive_stage_members(tower, 2)
    dense = set(members)
    assert len(dense) == len(members) == tower.stage_set(2).size
    mismatches = sum(1 for x in range(20480) if tower.member(2, x) != (x in dense))
    assert mismatches == 0
    _report(8, "factored membership equals dense enumeration", started)


def test_9_documents_reproduce_byte_for_byte():
    started = time.perf_counter()
    covering_config = {
        "command": "covering construct",
        "group": "C1024",
        "k": 2,
        "l": None,
        "seed": 7,
        "max_attempts": 100,
        "mode": "auto",
        "threads": 1,
        "out": None,
    }
    first, code = run_config(covering_config)
    second, _ = run_config(covering_config)
    assert code == 0
    assert_same_text(second, first)
    regenerated, _ = run_config(json.loads(first)["config"])
    assert_same_text(regenerated, first)

    tower_config = {
        "command": "tower build",
        "spec": "tower:20,1024",
        "seed": 3,
        "max_attempts": 100,
        "mode": "auto",
        "threads": 1,
        "claim3_samples": 100,
        "out": None,
    }
    t_first, t_code = run_config(tower_config)
    t_second, _ = run_config(tower_config)
    assert t_code == 0
    assert_same_text(t_second, t_first)
    t_regenerated, _ = run_config(json.loads(t_first)["config"])
    assert_same_text(t_regenerated, t_first)
    _report(9, "documents regenerate byte-for-byte", started)
