import copy
import json
import math
import re
import random
import tracemalloc
from fractions import Fraction

import pytest
from conftest import (
    assert_same_text,
    full_subset,
    level_images,
    naive_factored_members,
    naive_reduction_contract,
    naive_stage_members,
    pullback_dense,
    reference_canonical_json,
    reference_lift,
    reference_sample_thin_set,
    stage_measures,
    witness_levels,
    witness_sets_nested,
)

from covtrans import (
    CyclicGroup,
    Epimorphism,
    GroupSubset,
    build_tower,
    dimension_estimate,
    extend_covering,
    make_thin_set,
    parse_tower_descriptor,
    sample_thin_set,
    thin_bound,
    tower_from_document,
    translate_thin,
    TowerSpec,
)
import covtrans.tower as tower_module
from covtrans.cli import EXIT_INTEGRITY, EXIT_OK, main
from covtrans.errors import FeasibilityError, IntegrityError, SoundnessError
from covtrans.tower import check_projection_claim, check_translation_claim
from covtrans.covering import _VERIFY_SALT, verify_k_covering
from covtrans.util import canonical_json, derive_seed


@pytest.fixture(scope="module")
def seed11_tower():
    """The depth-3 tower of the acceptance suite, its claims left to each test.

    Tests restore whatever they patch.
    """
    return build_tower(TowerSpec([20, 1024, 131072]), 11, claim3_samples=0)


def test_stage_records_are_rerun_from_the_document(seed11_tower):
    # a stage's record is its cover's own k-covering check, seeded by the
    # stage's seed and attempts, so the emitted document alone repeats it
    stages = seed11_tower.document()["stages"][1:]
    assert [stage["verification"]["mode"] for stage in stages] == ["exhaustive", "sampled"]
    for stage in stages:
        kernel = CyclicGroup(stage["kernel_order"])
        cover = GroupSubset.from_indices(kernel, stage["cover"])
        record = stage["verification"]
        mode = "exhaustive" if record["mode"] == "exhaustive" else f"sampled:{record['trials']}"
        check_seed = derive_seed(stage["seed"], stage["attempts"] - 1, _VERIFY_SALT)
        rerun = verify_k_covering(cover, stage["covering_k"], mode, seed=check_seed)
        assert rerun.document() == record


def test_thin_bound_is_fixed():
    assert thin_bound(0) == 1
    assert [thin_bound(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        thin_bound(-1)


def test_extension_admissible_frozen_values():
    # stage s extends through kernel n_{s-1} at parameter k = s - 1
    assert TowerSpec([20, 1024]).admissibility(2).strengthened_ok
    assert TowerSpec([20]).admissibility(1).strengthened_ok
    assert not TowerSpec([20, 64]).admissibility(2).strengthened_ok


def test_tower_spec_basics():
    spec = TowerSpec([20, 1024, 131072])
    assert spec.depth == 3
    assert [spec.group_order(i) for i in range(4)] == [1, 20, 20480, 2684354560]
    assert spec.describe() == "tower:20,1024,131072"
    assert parse_tower_descriptor("tower:20,1024,131072").kernel_orders == (20, 1024, 131072)
    for s in (1, 2, 3):
        naive_reduction_contract(spec.quotient_map(s))
    assert level_images(spec, make_thin_set(spec, 3, [20480 * 3 + 27]))[1] == (7,)
    with pytest.raises(ValueError):
        TowerSpec([20, 1])
    with pytest.raises(ValueError):
        parse_tower_descriptor("tower:")
    with pytest.raises(ValueError):
        parse_tower_descriptor("spiral:20")


def test_admissibility_report_both_readings():
    spec = TowerSpec([20, 64])
    stage2 = spec.admissibility(2)
    assert stage2.literal_ok and not stage2.strengthened_ok
    assert stage2.literal_value == pytest.approx(4 * (math.log(64) + math.log(2)), rel=1e-12)
    assert stage2.strengthened_value == pytest.approx(
        64 * (2 * math.log(64) + math.log(2)), rel=1e-12
    )
    stage1 = spec.admissibility(1)
    assert stage1.exempt and stage1.literal_ok


def test_extend_trivial_parameter_uses_identity_cover():
    base = GroupSubset.from_indices(CyclicGroup(20), [0, 3, 7])
    ext = extend_covering(20, base, 0, seed=1)
    assert list(ext.subset.kernel_cover) == [0]
    assert ext.attempts == 0 and ext.verification is None
    assert ext.subset.size == 3
    # the base digits, each with the cover digit 0
    assert [x for x in range(400) if x in ext.subset] == [0, 3, 7]


def test_extend_projects_back_exactly():
    phi = Epimorphism(4, 4096)
    base = GroupSubset.from_indices(CyclicGroup(4), [0, 2])
    ext = extend_covering(1024, base, 1, seed=5)
    members = naive_factored_members(phi, list(base), list(ext.subset.kernel_cover))
    assert {phi.map(x) for x in members} == {0, 2}
    assert ext.subset.size == ext.subset.kernel_cover.size * 2 == len(set(members))
    assert 2 * ext.subset.size <= phi.kernel_group.order * 2  # |X'| <= n |X| / 2
    # digit membership agrees with the enumeration through the stage map
    member_set = set(members)
    rng = random.Random(8)
    for _ in range(500):
        x = rng.randrange(4096)
        assert (x in ext.subset) == (x in member_set)


def test_extend_preserves_translatability():
    phi = Epimorphism(20, 20480)
    target = CyclicGroup(20)
    base = GroupSubset.from_indices(target, range(10))
    ext = extend_covering(1024, base, 1, seed=2)
    assert ext.subset.size <= 1024 * 10 // 2
    dense = GroupSubset.from_indices(
        phi.source, naive_factored_members(phi, list(base), list(ext.subset.kernel_cover))
    )
    from covtrans import translate_into

    rng = random.Random(4)
    found = 0
    while found < 20:
        hs = [rng.randrange(20) for _ in range(2)]
        if translate_into(hs, base) is None:
            continue  # image must be translatable for the guarantee to apply
        found += 1
        ys = [phi.embed_kernel(rng.randrange(1024)) + h for h in hs]
        assert translate_into(ys, dense) is not None


def test_extend_whole_group_collapse():
    # trivial target: the extension is exactly the kernel cover
    phi = Epimorphism(1, 1024)
    base = GroupSubset.from_indices(CyclicGroup(1), [0])
    ext = extend_covering(1024, base, 1, seed=9)
    assert ext.subset.size == ext.subset.kernel_cover.size <= 512
    dense = GroupSubset.from_indices(
        phi.source, naive_factored_members(phi, list(base), list(ext.subset.kernel_cover))
    )
    from covtrans import translate_into

    rng = random.Random(10)
    for _ in range(20):
        ys = rng.sample(range(1024), 2)
        assert translate_into(ys, dense) is not None


def test_extend_error_cases():
    base = GroupSubset.from_indices(CyclicGroup(4), [0])
    with pytest.raises(FeasibilityError, match="576"):
        extend_covering(64, base, 1, seed=1)
    with pytest.raises(FeasibilityError):
        extend_covering(64, GroupSubset(CyclicGroup(4), 0), 0, seed=1)
    # an isomorphism (kernel order 1) has no room for the halving bound
    with pytest.raises(FeasibilityError, match="kernel"):
        extend_covering(1, base, 0, seed=1)


def test_maps_outside_the_digit_core_are_rejected():
    # a mask over C4 pulled back through a reduction onto C2 would repeat
    # bits past its carrier silently, so it is refused up front
    base = GroupSubset.from_indices(CyclicGroup(4), [0, 2])
    with pytest.raises(ValueError, match="not a cyclic reduction"):
        pullback_dense(2, 256, base.bits)  # a mask over C4, reduction C512 -> C2
    assert pullback_dense(4, 3, base.bits) == 0b010101010101


def test_build_depth_two_tower():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    assert tower.stage_set(0).size == 1
    assert tower.stage_set(1).size == 1  # stage 1 cover is the identity singleton
    assert tower.stage_set(2).size <= 5120
    assert stage_measures(tower)[0] <= Fraction(1, 2)
    assert stage_measures(tower)[1] <= Fraction(1, 4)
    assert stage_measures(tower)[1] == Fraction(tower.stage_set(2).size, 20480)
    # stage covers: 1-covering then 2-covering
    assert list(tower.stages[0].subset.kernel_cover) == [0]
    assert tower.stages[0].attempts == 0 and tower.stages[0].verification is None
    assert tower.stages[1].attempts >= 1
    assert tower.stages[1].verification.mode == "exhaustive"


def test_build_refuses_a_negative_claim_count_before_any_stage(monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage was built")

    monkeypatch.setattr(tower_module, "extend_covering", no_stage)
    with pytest.raises(ValueError, match="claim3_samples must be >= 0, got -1"):
        build_tower(TowerSpec([20, 1024]), 3, claim3_samples=-1)


@pytest.mark.parametrize("count", [0, -3])
def test_max_attempts_below_one_is_refused_at_every_depth(count):
    # at the parent extend_covering at k = 0 and a build of depth 0 or 1 took
    # any count, and an inadmissible spec was refused as infeasible first
    base = GroupSubset.from_indices(CyclicGroup(4), [0])
    calls = {
        "extend_covering at k = 0": lambda: extend_covering(20, base, 0, seed=1, max_attempts=count),
        "extend_covering at k = 1": lambda: extend_covering(
            1024, base, 1, seed=1, max_attempts=count
        ),
        "build_tower at depth 0": lambda: build_tower(TowerSpec([]), 1, max_attempts=count),
        "build_tower at depth 1": lambda: build_tower(TowerSpec([20]), 1, max_attempts=count),
        "build_tower, inadmissible": lambda: build_tower(
            TowerSpec([20, 64]), 1, max_attempts=count
        ),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as info:
            call()
            pytest.fail(f"{name} accepted max_attempts={count}")
        assert str(info.value) == f"max_attempts must be >= 1, got {count}", name
    # a bad mode is still refused first
    with pytest.raises(ValueError, match="unknown verification mode 'bogus'"):
        extend_covering(20, base, 0, seed=1, max_attempts=count, mode="bogus")
    with pytest.raises(ValueError, match="unknown verification mode 'bogus'"):
        build_tower(TowerSpec([20]), 1, max_attempts=count, mode="bogus")
    assert build_tower(TowerSpec([20]), 1, max_attempts=1).depth == 1


def test_build_depth_zero():
    tower = build_tower(TowerSpec([]), 1)
    assert tower.depth == 0
    assert tower.member(0, 0)
    assert stage_measures(tower) == []
    # the claim loop needs no depth-0 case: each sample is {0}, lifted by 0
    thin = sample_thin_set(tower.spec, 0, random.Random(1))
    assert thin.elements == (0,) and translate_thin(tower, thin) == 0
    check_translation_claim(tower, samples=5)


def test_build_rejects_inadmissible_stage():
    with pytest.raises(FeasibilityError) as exc:
        build_tower(TowerSpec([20, 64]), 1)
    # the report carries both the literal and the strengthened values
    assert "576.698" in str(exc.value) and "19.4" in str(exc.value)


def test_stage_one_exempt_with_warning():
    # kernel 8 fails the strengthened reading at stage 1 but builds regardless
    spec = TowerSpec([8, 1024])
    assert not spec.admissibility(1).strengthened_ok
    tower = build_tower(spec, 5)
    assert tower.stage_set(1).size == 1
    assert any("stage 1" in w for w in tower.warnings())


def test_projection_claim_rejects_broken_stage_maps(seed11_tower, monkeypatch):
    # The claim holds by integer arithmetic once each stage set is built over
    # X_{s-1}, reduces mod |G_{s-1}| and takes its cover from the stage
    # kernel; breaking any one of the three must be caught.
    tower = seed11_tower
    check_projection_claim(tower)
    stage3 = tower.stages[2].subset
    with monkeypatch.context() as m:
        m.setattr(stage3, "base", tower.stage_set(1))
        with pytest.raises(SoundnessError, match="not built over X_2"):
            check_projection_claim(tower)
    with monkeypatch.context() as m:
        m.setattr(tower.stages[0].subset, "base", full_subset(CyclicGroup(1)))
        check_projection_claim(tower)  # the same set {0} of C1, another object
        m.setattr(tower.stages[0].subset, "base", full_subset(CyclicGroup(20)))
        with pytest.raises(SoundnessError, match="not built over X_0"):
            check_projection_claim(tower)
    with monkeypatch.context() as m:
        m.setattr(stage3, "modulus", 1024)  # the stage-2 kernel order, not |G_2|
        with pytest.raises(SoundnessError, match="modulus 1024 is not .G_2. = 20480"):
            check_projection_claim(tower)
    wide = GroupSubset.from_indices(CyclicGroup(2 * 131072), list(stage3.kernel_cover))
    with monkeypatch.context() as m:
        m.setattr(stage3, "kernel_cover", wide)
        with pytest.raises(SoundnessError, match="C262144, not in the stage kernel C131072"):
            check_projection_claim(tower)
    check_projection_claim(tower)


def test_digit_membership_matches_naive_factored_members(seed11_tower):
    # X_3 has over five million members, too many to list in a test, so the
    # reference lists X_2 in full and X_3 fiber by fiber: the members above
    # b are embed(v) * section(b), v in L_3, all of which map to b.
    tower = seed11_tower
    stage3 = tower.stages[2]
    phi3, cover3 = tower.spec.quotient_map(3), list(stage3.subset.kernel_cover)
    x2 = naive_stage_members(tower, 2)
    assert len(set(x2)) == len(x2) == tower.stage_set(2).size
    x2_set = set(x2)
    fibers: dict[int, set[int]] = {}

    def naive_member(x):
        b = phi3.map(x)
        if b not in x2_set:
            return False
        if b not in fibers:
            fibers[b] = set(naive_factored_members(phi3, [b], cover3))
        return x in fibers[b]

    rng = random.Random(23)
    mul, embed, section = phi3.source.mul, phi3.embed_kernel, phi3.section
    bases = rng.sample(x2, 8)
    uniform = [rng.randrange(tower.spec.group_order(3)) for _ in range(3000)]
    sampled = [mul(embed(rng.choice(cover3)), section(rng.choice(bases))) for _ in range(3000)]
    # uniform elements of the fibers above members of X_2: the cover digit decides
    fibered = [mul(embed(rng.randrange(131072)), section(rng.choice(bases))) for _ in range(3000)]
    for x in uniform + sampled + fibered:
        assert tower.member(3, x) == naive_member(x), x
    assert all(tower.member(3, x) for x in sampled)
    order3, top = tower.spec.group_order(3), stage3.subset
    assert not any(x - order3 in top or x + order3 in top for x in sampled)
    assert any(tower.member(3, x) for x in uniform)
    assert not all(tower.member(3, x) for x in fibered)


def test_membership_factored_dense_agreement():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    members = naive_stage_members(tower, 2)
    dense = set(members)
    assert len(dense) == len(members) == tower.stage_set(2).size
    for x in range(20480):
        assert tower.member(2, x) == (x in dense)


def test_membership_requires_projection():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 7)
    # X_1 = {0}: anything whose level-1 image is nonzero is outside X_2
    for x in (1, 21, 12345):
        if x % spec.group_order(1) != 0:
            assert not tower.member(2, x)


def test_sample_thin_set_shapes():
    spec = TowerSpec([20, 1024, 131072])
    rng = random.Random(6)
    t1 = sample_thin_set(spec, 1, rng)
    assert len(t1.elements) <= 1
    t2 = sample_thin_set(spec, 2, rng)
    assert len(t2.elements) <= 2
    assert len(level_images(spec, t2)[1]) <= 1  # single level-1 fiber
    # the sampler builds its sets without make_thin_set: each must be the set
    # make_thin_set validates from its elements, listed strictly ascending.
    # The small kernels of tower:2,3,5 make repeated picks common.
    for kernels in ([20, 1024, 131072], [2, 3, 5]):
        chain = TowerSpec(kernels)
        for depth in range(4):
            for fullness in (1.0, 0.5):
                for _ in range(500):
                    thin = sample_thin_set(chain, depth, rng, fullness)
                    assert thin.depth == depth
                    assert make_thin_set(chain, depth, thin.elements) == thin
                    assert all(a < b for a, b in zip(thin.elements, thin.elements[1:]))
                    assert len(thin.elements) <= thin_bound(depth)
    sparse = sample_thin_set(spec, 3, rng, fullness=0.4)
    assert make_thin_set(spec, sparse.depth, sparse.elements) == sparse
    with pytest.raises(ValueError):
        sample_thin_set(spec, 4, rng)
    with pytest.raises(ValueError):
        sample_thin_set(spec, 2, rng, fullness=0.0)


@pytest.mark.parametrize("fullness", [1.0, 0.5])
def test_sample_thin_set_draws_as_randrange_did(fullness):
    # the inlined draws read the same generator words in the same order as
    # rng.randrange: the same thin sets, and the generator left in the same state
    spec = TowerSpec([20, 1024, 131072])
    for depth in range(4):
        mine, ref = random.Random(depth), random.Random(depth)
        for _ in range(2000):
            got = sample_thin_set(spec, depth, mine, fullness)
            assert got == reference_sample_thin_set(spec, depth, ref, fullness)
        assert mine.getstate() == ref.getstate()
        assert mine.random() == ref.random()


def test_make_thin_set_refusals_name_the_offending_element_or_level():
    spec = TowerSpec([20, 1024])
    for elements, named in [
        ([20485, 20480], 20480),  # the least out-of-range element, not the largest
        ([-3, -1], -3),
        ([-1, 20480], -1),
        ([7, 2**70], 2**70),
    ]:
        with pytest.raises(ValueError, match=f"^element {named} out of range for stage 2$"):
            make_thin_set(spec, 2, elements)
    for depth, elements, level, size, budget in [(2, [0, 1], 1, 2, 1), (2, [0, 20, 40], 2, 3, 2)]:
        message = f"set is not thin: level {level} image has {size} elements (budget {budget})"
        with pytest.raises(FeasibilityError, match=f"^{re.escape(message)}$"):
            make_thin_set(spec, depth, elements)


def test_make_thin_set_rejects_wide_sets():
    spec = TowerSpec([20, 1024])
    with pytest.raises(FeasibilityError):
        make_thin_set(spec, 2, [0, 1])  # two distinct level-1 fibers
    with pytest.raises(ValueError):
        make_thin_set(spec, 2, [20480])
    ok = make_thin_set(spec, 2, [20 * 512 + 5, 5])
    assert ok.elements == (5, 20 * 512 + 5)
    assert level_images(spec, ok)[1] == (5,)


def _first_overflowing_level(spec, depth, elements):
    """(level, image size) of the lowest level i whose image {x mod |G_i|},
    collected element by element, holds more than thin_bound(i) elements."""
    for i in range(depth + 1):
        image = set()
        for x in elements:
            image.add(x % spec.group_order(i))
        if len(image) > thin_bound(i):
            return i, len(image)
    return None


def test_make_thin_set_accepts_exactly_the_lists_thin_at_every_level():
    # make_thin_set against a naive oracle: it accepts a list exactly when
    # every level image fits its budget, and otherwise names the lowest level
    # that does not.  The lists are sampled sets, the same with an element
    # repeated and the list reversed, the same with one element added in the
    # fiber of a member over level j (so it overflows at level j + 1 or later,
    # or fits), and uniformly random lists.
    spec = TowerSpec([20, 1024, 131072])
    rng = random.Random(17)
    lists = []
    for depth in (0, 1, 2, 3):
        top = spec.group_order(depth)
        for fullness in (1.0, 0.5):
            for _ in range(200):
                elements = list(sample_thin_set(spec, depth, rng, fullness).elements)
                lists.append((depth, elements))
                if elements:
                    lists.append((depth, elements[::-1] + elements[:1]))
                    j = rng.randrange(depth + 1)
                    base = rng.choice(elements) % spec.group_order(j)
                    extra = base + spec.group_order(j) * rng.randrange(top // spec.group_order(j))
                    lists.append((depth, elements + [extra]))
        for _ in range(200):
            lists.append((depth, [rng.randrange(top) for _ in range(rng.randrange(1, 5))]))
    accepted, refused = 0, set()
    for depth, elements in lists:
        failing = _first_overflowing_level(spec, depth, elements)
        if failing is None:
            thin = make_thin_set(spec, depth, elements)
            assert thin.elements == tuple(sorted(set(elements)))
            accepted += 1
        else:
            level, size = failing
            message = (
                f"set is not thin: level {level} image has {size} elements "
                f"(budget {thin_bound(level)})"
            )
            with pytest.raises(FeasibilityError, match=f"^{re.escape(message)}$"):
                make_thin_set(spec, depth, elements)
            refused.add(level)
    assert accepted and refused == {1, 2, 3}
    # a set over budget at several levels names the lowest one
    with pytest.raises(FeasibilityError, match="level 1 image has 3 elements"):
        make_thin_set(spec, 3, [0, 1, 2])
    with pytest.raises(FeasibilityError, match="level 2 image has 3 elements"):
        make_thin_set(spec, 3, [0, 20, 40])


def test_translate_thin_basic_and_empty():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    empty = make_thin_set(spec, 2, [])
    assert translate_thin(tower, empty) == 0

    singleton = make_thin_set(spec, 2, [777])
    g = translate_thin(tower, singleton)
    assert tower.member(2, CyclicGroup(spec.group_order(2)).mul(g, 777))


def test_translate_thin_chain_consistency():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 9)
    rng = random.Random(12)
    for _ in range(200):
        thin = sample_thin_set(spec, 2, rng)
        g = translate_thin(tower, thin)
        group = CyclicGroup(spec.group_order(2))
        for y in thin.elements:
            assert tower.member(2, group.mul(g, y))
        levels = witness_levels(tower, thin)
        assert witness_sets_nested(tower, levels)
        # the returned translator lives in every level set
        for i, level in enumerate(levels):
            assert g % spec.group_order(i) in level


def test_translate_thin_final_membership_catches_unsound_lifts(monkeypatch):
    # On a loaded depth-3 tower, the one membership check at the top must
    # catch a wrong kernel shift at any of the three stages, and a stage-2
    # set whose cover lacks an element the lift used.  The lift and the check
    # read the same cover object, so the second case hands the lift the
    # sound cover in place of the thinned one.
    spec = TowerSpec([20, 1024, 131072])
    tower = tower_from_document(build_tower(spec, 11, claim3_samples=0).document())
    rng = random.Random(19)
    thin = next(
        t
        for t in (sample_thin_set(spec, 3, rng) for _ in range(50))
        if len(level_images(spec, t)[2]) == 2
    )
    sound = translate_thin(tower, thin)
    real = tower_module.translate_into

    for kernel_order in (20, 1024, 131072):

        def wrong_shift(offsets, cover):
            u = real(offsets, cover)
            n = cover.group.order
            if n != kernel_order:
                return u
            return next(v for v in range(n) if any((v + o) % n not in cover for o in offsets))

        with monkeypatch.context() as m:
            m.setattr(tower_module, "translate_into", wrong_shift)
            with pytest.raises(SoundnessError, match="fails membership"):
                translate_thin(tower, thin)

    # for each level-2 image y, drop the cover element that g_2 * y lands on
    # from the stage-2 set, while the lift is still handed the sound cover
    stage2, phi2 = tower.stages[1].subset, spec.quotient_map(2)
    src, cover2 = phi2.source, stage2.kernel_cover
    for y in level_images(spec, thin)[2]:
        w = src.mul(sound % spec.group_order(2), y)
        used = phi2.kernel_coords(src.mul(w, src.inv(phi2.section(phi2.map(w)))))
        assert used in cover2
        thinned = GroupSubset.from_indices(cover2.group, [v for v in cover2 if v != used])

        def sound_lift(offsets, cover, thinned=thinned):
            return real(offsets, cover2 if cover is thinned else cover)

        with monkeypatch.context() as m:
            m.setattr(stage2, "kernel_cover", thinned)
            m.setattr(tower_module, "translate_into", sound_lift)
            with pytest.raises(SoundnessError, match="fails membership"):
                translate_thin(tower, thin)
    assert translate_thin(tower, thin) == sound


def test_integer_lift_matches_the_stage_map_reference(seed11_tower, monkeypatch):
    # translate_thin lifts by integer arithmetic on the spec's orders; the
    # reference lifts through the stage maps.  Both must pick the same
    # translator at every stage, on sampled thin sets at every depth and on
    # listed ones reaching the top of G_3, where g + y wraps mod |G_s|.
    # translate_into reads its offsets mod n, so an unreduced offset would
    # pick the same translator: the lift must hand it kernel elements.
    tower, spec = seed11_tower, seed11_tower.spec
    real = tower_module.translate_into

    def kernel_offsets_only(offsets, cover):
        n = cover.group.order
        assert all(0 <= v < n for v in offsets), (n, offsets)
        return real(offsets, cover)

    monkeypatch.setattr(tower_module, "translate_into", kernel_offsets_only)
    top = spec.group_order(3)
    rng = random.Random(29)
    thin_sets = [
        sample_thin_set(spec, depth, rng, fullness)
        for depth in (1, 2, 3)
        for fullness in (1.0, 0.5)
        for _ in range(25)
    ]
    listed = [
        (3, []),
        (3, [0]),
        (1, [19]),
        (2, [20479]),
        (3, [top - 1]),
        (3, [top - 1, top - 21, 20479]),  # one level-1 image, two level-2 images
        (3, [top - 20461, 20459, top - 20501]),
    ]
    thin_sets += [make_thin_set(spec, depth, elements) for depth, elements in listed]
    wrapped = 0
    for thin in thin_sets:
        got = translate_thin(tower, thin)
        translator, chain = reference_lift(tower, thin)
        assert got == translator, thin
        # the reference's whole lifting chain is the residues of the one translator
        assert list(chain) == [got % spec.group_order(s) for s in range(thin.depth + 1)], thin
        images = level_images(spec, thin)
        for s in range(1, thin.depth + 1):
            g = got % spec.group_order(s - 1)
            wrapped += any(g + y >= spec.group_order(s) for y in images[s])
    assert wrapped  # the reduction mod |G_s| was exercised


def test_translator_sets_match_direct_definition():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 21)
    rng = random.Random(13)
    group = CyclicGroup(spec.group_order(2))
    for _ in range(3):
        thin = sample_thin_set(spec, 2, rng)
        levels = witness_levels(tower, thin)
        assert translate_thin(tower, thin) in levels[2]
        for i in (1, 2):
            level = levels[i]
            direct_bits = 0
            for g in range(20480):
                if all(
                    tower.member(i, group.mul(g, y) % spec.group_order(i))
                    for y in thin.elements
                ):
                    direct_bits |= 1 << g
            lifted = level.bits
            for s in range(i + 1, 3):
                lifted = pullback_dense(spec.group_order(s - 1), spec.kernel_orders[s - 1], lifted)
            # unions of full fibers: the directly computed set IS the pullback
            assert direct_bits == lifted


def test_dimension_estimates():
    spec = TowerSpec([20, 1024])
    assert dimension_estimate(spec, range(20480)) == pytest.approx(1.0)
    assert dimension_estimate(spec, [77]) == 0.0
    rng = random.Random(14)
    thin = sample_thin_set(spec, 2, rng)
    est = dimension_estimate(spec, thin.elements)
    bound = max(math.log(thin_bound(i)) / math.log(spec.group_order(i)) for i in (1, 2))
    assert est <= bound + 1e-12
    wide = dimension_estimate(spec, range(100))
    assert wide == pytest.approx(math.log(100) / math.log(20480), rel=1e-12)
    with pytest.raises(ValueError):
        dimension_estimate(spec, [])


def test_tower_document_roundtrip_and_integrity():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    doc = tower.document()
    again = build_tower(spec, 3).document()
    assert canonical_json(doc) == canonical_json(again)

    rebuilt = tower_from_document(doc)
    rng = random.Random(15)
    for _ in range(500):
        x = rng.randrange(20480)
        assert rebuilt.member(2, x) == tower.member(2, x)
    assert rebuilt.stages[1].verification.mode == "exhaustive"

    tampered = tower.document()
    tampered["stages"][1]["cover_size"] += 1
    with pytest.raises(IntegrityError):
        tower_from_document(tampered)
    tampered2 = tower.document()
    tampered2["stages"][1]["set_size"] += 1
    with pytest.raises(IntegrityError):
        tower_from_document(tampered2)


def test_loaded_tower_reemits_its_document(seed11_tower):
    # every stage keeps its seed, attempts and verification record
    for tower in (build_tower(TowerSpec([20, 1024]), 3), seed11_tower):
        doc = tower.document()
        assert doc["stages"][1]["attempts"] >= 1
        assert tower_from_document(doc).document() == doc
        text = canonical_json(doc)
        assert_same_text(canonical_json(tower_from_document(json.loads(text)).document()), text)


def test_canonical_json_matches_the_reference_emitter(seed11_tower, tmp_path):
    # the two largest documents: the seed-11 tower and 5000 translated thin sets
    tower_doc = seed11_tower.document()
    tower_path, translated = tmp_path / "tower.json", tmp_path / "translated.json"
    tower_path.write_text(canonical_json(tower_doc))
    argv = ["tower", "translate", "--in", str(tower_path), "--seed", "5", "--samples", "5000"]
    assert main([*argv, "--out", str(translated)]) == EXIT_OK
    quoted = ["é", "\u2028", "\x00", '"', "\\", 'a"b\\c\x00é\u2028']
    edges = [[], [0], [True, 1], [False], [-1, -(2**70)], [2**63, 2**64 + 1], (3, 1, 2)]
    edges += [quoted, {key: [key] for key in quoted}, {"é": {"\u2028": "\x00"}}]
    nested = {"a": [[0, 1], [2, [3, []]], [0.5, None, "x"]], "b": edges, "c": {}}
    for doc in (tower_doc, json.loads(translated.read_text()), *edges, nested, [nested]):
        assert_same_text(canonical_json(doc), reference_canonical_json(doc))
    # strings and keys are quoted as json.dumps quotes them, with no float to
    # tell the two apart
    for doc in (*edges, {"b": edges, "c": {}}):
        assert canonical_json(doc) == json.dumps(doc, indent=2)


def test_translate_streams_its_samples(seed11_tower, tmp_path):
    # each sampled thin set is dropped once translated; a list of all 5000
    # took the peak over 8 MiB
    tower_path = tmp_path / "tower.json"
    tower_path.write_text(canonical_json(seed11_tower.document()))
    argv = ["tower", "translate", "--in", str(tower_path), "--seed", "5", "--samples", "5000"]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "translated.json")]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 << 20, peak


def test_loaded_tower_names_a_missing_or_mistyped_field():
    doc = build_tower(TowerSpec([20, 1024]), 3).document()

    def broken(change):
        out = copy.deepcopy(doc)
        change(out)
        return out

    stage2 = "stage 2 verification"
    assert doc["stages"][1]["cover"][0] == 1  # so inserting 1 repeats an index
    unsorted = "stage 2: field 'cover' lists an index twice or out of ascending order"
    for bad, message in [
        ({"kind": "tower", "seed": 1}, "document: missing field 'kernel_orders'"),
        (broken(lambda d: d.update(seed="3")), "document: field 'seed' has type str"),
        (
            broken(lambda d: d.update(kernel_orders=[20, None])),
            "document: field 'kernel_orders': entry null has type NoneType",
        ),
        (broken(lambda d: d["stages"][1].pop("attempts")), "stage 2: missing field 'attempts'"),
        (broken(lambda d: d["stages"][1].update(cover="0")), "stage 2: field 'cover' has type str"),
        (broken(lambda d: d["stages"][1]["verification"].update(result=1)), f"{stage2}: field 'result'"),
        (
            broken(lambda d: d["stages"][1]["verification"].update(witness=[0, 1.0])),
            f"{stage2}: field 'witness' must be null",
        ),
        (broken(lambda d: d["stages"][0].update(cover=["0"])), "stage 1: "),
        (
            broken(lambda d: d.update(kernel_orders=[20.0, 1024])),
            "document: field 'kernel_orders': entry 20.0 has type float",
        ),
        (broken(lambda d: d["stages"][1]["cover"].insert(0, 1)), unsorted),
        (broken(lambda d: d["stages"][1]["cover"].reverse()), unsorted),
        ([doc], "not a tower document: kind=None"),
        (broken(lambda d: d["stages"].pop()), "tower document lists 1 stages for depth 2"),
        (broken(lambda d: d["stages"].append({})), "tower document lists 3 stages for depth 2"),
    ]:
        with pytest.raises(IntegrityError, match=re.escape(message)):
            tower_from_document(bad)


PASSING_RECORD = {"mode": "exhaustive", "trials": None, "result": True, "witness": None}


@pytest.mark.parametrize(
    "stage, record, message",
    [
        (2, {"mode": "?"}, "stage 2 verification: field 'mode' must be 'exhaustive' or"),
        (2, {"result": False}, "stage 2 verification: field 'result' must be true"),
        (2, {"witness": [0, 5]}, "stage 2 verification: field 'witness' must be null"),
        (2, {"trials": 7}, "stage 2 verification: field 'trials' must be null when exhaustive"),
        (2, {"mode": "sampled", "trials": None}, "stage 2 verification: field 'trials' must be"),
        (2, {"mode": "sampled", "trials": 0}, "stage 2 verification: field 'trials' must be"),
        (2, None, "stage 2: field 'verification' must be a passing record"),
        (1, {}, "stage 1: field 'verification' must be null"),
    ],
    ids=[
        "mode",
        "result",
        "witness",
        "exhaustive-trials",
        "sampled-null-trials",
        "sampled-zero-trials",
        "null",
        "stage-1",
    ],
)
def test_loaded_tower_refuses_a_stage_record_no_build_emits(
    tmp_path, capsys, stage, record, message
):
    # stage 1's singleton cover has no record; every later stage has a
    # passing exhaustive or sampled one, with trials exactly when sampled
    doc = build_tower(TowerSpec([20, 1024]), 3).document()
    assert doc["stages"][0]["verification"] is None
    assert doc["stages"][1]["verification"] == PASSING_RECORD
    changed = None if record is None else {**PASSING_RECORD, **record}
    doc["stages"][stage - 1]["verification"] = changed
    path = tmp_path / "tower.json"
    path.write_text(canonical_json(doc))
    argv = ["tower", "translate", "--in", str(path), "--seed", "1", "--samples", "5"]
    assert main(argv) == EXIT_INTEGRITY
    err = capsys.readouterr().err
    assert err.startswith(f"integrity error: {message}") and err.count("\n") == 1, err


SEED3_STAGE2 = derive_seed(3, 2)


@pytest.mark.parametrize(
    "stage, field, value, message",
    [
        (1, "seed", 1, "stage 1: field 'seed' disagrees with the loaded tower"),
        (2, "seed", SEED3_STAGE2 + 1, "stage 2: field 'seed' disagrees with the loaded tower"),
        (1, "attempts", 7, "stage 1: field 'attempts' disagrees with the loaded tower"),
        (2, "attempts", 0, "stage 2: field 'attempts' must be >= 1, got 0"),
        (2, "attempts", -5, "stage 2: field 'attempts' must be >= 1, got -5"),
    ],
    ids=["stage-1-seed", "stage-2-seed", "stage-1-attempts", "zero-attempts", "negative-attempts"],
)
def test_loaded_tower_refuses_a_stage_seed_or_count_no_build_emits(
    tmp_path, capsys, stage, field, value, message
):
    # a stage's seed is derive_seed(tower seed, s) and stage 1 takes no
    # attempts, so neither is read; a later stage took at least one attempt,
    # the one its record is re-run from
    doc = build_tower(TowerSpec([20, 1024]), 3).document()
    assert [st["seed"] for st in doc["stages"]] == [derive_seed(3, 1), SEED3_STAGE2]
    assert doc["stages"][0]["attempts"] == 0 and doc["stages"][1]["attempts"] >= 1
    doc["stages"][stage - 1][field] = value
    path = tmp_path / "tower.json"
    path.write_text(canonical_json(doc))
    argv = ["tower", "translate", "--in", str(path), "--seed", "1", "--samples", "0"]
    assert main(argv) == EXIT_INTEGRITY
    assert capsys.readouterr().err == f"integrity error: {message}\n"


def with_cover(doc, s, cover):
    """A copy of a tower document with stage s's cover replaced and its sizes and measure updated."""
    out = copy.deepcopy(doc)
    below = out["stages"][s - 2]["set_size"] if s > 1 else 1
    stage = out["stages"][s - 1]
    measure = Fraction(len(cover) * below, stage["group_order"])
    stage.update(
        cover=list(cover),
        cover_size=len(cover),
        set_size=len(cover) * below,
        measure=f"{measure.numerator}/{measure.denominator}",
    )
    return out


def test_loaded_tower_rechecks_bounds():
    doc = build_tower(TowerSpec([20, 1024]), 3).document()
    over = "stage 2: cover of size 600 is over half the kernel order 1024"
    with pytest.raises(IntegrityError, match=over):
        tower_from_document(with_cover(doc, 2, range(600)))
    # n/2 itself is allowed, but the stage-2 cover must still be 2-covering:
    # 0..511 misses the difference 512, and 0..510 with 512 does not
    missed = r"stage 2: field 'cover' is not 2-covering: the pair \[0, 512\]"
    with pytest.raises(IntegrityError, match=missed):
        tower_from_document(with_cover(doc, 2, range(512)))
    loaded = tower_from_document(with_cover(doc, 2, [*range(511), 512]))
    assert loaded.stage_set(2).size == 512 and loaded.member(2, 20 * 512)
    # X_1 = C20 breaks the measure bound at stage 1, through the halving bound
    with pytest.raises(IntegrityError, match="stage 1: cover of size 20 is over half"):
        tower_from_document(with_cover(doc, 1, range(20)))
    with pytest.raises(IntegrityError, match="stage 2: index 1024 out of range"):
        tower_from_document(with_cover(doc, 2, [0, 1024]))
    with pytest.raises(IntegrityError, match="stage 2: kernel cover must be nonempty"):
        tower_from_document(with_cover(doc, 2, []))


@pytest.mark.parametrize("order", [2**26, 10**12], ids=["2^26", "10^12"])
def test_loaded_tower_decodes_covers_by_their_largest_index(tmp_path, capsys, order):
    # A cover is decoded over its largest listed index, not over the declared
    # kernel: a decode over C(2^26) would take 16 MiB, over C(10^12) about
    # 125 GB.  The covers here keep their seed-3 C1024 indices, so the load
    # is refused only by the derived fields, after every cover is decoded.
    doc = build_tower(TowerSpec([20, 1024]), 3).document()
    doc["kernel_orders"] = [20, order]
    refusal = "document: field 'spec' disagrees with the loaded tower"
    tracemalloc.start()
    try:
        with pytest.raises(IntegrityError, match=re.escape(refusal)):
            tower_from_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    path = tmp_path / "tower.json"
    path.write_text(canonical_json(doc))
    assert main(["tower", "dim", "--in", str(path), "--seed", "1"]) == EXIT_INTEGRITY
    assert capsys.readouterr().err == f"integrity error: {refusal}\n"


def test_loaded_tower_refuses_derived_fields_that_contradict_its_covers():
    # everything but the covers, their verification records and the attempts
    # above stage 1 is derived, so a changed value would load and then
    # re-emit differently
    doc = build_tower(TowerSpec([20, 1024]), 3).document()

    def broken(change):
        out = copy.deepcopy(doc)
        change(out)
        return out

    def bump(key):
        return lambda d: d["stages"][1].update({key: d["stages"][1][key] + 1})

    first_admissibility = doc["admissibility"][0]
    assert doc["stages"][1]["cover_size"] == 224
    for change, message in [
        (lambda d: d["stages"][1].update(measure="1/1"), "stage 2: field 'measure'"),
        (bump("group_order"), "stage 2: field 'group_order'"),
        (bump("kernel_order"), "stage 2: field 'kernel_order'"),
        (bump("covering_k"), "stage 2: field 'covering_k'"),
        (bump("stage"), "stage 2: field 'stage'"),
        (bump("cover_size"), "stage 2: field 'cover_size'"),
        (bump("set_size"), "stage 2: field 'set_size'"),
        (lambda d: d["stages"][1].update(stage=True), "stage 2: field 'stage'"),
        # canonical text prints 2.0 as 2, so the JSON type is compared too
        (lambda d: d["stages"][1].update(stage=2.0), "stage 2: field 'stage'"),
        (lambda d: d["stages"][1].update(cover_size=224.0), "stage 2: field 'cover_size'"),
        (lambda d: d.update(depth=2.0), "document: field 'depth'"),
        (lambda d: d["stages"][1].pop("measure"), "stage 2: missing field 'measure'"),
        (lambda d: d["stages"][0].update(note="x"), "stage 1: unexpected field 'note'"),
        (lambda d: d.update(depth=3), "document: field 'depth'"),
        (lambda d: d.update(spec="tower:20,1025"), "document: field 'spec'"),
        (lambda d: d.update(section="x"), "document: field 'section'"),
        (
            lambda d: d["admissibility"][0].update(literal_ok=not first_admissibility["literal_ok"]),
            "document: field 'admissibility'",
        ),
        (lambda d: d["admissibility"].pop(), "document: field 'admissibility'"),
        (lambda d: d.update(warnings=["stage 2: x"]), "document: field 'warnings'"),
        (lambda d: d.pop("warnings"), "document: missing field 'warnings'"),
        (lambda d: d.update(extra=1), "document: unexpected field 'extra'"),
    ]:
        with pytest.raises(IntegrityError, match=re.escape(message)):
            tower_from_document(broken(change))
    # the run config is not derived, and a JSON round trip, which keeps 12
    # significant digits of the admissibility reals, is no contradiction
    text = canonical_json({**doc, "config": {"command": "tower build"}})
    assert tower_from_document(json.loads(text)).document() == doc
