import copy
import json
import math
import re
import random
from fractions import Fraction

import pytest
from conftest import naive_factored_members, naive_stage_members

from covtrans import (
    CyclicGroup,
    DirectProductGroup,
    GroupSubset,
    build_tower,
    check_epimorphism,
    cyclic_tower_map,
    dimension_estimate,
    extend_covering,
    extension_admissible,
    make_slalom,
    make_thin_set,
    parse_tower_descriptor,
    product_projection,
    sample_thin_set,
    slalom_pullback,
    thin_bound,
    thin_set_valid,
    tower_from_document,
    translate_thin,
    witness_sets_nested,
    TowerSpec,
)
import covtrans.tower as tower_module
from covtrans.errors import FeasibilityError, IntegrityError, SoundnessError
from covtrans.groups import cyclic_tower_map
from covtrans.tower import check_projection_claim, pullback_dense
from covtrans.util import canonical_json


@pytest.fixture(scope="module")
def seed11_tower():
    """The depth-3 tower of the acceptance suite, its claims left to each test.

    Tests restore whatever they patch.
    """
    return build_tower(TowerSpec([20, 1024, 131072]), 11, verify_claims=False)


def test_thin_bound_is_fixed():
    assert thin_bound(0) == 1
    assert [thin_bound(i) for i in range(1, 6)] == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        thin_bound(-1)


def test_extension_admissible_frozen_values():
    assert extension_admissible(1024, 1, strengthened=True)
    assert extension_admissible(20, 0, strengthened=True)
    assert not extension_admissible(64, 1, strengthened=True)
    assert extension_admissible(64, 1, strengthened=False)  # 19.4 < 64


def test_tower_spec_basics():
    spec = TowerSpec([20, 1024, 131072])
    assert spec.depth == 3
    assert [spec.group_order(i) for i in range(4)] == [1, 20, 20480, 2684354560]
    assert spec.describe() == "tower:20,1024,131072"
    assert parse_tower_descriptor("tower:20,1024,131072").kernel_orders == (20, 1024, 131072)
    for s in (1, 2, 3):
        check_epimorphism(spec.quotient_map(s), random.Random(0))
    assert spec.project(3, 1, 20480 * 3 + 27) == 7
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
    phi = cyclic_tower_map(20, 400)
    base = GroupSubset.from_indices(CyclicGroup(20), [0, 3, 7])
    ext = extend_covering(phi, base, 0, seed=1)
    assert ext.index == 1
    assert ext.subset.kernel_cover.indices() == [0]
    assert ext.attempts == 0 and ext.verification is None
    assert ext.subset.size == 3
    # the base digits, each with the cover digit 0
    assert [x for x in range(400) if x in ext.subset] == [0, 3, 7]


def test_extend_projects_back_exactly():
    phi = cyclic_tower_map(4, 4096)
    base = GroupSubset.from_indices(CyclicGroup(4), [0, 2])
    ext = extend_covering(phi, base, 1, seed=5)
    members = naive_factored_members(phi, base.indices(), ext.subset.kernel_cover.indices())
    assert {phi.map(x) for x in members} == {0, 2}
    assert ext.subset.size == ext.subset.kernel_cover.size * 2 == len(set(members))
    assert 2 * ext.subset.size <= phi.kernel_order * 2  # |X'| <= n |X| / 2
    # digit membership agrees with the enumeration through the stage map
    member_set = set(members)
    rng = random.Random(8)
    for _ in range(500):
        x = rng.randrange(4096)
        assert (x in ext.subset) == (x in member_set)


def test_extend_preserves_translatability():
    phi = cyclic_tower_map(20, 20480)
    target = CyclicGroup(20)
    base = GroupSubset.from_indices(target, range(10))
    ext = extend_covering(phi, base, 1, seed=2)
    assert ext.subset.size <= 1024 * 10 // 2
    dense = GroupSubset.from_indices(
        phi.source, naive_factored_members(phi, base.indices(), ext.subset.kernel_cover.indices())
    )
    from covtrans import translate_into

    rng = random.Random(4)
    found = 0
    while found < 20:
        hs = [rng.randrange(20) for _ in range(2)]
        if translate_into(target, hs, base) is None:
            continue  # image must be translatable for the guarantee to apply
        found += 1
        ys = [phi.embed_kernel(rng.randrange(1024)) + h for h in hs]
        assert translate_into(phi.source, ys, dense) is not None


def test_extend_whole_group_collapse():
    # trivial target: the extension is exactly the kernel cover
    phi = cyclic_tower_map(1, 1024)
    base = GroupSubset.from_indices(CyclicGroup(1), [0])
    ext = extend_covering(phi, base, 1, seed=9)
    assert ext.subset.size == ext.subset.kernel_cover.size <= 512
    dense = GroupSubset.from_indices(
        phi.source, naive_factored_members(phi, base.indices(), ext.subset.kernel_cover.indices())
    )
    from covtrans import translate_into

    rng = random.Random(10)
    for _ in range(20):
        ys = rng.sample(range(1024), 2)
        assert translate_into(phi.source, ys, dense) is not None


def test_extend_error_cases():
    phi = cyclic_tower_map(4, 256)  # kernel order 64
    base = GroupSubset.from_indices(CyclicGroup(4), [0])
    with pytest.raises(FeasibilityError, match="576"):
        extend_covering(phi, base, 1, seed=1)
    with pytest.raises(FeasibilityError):
        extend_covering(phi, GroupSubset.empty(CyclicGroup(4)), 0, seed=1)
    # an isomorphism has no room for the halving bound
    iso = cyclic_tower_map(4, 4)
    with pytest.raises(FeasibilityError, match="kernel"):
        extend_covering(iso, base, 0, seed=1)


def test_maps_outside_the_digit_core_are_rejected():
    # stage sets are digit products over a cyclic chain: any other map
    # would build a wrong set silently, so it is refused up front
    product = DirectProductGroup(CyclicGroup(4), CyclicGroup(64))
    left = product_projection(product, "left")  # onto C4, but not a cyclic reduction
    base = GroupSubset.from_indices(CyclicGroup(4), [0, 2])
    with pytest.raises(ValueError, match="not the cyclic reduction"):
        extend_covering(left, base, 0, seed=1)
    with pytest.raises(ValueError, match="not the cyclic reduction onto C4"):
        extend_covering(cyclic_tower_map(8, 512), base, 0, seed=1)  # base over C4, map onto C8
    with pytest.raises(ValueError, match="not a cyclic reduction"):
        pullback_dense(left, base.bits)
    with pytest.raises(ValueError, match="not a cyclic reduction"):
        pullback_dense(cyclic_tower_map(2, 512), base.bits)  # a mask over C4, map onto C2
    assert pullback_dense(cyclic_tower_map(4, 12), base.bits) == 0b010101010101


def test_build_depth_two_tower():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    assert tower.set_size(0) == 1
    assert tower.set_size(1) == 1  # stage 1 cover is the identity singleton
    assert tower.set_size(2) <= 5120
    assert tower.measures()[0] <= Fraction(1, 2)
    assert tower.measures()[1] <= Fraction(1, 4)
    assert tower.measures()[1] == Fraction(tower.set_size(2), 20480)
    # stage covers: 1-covering then 2-covering
    assert tower.stages[0].subset.kernel_cover.indices() == [0]
    assert tower.stages[0].attempts == 0 and tower.stages[0].verification is None
    assert tower.stages[1].attempts >= 1
    assert tower.stages[1].verification.mode == "exhaustive"


def test_build_depth_zero():
    tower = build_tower(TowerSpec([]), 1)
    assert tower.depth == 0
    assert tower.member(0, 0)
    assert tower.measures() == []


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
    assert tower.set_size(1) == 1
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
        m.setattr(tower.stages[0].subset, "base", GroupSubset.full(CyclicGroup(1)))
        check_projection_claim(tower)  # the same set {0} of C1, another object
        m.setattr(tower.stages[0].subset, "base", GroupSubset.full(CyclicGroup(20)))
        with pytest.raises(SoundnessError, match="not built over X_0"):
            check_projection_claim(tower)
    with monkeypatch.context() as m:
        m.setattr(stage3, "modulus", 1024)  # the stage-2 kernel order, not |G_2|
        with pytest.raises(SoundnessError, match="modulus 1024 is not .G_2. = 20480"):
            check_projection_claim(tower)
    wide = GroupSubset.from_indices(CyclicGroup(2 * 131072), stage3.kernel_cover.indices())
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
    phi3, cover3 = tower.spec.quotient_map(3), stage3.subset.kernel_cover.indices()
    x2 = naive_stage_members(tower, 2)
    assert len(set(x2)) == len(x2) == tower.set_size(2)
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
    assert len(dense) == len(members) == tower.set_size(2)
    for x in range(20480):
        assert tower.member(2, x) == (x in dense)
    assert tower.dense_mask(2) == sum(1 << x for x in dense)


def test_membership_requires_projection():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 7)
    # X_1 = {0}: anything whose level-1 image is nonzero is outside X_2
    for x in (1, 21, 12345):
        if spec.project(2, 1, x) != 0:
            assert not tower.member(2, x)


def test_sample_thin_set_shapes():
    spec = TowerSpec([20, 1024, 131072])
    rng = random.Random(6)
    t1 = sample_thin_set(spec, 1, rng)
    assert len(t1.elements) <= 1
    t2 = sample_thin_set(spec, 2, rng)
    assert len(t2.elements) <= 2
    assert len(t2.projections[1]) <= 1  # single level-1 fiber
    for _ in range(1000):
        t3 = sample_thin_set(spec, 3, rng)
        assert thin_set_valid(spec, t3)
        assert len(t3.elements) <= 3
    sparse = sample_thin_set(spec, 3, rng, fullness=0.4)
    assert thin_set_valid(spec, sparse)
    with pytest.raises(ValueError):
        sample_thin_set(spec, 4, rng)
    with pytest.raises(ValueError):
        sample_thin_set(spec, 2, rng, fullness=0.0)


def test_make_thin_set_rejects_wide_sets():
    spec = TowerSpec([20, 1024])
    with pytest.raises(FeasibilityError):
        make_thin_set(spec, 2, [0, 1])  # two distinct level-1 fibers
    with pytest.raises(ValueError):
        make_thin_set(spec, 2, [20480])
    ok = make_thin_set(spec, 2, [5, 20 * 512 + 5])
    assert ok.projections[1] == (5,)


def test_make_thin_set_projections_match_per_element_projection():
    spec = TowerSpec([20, 1024, 131072])
    rng = random.Random(17)
    for depth in (1, 2, 3):
        for fullness in (1.0, 0.5):
            for _ in range(200):
                elements = sample_thin_set(spec, depth, rng, fullness).elements
                thin = make_thin_set(spec, depth, elements)
                assert thin.elements == tuple(sorted(elements))
                assert thin.projections == tuple(
                    tuple(sorted({spec.project(depth, i, x) for x in elements}))
                    for i in range(depth + 1)
                )
    # a set over budget at several levels names the lowest one
    with pytest.raises(FeasibilityError, match="level 1 image has 3 elements"):
        make_thin_set(spec, 3, [0, 1, 2])
    with pytest.raises(FeasibilityError, match="level 2 image has 3 elements"):
        make_thin_set(spec, 3, [0, 20, 40])


def test_slalom_validation_and_pullback():
    spec = TowerSpec([20, 1024])
    with pytest.raises(FeasibilityError):
        make_slalom(spec, [[0], [1, 2], [3, 4]])  # level 1 over budget
    slalom = make_slalom(spec, [[0], [3], [3, 1043]])
    thin = slalom_pullback(spec, slalom)
    assert thin.elements == (3, 1043)  # both sit in the level-1 fiber of 3
    assert thin_set_valid(spec, thin)

    excluded = make_slalom(spec, [[0], [3], [3, 7]])
    assert slalom_pullback(spec, excluded).elements == (3,)  # 7 is in fiber 7

    x = 1043
    pointwise = make_slalom(spec, [[0], [spec.project(2, 1, x)], [x, 5]])
    assert x in slalom_pullback(spec, pointwise).elements

    empty_level = make_slalom(spec, [[0], [], [3, 1043]])
    assert slalom_pullback(spec, empty_level).elements == ()


def test_translate_thin_basic_and_empty():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 3)
    empty = make_thin_set(spec, 2, [])
    res = translate_thin(tower, empty)
    assert res.translator == 0

    singleton = make_thin_set(spec, 2, [777])
    res = translate_thin(tower, singleton)
    assert tower.member(2, tower.spec.group(2).mul(res.translator, 777))


def test_translate_thin_chain_consistency():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 9)
    rng = random.Random(12)
    for _ in range(200):
        thin = sample_thin_set(spec, 2, rng)
        res = translate_thin(tower, thin)
        g = res.translator
        group = spec.group(2)
        for y in thin.elements:
            assert tower.member(2, group.mul(g, y))
        # the lifting chain is exactly the projection chain of the result
        assert res.stage_translators[1] == spec.project(2, 1, g)
        assert res.stage_translators[2] == g
        assert witness_sets_nested(tower, res.witness_levels)
        # the returned translator lives in every materialized level set
        for i, level in enumerate(res.witness_levels):
            if level is not None:
                assert spec.project(2, i, g) in level


def test_translate_thin_final_membership_catches_unsound_lifts(monkeypatch):
    # On a loaded depth-3 tower, the one membership check at the top must
    # catch a wrong kernel shift at any of the three stages, and a stage-2
    # set whose cover lacks an element the lift used.  The lift and the check
    # read the same cover object, so the second case hands the lift the
    # sound cover in place of the thinned one.
    spec = TowerSpec([20, 1024, 131072])
    tower = tower_from_document(build_tower(spec, 11, verify_claims=False).document())
    rng = random.Random(19)
    thin = next(
        t for t in (sample_thin_set(spec, 3, rng) for _ in range(50)) if len(t.projections[2]) == 2
    )
    sound = translate_thin(tower, thin, collect_witness_sets=False)
    real = tower_module.translate_into

    for kernel_order in (20, 1024, 131072):

        def wrong_shift(group, offsets, cover):
            u = real(group, offsets, cover)
            if group.order != kernel_order:
                return u
            n = group.order
            return next(v for v in range(n) if any((v + o) % n not in cover for o in offsets))

        with monkeypatch.context() as m:
            m.setattr(tower_module, "translate_into", wrong_shift)
            with pytest.raises(SoundnessError, match="fails membership"):
                translate_thin(tower, thin, collect_witness_sets=False)

    # for each level-2 image y, drop the cover element that g_2 * y lands on
    # from the stage-2 set, while the lift is still handed the sound cover
    stage2, phi2 = tower.stages[1].subset, spec.quotient_map(2)
    src, cover2 = phi2.source, stage2.kernel_cover
    for y in thin.projections[2]:
        w = src.mul(sound.stage_translators[2], y)
        used = phi2.kernel_coords(src.mul(w, src.inv(phi2.section(phi2.map(w)))))
        assert used in cover2
        thinned = GroupSubset.from_indices(cover2.group, [v for v in cover2.indices() if v != used])

        def sound_lift(group, offsets, cover, thinned=thinned):
            return real(group, offsets, cover2 if cover is thinned else cover)

        with monkeypatch.context() as m:
            m.setattr(stage2, "kernel_cover", thinned)
            m.setattr(tower_module, "translate_into", sound_lift)
            with pytest.raises(SoundnessError, match="fails membership"):
                translate_thin(tower, thin, collect_witness_sets=False)
    assert translate_thin(tower, thin, collect_witness_sets=False) == sound


def test_translator_sets_match_direct_definition():
    spec = TowerSpec([20, 1024])
    tower = build_tower(spec, 21)
    rng = random.Random(13)
    group = spec.group(2)
    for _ in range(3):
        thin = sample_thin_set(spec, 2, rng)
        res = translate_thin(tower, thin)
        for i in (1, 2):
            level = res.witness_levels[i]
            direct_bits = 0
            for g in range(20480):
                if all(
                    tower.member(i, spec.project(2, i, group.mul(g, y)))
                    for y in thin.elements
                ):
                    direct_bits |= 1 << g
            lifted = level.bits
            for s in range(i + 1, 3):
                lifted = pullback_dense(spec.quotient_map(s), lifted)
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
        assert canonical_json(tower_from_document(json.loads(text)).document()) == text


def test_loaded_tower_names_a_missing_or_mistyped_field():
    doc = build_tower(TowerSpec([20, 1024]), 3).document()

    def broken(change):
        out = copy.deepcopy(doc)
        change(out)
        return out

    stage2 = "stage 2 verification"
    for bad, message in [
        ({"kind": "tower", "seed": 1}, "document: missing field 'kernel_orders'"),
        (broken(lambda d: d.update(seed="3")), "document: field 'seed' has type str"),
        (broken(lambda d: d.update(kernel_orders=[20, None])), "kernel_orders: "),
        (broken(lambda d: d["stages"][1].pop("attempts")), "stage 2: missing field 'attempts'"),
        (broken(lambda d: d["stages"][1].update(cover="0")), "stage 2: field 'cover' has type str"),
        (broken(lambda d: d["stages"][1]["verification"].update(result=1)), f"{stage2}: field 'result'"),
        (broken(lambda d: d["stages"][0].update(cover=["0"])), "stage 1: "),
        ([doc], "not a tower document: kind=None"),
    ]:
        with pytest.raises(IntegrityError, match=re.escape(message)):
            tower_from_document(bad)


def with_cover(doc, s, cover):
    """A copy of a tower document with stage s's cover replaced and its sizes updated."""
    out = copy.deepcopy(doc)
    below = out["stages"][s - 2]["set_size"] if s > 1 else 1
    out["stages"][s - 1].update(
        cover=list(cover), cover_size=len(cover), set_size=len(cover) * below
    )
    return out


def test_loaded_tower_rechecks_bounds():
    doc = build_tower(TowerSpec([20, 1024]), 3).document()
    over = "stage 2: cover of size 600 is over half the kernel order 1024"
    with pytest.raises(IntegrityError, match=over):
        tower_from_document(with_cover(doc, 2, range(600)))
    loaded = tower_from_document(with_cover(doc, 2, range(512)))  # n/2 itself is allowed
    assert loaded.set_size(2) == 512 and loaded.member(2, 20 * 511)
    # X_1 = C20 breaks the measure bound at stage 1, through the halving bound
    with pytest.raises(IntegrityError, match="stage 1: cover of size 20 is over half"):
        tower_from_document(with_cover(doc, 1, range(20)))
    with pytest.raises(IntegrityError, match="stage 2: index 1024 out of range"):
        tower_from_document(with_cover(doc, 2, [0, 1024]))
    with pytest.raises(IntegrityError, match="stage 2: kernel cover must be nonempty"):
        tower_from_document(with_cover(doc, 2, []))
