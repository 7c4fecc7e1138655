import random

import pytest
from conftest import (
    check_group_axioms,
    digitwise_mul,
    element_order,
    element_orders,
    index_of,
    lehmer_index_of,
    lehmer_inv,
    lehmer_mul,
    lehmer_perm_of,
    naive_reduction_contract,
    perm_of,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from covtrans import (
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    ElementaryAbelianGroup,
    Epimorphism,
    SymmetricGroup,
    group_from_descriptor,
)


@pytest.mark.parametrize(
    "group",
    [
        CyclicGroup(1),
        CyclicGroup(7),
        CyclicGroup(64),
        DihedralGroup(3),
        DihedralGroup(4),
        SymmetricGroup(3),
        SymmetricGroup(4),
        SymmetricGroup(5),
        ElementaryAbelianGroup(2, 3),
        ElementaryAbelianGroup(2, 6),
        ElementaryAbelianGroup(3, 2),
        DirectProductGroup(CyclicGroup(2), CyclicGroup(3)),
        DirectProductGroup(CyclicGroup(20), DihedralGroup(4)),
    ],
    ids=lambda g: g.name,
)
def test_axioms(group):
    check_group_axioms(group, random.Random(1))
    assert group.identity == 0


def test_axioms_sampled_large():
    check_group_axioms(CyclicGroup(4096), random.Random(1), triples=2000)
    check_group_axioms(CyclicGroup(2_684_354_560), random.Random(1), triples=2000)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        CyclicGroup(0)
    with pytest.raises(ValueError):
        DihedralGroup(0)
    with pytest.raises(ValueError):
        SymmetricGroup(9)
    with pytest.raises(ValueError):
        ElementaryAbelianGroup(4, 1)
    for p in (9, 15, 25):  # odd bases are trial-divided by odd factors from 3
        with pytest.raises(ValueError, match=f"base must be prime, got {p}$"):
            ElementaryAbelianGroup(p, 2)
    with pytest.raises(ValueError):
        ElementaryAbelianGroup(2, 0)


def test_cyclic_arithmetic():
    c1 = CyclicGroup(1)
    assert c1.mul(0, 0) == 0
    c4 = CyclicGroup(4)
    assert c4.mul(3, 2) == 1
    assert c4.inv(3) == 1
    c7 = CyclicGroup(7)
    assert all(c7.inv(x) == (7 - x) % 7 for x in range(7))


def test_product_is_componentwise():
    g = DirectProductGroup(CyclicGroup(2), CyclicGroup(3))
    assert g.order == 6
    # index = i_left * |right| + i_right
    assert g.mul(1 * 3 + 2, 0 * 3 + 2) == 1 * 3 + 1
    assert element_orders(g) == element_orders(CyclicGroup(6)) == [1, 2, 3, 3, 6, 6]


@pytest.mark.parametrize("descriptor", ["C2xC4", "C4xC4", "C2xS3"])
def test_product_mul_and_inv_match_componentwise_formula(descriptor):
    g = group_from_descriptor(descriptor)
    left, right = g.left, g.right
    m = right.order
    for a in range(g.order):
        assert g.inv(a) == left.inv(a // m) * m + right.inv(a % m)
        for b in range(g.order):
            assert g.mul(a, b) == left.mul(a // m, b // m) * m + right.mul(a % m, b % m)


def test_klein_four_self_inverse():
    g = DirectProductGroup(CyclicGroup(2), CyclicGroup(2))
    assert g.order == 4
    assert all(g.inv(x) == x for x in range(g.order))


def test_trivial_factor_is_transparent():
    g = CyclicGroup(5)
    prod = DirectProductGroup(CyclicGroup(1), g)
    assert prod.order == 5
    for a in range(5):
        assert prod.inv(a) == g.inv(a)
        for b in range(5):
            assert prod.mul(a, b) == g.mul(a, b)


def test_dihedral_structure():
    d3 = DihedralGroup(3)
    assert d3.order == 6
    reflections = [x for x in range(3, 6)]
    assert all(element_order(d3, x) == 2 for x in reflections)
    assert element_orders(d3) == [1, 2, 2, 2, 3, 3]


def test_symmetric_lehmer_roundtrip():
    s4 = SymmetricGroup(4)
    assert s4.order == 24
    assert perm_of(s4, 0) == [0, 1, 2, 3]
    for idx in range(24):
        assert index_of(s4, perm_of(s4, idx)) == idx
    s3 = SymmetricGroup(3)
    assert sorted(element_orders(s3)) == [1, 2, 2, 2, 3, 3]


@pytest.mark.parametrize("m", range(1, 9))
def test_symmetric_table_matches_lehmer_reference(m):
    # m = 8 has the shortest translation-table pad, 248 bytes
    g = SymmetricGroup(m)
    rng = random.Random(m)
    if m <= 6:
        for idx in range(g.order):
            perm = lehmer_perm_of(m, idx)
            assert perm_of(g, idx) == perm
            assert index_of(g, perm) == idx == lehmer_index_of(m, perm)
            assert g.inv(idx) == lehmer_inv(m, idx)
    else:
        for idx in [rng.randrange(g.order) for _ in range(500)]:
            assert g.inv(idx) == lehmer_inv(m, idx)
    if m <= 5:
        pairs = [(a, b) for a in range(g.order) for b in range(g.order)]
    else:
        pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(2000)]
    for a, b in pairs:
        assert g.mul(a, b) == lehmer_mul(m, a, b)
    # the batched oracle: random ys with repeats, in the order given, and none
    ys = [rng.randrange(g.order) for _ in range(60)]
    ys += ys[:5]
    products, no_products = g.left_products(ys), g.left_products([])
    for a in [0, g.order - 1] + [rng.randrange(g.order) for _ in range(20)]:
        assert list(products(a)) == [lehmer_mul(m, a, y) for y in ys]
        assert list(no_products(a)) == []


def test_symmetric_rejects_bad_indices_and_non_permutations():
    s3 = SymmetricGroup(3)
    for bad in (-1, -6, 6):
        with pytest.raises(ValueError):
            s3.mul(bad, 0)
        with pytest.raises(ValueError):
            s3.mul(0, bad)
        with pytest.raises(ValueError):
            s3.inv(bad)
        with pytest.raises(ValueError):
            s3.left_products([0, 5])(bad)
        with pytest.raises(ValueError):
            s3.left_products([0, bad, 5])
        with pytest.raises(ValueError):
            perm_of(s3, bad)
    for perm in ([], [0], [2], [0, 1], [0, 0, 1], [1, 1, 1], [0, 1, 3], [0, 1, 2, 3], [-1, 0, 1]):
        with pytest.raises(ValueError):
            index_of(s3, perm)


@pytest.mark.parametrize("d", range(1, 6))
def test_elementary_abelian_xor_matches_digit_loop(d):
    g = ElementaryAbelianGroup(2, d)
    for a in range(g.order):
        assert g.inv(a) == a
        for b in range(g.order):
            assert g.mul(a, b) == digitwise_mul(2, d, a, b)


def test_elementary_abelian_orders():
    g = ElementaryAbelianGroup(2, 3)
    assert g.order == 8
    assert all(element_order(g, x) == 2 for x in range(1, 8))


def test_axiom_checker_catches_broken_oracle():
    class Broken(CyclicGroup):
        def inv(self, a):
            return a  # wrong for most elements

    with pytest.raises(AssertionError, match="inverse law"):
        check_group_axioms(Broken(5), random.Random(0))


def test_cyclic_tower_map_contract():
    phi = Epimorphism(20, 20480)
    assert phi.kernel_group.order == 1024
    naive_reduction_contract(phi)
    assert phi.map(phi.section(13)) == 13
    assert phi.kernel_coords(phi.embed_kernel(37)) == 37

    identity_map = Epimorphism(12, 12)
    assert identity_map.kernel_group.order == 1
    naive_reduction_contract(identity_map)

    collapse = Epimorphism(1, 9)
    assert collapse.kernel_group.order == 9
    assert collapse.target.order == 1
    naive_reduction_contract(collapse)


def test_cyclic_tower_map_rejects_non_divisor():
    with pytest.raises(ValueError):
        Epimorphism(7, 20)
    with pytest.raises(ValueError, match="positive"):
        Epimorphism(0, 20)


def test_epimorphism_exhaustive_homomorphism_check():
    # source order 1024 is under the exhaustive threshold: all pairs scanned
    naive_reduction_contract(Epimorphism(32, 1024))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64))
def test_reduction_methods_are_their_divmod_definitions(modulus, kernel_order):
    phi = Epimorphism(modulus, modulus * kernel_order)
    assert (phi.source.order, phi.target.order, phi.kernel_group.order) == (
        modulus * kernel_order,
        modulus,
        kernel_order,
    )
    for x in range(modulus * kernel_order):
        q, r = divmod(x, modulus)
        assert phi.map(x) == r
        assert phi.embed_kernel(q) == q * modulus
        if r:
            with pytest.raises(ValueError):
                phi.kernel_coords(x)
        else:
            assert phi.kernel_coords(x) == q
    assert [phi.section(h) for h in range(modulus)] == list(range(modulus))


def test_descriptor_parsing_roundtrip():
    for text, order in [
        ("C4096", 4096), ("D5", 10), ("S4", 24), ("EA(2,5)", 32), ("EA(5,2)", 25), ("C20xC4", 80)
    ]:
        g = group_from_descriptor(text)
        assert g.order == order
        assert g.name == text


def test_descriptor_errors_name_the_token():
    with pytest.raises(ValueError, match="Q17"):
        group_from_descriptor("Q17")
    with pytest.raises(ValueError, match="EA"):
        group_from_descriptor("EA(2)")
    with pytest.raises(ValueError):
        group_from_descriptor("")
