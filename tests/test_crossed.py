import pytest

from qautcert.algebra import BlockSpec, function_algebra, multimatrix, recognize_blocks
from qautcert.arith import Cyclotomic, Mat
from qautcert.cocycle import FinAbGroup, fourier_function_algebra, gamma_group, spec_cocycle, trivial_cocycle
from qautcert.crossed import (
    GroupAction,
    NormalizationMissing,
    NotAutomorphism,
    conjugation_lemma_check,
    crossed_product,
    dual_action,
    inner_action,
    takesaki_takai_check,
    translation_action,
)

ONE = Cyclotomic.one()
ZERO = Cyclotomic.zero()


def ident_map(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def test_trivial_action_gives_group_algebra():
    C1 = multimatrix(BlockSpec((1,)))
    act = GroupAction(FinAbGroup((2,)), C1, {(0,): [[ONE]], (1,): [[ONE]]})
    cp = crossed_product(act)
    assert cp.algebra.dim == 2
    assert recognize_blocks(cp.algebra).sizes == (1, 1)


def test_swap_action_on_c2_gives_m2():
    C2 = function_algebra(2)
    swap = [[ZERO, ONE], [ONE, ZERO]]
    act = GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): swap})
    cp = crossed_product(act)
    assert cp.algebra.dim == 4
    assert recognize_blocks(cp.algebra).sizes == (2,)


def test_swap_crossed_product_matches_regular_representation_oracle():
    # explicit oracle: delta_0 -> E_00, delta_1 -> E_11, z -> the swap matrix;
    # products of crossed basis elements must match the concrete matrices.
    C2 = function_algebra(2)
    swap = [[ZERO, ONE], [ONE, ZERO]]
    act = GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): swap})
    cp = crossed_product(act)
    X = Mat.exact([[0, 1], [1, 0]])
    images = {}
    for (i, g), idx in cp.index.items():
        delta = Mat.exact([[1 if (a, b) == (i, i) else 0 for b in range(2)]
                           for a in range(2)])
        images[idx] = delta @ (X if g == (1,) else Mat.identity(2))
    # the four images form a basis of M_2 and multiply like the crossed product
    for (a, b), terms in cp.algebra.mul.items():
        prod = images[a] @ images[b]
        acc = Mat.zeros(2, 2)
        for k, c in terms:
            acc = acc + images[k].scale(c)
        assert prod.equals(acc)


def test_translation_crossed_product_is_full_matrix_algebra():
    # free transitive torsor: C(X) x Gamma = M_|X|
    act, _ = translation_action(BlockSpec((2,)))
    cp = crossed_product(act)
    assert cp.algebra.dim == 16
    assert recognize_blocks(cp.algebra).sizes == (4,)


def test_crossed_product_relations_and_trace():
    act, _ = translation_action(BlockSpec((2,)))
    cp = crossed_product(act)  # relation verification runs inside
    A, G, alg = cp.base, cp.group, cp.algebra
    assert alg.dim == G.order * A.dim
    e = G.identity
    for i in range(A.dim):
        emb = cp.embed({i: ONE})
        assert alg.trace_sparse(emb.items()) == A.trace[i]
    for g in G.elements():
        if g != e:
            assert alg.trace_sparse(cp.z_vector(g).items()).is_zero()


def test_not_automorphism_rejected():
    C2 = function_algebra(2)
    bad = [[ONE, ONE], [ZERO, ONE]]  # not multiplicative
    with pytest.raises(NotAutomorphism):
        GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): bad})


def test_takesaki_takai_smallest_instance():
    C1 = multimatrix(BlockSpec((1,)))
    act = GroupAction(FinAbGroup((2,)), C1, {(0,): [[ONE]], (1,): [[ONE]]})
    out = takesaki_takai_check(act)
    assert out["passed"]
    assert out["double_crossed_blocks"] == [2]


def test_takesaki_takai_translation_instance():
    act, _ = translation_action(BlockSpec((2,)))
    out = takesaki_takai_check(act)
    assert out["passed"]
    assert out["double_crossed_blocks"] == [4, 4, 4, 4]
    assert out["tensor_oracle_blocks"] == [4, 4, 4, 4]


def test_takesaki_takai_inner_action_instance():
    M2 = multimatrix(BlockSpec((2,)))
    u = [ONE, ZERO, ZERO, Cyclotomic.rational(-1)]  # diag(1,-1)
    act = inner_action(FinAbGroup((2,)), M2, u)
    out = takesaki_takai_check(act)
    assert out["passed"]
    assert out["double_crossed_blocks"] == [4]  # M_2 x M_2


def test_dual_action_diagonal_phases():
    act, _ = translation_action(BlockSpec((2,)))
    cp = crossed_product(act)
    dual = dual_action(cp)
    alg = cp.algebra
    G = cp.group
    for chi in G.elements():
        for (i, g), idx in cp.index.items():
            image = dual.apply_sparse(chi, {idx: ONE})
            assert image == {idx: G.pairing(chi, g)} or \
                (G.pairing(chi, g).is_zero() and not image)


def test_conjugation_lemma_z2_squared():
    spec = BlockSpec((2,))
    cert = conjugation_lemma_check(fourier_function_algebra(spec), spec_cocycle(spec))
    assert cert["passed"] and cert["worst_residual"] == 0.0
    assert cert["group_order"] == 4 and cert["algebra_dim"] == 4


def test_conjugation_lemma_trivial_cocycle_degenerates():
    spec = BlockSpec((2,))
    triv = trivial_cocycle(gamma_group(spec))
    cert = conjugation_lemma_check(fourier_function_algebra(spec), triv)
    assert cert["passed"]


def test_conjugation_lemma_z3_squared():
    spec = BlockSpec((3,))
    cert = conjugation_lemma_check(fourier_function_algebra(spec), spec_cocycle(spec))
    assert cert["passed"]


def test_conjugation_lemma_requires_normalization():
    spec = BlockSpec((2,))
    from qautcert.cocycle import base_cocycle, product_cocycle

    raw = product_cocycle([base_cocycle(2)])  # not inverse-normalized
    with pytest.raises(NormalizationMissing):
        conjugation_lemma_check(fourier_function_algebra(spec), raw)
