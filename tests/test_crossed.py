from fractions import Fraction

import numpy as np
import pytest

from qautcert.algebra import BlockSpec, MonomialMap, multimatrix, recognize_blocks
from qautcert.arith import Cyclotomic, Mat
from qautcert.cli import _tt_group
from qautcert.cocycle import FinAbGroup, fourier_function_algebra, gamma_group, spec_cocycle
from qautcert.crossed import (
    GroupAction,
    NormalizationMissing,
    NotAutomorphism,
    action_from_graded,
    conjugation_lemma_check,
    crossed_product,
    dual_action,
    takesaki_takai_check,
)

from builders import (
    add,
    cocycle_table,
    from_terms,
    function_algebra,
    inner_action,
    negative,
    serialize,
    trace_sparse,
    translation_action,
    trivial_cocycle,
)
from sparse_reference import accumulate, embed, invol_sparse, mul_sparse, product, z_vector

ONE = Cyclotomic.one()
ZERO = Cyclotomic.zero()


def ident_map(n):
    return MonomialMap(range(n))


def test_trivial_action_gives_group_algebra():
    C1 = multimatrix(BlockSpec((1,)))
    act = GroupAction(FinAbGroup((2,)), C1, {(0,): ident_map(1), (1,): ident_map(1)})
    cp = crossed_product(act)
    assert cp.algebra.dim == 2
    assert recognize_blocks(cp.algebra).sizes == (1, 1)


def test_swap_action_on_c2_gives_m2():
    C2 = function_algebra(2)
    swap = MonomialMap([1, 0])
    act = GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): swap})
    cp = crossed_product(act)
    assert cp.algebra.dim == 4
    assert recognize_blocks(cp.algebra).sizes == (2,)


def test_swap_crossed_product_matches_regular_representation_oracle():
    # explicit oracle: delta_0 -> E_00, delta_1 -> E_11, z -> the swap matrix;
    # products of crossed basis elements must match the concrete matrices.
    C2 = function_algebra(2)
    swap = MonomialMap([1, 0])
    act = GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): swap})
    cp = crossed_product(act)
    X = Mat.exact([[0, 1], [1, 0]])
    images = {}
    for (i, g), idx in cp.index.items():
        delta = Mat.exact([[1 if (a, b) == (i, i) else 0 for b in range(2)]
                           for a in range(2)])
        images[idx] = delta @ (X if g == (1,) else Mat.identity(2))
    # the four images form a basis of M_2 and multiply like the crossed product
    for a in range(cp.algebra.dim):
        for b in range(cp.algebra.dim):
            prod = images[a] @ images[b]
            acc = Mat.zeros(2, 2)
            for k, c in product(cp.algebra, a, b):
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
        emb = embed(cp, {i: ONE})
        assert trace_sparse(alg, emb.items()) == A.trace[i]
    for g in G.elements():
        if g != e:
            assert trace_sparse(alg, z_vector(cp, g).items()).is_zero()


def test_not_automorphism_rejected():
    C2 = function_algebra(2)
    bad = MonomialMap([0, 0])  # 1 -> 2 b_0
    with pytest.raises(NotAutomorphism, match="not unital"):
        GroupAction(FinAbGroup((2,)), C2, {(0,): ident_map(2), (1,): bad})


def test_identity_acting_nontrivially_rejected():
    C2 = function_algebra(2)
    swap = MonomialMap([1, 0])
    with pytest.raises(NotAutomorphism, match="identity element"):
        GroupAction(FinAbGroup((2,)), C2, {(0,): swap, (1,): swap})


def test_composition_failure_rejected():
    # Z_3 by the swap at 1 and 2: theta_1 theta_1 is the identity, not theta_2
    C2 = function_algebra(2)
    swap = MonomialMap([1, 0])
    with pytest.raises(NotAutomorphism, match=r"composition fails at \(\(1,\),\(1,\)\)"):
        GroupAction(FinAbGroup((3,)), C2, {(0,): ident_map(2), (1,): swap, (2,): swap})


def test_missing_map_rejected():
    with pytest.raises(NotAutomorphism, match="missing map"):
        GroupAction(FinAbGroup((2,)), function_algebra(2), {(0,): ident_map(2)})


def test_inner_action_by_non_monomial_unitary_rejected():
    # u = (E_00 + E_01 + E_10 - E_11) / 2 is 1/sqrt(2) times a unitary;
    # Ad(u) sends E_00 to a sum of four matrix units
    M2 = multimatrix(BlockSpec((2,)))
    half = Cyclotomic.rational(Fraction(1, 2))
    with pytest.raises(NotAutomorphism, match="not a monomial map"):
        inner_action(FinAbGroup((2,)), M2, [half, half, half, -half])


def test_takesaki_takai_smallest_instance():
    C1 = multimatrix(BlockSpec((1,)))
    act = GroupAction(FinAbGroup((2,)), C1, {(0,): ident_map(1), (1,): ident_map(1)})
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
            theta = dual.thetas[chi]
            assert theta.k[idx] == idx
            assert theta.scalars[idx] == G.pairing(chi, g)


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


def reference_conjugation_failure(graded, sigma):
    """The first (x, g, k') at which the cocycle factor of
    ``conjugation_lemma_check`` fails, by the loop over basis elements on
    Cyclotomic values, or None."""
    K, A, table = graded.group, graded.algebra, cocycle_table(sigma)
    for x, h in zip(A.labels, graded.degrees):
        for g in K.elements():
            for kp in K.elements():
                lhs = (table[(negative(K, g), kp)].conjugate() * table[(h, kp)]
                       * table[(negative(K, add(K, h, g)), add(K, h, kp))])
                if lhs != table[(h, g)]:
                    return {"x": x, "g": list(g), "kp": list(kp)}
    return None


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 2)])
def test_conjugation_lemma_fails_where_the_reference_loop_does(sizes):
    # one exponent of E changed after construction, off the identity row and
    # column and off sigma(k, -k), which NormalizationMissing covers
    spec = BlockSpec(sizes)
    graded = fourier_function_algebra(spec)
    n, neg = graded.group.order, graded.group.negation()
    cases = [(a, b) for a in range(1, n) for b in range(1, n) if b != neg[a]]
    for i in np.random.default_rng(n).choice(len(cases), 6, replace=False):
        sigma = spec_cocycle(spec)
        a, b = cases[i]
        sigma.E[a, b] = (sigma.E[a, b] + 1) % sigma.L
        ref = reference_conjugation_failure(graded, sigma)
        assert ref is not None
        assert conjugation_lemma_check(graded, sigma) == {"passed": False, "failed_at": ref}


# -- reference: crossed products built with one sparse product per pair --------

def apply_columns(cols, terms):
    """Image of a sparse element under a map given column by column."""
    out = {}
    for i, a in terms:
        accumulate(out, a, cols[i])
    return out


def column_crossed_product(A, G, cols):
    """A rtimes G and its index from column-sparse maps cols[g][i], the
    products b_i theta_g(b_j) and stars theta_(-g)(b_i*) taken as sparse
    products and images."""
    els = G.elements()
    index, labels = {}, []
    for i in range(A.dim):
        for g in els:
            index[(i, g)] = len(labels)
            labels.append(f"{A.labels[i]}.z{g}".replace(" ", ""))
    one = Cyclotomic.one()
    mul = {}
    for g in els:
        for i in range(A.dim):
            for j in range(A.dim):
                acc = mul_sparse(A, ((i, one),), cols[g][j])
                if not acc:
                    continue
                terms = sorted(acc.items())
                for h in els:
                    mul[(index[(i, g)], index[(j, h)])] = tuple(
                        (index[(k, add(G, g, h))], c) for k, c in terms)
    invol = [None] * len(labels)
    unit = [ZERO] * len(labels)
    trace = [ZERO] * len(labels)
    for (i, g), a in index.items():
        ginv = negative(G, g)
        star = apply_columns(cols[ginv], invol_sparse(A, ((i, one),)).items())
        invol[a] = tuple((index[(k, ginv)], c) for k, c in sorted(star.items()))
        if g == G.identity:
            unit[a], trace[a] = A.unit[i], A.trace[i]
    alg = from_terms(len(labels), labels, mul, invol, unit, trace)
    return alg, index


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (2, 2)])
def test_tt_crossed_products_match_column_sparse_reference(sizes):
    spec = BlockSpec(sizes)
    graded = fourier_function_algebra(spec)
    group = _tt_group(spec)
    cp = crossed_product(action_from_graded(graded, group))
    dp = crossed_product(dual_action(cp))
    G = graded.group
    pad = (0,) * (len(G.factors) - len(group.factors))
    cols = {g: tuple(((i, G.pairing(chi, tuple(g) + pad)),) for i, chi in enumerate(graded.degrees))
            for g in group.elements()}
    ref_cp, index = column_crossed_product(graded.algebra, group, cols)
    dual_cols = {chi: tuple(((a, group.pairing(chi, g)),) for (_, g), a in index.items())
                 for chi in group.elements()}
    ref_dp, _ = column_crossed_product(ref_cp, group, dual_cols)
    for built, ref in ((cp.algebra, ref_cp), (dp.algebra, ref_dp)):
        assert serialize(built) == serialize(ref)
        assert [(c.order, c.coeffs) for c in built.scalars] == \
            [(c.order, c.coeffs) for c in ref.scalars]
        assert np.array_equal(built.s, ref.s) and np.array_equal(built.star_s, ref.star_s)
