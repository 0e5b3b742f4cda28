import math

import numpy as np
import pytest

from qautcert.algebra import BlockSpec
from qautcert.arith import Cyclotomic, Mat, Terms, root_of_unity
from qautcert.pauli import (
    BlockEmbedding,
    NotPVM,
    PhasePermutation,
    SlotMismatch,
    WrongCount,
    depolarization_check,
    entangled_basis,
    entangled_table,
    is_unitary_error_basis,
    pvm_check,
    table_terms,
    weyl_basis,
    weyl_tables,
)
from qautcert.qaut import _uet_projections

import mat_reference
from mat_reference import (bracket, bracket_phi, entangled_projection, monomial_entries, paren,
                           rearrange, rearrange_inverse, uet_projections, weyl_products)


def phi_terms(emb, s, i, j):
    return table_terms(emb.d ** 2, emb.phi_table(s, i, j))


def test_weyl_n2_matrices():
    wb = weyl_basis(2)
    assert wb.x.entries() == [[Cyclotomic.rational(1), Cyclotomic.zero()],
                              [Cyclotomic.zero(), Cyclotomic.rational(-1)]]
    assert wb.z.entry(0, 1).is_one() and wb.z.entry(1, 0).is_one()
    assert wb.z.entry(0, 0).is_zero()


def test_weyl_n1_degenerate():
    wb = weyl_basis(1)
    assert len(wb.family) == 1 and wb.family[0].entry(0, 0).is_one()


def test_weyl_n3_commutation():
    wb = weyl_basis(3)
    w = root_of_unity(3, 1)
    assert (wb.x @ wb.z).equals((wb.z @ wb.x).scale(w))
    zxz = wb.z @ wb.x @ wb.z.adjoint()
    assert not zxz.equals(wb.x)


def test_weyl_is_ueb_up_to_6():
    for n in range(1, 7):
        rep = is_unitary_error_basis(weyl_basis(n).family, n)
        assert rep.ok and rep.worst_residual == 0.0


def test_scaled_member_breaks_ueb():
    fam = [m for m in weyl_basis(2).family]
    fam[3] = fam[3].scale(2)
    rep = is_unitary_error_basis(fam, 2)
    assert not rep.ok and "not unitary" in rep.failure


def test_wrong_count():
    with pytest.raises(WrongCount):
        is_unitary_error_basis(weyl_basis(2).family[:3], 2)


def test_weyl_relations_exact():
    # T_ij T_kl = w^(-jk) T_(i+k, j+l), by exact multiplication
    for n in range(1, 5):
        wb = weyl_basis(n)
        w = root_of_unity(n, 1) if n > 1 else Cyclotomic.one()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lhs = wb.t(i, j) @ wb.t(k, l)
                        rhs = wb.t(i + k, j + l).scale(w ** ((-j * k) % n))
                        assert lhs.equals(rhs)


def test_depolarization_traceless_input():
    wb = weyl_basis(2)
    e01 = Mat.exact([[0, 1], [0, 0]])
    acc = Mat.zeros(2, 2)
    for u in wb.family:
        acc = acc + u.adjoint() @ e01 @ u
    assert acc.is_zero()
    assert depolarization_check(wb.family, e01).ok


def test_depolarization_identity_input():
    wb = weyl_basis(2)
    acc = Mat.zeros(2, 2)
    for u in wb.family:
        acc = acc + u.adjoint() @ u
    assert acc.equals(Mat.identity(2).scale(4))
    assert depolarization_check(wb.family, Mat.identity(2)).ok


def test_depolarization_e00_n3():
    wb = weyl_basis(3)
    e00 = Mat.exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    acc = Mat.zeros(3, 3)
    for u in wb.family:
        acc = acc + u.adjoint() @ e00 @ u
    assert acc.equals(Mat.identity(3).scale(3))
    assert depolarization_check(wb.family, e00).ok


def test_depolarization_all_units_up_to_4():
    for n in range(1, 5):
        wb = weyl_basis(n)
        for a in range(n):
            for b in range(n):
                unit = Mat.exact([[1 if (p, q) == (a, b) else 0 for q in range(n)]
                                  for p in range(n)])
                assert depolarization_check(wb.family, unit).ok


def test_entangled_basis_orthonormal():
    for n in (2, 3):
        entangled_basis(n)  # construction verifies orthonormality exactly


def test_entangled_inner_product_example():
    eb = entangled_basis(2)
    ip = (eb.vectors[0].adjoint() @ eb.vectors[2]).entry(0, 0)  # phi_00 vs phi_10
    assert ip.is_zero()


def test_entangled_projection_matches_vectors():
    for n in (2, 3):
        eb = entangled_basis(n)
        for i in range(n):
            for j in range(n):
                v = eb.vectors[i * n + j]
                assert (v @ v.adjoint()).equals(table_terms(n * n, entangled_table(n, i, j)).dense())


def test_pvm_check_diagonal():
    p0 = Terms.of(Mat.exact([[1, 0], [0, 0]]))
    p1 = Terms.of(Mat.exact([[0, 0], [0, 1]]))
    assert pvm_check([p0, p1]).ok


def test_pvm_check_rejects_overlap():
    p0 = Terms.of(Mat.exact([[1, 0], [0, 0]]))
    with pytest.raises(NotPVM):
        pvm_check([p0, p0])


def test_pvm_check_rejects_incomplete():
    p0 = Terms.of(Mat.exact([[1, 0], [0, 0]]))
    with pytest.raises(NotPVM) as err:
        pvm_check([p0])
    assert "sum" in str(err.value)


def test_phi_family_per_block_pvm_with_zero_outcome():
    # spec (2,1): the counit row family has 5 outcomes, one of them zero
    spec = BlockSpec((2, 1))
    emb = BlockEmbedding(spec)
    fam = [phi_terms(emb, 1, i, j) for i in range(2) for j in range(2)]
    fam.append(Terms.of(Mat.zeros(4, 4)))
    rep = pvm_check(fam)
    assert rep.ok and len(fam) == 5


def test_phi_families_literal_cross_block_not_orthogonal():
    # identity-padded projections from different blocks overlap; the honest
    # N-outcome family needs the zero entries of the magic-unitary row
    spec = BlockSpec((2, 1))
    emb = BlockEmbedding(spec)
    fam = [phi_terms(emb, 1, i, j) for i in range(2) for j in range(2)]
    fam.append(phi_terms(emb, 2, 0, 0))
    with pytest.raises(NotPVM):
        pvm_check(fam)


def test_phi_pvm_all_partitions_up_to_13():
    for sizes in [(2,), (3,), (2, 1), (2, 2), (2, 1, 1)]:
        spec = BlockSpec(sizes)
        emb = BlockEmbedding(spec)
        for s, n in enumerate(spec.sizes, start=1):
            fam = [phi_terms(emb, s, i, j) for i in range(n) for j in range(n)]
            assert pvm_check(fam).ok


def test_paren_embedding_trailing_identity_trivial():
    spec = BlockSpec((2, 1))
    emb = BlockEmbedding(spec)
    X2 = weyl_basis(2).x
    assert emb.paren_table(1, weyl_tables(2).at(2)).mat().equals(X2)  # d = 2


def test_bracket_embedding_before_rearrangement():
    spec = BlockSpec((2, 2))
    emb = BlockEmbedding(spec)
    T10 = weyl_basis(2).t(1, 0)
    doubled = T10.kron(Mat.identity(2))
    interleaved = Mat.identity(4).kron(doubled)  # I_2 x I_2 x (X_2 x I_2)
    assert rearrange(emb, interleaved).equals(bracket(emb, 2, doubled))


def test_rearrangement_round_trip():
    import random

    spec = BlockSpec((2, 2))
    emb = BlockEmbedding(spec)
    rng = random.Random(0)
    E = Mat.exact([[rng.randint(0, 2) for _ in range(16)] for _ in range(16)])
    assert rearrange_inverse(emb, rearrange(emb, E)).equals(E)
    assert rearrange(emb, rearrange_inverse(emb, E)).equals(E)


# -- the index tables against the exact-matrix references ----------------------

TABLE_PARTITIONS = [(1,), (2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1), (3, 2), (2, 2, 2)]


def assert_same_mat(a, b):
    """Equal, and written alike: one order, one denominator, one payload."""
    assert (a.order, a.den) == (b.order, b.den)
    assert np.array_equal(a.coef, b.coef)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weyl_tables_are_the_weyl_products(n):
    tables, products = weyl_tables(n), weyl_products(n)
    wb = weyl_basis(n)
    for k, product in enumerate(products):
        assert_same_mat(tables.at(k).mat(), product)
        assert_same_mat(wb.family[k], product)
    assert_same_mat(wb.x, products[(1 % n) * n])
    assert_same_mat(wb.z, products[1 % n])


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_slot_placements_are_paren(sizes):
    emb = BlockEmbedding(BlockSpec(sizes))
    for t, n in enumerate(sizes, start=1):
        placed = emb.paren_table(t, weyl_tables(n))  # every member at once
        for k, product in enumerate(weyl_products(n)):
            assert placed.at(k).mat().equals(paren(emb, t, product))
            assert placed.at(k).equals(emb.paren_table(t, weyl_tables(n).at(k)))


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_phi_tables_are_bracket_phi_read_back(sizes):
    emb = BlockEmbedding(BlockSpec(sizes))
    for s, n in enumerate(sizes, start=1):
        for i in range(-1, n):
            for j in range(n):
                ref = bracket_phi(emb, s, i, j)
                assert_same_mat(phi_terms(emb, s, i, j).dense(), ref)
                L, q, row, col, exp = emb.phi_table(s, i, j)
                L_ref, q_ref, row_ref, col_ref, exp_ref = monomial_entries(ref)
                assert q == q_ref
                lcm = math.lcm(L, L_ref)
                assert (sorted(zip(row.tolist(), col.tolist(), (exp * (lcm // L) % lcm).tolist()))
                        == sorted(zip(row_ref.tolist(), col_ref.tolist(),
                                      (exp_ref * (lcm // L_ref) % lcm).tolist())))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_entangled_projection_is_the_entrywise_formula(n):
    for i in range(n):
        for j in range(n):
            assert_same_mat(table_terms(n * n, entangled_table(n, i, j)).dense(),
                            entangled_projection(n, i, j))


def test_phase_permutation_products_are_matrix_products():
    rng = np.random.default_rng(0)
    ops = [PhasePermutation(L, rng.permutation(6), rng.integers(0, L, 6)) for L in (1, 2, 3, 4, 6)]
    for a in ops:
        assert a.is_unitary()
        assert a.adjoint().mat().equals(a.mat().adjoint())
        assert a.scaled(4, 1).mat().equals(a.mat().scale(root_of_unity(4, 1)))
        for b in ops:
            assert a.compose(b).mat().equals(a.mat() @ b.mat())
            assert a.kron(b).mat().equals(a.mat().kron(b.mat()))
            assert a.compose(b).equals(b.compose(a)) is (a.mat() @ b.mat()).equals(b.mat() @ a.mat())
    assert not PhasePermutation(1, np.array([0, 0, 2]), np.zeros(3, dtype=np.int64)).is_unitary()



def test_placements_refuse_a_slot_out_of_range():
    emb = BlockEmbedding(BlockSpec((2, 1)))
    for place in (lambda r: emb.paren_table(r, weyl_tables(2).at(1)),
                  lambda r: emb.phi_table(r, 0, 0),
                  lambda r: paren(emb, r, weyl_basis(2).z)):
        for r in (0, 3):
            with pytest.raises(SlotMismatch, match="out of range"):
                place(r)
    with pytest.raises(SlotMismatch, match="does not fit"):
        emb.paren_table(2, weyl_tables(2).at(1))


# -- pvm_check against the dense-product reference ----------------------------

STANDARD_PARTITIONS = [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1)]


def mutations(fam):
    """(label, family) for ten edits of a family of exact matrices."""
    zero, ident = Mat.zeros(fam[0].rows, fam[0].cols), Mat.identity(fam[0].rows)
    return [("double", [fam[0].scale(2)] + fam[1:]),
            ("duplicate", fam + [fam[0]]),
            ("drop first", fam[1:]),
            ("drop last", fam[:-1]),
            ("zero", [zero] + fam[1:]),
            ("negate", fam[:-1] + [-fam[-1]]),
            ("transpose", fam[:-1] + [fam[-1].transpose()]),
            ("sum two", [fam[0] + fam[-1]] + fam[1:-1]),
            ("extra zero", fam + [zero]),
            ("extra identity", fam + [ident])]


def outcome(check, family):
    """None on a pass, else the NotPVM condition."""
    try:
        check(family)
    except NotPVM as exc:
        return exc.condition
    return None


def pvm_families(kind, sizes):
    """(table-built terms, reference matrices) of each family of ``kind``:
    the phi family of every block, or the projections of ``uet_pvm``."""
    spec = BlockSpec(sizes)
    if kind == "uet":
        return [([P for s in range(1, spec.m + 1) for P in _uet_projections(spec, s)],
                 uet_projections(spec))]
    emb = BlockEmbedding(spec)
    return [([phi_terms(emb, s, i, j) for i in range(n) for j in range(n)],
             [bracket_phi(emb, s, i, j) for i in range(n) for j in range(n)])
            for s, n in enumerate(sizes, start=1)]


@pytest.mark.parametrize("kind", ["phi", "uet"])
@pytest.mark.parametrize("sizes", STANDARD_PARTITIONS)
def test_pvm_check_outcomes_are_the_dense_references(kind, sizes):
    seen = set()
    for terms, mats in pvm_families(kind, sizes):
        assert [t.dense().equals(m) for t, m in zip(terms, mats)] == [True] * len(mats)
        assert outcome(pvm_check, terms) is None
        assert outcome(mat_reference.pvm_check, mats) is None
        for label, fam in mutations(mats):
            want = outcome(mat_reference.pvm_check, fam)
            assert outcome(pvm_check, [Terms.of(m) for m in fam]) == want, label
            seen.add(want.split(" ")[-1] if want else None)
    assert {None, "projection", "orthogonal", "identity"} <= seen


def test_pvm_check_names_each_failing_condition():
    p0, p1 = (Terms.of(Mat.exact(m)) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]]))
    skew = Terms.of(Mat.exact([[1, 1], [0, 0]]))  # idempotent, not self-adjoint
    cases = [([], "empty family"),
             ([p0, Terms.of(Mat.identity(3))], "member 1 has mismatched shape"),
             ([p0, skew], "member 1 is not a projection"),
             ([p0, p1, p0], "members 0 and 2 are not orthogonal"),
             ([p0], "members do not sum to the identity")]
    for family, condition in cases:
        assert outcome(pvm_check, family) == condition
        assert outcome(mat_reference.pvm_check, [t.dense() for t in family]) == condition
    # every shape is checked before any relation; the reference interleaves
    # each member's shape and projection checks, so there the skew member
    # 0 fails first
    family = [skew, p1, Terms.of(Mat.identity(3))]
    assert outcome(pvm_check, family) == "member 2 has mismatched shape"
    assert outcome(mat_reference.pvm_check, [t.dense() for t in family]) == \
        "member 0 is not a projection"
