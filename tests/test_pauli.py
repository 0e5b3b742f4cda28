import math
from fractions import Fraction

import numpy as np
import pytest

from qautcert.algebra import BlockSpec
from qautcert.arith import Cyclotomic, Mat, root_of_unity
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
)
from qautcert.qaut import _uet_projections

import mat_reference
from mat_reference import (bracket, bracket_phi, entangled_projection, mat, monomial_entries,
                           paren, pauli_x, pauli_z, rearrange, rearrange_inverse, terms_of,
                           uet_projections, weyl_products)


def phi_terms(emb, s, i, j):
    return table_terms(emb.d ** 2, emb.phi_table(s, i, j))


def members(family):
    """The exact matrices of a stack of phase permutations."""
    return [mat(family.at(k)) for k in range(len(family.perm))]


def test_weyl_n2_matrices():
    x, z = mat(weyl_basis(2).at(2)), mat(weyl_basis(2).at(1))
    assert x.entries() == [[Cyclotomic.rational(1), Cyclotomic.zero()],
                           [Cyclotomic.zero(), Cyclotomic.rational(-1)]]
    assert z.entry(0, 1).is_one() and z.entry(1, 0).is_one()
    assert z.entry(0, 0).is_zero()


def test_weyl_n1_degenerate():
    wb = weyl_basis(1)
    assert len(wb.perm) == 1 and mat(wb.at(0)).entry(0, 0).is_one()


def test_weyl_n3_commutation():
    x, z = mat(weyl_basis(3).at(3)), mat(weyl_basis(3).at(1))
    w = root_of_unity(3, 1)
    assert (x @ z).equals((z @ x).scale(w))
    zxz = z @ x @ z.adjoint()
    assert not zxz.equals(x)


def test_weyl_is_ueb_up_to_6():
    for n in range(1, 7):
        rep = is_unitary_error_basis(weyl_basis(n), n)
        assert rep.ok and rep.worst_residual == 0.0


def test_wrong_count():
    with pytest.raises(WrongCount):
        is_unitary_error_basis(weyl_basis(2).at(slice(0, 3)), 2)


def test_weyl_relations_exact():
    # T_ij T_kl = w^(-jk) T_(i+k, j+l), by exact multiplication
    for n in range(1, 5):
        T = members(weyl_basis(n))
        w = root_of_unity(n, 1) if n > 1 else Cyclotomic.one()
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        lhs = T[i * n + j] @ T[k * n + l]
                        rhs = T[(i + k) % n * n + (j + l) % n].scale(w ** ((-j * k) % n))
                        assert lhs.equals(rhs)


def test_depolarization_traceless_input():
    e01 = Mat.exact([[0, 1], [0, 0]])
    acc = Mat.zeros(2, 2)
    for u in members(weyl_basis(2)):
        acc = acc + u.adjoint() @ e01 @ u
    assert acc.is_zero()
    assert depolarization_check(weyl_basis(2)).ok


def test_depolarization_identity_input():
    acc = Mat.zeros(2, 2)
    for u in members(weyl_basis(2)):
        acc = acc + u.adjoint() @ u
    assert acc.equals(Mat.identity(2).scale(4))
    assert depolarization_check(weyl_basis(2)).ok


def test_depolarization_e00_n3():
    e00 = Mat.exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    acc = Mat.zeros(3, 3)
    for u in members(weyl_basis(3)):
        acc = acc + u.adjoint() @ e00 @ u
    assert acc.equals(Mat.identity(3).scale(3))
    assert depolarization_check(weyl_basis(3)).ok


def test_depolarization_all_units_up_to_4():
    for n in range(1, 5):
        rep = depolarization_check(weyl_basis(n))
        assert rep.ok and rep.worst_residual == 0.0
        assert mat_reference.depolarization_units(members(weyl_basis(n))).ok


def test_entangled_basis_orthonormal():
    for n in (2, 3):
        entangled_basis(n)  # construction verifies orthonormality exactly


def mat_columns(V, k):
    """The n^2 x n matrix V_k of ``entangled_basis``: column c holds
    zeta^exp[k, c] at row perm[k, c]."""
    n = V.perm.shape[-1]
    return Mat.from_entries(n * n, n, V.L, V.perm[k], np.arange(n), V.exp[k], np.ones(n, dtype=np.int64))


def test_entangled_inner_product_example():
    eb = entangled_basis(2)
    # <phi_00|phi_10> = Tr(V_0* V_2) / 2
    ip = (mat_columns(eb, 0).adjoint() @ mat_columns(eb, 2)).trace()
    assert ip.is_zero()


def test_entangled_projection_matches_vectors():
    # |phi_k><phi_k| = V_k J V_k* / n, J the all-ones n x n matrix
    for n in (2, 3):
        eb = entangled_basis(n)
        ones = Mat.exact([[1] * n] * n)
        for i in range(n):
            for j in range(n):
                V = mat_columns(eb, i * n + j)
                assert (V @ ones @ V.adjoint()).scale(Fraction(1, n)).equals(
                    table_terms(n * n, entangled_table(n, i, j)).dense())


# -- the table checks against their dense references under mutation -----------

UEB_MUTATIONS = ["duplicate", "non-permutation", "phase", "diagonal"]


def ueb_mutant(n, kind, k):
    """The Weyl stack of M_n with member k edited: replaced by member k + 1,
    its first column moved onto the row of its second, the phase of its
    column k mod n advanced by one, or times X on the right, which makes it
    a multiple of another member by a root of unity, often not real."""
    T = weyl_basis(n)
    perm, exp = T.perm.copy(), T.exp.copy()
    if kind == "duplicate":
        j = (k + 1) % len(perm)
        perm[k], exp[k] = perm[j], exp[j]
    elif kind == "non-permutation":
        perm[k, 0] = perm[k, 1]
    elif kind == "phase":
        exp[k, k % n] = (exp[k, k % n] + 1) % n
    else:
        exp[k] = (exp[k] + np.arange(n)) % n
    return PhasePermutation(T.L, perm, exp)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", UEB_MUTATIONS)
def test_ueb_mutations_fail_as_the_dense_reference(kind, n):
    expected = {"duplicate": "trace pairing (", "non-permutation": "member ",
                "phase": f"depolarization n={n} unit (", "diagonal": "trace pairing ("}[kind]
    for k in sorted({0, n * n // 2, n * n - 1}):
        family = ueb_mutant(n, kind, k)
        mats = members(family)
        reports = [(is_unitary_error_basis(family, n), mat_reference.is_unitary_error_basis(mats, n))]
        if family.is_unitary().all():
            reports.append((depolarization_check(family), mat_reference.depolarization_units(mats)))
        for got, want in reports:
            assert (got.ok, got.failure) == (want.ok, want.failure), (k, want.failure)
            assert got.worst_residual == pytest.approx(want.worst_residual, abs=1e-12)
        # a wrong phase is named by the depolarization check, the rest by the first
        failure = reports[kind == "phase"][0].failure
        assert failure.startswith(expected), (k, failure)
    if kind == "non-permutation":
        assert reports[0][0].failure == f"member {k} is not unitary"


def test_pvm_check_diagonal():
    p0 = terms_of(Mat.exact([[1, 0], [0, 0]]))
    p1 = terms_of(Mat.exact([[0, 0], [0, 1]]))
    assert pvm_check([p0, p1]).ok


def test_pvm_check_rejects_overlap():
    p0 = terms_of(Mat.exact([[1, 0], [0, 0]]))
    with pytest.raises(NotPVM):
        pvm_check([p0, p0])


def test_pvm_check_rejects_incomplete():
    p0 = terms_of(Mat.exact([[1, 0], [0, 0]]))
    with pytest.raises(NotPVM) as err:
        pvm_check([p0])
    assert "sum" in str(err.value)


def test_phi_family_per_block_pvm_with_zero_outcome():
    # spec (2,1): the counit row family has 5 outcomes, one of them zero
    spec = BlockSpec((2, 1))
    emb = BlockEmbedding(spec)
    fam = [phi_terms(emb, 1, i, j) for i in range(2) for j in range(2)]
    fam.append(terms_of(Mat.zeros(4, 4)))
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
    assert mat(emb.paren_table(1, weyl_basis(2).at(2))).equals(pauli_x(2))  # d = 2


def test_bracket_embedding_before_rearrangement():
    spec = BlockSpec((2, 2))
    emb = BlockEmbedding(spec)
    T10 = weyl_products(2)[2]
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
    for table, product in zip(members(weyl_basis(n)), weyl_products(n), strict=True):
        assert_same_mat(table, product)


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_slot_placements_are_paren(sizes):
    emb = BlockEmbedding(BlockSpec(sizes))
    for t, n in enumerate(sizes, start=1):
        placed = emb.paren_table(t, weyl_basis(n))  # every member at once
        for k, product in enumerate(weyl_products(n)):
            assert mat(placed.at(k)).equals(paren(emb, t, product))
            assert placed.at(k).equals(emb.paren_table(t, weyl_basis(n).at(k)))


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


def test_off_delta_reads_the_diagonal_and_every_coefficient():
    from qautcert.pauli import _off_delta

    gram = np.zeros((3, 3, 2), dtype=np.int64)
    gram[[0, 1, 2], [0, 1, 2], 0] = 5
    assert _off_delta(gram, 5) is None
    for at, coefficient, value in [((1, 1), 0, 4), ((2, 2), 1, 1), ((0, 2), 0, 1), ((2, 1), 1, -1)]:
        edited = gram.copy()
        edited[at + (coefficient,)] = value
        assert _off_delta(edited, 5) == at


def test_pairing_in_chunks_is_the_one_join(monkeypatch):
    # joins of two operators of B each give the pairing of one join over all of B
    from qautcert import pauli
    from qautcert.qaut import _z_words

    for A in [weyl_basis(3), _z_words(BlockSpec((2, 2))), entangled_basis(2)]:
        gram = A.pairing(A)
        monkeypatch.setattr(pauli, "_JOIN_ROWS", 2 * A.perm.size)
        assert np.array_equal(A.pairing(A), gram)
        assert np.array_equal(A.at(slice(1, None)).pairing(A), gram[1:])
        monkeypatch.undo()


def test_phase_permutation_products_are_matrix_products():
    rng = np.random.default_rng(0)
    ops = [PhasePermutation(L, rng.permutation(6), rng.integers(0, L, 6)) for L in (1, 2, 3, 4, 6)]
    for a in ops:
        assert a.is_unitary()
        assert mat(a.adjoint()).equals(mat(a).adjoint())
        assert mat(a.scaled(4, 1)).equals(mat(a).scale(root_of_unity(4, 1)))
        for b in ops:
            assert mat(a.compose(b)).equals(mat(a) @ mat(b))
            assert mat(a.kron(b)).equals(mat(a).kron(mat(b)))
            assert a.compose(b).equals(b.compose(a)) == (mat(a) @ mat(b)).equals(mat(b) @ mat(a))
    skew = PhasePermutation(1, np.array([0, 0, 2]), np.zeros(3, dtype=np.int64))
    assert not skew.is_unitary()
    # over a stack: one answer per member, and Tr(A* B) for every pair,
    # permutation or not, in the power basis of the common order
    stack = [PhasePermutation(L, rng.integers(0, 6, (3, 6)), rng.integers(0, L, (3, 6)))
             for L in (1, 4, 6)] + [PhasePermutation(12, np.stack([op.perm for op in ops[:3]]),
                                                     np.stack([op.exp * (12 // op.L) for op in ops[:3]]))]
    for A in stack:
        assert list(A.is_unitary()) == [mat(A.at(k)).is_unitary() for k in range(3)]
        assert list(A.equals(A.at(0))) == [mat(A.at(k)).equals(mat(A.at(0))) for k in range(3)]
        for B in stack:
            L = math.lcm(A.L, B.L)
            gram = A.pairing(B)
            for a in range(3):
                for b in range(3):
                    want = (mat(A.at(a)).adjoint() @ mat(B.at(b))).trace().promoted(L)
                    assert Cyclotomic(L, gram[a, b].tolist()) == want



def test_placements_refuse_a_slot_out_of_range():
    emb = BlockEmbedding(BlockSpec((2, 1)))
    for place in (lambda r: emb.paren_table(r, weyl_basis(2).at(1)),
                  lambda r: emb.phi_table(r, 0, 0),
                  lambda r: paren(emb, r, pauli_z(2))):
        for r in (0, 3):
            with pytest.raises(SlotMismatch, match="out of range"):
                place(r)
    with pytest.raises(SlotMismatch, match="does not fit"):
        emb.paren_table(2, weyl_basis(2).at(1))


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
            assert outcome(pvm_check, [terms_of(m) for m in fam]) == want, label
            seen.add(want.split(" ")[-1] if want else None)
    assert {None, "projection", "orthogonal", "identity"} <= seen


def test_pvm_check_names_each_failing_condition():
    p0, p1 = (terms_of(Mat.exact(m)) for m in ([[1, 0], [0, 0]], [[0, 0], [0, 1]]))
    skew = terms_of(Mat.exact([[1, 1], [0, 0]]))  # idempotent, not self-adjoint
    cases = [([], "empty family"),
             ([p0, terms_of(Mat.identity(3))], "member 1 has mismatched shape"),
             ([p0, skew], "member 1 is not a projection"),
             ([p0, p1, p0], "members 0 and 2 are not orthogonal"),
             ([p0], "members do not sum to the identity")]
    for family, condition in cases:
        assert outcome(pvm_check, family) == condition
        assert outcome(mat_reference.pvm_check, [t.dense() for t in family]) == condition
    # every shape is checked before any relation; the reference interleaves
    # each member's shape and projection checks, so there the skew member
    # 0 fails first
    family = [skew, p1, terms_of(Mat.identity(3))]
    assert outcome(pvm_check, family) == "member 2 has mismatched shape"
    assert outcome(mat_reference.pvm_check, [t.dense() for t in family]) == \
        "member 0 is not a projection"
