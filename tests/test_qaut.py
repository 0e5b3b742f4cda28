import functools
import itertools
import math
import operator
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qautcert.algebra import BlockSpec, MonomialMap, monomial_forms, sparse_eq
from qautcert.arith import Cyclotomic, Mat, root_of_unity
from qautcert.formal import qsym, usym
from qautcert.pauli import BlockEmbedding, PhasePermutation, pvm_check, table_terms, weyl_basis
from qautcert.qaut import (
    GeneratorAssignment,
    IncompleteAssignment,
    NotAutomorphismB,
    QautPresentation,
    RelationReport,
    SnPresentation,
    alpha,
    beta,
    block_preserving_permutations,
    check_relations,
    classical_assignment_aut,
    classical_theta_battery,
    covariance_check,
    direct_sum_assignment,
    haar_compat_check,
    permutation_assignment,
    pi_map,
    rearranged_Q_check,
    rho_forms_agree,
    rho_map,
    strict_word_check,
    theta_ad_unitary,
    theta_block_swap,
    uet_pvm,
)
from qautcert.qaut import _uet_projections, _unit_positions, _z_tables, _z_words
from qautcert.relations import PvmPresentation, _numbering

from builders import formal_equals
from image_reference import pi_images, pi_stack, rho_images, rho_stack, stack_images
from relation_reference import relations, substitution_preserves_relations, symbolic
from mat_reference import (alpha_closure, assignment, beta_closure, bracket_phi, echelon, mat,
                           paren, paren_unit, phase_permutation, rank, substitute, terms_of,
                           uet_projections, values_of, weyl_products, z_images, z_words)


def substitute_all(formal_map, values):
    return {sym: substitute(ft, values) for sym, ft in formal_map.items()}


def counit(spec):
    """q^(s,r)_(i,j),(k,l) -> delta_sr delta_ik delta_jl: the point of the
    identity of B, as 1x1 matrices."""
    return classical_assignment_aut(spec, [MonomialMap(range(spec.N))])


# -- relations and classical points -----------------------------------------

def test_counit_assignment_passes():
    rep = check_relations(counit(BlockSpec((2, 1))))
    assert rep.ok and rep.worst_residual == 0.0


def test_identity_permutation_passes_sn():
    spec = BlockSpec((2, 1))
    pts = SnPresentation(spec).points
    rep = check_relations(permutation_assignment(spec, {p: p for p in pts}))
    assert rep.ok


def test_all_ones_fails_first_family():
    pres = QautPresentation(BlockSpec((2,)))
    ones = assignment(pres, {g: Mat.scalar(1) for g in pres.generators})
    rep = check_relations(ones)
    assert not rep.ok
    assert rep.failing.startswith("r1")


def test_incomplete_assignment_rejected():
    # (2,) has 16 generators: a stack of 1x1 values has 16 rows, of 2x2 ones 32
    pres = QautPresentation(BlockSpec((2,)))
    for rows, cols in [(1, 1), (17, 1), (32, 1), (16, 2), (31, 2)]:
        for stack in (Mat.zeros(rows, cols), np.zeros((rows, cols))):
            with pytest.raises(IncompleteAssignment, match="stack for 16 generators"):
                GeneratorAssignment(pres, terms_of(stack))


def test_float_assignment_passes_within_tol_only():
    spec = BlockSpec((2, 1))
    exact = counit(spec)
    floats = {g: v.to_float() for g, v in values_of(exact).items()}
    rep = check_relations(assignment(exact.presentation, floats), 1e-9)
    assert rep.ok and rep.worst_residual == 0.0 and rep.checked > 0
    floats[qsym(1, 1, 0, 0, 0, 0)] = floats[qsym(1, 1, 0, 0, 0, 0)] + 1e-6
    asg = assignment(exact.presentation, floats)
    assert check_relations(asg, 1e-5).ok
    rep = check_relations(asg, 1e-9)
    assert not rep.ok and 1e-9 < rep.worst_residual < 1e-5
    assert rep.failing.startswith("r1")


# -- check_relations against the per-instance reference ------------------------

def reference_residuals(asg):
    """(relation instance, residual) in the order of ``relations()``, each
    side evaluated as the sum over its terms of the coefficient times the
    product of the word's values; an exact residual is 0.0 exactly when the
    two sides are equal."""
    n, values = asg.size, values_of(asg)
    if asg.exact:
        zero, one, adjoint, scale = Mat.zeros(n, n), Mat.identity(n), Mat.adjoint, Mat.scale
    else:
        zero, one = np.zeros((n, n), dtype=np.complex128), np.eye(n, dtype=np.complex128)
        adjoint, scale = (lambda a: a.conj().T), (lambda a, c: a * complex(c))

    def side(terms):
        acc = zero
        for coeff, word in terms:
            val = functools.reduce(operator.matmul, [values[s] for s in word]) if word else one
            acc = acc + scale(val, coeff)
        return acc

    for rel in relations(asg.presentation):
        lhs, rhs = side(rel.lhs), side(rel.rhs)
        if rel.adjoint_lhs:
            lhs = adjoint(lhs)
        if asg.exact:
            yield rel, lhs.residual(rhs)
        else:
            yield rel, float(np.max(np.abs(lhs - rhs), initial=0.0))


def reference_check(asg, tol=1e-9):
    """check_relations one relation instance at a time."""
    worst, checked = 0.0, 0
    for rel, resid in reference_residuals(asg):
        checked += 1
        worst = max(worst, resid)
        if not resid <= (0.0 if asg.exact else tol):
            return RelationReport(False, worst, rel.rid, checked)
    return RelationReport(True, worst, None, checked)


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (1, 2), (3,), (1, 1, 1)])
def test_block_residuals_list_every_instance_in_relations_order(sizes):
    # at random complex values every instance has a residual of its own
    from qautcert.relations import _BlockValues

    rng = np.random.default_rng(len(sizes))
    spec = BlockSpec(sizes)
    for pres in (QautPresentation(spec), SnPresentation(spec)):
        asg = assignment(pres, {g: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                                for g in pres.generators})
        got = np.concatenate([r.ravel() for r in pres.block_residuals(_BlockValues(asg, 1e-9))])
        want = [resid for _, resid in reference_residuals(asg)]
        np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_pvm_block_residuals_list_every_instance_in_relations_order(K):
    from qautcert.relations import PvmPresentation, _BlockValues

    rng = np.random.default_rng(K)
    pres = PvmPresentation(K)
    asg = assignment(pres, {g: rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                            for g in pres.generators})
    got = np.concatenate([r.ravel() for r in pres.block_residuals(_BlockValues(asg, 1e-9))])
    rels, want = zip(*reference_residuals(asg))
    assert len(rels) == 2 * K + K * (K - 1) + 1
    assert {(rel.family, len(rel.lhs[0][1])) for rel in rels} <= {
        ("selfadj", 1), ("idem", 2), ("orth", 2), ("sum", 1)}
    np.testing.assert_allclose(got, want, rtol=1e-12)


def agreeing_report(asg, tol=1e-9):
    """check_relations' report, after asserting that it agrees with the
    reference's."""
    got, want = check_relations(asg, tol), reference_check(asg, tol)
    assert (got.ok, got.failing, got.checked) == (want.ok, want.failing, want.checked)
    if not asg.exact:
        assert abs(got.worst_residual - want.worst_residual) <= 1e-12
    elif got.ok:
        assert got.worst_residual == 0.0
    else:
        assert got.worst_residual > 0
    return got


def as_float(asg):
    return assignment(asg.presentation, {g: v.to_float() for g, v in values_of(asg).items()})


def perturbed(asg, t, a, b, e):
    """asg with zeta_4^e added at entry (a, b) of generator number t."""
    sym = asg.presentation.generators[t]
    n = asg.size
    values = values_of(asg)
    values[sym] = values[sym] + Mat.from_entries(n, n, 4, [a], [b], [e], [1])
    return assignment(asg.presentation, values)


def passing_points(sizes):
    """Passing points of both presentations: a permutation, a direct sum of
    two and rho at a classical automorphism theta for the magic unitary;
    theta and pi at the first two for the q-generators."""
    spec = BlockSpec(sizes)
    perms = block_preserving_permutations(spec, 2, seed=1)
    theta = classical_assignment_aut(spec, [classical_theta_battery(spec, 1, seed=1)[-1][-1]])
    rho = rho_images(spec)
    pi = pi_images(spec)
    perm, dsum = permutation_assignment(spec, perms[0]), direct_sum_assignment(spec, perms)
    return {
        "permutation": perm,
        "direct sum": dsum,
        "rho(theta)": assignment(SnPresentation(spec), substitute_all(rho, values_of(theta))),
        "theta": theta,
        "pi(permutation)": assignment(QautPresentation(spec), substitute_all(pi, values_of(perm))),
        "pi(direct sum)": assignment(QautPresentation(spec), substitute_all(pi, values_of(dsum))),
    }


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (3,), (1, 1, 1), (2, 2)])
def test_check_relations_matches_the_per_instance_reference(sizes):
    rng = random.Random(len(sizes) * 10 + sizes[0])
    for name, asg in passing_points(sizes).items():
        assert agreeing_report(asg).ok, name
        assert agreeing_report(as_float(asg)).ok, name
        t = rng.randrange(len(asg.presentation.generators))
        a, b, e = rng.randrange(asg.size), rng.randrange(asg.size), rng.randrange(4)
        bad = perturbed(asg, t, a, b, e)
        assert not agreeing_report(bad).ok, (name, t, a, b, e)
        assert not agreeing_report(as_float(bad)).ok, (name, t, a, b, e)


def _hom_scalar_onto_block_1():
    """The q-point of the unital *-homomorphism (x, c) -> (c 1, c) of
    M_2 + C, which is not trace-preserving."""
    pres = QautPresentation(BlockSpec((2, 1)))
    ones = {qsym(2, 1, 0, 0, 0, 0), qsym(2, 1, 0, 0, 1, 1), qsym(2, 2, 0, 0, 0, 0)}
    return assignment(pres, {g: Mat.scalar(int(g in ones)) for g in pres.generators})


def _ad_shift_times_skew_idempotent():
    """The point of Ad(Z), the shift, on block 1 of (2, 1) times [[1, 1], [0, 0]], an
    idempotent that is not self-adjoint."""
    spec = BlockSpec((2, 1))
    point = classical_assignment_aut(spec, [theta_ad_unitary(spec, 1, weyl_basis(2).at(1))])
    W = Mat.exact([[1, 1], [0, 0]])
    return assignment(point.presentation,
                      {g: W.scale(v.entry(0, 0)) for g, v in values_of(point).items()})


def _function_point():
    """u_(P),(Q) = [f(P) == Q] for a map f of the points of (2,) that is
    not onto: every row sums to 1, not every column."""
    pres = SnPresentation(BlockSpec((2,)))
    pts = pres.points
    f = {p: pts[0] if p == pts[1] else p for p in pts}
    return assignment(pres, {g: Mat.scalar(int(f[g[1:4]] == g[4:7])) for g in pres.generators})


# One case per family that fails first there.  A change to one generator
# moves rowsum[p] and colsum[q] alike, and rowsum comes first, so colsum
# fails first only at a point that is not one change from a magic unitary.
# r5 cannot fail first exactly after r1-r4 pass on matrices (a faithful
# trace forces it), so its case is float, at a tolerance between the
# residuals of r1-r4 (1.0) and of r5 (2.0).
FIRST_FAILURES = [
    ("r1", lambda: perturbed(passing_points((2,))["theta"], 0, 0, 0, 0), None),
    ("r2", _hom_scalar_onto_block_1, None),
    ("r3", _ad_shift_times_skew_idempotent, None),
    ("r4", lambda: perturbed(passing_points((1, 1, 1))["theta"], 1, 0, 0, 2), None),
    ("r5", lambda: perturbed(passing_points((1, 2))["pi(permutation)"], 1, 0, 0, 0), 1.5),
    ("selfadj", lambda: perturbed(passing_points((2,))["permutation"], 0, 0, 0, 1), None),
    ("idem", lambda: perturbed(passing_points((2,))["permutation"], 0, 0, 0, 2), None),
    ("rowsum", lambda: perturbed(passing_points((2,))["permutation"], 0, 0, 0, 0), None),
    ("colsum", _function_point, None),
]


@pytest.mark.parametrize("family, build, tol", FIRST_FAILURES,
                         ids=[case[0] for case in FIRST_FAILURES])
def test_each_family_fails_first_as_in_the_reference(family, build, tol):
    asg = build()
    reports = [agreeing_report(as_float(asg), tol)] if tol else [agreeing_report(asg),
                                                                   agreeing_report(as_float(asg))]
    rids = [rel.rid for rel in relations(asg.presentation)]
    for rep in reports:
        assert rep.failing.startswith(family + "[")
        assert rep.checked == rids.index(rep.failing) + 1


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (1, 1, 1)])
def test_checked_counts_every_instance_on_a_pass(sizes):
    for asg in passing_points(sizes).values():
        rep = check_relations(asg)
        assert rep.ok and rep.checked == len(list(relations(asg.presentation)))


NAME_PARTITIONS = [(2,), (2, 1), (1, 1, 1), (3,), (2, 2), (3, 1, 2)]


def presentations(sizes):
    spec = BlockSpec(sizes)
    return QautPresentation(spec), SnPresentation(spec)


@pytest.mark.parametrize("pres", [p for sizes in NAME_PARTITIONS for p in presentations(sizes)]
                         + [PvmPresentation(K) for K in (1, 2, 5)], ids=repr)
def test_instance_names_are_the_reference_rids(pres, monkeypatch):
    import qautcert.relations

    # the index columns, cached, so that naming every instance takes one pass
    monkeypatch.setattr(qautcert.relations, "_enumerate",
                        functools.lru_cache(qautcert.relations._enumerate))
    rids = [rel.rid for rel in relations(pres)]
    assert [pres.instance_name(t) for t in range(len(rids))] == rids


def sparse_exact_values(generators, rng, order, big):
    """Random sparse 2 x 2 values at one order over denominators 2 and 3:
    about half of them zero, the others one or two terms with small
    numerators, and ``big`` added to one numerator."""
    values = {}
    for g in generators:
        terms = 0 if rng.random() < 0.5 else int(rng.integers(1, 3))
        num = rng.choice([-3, -2, -1, 1, 2, 3], size=terms).astype(object)
        values[g] = Mat.from_entries(2, 2, order, rng.integers(0, 2, terms), rng.integers(0, 2, terms),
                                     rng.integers(0, order, terms), num, int(rng.integers(2, 4)))
    g = next(g for g in generators if not values[g].is_zero())
    values[g] = values[g] + Mat.from_entries(2, 2, order, [0], [1], [1], [big], 3)
    return values


@pytest.mark.parametrize("sizes, order", [((2,), 3), ((2, 1), 4), ((1, 2), 12), ((3,), 12)])
def test_exact_block_residuals_are_zero_exactly_where_the_reference_is(sizes, order):
    from qautcert.relations import _BlockValues

    rng = np.random.default_rng(sum(sizes) * order)
    spec = BlockSpec(sizes)
    for pres in (QautPresentation(spec), SnPresentation(spec)):
        asg = assignment(pres, sparse_exact_values(pres.generators, rng, order, 2**31 + 5))
        assert asg.stack.den > 1 and asg.stack.num.dtype == object  # the Python-int path
        got = np.concatenate([r.ravel() for r in pres.block_residuals(_BlockValues(asg, 1e-9))])
        want = np.array([resid for _, resid in reference_residuals(asg)])
        assert ((got == 0) == (want == 0)).all()
        assert 0 < (want == 0).sum() < len(want)
        np.testing.assert_allclose(got, want, rtol=1e-9)
        assert not agreeing_report(asg).ok


def unitary_conjugate(asg):
    """asg, its values of even size n, with every value conjugated by the
    unitary [[3/5, 4/5 zeta_12], [-4/5 zeta_12^-1, 3/5]] (x) 1_(n/2): a point
    of the same presentation at order 12 over the denominator 25."""
    c = Fraction(4, 5) * root_of_unity(12, 1)
    U = Mat.exact([[Fraction(3, 5), c], [-c.conjugate(), Fraction(3, 5)]]).kron(Mat.identity(asg.size // 2))
    return assignment(asg.presentation, {g: U @ v @ U.adjoint() for g, v in values_of(asg).items()})


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (3,)])
def test_exact_first_failure_matches_the_reference_at_order_12(sizes):
    rng = random.Random(sum(sizes))
    for name in ("direct sum", "pi(direct sum)"):
        asg = unitary_conjugate(passing_points(sizes)[name])
        assert asg.stack.order == 12 and asg.stack.den > 1
        assert agreeing_report(asg).ok, name
        for _ in range(3):
            t = rng.randrange(len(asg.presentation.generators))
            a, b, e = rng.randrange(2), rng.randrange(2), rng.randrange(12)
            values = values_of(asg)
            sym = asg.presentation.generators[t]
            values[sym] = values[sym] + Mat.from_entries(asg.size, asg.size, 12, [a], [b], [e],
                                                         [2**31 + 1], 25)
            assert not agreeing_report(assignment(asg.presentation, values)).ok


def test_an_exact_failure_below_float_range_still_fails():
    # 2**-1100 is zero as a float, but not exactly
    asg = counit(BlockSpec((2, 1)))
    values = values_of(asg)
    sym = asg.presentation.generators[0]
    values[sym] = values[sym] + Mat.from_entries(1, 1, 1, [0], [0], [0], [1], 2**1100)
    rep = check_relations(assignment(asg.presentation, values))
    assert not rep.ok and rep.worst_residual > 0 and rep.failing.startswith("r1[")


@pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (3,)])
def test_families_agree_over_chunks_of_one_group(sizes, monkeypatch):
    from qautcert import relations

    rng = random.Random(len(sizes))
    points = []
    for asg in passing_points(sizes).values():
        t = rng.randrange(len(asg.presentation.generators))
        points += [asg, perturbed(asg, t, 0, 0, 1), as_float(perturbed(asg, t, 0, 0, 1))]
    whole = [list(p.presentation.block_residuals(relations._BlockValues(p, 1e-9)))
             for p in points]
    monkeypatch.setattr(relations, "_CHUNK_PAIRS", 1)
    for asg, want in zip(points, whole):
        got = list(asg.presentation.block_residuals(relations._BlockValues(asg, 1e-9)))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=0 if asg.exact else 1e-12)


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1)])
def test_substituted_terms_check_as_their_dense_stack(sizes):
    from qautcert.arith import Terms
    from qautcert.cli import ft_to_float

    spec = BlockSpec(sizes)
    qpres = QautPresentation(spec)
    images = pi_map(spec)
    perms = block_preserving_permutations(spec, 2, seed=4)
    for point in (permutation_assignment(spec, perms[0]), direct_sum_assignment(spec, perms)):
        for ft in (images, ft_to_float(images)):
            terms = ft.substitute_terms(point.stack)
            # one more term, at entry (0, 0) of generator 3: zeta^1 exact, 1 complex
            one = terms.num[:1] * 0 + (terms.den if terms.exact else 1)
            extra = replace(terms, row=np.r_[terms.row, 3 * terms.cols], col=np.r_[terms.col, 0],
                            exp=np.r_[terms.exp, int(terms.exact)], num=np.r_[terms.num, one])
            for t in (terms, extra):
                assert isinstance(t, Terms)
                got = check_relations(GeneratorAssignment(qpres, t))
                want = check_relations(GeneratorAssignment(qpres, terms_of(t.dense())))
                assert (got.ok, got.failing, got.checked) == (want.ok, want.failing, want.checked)
                assert abs(got.worst_residual - want.worst_residual) <= 1e-12
            assert check_relations(GeneratorAssignment(qpres, terms)).ok
            assert not check_relations(GeneratorAssignment(qpres, extra)).ok


def test_permutation_and_direct_sum_stacks_are_the_mat_exact_ones():
    for sizes in [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1)]:
        spec = BlockSpec(sizes)
        gens = SnPresentation(spec).generators
        perms = block_preserving_permutations(spec, 3, seed=sum(sizes))
        cases = [(permutation_assignment(spec, perms[0]), [perms[0]])]
        cases += [(direct_sum_assignment(spec, perms[:n]), perms[:n]) for n in (1, 2, 3)]
        for asg, ps in cases:
            want = Mat.exact([[int(perm[sym[4:7]] == sym[1:4]) if a == b else 0
                               for b in range(len(ps))]
                              for sym in gens for a, perm in enumerate(ps)])
            got = asg.stack.dense()
            assert (got.rows, got.cols, got.order, got.den) == (want.rows, want.cols, want.order, want.den)
            assert got.coef.dtype == want.coef.dtype and np.array_equal(got.coef, want.coef)


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (3,)])
@pytest.mark.parametrize("edit", ["exponent", "prefactor"])
def test_homs_fails_after_one_pi_image_changes(sizes, edit, monkeypatch):
    import qautcert.cli
    from qautcert.cli import SuiteConfig, run

    sym = QautPresentation(BlockSpec(sizes)).generators[1]

    def edited(spec):
        pi = pi_images(spec)
        if edit == "exponent":
            _exponent_off_by_one(pi, sym)
        else:
            pi[sym] = replace(pi[sym], prefactors=(2 * pi[sym].prefactors[0],))
        return pi_stack(spec, pi)

    monkeypatch.setattr(qautcert.cli, "pi_map", edited)
    for backend in ("exact", "float"):
        frag = run(SuiteConfig(partition=sizes, backend=backend, suites=("homs",)))["suites"]["homs"]
        assert not frag["passed"], frag
        assert frag["failure"].startswith(("pi battery: r", "pi direct sum: r")), frag


def test_ad_shift_classical_point():
    # Ad(Z_2): q_(i,j),(k,l) = delta_(i+1,k) delta_(j+1,l) mod 2
    spec = BlockSpec((2,))
    asg = classical_assignment_aut(spec, [theta_ad_unitary(spec, 1, weyl_basis(2).at(1))])
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    val = values_of(asg)[qsym(1, 1, i, j, k, l)].entry(0, 0)
                    expect = 1 if (k == (i + 1) % 2 and l == (j + 1) % 2) else 0
                    assert val == Cyclotomic.rational(expect)
    assert check_relations(asg).ok


def test_block_swap_classical_point():
    spec = BlockSpec((1, 1))
    asg = classical_assignment_aut(spec, [theta_block_swap(spec, 1, 2)])
    values = values_of(asg)
    assert values[qsym(1, 2, 0, 0, 0, 0)].entry(0, 0).is_one()
    assert values[qsym(1, 1, 0, 0, 0, 0)].entry(0, 0).is_zero()
    assert check_relations(asg).ok


def test_non_star_automorphism_rejected():
    # Ad(diag(1, 2)) on M_2 is a unital multiplicative monomial map, E_01 ->
    # E_01 / 2 and E_10 -> 2 E_10, but not *-compatible
    spec = BlockSpec((2,))
    theta = MonomialMap(range(4), [1, Fraction(1, 2), 2, 1])
    with pytest.raises(NotAutomorphismB, match=r"\*-compatible"):
        classical_assignment_aut(spec, [theta])


def column_theta_stack(spec, entry):
    """The assignment stack of a battery entry built from the images
    U E_ij U* as exact matrices, read through Mat.exact."""
    kind, r, a, b, _ = entry
    index = {p: n for n, p in enumerate(SnPresentation(spec).points)}
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    if kind == "block_swap":
        swap = {r: a, a: r}
        images = [{index[(swap.get(rr, rr), i, j)]: one} for (rr, i, j) in index]
    else:
        n = spec.sizes[r - 1]
        if kind == "ad_weyl":
            U = weyl_products(n)[a * n + b]
        elif kind == "perm":
            U = Mat.exact([[1 if x == a[y] else 0 for y in range(n)] for x in range(n)])
        else:
            U = Mat.exact([[root_of_unity(n, a[x]) if x == y else 0 for y in range(n)]
                           for x in range(n)])
        images = []
        for (rr, i, j), col in index.items():
            if rr != r:
                images.append({col: one})
                continue
            unit = Mat.exact([[1 if (x, y) == (i, j) else 0 for y in range(n)] for x in range(n)])
            img = U @ unit @ U.adjoint()
            images.append({index[(r, k, l)]: c for (k, l), c in img.sparse_entries().items()})
    return Mat.exact([[images[index[(s, i, j)]].get(index[(r, k, l)], zero)]
                      for _, s, r, i, j, k, l in QautPresentation(spec).generators])


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2)])
def test_theta_stacks_match_matrix_reference(sizes):
    spec = BlockSpec(sizes)
    kinds = set()
    for seed in (0, 42):
        for entry in classical_theta_battery(spec, 10, seed=seed):
            stack = classical_assignment_aut(spec, [entry[-1]]).stack.dense()
            ref = column_theta_stack(spec, entry)
            assert (stack.order, stack.den) == (ref.order, ref.den), entry[:-1]
            assert np.array_equal(stack.coef, ref.coef), entry[:-1]
            kinds.add(entry[0])
    assert {"ad_weyl", "perm", "diag"} <= kinds


# -- the PVM representation ---------------------------------------------------

def test_uet_pvm_single_point():
    cert = uet_pvm(BlockSpec((1,)))
    assert cert["passed"] and cert["outcomes"] == 1


def test_uet_pvm_m2():
    cert = uet_pvm(BlockSpec((2,)))
    assert cert["passed"] and cert["outcomes"] == 4
    # projection of a maximally entangled type: rank d/n_s = 1 each,
    # forced by the completeness relation sum P = I_4
    assert cert["ranks"] == [1, 1, 1, 1]


def test_uet_pvm_2_1():
    cert = uet_pvm(BlockSpec((2, 1)))
    assert cert["passed"] and cert["outcomes"] == 5
    assert cert["ranks"] == [1, 1, 1, 1, 2]


def test_uet_pvm_fails_plancherel_value_off_by_a_fraction(monkeypatch):
    import qautcert.qaut

    real = qautcert.qaut._psi_tr
    monkeypatch.setattr(qautcert.qaut, "_psi_tr",
                        lambda spec, P: real(spec, P) + Fraction(1, 10**6))
    cert = uet_pvm(BlockSpec((2, 1)))
    assert cert["passed"] is False
    assert cert["failure"] == "(psi x tr)(P(1, 0, 0)) != 1/N"


def test_uet_pvm_fails_with_the_pvm_check_message(monkeypatch):
    import qautcert.qaut

    real = qautcert.qaut._uet_projections

    def doubled_in_block_2(spec, s):
        members = real(spec, s)
        return [replace(P, num=P.num * 2) for P in members] if s == 2 else members

    monkeypatch.setattr(qautcert.qaut, "_uet_projections", doubled_in_block_2)
    cert = uet_pvm(BlockSpec((2, 1)))
    assert cert["passed"] is False
    assert cert["failure"] == "not a PVM: member 4 is not a projection"


def test_uet_pvm_fails_a_partial_trace_of_the_wrong_value(monkeypatch):
    """With the PVM check passed over, projections doubled have partial
    traces on the identity's support but of twice its value."""
    import qautcert.qaut

    real = qautcert.qaut._uet_projections
    monkeypatch.setattr(qautcert.qaut, "_uet_projections",
                        lambda spec, s: [replace(P, num=P.num * 2) for P in real(spec, s)])
    monkeypatch.setattr(qautcert.qaut, "pvm_check", lambda projections: None)
    cert = uet_pvm(BlockSpec((2, 1)))
    assert cert["passed"] is False
    assert cert["failure"] == "partial trace of P(1, 0, 0)"


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1),
                                   (3, 2), (2, 2, 2), (4,)])
def test_uet_pvm_projections_and_ranks_are_the_dense_references(sizes):
    spec = BlockSpec(sizes)
    refs = uet_projections(spec)
    built = [P for s in range(1, spec.m + 1) for P in _uet_projections(spec, s)]
    assert len(built) == len(refs) == spec.N
    for P, ref in zip(built, refs):
        assert P.dense().equals(ref)
    cert = uet_pvm(spec)
    assert cert["passed"]
    assert cert["ranks"] == [rank(ref) for ref in refs]


def test_uet_pvm_and_pvm_check_form_no_matrix_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense matrix product")

    monkeypatch.setattr(Mat, "__matmul__", refuse)
    monkeypatch.setattr(Mat, "kron", refuse)
    spec = BlockSpec((2, 2))
    assert uet_pvm(spec)["passed"]
    emb = BlockEmbedding(spec)
    for s, n in enumerate(spec.sizes, start=1):
        assert pvm_check([table_terms(spec.d ** 2, emb.phi_table(s, i, j))
                          for i in range(n) for j in range(n)]).ok


# -- pi and rho ---------------------------------------------------------------

def test_pi_collapses_on_abelian_partition():
    spec = BlockSpec((1, 1))
    pi = pi_images(spec)
    for s in (1, 2):
        for r in (1, 2):
            ft = pi[qsym(s, r, 0, 0, 0, 0)]
            u = usym(s, 0, 0, r, 0, 0)
            assert ft.symbols == (u,)
            assert substitute(ft, {u: Mat.scalar(1)}).scalar_multiple_of_identity().is_one()


def test_pi_identity_permutation_substitution():
    spec = BlockSpec((2,))
    pi = pi_images(spec)
    pts = SnPresentation(spec).points
    uasg = permutation_assignment(spec, {p: p for p in pts})
    qvals = substitute_all(pi, values_of(uasg))
    rep = check_relations(assignment(QautPresentation(spec), qvals))
    assert rep.ok and rep.worst_residual == 0.0


def test_pi_seeded_block_preserving_battery():
    spec = BlockSpec((2, 1))
    pi = pi_images(spec)
    pres = QautPresentation(spec)
    for perm in block_preserving_permutations(spec, 8, seed=11):
        uasg = permutation_assignment(spec, perm)
        rep = check_relations(assignment(pres, substitute_all(pi, values_of(uasg))))
        assert rep.ok


def test_pi_block_crossing_cycle_passes():
    # arbitrary permutations are admissible for bare relation checks; a
    # block-crossing cycle exercises the mixed (s, r) generators and pins
    # the 1/n_r prefactor
    spec = BlockSpec((2, 1))
    pts = SnPresentation(spec).points
    cyc = {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))}
    pi = pi_images(spec)
    uasg = permutation_assignment(spec, cyc)
    rep = check_relations(assignment(QautPresentation(spec), substitute_all(pi, values_of(uasg))))
    assert rep.ok


def test_rho_collapses_on_abelian_partition():
    rho = rho_images(BlockSpec((1, 1)))
    ft = rho[usym(1, 0, 0, 2, 0, 0)]
    assert ft.symbols == (qsym(1, 2, 0, 0, 0, 0),)


def test_rho_both_forms_agree():
    for sizes in [(2,), (2, 1)]:
        spec = BlockSpec(sizes)
        assert rho_forms_agree(spec, rho_map(spec))


def test_rho_classical_point_gives_magic_unitary():
    spec = BlockSpec((2,))
    qasg = classical_assignment_aut(spec, [theta_ad_unitary(spec, 1, weyl_basis(2).at(2))])
    rho = rho_images(spec)
    uvals = substitute_all(rho, values_of(qasg))
    assert next(iter(uvals.values())).rows == 4  # M_2 x M_2
    rep = check_relations(assignment(SnPresentation(spec), uvals))
    assert rep.ok and rep.worst_residual == 0.0


def test_rho_battery_of_automorphisms():
    spec = BlockSpec((2,))
    rho = rho_images(spec)
    pres = SnPresentation(spec)
    for entry in classical_theta_battery(spec, 10, seed=5):
        qasg = classical_assignment_aut(spec, [entry[-1]])
        rep = check_relations(assignment(pres, substitute_all(rho, values_of(qasg))))
        assert rep.ok, entry[0]


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1), (3, 2),
                                   (4, 2, 2)])
def test_stacks_are_the_per_generator_images_stacked(sizes):
    spec = BlockSpec(sizes)
    for got, want in ((pi_map(spec), pi_stack(spec, pi_images(spec))),
                      (rho_map(spec), rho_stack(spec, rho_images(spec)))):
        for name in ("sym", "row", "col", "exp"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert ((got.prefactors, got.order, got.size, got.symbols, got.phase)
                == (want.prefactors, want.order, want.size, want.symbols, None))


def test_take_reads_images_of_a_stack():
    spec = BlockSpec((2, 1))
    qpres, pi = QautPresentation(spec), pi_images(spec)
    picked = [7, 0, 24, 7]
    got = pi_stack(spec, pi).take(picked)
    want = stack_images([pi[qpres.generators[t]] for t in picked], SnPresentation(spec).generators)
    for name in ("sym", "row", "col", "exp"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert ((got.prefactors, got.order, got.size, got.symbols)
            == (want.prefactors, want.order, want.size, want.symbols))


# -- the shuffle identity -----------------------------------------------------

def test_rearranged_q_trivial_partition():
    cert = rearranged_Q_check(BlockSpec((1,)))
    assert cert["passed"] and cert["words_checked"] == 1


def test_rearranged_q_m2():
    cert = rearranged_Q_check(BlockSpec((2,)))
    assert cert["passed"] and cert["words_checked"] == 16


def test_rearranged_q_mixed_blocks():
    cert = rearranged_Q_check(BlockSpec((2, 1)))
    assert cert["passed"] and cert["words_checked"] == 25


# -- the table comparisons against exact-matrix references --------------------

REFERENCE_PARTITIONS = [(1,), (2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1)]


def reference_rho_forms_agree(spec, rho):
    """The rho cross-check with exact matrices: (T x T)(Q^(s,r)/n_s)(T x T)*
    by ``Mat`` products, compared with each image as {key: Cyclotomic}."""
    return all(sparse_eq(lhs, rho[u].sparse())
               for u, lhs in _reference_rho_forms(spec.sizes).items())


@functools.lru_cache(maxsize=None)
def _reference_rho_forms(sizes):
    """{u: the conjugated form of Q^(s,r)/n_s as {(q, row, col): Cyclotomic}}."""
    emb = BlockEmbedding(BlockSpec(sizes))
    out = {}
    for s, ns in enumerate(sizes, start=1):
        for r, nr in enumerate(sizes, start=1):
            Q = {qsym(s, r, i, j, k, l): paren_unit(emb, s, i, j).kron(paren_unit(emb, r, k, l))
                 for i, j, k, l in itertools.product(range(ns), range(ns), range(nr), range(nr))}
            for x, y, v, w in itertools.product(range(ns), range(ns), range(nr), range(nr)):
                conj = (paren(emb, s, weyl_products(ns)[x * ns + (-y) % ns])
                        .kron(paren(emb, r, weyl_products(nr)[v * nr + (-w) % nr])))
                lhs = out[usym(s, x, y, r, v, w)] = {}
                for q, coeff in Q.items():
                    term = (conj @ coeff @ conj.adjoint()).scale(Fraction(1, ns))
                    for (row, col), c in term.sparse_entries().items():
                        lhs[(q, row, col)] = c
    return out


def reference_shuffle(spec, pi):
    """The shuffle identity with both sides as {(row, col): Cyclotomic} per
    u-symbol: the left side read off ``pi`` leg by leg, the right side the
    Kronecker product of the entangled projections' entries."""
    d = spec.d
    d2 = d * d
    lhs = {}
    for (_, s, r, i, j, k, l), ft in pi.items():
        stride_s, base_s = _unit_positions(spec, s)
        stride_r, base_r = _unit_positions(spec, r)
        legs = [(r1 * d + r2, c1 * d + c2)
                for r1, c1 in zip(base_s + i * stride_s, base_s + j * stride_s)
                for r2, c2 in zip(base_r + k * stride_r, base_r + l * stride_r)]
        for (u, row, col), c in ft.sparse().items():
            coeff = lhs.setdefault(u, {})
            for r12, c12 in legs:
                at = (_shuffle_index(int(r12) * d2 + row, d), _shuffle_index(int(c12) * d2 + col, d))
                coeff[at] = coeff.get(at, Cyclotomic.zero()) + c
    rhs = _reference_shuffle_rhs(spec.sizes)
    for sym, coeff in rhs.items():
        if not sparse_eq(lhs.get(sym, {}), coeff):
            return {"passed": False, "failed_word": str(sym), "partition": list(spec.sizes)}
    return {"passed": True, "partition": list(spec.sizes), "d": d,
            "words_checked": len(rhs), "shuffle": "(1,2,3,4)->(1,3)(2,4)",
            "rhs_constant": "n_s", "worst_residual": 0.0}


@functools.lru_cache(maxsize=None)
def _reference_shuffle_rhs(sizes):
    """{u: n_s phi^[s]_(-x,y) x phi^[r]_(-v,w) as {(row, col): Cyclotomic}}, in order."""
    emb = BlockEmbedding(BlockSpec(sizes))
    d2 = emb.d ** 2
    out = {}
    for s, ns in enumerate(sizes, start=1):
        for r, nr in enumerate(sizes, start=1):
            for x, y, v, w in itertools.product(range(ns), range(ns), range(nr), range(nr)):
                phi_s = bracket_phi(emb, s, (-x) % ns, y).sparse_entries()
                phi_r = bracket_phi(emb, r, (-v) % nr, w).sparse_entries()
                out[usym(s, x, y, r, v, w)] = {
                    (r1 * d2 + r2, c1 * d2 + c2): v1 * v2 * ns
                    for (r1, c1), v1 in phi_s.items() for (r2, c2), v2 in phi_r.items()}
    return out


def _shuffle_index(idx, d):
    """The index with base-d digits (a, b, c, e) sent to (a, c, b, e): legs
    (1,2,3,4) -> (1,3)(2,4) of (C^d)^(x4)."""
    a, b, c, e = idx // d ** 3, idx // d ** 2 % d, idx // d % d, idx % d
    return ((a * d + c) * d + b) * d + e


def _moved(a, t, by, mod=None):
    a = a.copy()
    a[t] = a[t] + by if mod is None else (a[t] + by) % mod
    return a


def single_row_mutations(images):
    """(label, images with one image edited) per edit of the middle row of
    the first, the middle and the last image, and of their prefactors;
    edits that leave an image equal are skipped.  Where the first or the
    last image has a symbol that the edited one lacks, as a symbol of
    another block pair, the row is also moved to that symbol."""
    keys = list(images)
    out = []
    for key in dict.fromkeys([keys[0], keys[len(keys) // 2], keys[-1]]):
        ft = images[key]
        t = len(ft.row) // 2
        foreign = [sym for other in (keys[0], keys[-1]) for sym in images[other].symbols
                   if sym not in ft.symbols]
        edits = {
            "exponent + 1": replace(ft, exp=_moved(ft.exp, t, 1)),
            "row moved": replace(ft, row=_moved(ft.row, t, 1, ft.size)),
            "column moved": replace(ft, col=_moved(ft.col, t, 1, ft.size)),
            "row dropped": replace(ft, **{name: np.delete(getattr(ft, name), t)
                                          for name in ("sym", "row", "col", "exp")}),
            "prefactor doubled": replace(ft, prefactors=(2 * ft.prefactors[0],)),
        }
        if foreign:
            edits["symbol of another pair"] = replace(
                ft, symbols=ft.symbols + (foreign[0],),
                sym=_moved(ft.sym, t, len(ft.symbols) - ft.sym[t]))
        out += [(f"{label} at {key}", {**images, key: edited})
                for label, edited in edits.items() if not formal_equals(edited, ft)]
    return out


@pytest.mark.parametrize("sizes", REFERENCE_PARTITIONS)
def test_images_hold_each_entry_once(sizes):
    """``FormalTensor.differing`` compares sorted row keys, which compares
    the images as matrices only when no (symbol, row, col) repeats within
    an image: a stack's rows hold their image's number in ``row``."""
    spec = BlockSpec(sizes)
    for ft in (pi_map(spec), rho_map(spec)):
        keys = np.stack([ft.sym, ft.row, ft.col])
        assert np.unique(keys, axis=1).shape[1] == keys.shape[1]


def assert_rho_forms_agree_matches_reference(spec):
    rho = rho_images(spec)
    cases = [("real images", rho)] + single_row_mutations(rho)
    assert len(cases) >= 3
    for label, images in cases:
        expected = reference_rho_forms_agree(spec, images)
        assert expected is (label == "real images"), label
        assert rho_forms_agree(spec, rho_stack(spec, images)) is expected, label


@pytest.mark.parametrize("sizes", REFERENCE_PARTITIONS)
def test_rho_forms_agree_matches_reference(sizes):
    assert_rho_forms_agree_matches_reference(BlockSpec(sizes))


@pytest.mark.parametrize("sizes", REFERENCE_PARTITIONS)
@pytest.mark.parametrize("chunk_rows", [1, 100])
def test_rho_forms_agree_matches_reference_over_small_chunks(sizes, chunk_rows, monkeypatch):
    import qautcert.qaut

    monkeypatch.setattr(qautcert.qaut, "_CHUNK_ROWS", chunk_rows)
    assert_rho_forms_agree_matches_reference(BlockSpec(sizes))


@pytest.mark.parametrize("sizes", REFERENCE_PARTITIONS)
def test_shuffle_matches_reference(sizes, monkeypatch):
    import qautcert.qaut

    spec = BlockSpec(sizes)
    pi = pi_images(spec)
    cases = [("real images", pi)] + single_row_mutations(pi)
    assert len(cases) >= 3
    for label, images in cases:
        expected = reference_shuffle(spec, images)
        assert expected["passed"] is (label == "real images"), label
        monkeypatch.setattr(qautcert.qaut, "pi_map", lambda _spec: pi_stack(spec, images))
        assert rearranged_Q_check(spec) == expected, label


def test_shuffle_fails_on_a_projection_with_two_scales(monkeypatch):
    real = BlockEmbedding.phi_table

    def with_corner(self, s, i, j):
        L, q, row, col, exp = real(self, s, i, j)  # entries 1/2 zeta^e at (2,)
        # the corner entry 1 = 1/q rows of q zeta^0 at (0, 1)
        copies = q.denominator // q.numerator
        return (L, q, np.append(row, [0] * copies), np.append(col, [1] * copies),
                np.append(exp, [0] * copies))

    monkeypatch.setattr(BlockEmbedding, "phi_table", with_corner)
    emb = BlockEmbedding(BlockSpec((2,)))
    assert table_terms(4, emb.phi_table(1, 1, 0)).dense().equals(  # the matrix with the corner
        bracket_phi(emb, 1, 1, 0) + Mat.from_entries(4, 4, 1, [0], [1], [0], [1]))
    cert = rearranged_Q_check(BlockSpec((2,)))
    assert cert["passed"] is False
    assert cert["failed_word"] == str(usym(1, 0, 0, 1, 0, 0))


def _reference_conjugated(ft, U):
    """Ad(U) of one image, U = (L, perm, exp) as ``phase_permutation``
    reads it."""
    L, perm, exp = U
    order = math.lcm(ft.order, L)
    return replace(ft, order=order, row=perm[ft.row], col=perm[ft.col],
                   exp=ft.exp * (order // ft.order) + (exp[ft.row] - exp[ft.col]) * (order // L))


def _reference_times(c, ft):
    """c ft for a scalar c = q zeta_L^e, q a positive rational."""
    L, [(q, e)] = monomial_forms([c])
    order = math.lcm(ft.order, L)
    return replace(ft, order=order, prefactors=tuple(q * p for p in ft.prefactors),
                   exp=ft.exp * (order // ft.order) + e * (order // L))


def reference_covariance(spec, pi, rho):
    """``covariance_check`` one generator at a time: for (a)/(b) and (d),
    each generator's image under the substitution against its conjugated
    image, compared with ``formal_equals``."""
    d = spec.d
    z = z_images(spec)
    zperm = {key: phase_permutation(U) for key, U in z.items()}
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    cert = {"partition": list(spec.sizes), "d": d}
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sub = alpha_closure(spec, idx, t)
            for sym in qpres.generators:
                scalar, target = sub(sym)
                if not formal_equals(_reference_times(scalar, pi[target]),
                                     _reference_conjugated(pi[sym], zperm[(idx, t)])):
                    cert.update(passed=False, failure=f"alpha{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                    return cert
    cert["a_b_alpha_cases"] = 4 * spec.m * len(qpres.generators)
    checks = 0
    for t in range(1, spec.m + 1):
        for idx in (1, 2, 3, 4):
            zi = z[(idx, t)]
            power = Mat.identity(d * d)
            for _ in range(spec.sizes[t - 1]):
                power = power @ zi
            assert zi.is_unitary() and power.equals(Mat.identity(d * d))
            checks += 2
        for tau in range(1, spec.m + 1):
            for a, b in [(1, 3), (1, 1), (3, 3), (2, 4), (2, 2), (4, 4)]:
                assert (z[(a, t)] @ z[(b, tau)]).equals(z[(b, tau)] @ z[(a, t)])
                checks += 1
            for conjugator, target, phase_applies in [
                    (2, 1, True), (2, 3, False), (4, 3, True), (4, 1, False)]:
                zc, zt = z[(conjugator, tau)], z[(target, t)]
                n = spec.sizes[tau - 1]
                expected = (zt.scale(root_of_unity(n, n - 1))
                            if phase_applies and tau == t and n > 1 else zt)
                assert (zc @ zt @ zc.adjoint()).equals(expected)
                checks += 1
    cert["c_z_relation_checks"] = checks
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sub = beta_closure(spec, idx, t)
            for sym in upres.generators:
                scalar, target = sub(sym)
                if not formal_equals(_reference_times(scalar, rho[target]),
                                     _reference_conjugated(rho[sym], zperm[(idx, t)])):
                    cert.update(passed=False, failure=f"beta{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                    return cert
    cert["d_beta_cases"] = 4 * spec.m * len(upres.generators)
    r = len(echelon({i * d + j: v for (i, j), v in w.sparse_entries().items()}
                    for w in z_words(spec))[0])
    cert.update(e_span_rank=r * r, e_expected=d ** 4, passed=r * r == d ** 4,
                worst_residual=0.0)
    return cert


def covariance_cases(spec):
    """(label, pi, rho): the real images, then ``single_row_mutations`` of
    pi and of rho."""
    pi, rho = pi_images(spec), rho_images(spec)
    return ([("real images", pi, rho)]
            + [(f"pi: {label}", images, rho) for label, images in single_row_mutations(pi)]
            + [(f"rho: {label}", pi, images) for label, images in single_row_mutations(rho)])


def assert_covariance_matches_reference(spec, monkeypatch):
    import qautcert.qaut

    for label, pi, rho in covariance_cases(spec):
        expected = reference_covariance(spec, pi, rho)
        # with no block of size 1, every edit breaks covariance
        if label == "real images" or 1 not in spec.sizes:
            assert expected["passed"] is (label == "real images"), label
        monkeypatch.setattr(qautcert.qaut, "pi_map", lambda _spec: pi_stack(spec, pi))
        monkeypatch.setattr(qautcert.qaut, "rho_map", lambda _spec: rho_stack(spec, rho))
        assert covariance_check(spec) == expected, label


@pytest.mark.parametrize("sizes", REFERENCE_PARTITIONS)
def test_covariance_matches_reference(sizes, monkeypatch):
    assert_covariance_matches_reference(BlockSpec(sizes), monkeypatch)


def test_covariance_matches_reference_where_phase_and_image_orders_differ():
    """At (3, 2) the images are written at order 6 and the phases of alpha
    on the second block at order 2."""
    spec = BlockSpec((3, 2))
    expected = reference_covariance(spec, pi_images(spec), rho_images(spec))
    assert expected["passed"] and covariance_check(spec) == expected


@pytest.mark.parametrize("sizes", [(2,), (2, 1)])
@pytest.mark.parametrize("chunk_rows", [1, 37])
def test_covariance_matches_reference_over_small_chunks(sizes, chunk_rows, monkeypatch):
    import qautcert.qaut

    monkeypatch.setattr(qautcert.qaut, "_CHUNK_ROWS", chunk_rows)
    assert_covariance_matches_reference(BlockSpec(sizes), monkeypatch)


# -- the z-images, z-words and substitutions against their references ---------

TABLE_PARTITIONS = REFERENCE_PARTITIONS + [(3, 2), (2, 2, 2)]


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_z_tables_are_the_kronecker_matrices(sizes):
    spec = BlockSpec(sizes)
    tables, mats = _z_tables(spec), z_images(spec)
    assert tables.keys() == mats.keys()
    for key, z in tables.items():
        assert mat(z).equals(mats[key]), key
        assert z.equals(PhasePermutation(*phase_permutation(mats[key]))), key


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_z_word_tables_are_the_word_products(sizes):
    spec = BlockSpec(sizes)
    words, mats = _z_words(spec), z_words(spec)
    assert len(words.perm) == len(mats) == spec.d ** 2
    for k, word in enumerate(mats):
        assert mat(words.at(k)).equals(word), k


@pytest.mark.parametrize("sizes", TABLE_PARTITIONS)
def test_substitution_arrays_are_the_closures(sizes):
    spec = BlockSpec(sizes)
    for family, closure, pres in ((alpha, alpha_closure, QautPresentation(spec)),
                                  (beta, beta_closure, SnPresentation(spec))):
        for idx in (1, 2, 3, 4):
            for t in range(1, spec.m + 1):
                sub, ref = family(spec, idx, t), closure(spec, idx, t)
                assert sub.generators == pres.generators
                image = symbolic(sub)
                for g in pres.generators:
                    (phase, target), (ref_phase, ref_target) = image(g), ref(g)
                    assert target == ref_target and phase == ref_phase, (family, idx, t, g)


def reference_z_relation_failure(spec, z):
    """Item (c) of ``covariance_check`` on exact matrices z, as
    (failure, checks): the first failure, or None, and the checks passed."""
    checks = 0
    ident = Mat.identity(spec.d ** 2)
    for t in range(1, spec.m + 1):
        for idx in (1, 2, 3, 4):
            zi = z[(idx, t)]
            if not zi.is_unitary():
                return f"z{idx},{t} not unitary", checks
            power = ident
            for _ in range(spec.sizes[t - 1]):
                power = power @ zi
            if not power.equals(ident):
                return f"z{idx},{t}^n != 1", checks
            checks += 2
        for tau in range(1, spec.m + 1):
            for a, b in [(1, 3), (1, 1), (3, 3), (2, 4), (2, 2), (4, 4)]:
                if not (z[(a, t)] @ z[(b, tau)]).equals(z[(b, tau)] @ z[(a, t)]):
                    return f"[z{a},{t}, z{b},{tau}] != 0", checks
                checks += 1
            for conjugator, target, phase_applies in [
                    (2, 1, True), (2, 3, False), (4, 3, True), (4, 1, False)]:
                zc, zt = z[(conjugator, tau)], z[(target, t)]
                n = spec.sizes[tau - 1]
                expected = (zt.scale(root_of_unity(n, n - 1))
                            if phase_applies and tau == t and n > 1 else zt)
                if not (zc @ zt @ zc.adjoint()).equals(expected):
                    return f"Ad(z{conjugator},{tau})(z{target},{t}) phase", checks
                checks += 1
    return None, checks


def mutated_z(z, edit):
    """The z-images with one table edited:
      * "repeat": column 1 of z1,1 sent where column 0 goes, not unitary;
      * "cycle phase": exponent + 1 at column 0 of z2,1, so z2,1^n != 1;
      * "balanced": exponent + 1 at column 0 of z2,1 and - 1 at the next
        column of its cycle, so z2,1^n = 1 but z2,1 and z4,1 do not commute;
      * "diagonal": exponent + 1 at column 0 of the diagonal z1,1, which
        still commutes with every z it commuted with;
      * "global": z2,1 times zeta_2n, so z2,1^n = -1, with the same Ad."""
    key = (2, 1) if edit in ("cycle phase", "balanced", "global") else (1, 1)
    L, perm, exp = z[key]
    perm, exp = perm.copy(), exp.copy()
    if edit == "global":
        return {**z, key: PhasePermutation(L, perm, exp).scaled(2 * L, 1)}
    if edit == "repeat":
        perm[1] = perm[0]
    else:
        exp[0] += 1
    if edit == "balanced":
        exp[perm[0]] -= 1
    return {**z, key: PhasePermutation(L, perm, exp)}


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (3, 2)])
@pytest.mark.parametrize("edit, failure", [
    (None, None),
    ("repeat", "z1,1 not unitary"),
    ("cycle phase", "z2,1^n != 1"),
    ("balanced", "[z2,1, z4,1] != 0"),
    ("diagonal", "Ad(z2,1)(z1,1) phase"),
    ("global", "z2,1^n != 1"),
])
def test_z_relations_fail_as_the_matrix_reference(sizes, edit, failure, monkeypatch):
    import qautcert.qaut

    spec = BlockSpec(sizes)
    z = _z_tables(spec)
    if edit is not None:
        z = mutated_z(z, edit)
    expected = reference_z_relation_failure(spec, {key: mat(u) for key, u in z.items()})
    assert expected[0] == failure
    assert qautcert.qaut._z_relation_failure(spec, z) == expected
    if edit in (None, "global"):
        # the other edits change Ad(z) too, and (a)/(b) fail first
        monkeypatch.setattr(qautcert.qaut, "_z_tables", lambda _spec: z)
        cert = covariance_check(spec)
        assert cert.get("failure") == failure and cert["passed"] is (edit is None)


# -- automorphism families ----------------------------------------------------

def test_alpha1_has_order_nt():
    spec = BlockSpec((2, 1))
    sub = symbolic(alpha(spec, 1, 1))
    for sym in QautPresentation(spec).generators:
        phase = Cyclotomic.one()
        cur = sym
        for _ in range(spec.sizes[0]):
            p, cur = sub(cur)
            phase = phase * p
        assert cur == sym and phase.is_one()


def test_alpha2_shifts_row_indices():
    sub = symbolic(alpha(BlockSpec((2,)), 2, 1))
    for k in range(2):
        for l in range(2):
            phase, img = sub(qsym(1, 1, 0, 0, k, l))
            assert phase.is_one() and img == qsym(1, 1, 1, 1, k, l)


def test_beta4_shifts_w_down():
    sub = symbolic(beta(BlockSpec((2,)), 4, 1))
    phase, img = sub(usym(1, 0, 1, 1, 1, 1))
    assert phase.is_one() and img == usym(1, 0, 1, 1, 1, 0)


def test_alpha_commutations_on_generators():
    spec = BlockSpec((2, 2))
    for t in (1, 2):
        for tau in (1, 2):
            a1, a3 = symbolic(alpha(spec, 1, t)), symbolic(alpha(spec, 3, tau))
            a2, a4 = symbolic(alpha(spec, 2, t)), symbolic(alpha(spec, 4, tau))
            for sym in QautPresentation(spec).generators:
                p1, s1 = a1(sym)
                p2, s12 = a3(s1)
                q1, t1 = a3(sym)
                q2, t12 = a1(t1)
                assert s12 == t12 and p1 * p2 == q1 * q2
                p1, s1 = a2(sym)
                p2, s12 = a4(s1)
                q1, t1 = a4(sym)
                q2, t12 = a2(t1)
                assert s12 == t12 and p1 * p2 == q1 * q2


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (3, 1, 2)])
def test_numbering_gives_the_generator_order_and_the_substitution_targets(sizes):
    spec, num = BlockSpec(sizes), _numbering(sizes)
    pts = [(s, a, b) for s, n in enumerate(sizes, start=1) for a in range(n) for b in range(n)]
    qs = [qsym(s, r, i, j, k, l) for s, ns in enumerate(sizes, start=1)
          for r, nr in enumerate(sizes, start=1)
          for i, j, k, l in itertools.product(range(ns), range(ns), range(nr), range(nr))]
    us = [usym(*p, *q) for p in pts for q in pts]
    assert [(s + 1, a, b) for s, a, b in num.points.T.tolist()] == pts
    assert num.point_number(*num.points).tolist() == list(range(len(pts)))
    assert [qsym(s + 1, r + 1, *rest) for s, r, *rest in num.q.T.tolist()] == qs
    assert num.q_number(*num.q).tolist() == list(range(len(qs)))
    assert QautPresentation(spec).generators == tuple(qs)
    assert SnPresentation(spec).points == tuple(pts)
    assert SnPresentation(spec).generators == tuple(us)
    for family, closure, gens in ((alpha, alpha_closure, qs), (beta, beta_closure, us)):
        for idx in (1, 2, 3, 4):
            for t in range(1, spec.m + 1):
                sub, ref = family(spec, idx, t), closure(spec, idx, t)
                assert [gens[n] for n in sub.target.tolist()] == [ref(g)[1] for g in gens]


def test_substitutions_preserve_relations():
    # every relation instance maps to a phase multiple of another instance
    # of the same family, for all partitions with N <= 9 exercised here
    for sizes in [(2,), (2, 1), (2, 2), (3,)]:
        spec = BlockSpec(sizes)
        qpres, upres = QautPresentation(spec), SnPresentation(spec)
        for idx in (1, 2, 3, 4):
            for t in range(1, spec.m + 1):
                out = substitution_preserves_relations(spec, alpha(spec, idx, t), qpres)
                assert out["passed"], out
                out = substitution_preserves_relations(spec, beta(spec, idx, t), upres)
                assert out["passed"], out


# -- covariance and trace constants -------------------------------------------

def test_covariance_m2():
    cert = covariance_check(BlockSpec((2,)))
    assert cert["passed"]
    assert cert["e_span_rank"] == 16


def test_covariance_counts_the_generators_it_compares(monkeypatch):
    import qautcert.qaut

    spec = BlockSpec((2, 1))
    G, N2 = len(QautPresentation(spec).generators), spec.N ** 2
    cert = covariance_check(spec)
    assert (cert["a_b_alpha_cases"], cert["d_beta_cases"]) == (4 * spec.m * G, 4 * spec.m * N2)

    def first_half(family):
        def substitution(spec, idx, t):
            sub = family(spec, idx, t)
            half = len(sub.generators) // 2
            return replace(sub, generators=sub.generators[:half], target=sub.target[:half],
                           exp=sub.exp[:half])
        return substitution

    monkeypatch.setattr(qautcert.qaut, "alpha", first_half(alpha))
    monkeypatch.setattr(qautcert.qaut, "beta", first_half(beta))
    cert = covariance_check(spec)
    assert cert["passed"]
    assert (cert["a_b_alpha_cases"], cert["d_beta_cases"]) == (4 * spec.m * (G // 2),
                                                               4 * spec.m * (N2 // 2))


def test_covariance_degenerate_abelian():
    cert = covariance_check(BlockSpec((1, 1)))
    assert cert["passed"] and cert["e_span_rank"] == 1


def reference_span_rank(words):
    """The rank of the d^4 products L x R of the words, one echelon over
    all of them."""
    products = [left.kron(right) for left in words for right in words]
    return len(echelon({i * m.cols + j: v for (i, j), v in m.sparse_entries().items()}
                       for m in products)[0])


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2)])
def test_span_rank_matches_the_rank_of_all_products(sizes):
    spec = BlockSpec(sizes)
    cert = covariance_check(spec)
    assert cert["passed"]
    assert cert["e_span_rank"] == reference_span_rank(z_words(spec)) == spec.d ** 4


@pytest.mark.parametrize("edit", ["repeat", "scale"])
def test_span_rank_falls_short_with_a_dependent_word(monkeypatch, edit):
    import qautcert.qaut

    spec = BlockSpec((2, 1))
    words = z_words(spec)
    L, perm, exp = _z_words(spec)
    perm, exp = perm.copy(), exp.copy()
    words[3], perm[3], exp[3] = words[1], perm[1], exp[1]
    if edit == "scale":
        words[3] = words[1].scale(root_of_unity(4, 1))
        exp, L = exp * (math.lcm(L, 4) // L), math.lcm(L, 4)
        exp[3] += L // 4
    edited = PhasePermutation(L, perm, exp)
    assert all(mat(edited.at(k)).equals(word) for k, word in enumerate(words))
    monkeypatch.setattr(qautcert.qaut, "_z_words", lambda spec: edited)
    cert = covariance_check(spec)
    assert cert["passed"] is False
    assert cert["e_span_rank"] == reference_span_rank(words) == (spec.d ** 2 - 1) ** 2


def test_haar_constants_m2():
    cert = haar_compat_check(BlockSpec((2,)))
    assert cert["passed"] and cert["agreement"]
    rec = cert["records"][0]
    assert rec["substitution_constant"] == "1/2"
    assert set(rec["matches"]) == {"n_s/N", "n_r/N"}


def test_haar_constants_2_1_records_both_candidates():
    cert = haar_compat_check(BlockSpec((2, 1)))
    assert cert["passed"]
    by_class = {tuple(r["class"]): r for r in cert["records"]}
    assert by_class[(1, 2)]["matches"] == ["n_s/N"]
    assert by_class[(2, 1)]["matches"] == ["n_s/N"]
    assert by_class[(1, 2)]["substitution_constant"] == "2/5"
    assert by_class[(2, 1)]["substitution_constant"] == "1/5"
    assert not any(r["discrepancy"] for r in cert["records"])


def _patch_pi(monkeypatch, edit):
    """Make ``qaut.pi_map`` return its images after ``edit(pi)``."""
    import qautcert.qaut

    def edited(spec):
        pi = pi_images(spec)
        edit(pi)
        return pi_stack(spec, pi)

    monkeypatch.setattr(qautcert.qaut, "pi_map", edited)


def _patch_rho(monkeypatch, edit):
    """Make ``qaut.rho_map`` return its images after ``edit(rho)``."""
    import qautcert.qaut

    def edited(spec):
        rho = rho_images(spec)
        edit(rho)
        return rho_stack(spec, rho)

    monkeypatch.setattr(qautcert.qaut, "rho_map", edited)


def _exponent_off_by_one(images, sym):
    """Raise the exponent of the first row of ``images[sym]`` by one."""
    exp = images[sym].exp.copy()
    exp[0] += 1
    images[sym] = replace(images[sym], exp=exp)


def test_pi_exponent_off_by_one_fails_covariance_and_shuffle(monkeypatch):
    spec = BlockSpec((2, 1))
    sym = qsym(1, 1, 0, 0, 0, 0)
    ft = pi_images(spec)[sym]
    assert ft.symbols[ft.sym[0]] == usym(1, 0, 0, 1, 0, 0)
    _patch_pi(monkeypatch, lambda pi: _exponent_off_by_one(pi, sym))
    cert = covariance_check(spec)
    assert cert["passed"] is False
    assert cert["failure"] == f"alpha2,1 vs Ad(z2,1) at {sym}"
    cert = rearranged_Q_check(spec)
    assert cert["passed"] is False
    assert cert["failed_word"] == str(usym(1, 0, 0, 1, 0, 0))


def test_rho_exponent_off_by_one_fails_covariance_and_cross_check(monkeypatch):
    spec = BlockSpec((2, 1))
    sym = usym(1, 0, 0, 1, 0, 0)
    _patch_rho(monkeypatch, lambda rho: _exponent_off_by_one(rho, sym))
    cert = covariance_check(spec)
    assert cert["passed"] is False
    assert cert["failure"] == f"beta1,1 vs Ad(z1,1) at {sym}"
    import qautcert.qaut

    assert rho_forms_agree(spec, qautcert.qaut.rho_map(spec)) is False


def test_haar_reports_non_scalar_substitution(monkeypatch):
    sym = qsym(1, 1, 0, 0, 0, 0)

    def skew(pi):
        ft = pi[sym]
        # one more row at (0, 0) of the first symbol: no longer a multiple of 1
        pi[sym] = replace(ft, sym=np.append(ft.sym, 0), row=np.append(ft.row, 0),
                          col=np.append(ft.col, 0), exp=np.append(ft.exp, 0))

    _patch_pi(monkeypatch, skew)
    cert = haar_compat_check(BlockSpec((2,)))
    assert cert["all_scalar"] is False
    assert cert["passed"] is False
    assert cert["failure"] == f"substitution for {sym} is not scalar"


def test_haar_reports_a_zero_diagonal_entry_as_not_scalar(monkeypatch):
    sym = qsym(1, 1, 0, 0, 0, 0)

    def drop_entry(pi):
        ft = pi[sym]
        keep = (ft.row != 1) | (ft.col != 1)  # entry (1, 1) becomes 0
        pi[sym] = replace(ft, sym=ft.sym[keep], row=ft.row[keep], col=ft.col[keep],
                          exp=ft.exp[keep])

    _patch_pi(monkeypatch, drop_entry)
    cert = haar_compat_check(BlockSpec((2,)))
    assert cert["passed"] is False
    assert cert["failure"] == f"substitution for {sym} is not scalar"


def test_haar_reports_inconsistent_class_constants(monkeypatch):
    sym = qsym(1, 1, 1, 1, 0, 0)  # diagonal generator of class (1,1)

    def double(pi):
        pi[sym] = replace(pi[sym], prefactors=(2 * pi[sym].prefactors[0],))

    _patch_pi(monkeypatch, double)
    cert = haar_compat_check(BlockSpec((2,)))
    assert cert["passed"] is False
    assert cert["failure"] == "inconsistent constants in class (1,1)"


def test_haar_reports_nonzero_off_diagonal_constant(monkeypatch):
    off = qsym(1, 1, 0, 1, 0, 0)

    def copy_diagonal(pi):
        pi[off] = pi[qsym(1, 1, 0, 0, 0, 0)]

    _patch_pi(monkeypatch, copy_diagonal)
    cert = haar_compat_check(BlockSpec((2,)))
    assert cert["passed"] is False
    assert cert["failure"] == f"off-diagonal generator {off} has nonzero constant"


def test_strict_word_mode_reports_without_failing():
    out = strict_word_check(BlockSpec((2,)))
    assert set(out["families"].values()) <= {"verified", "inconclusive"}
    # for this partition the local rewrites settle both quadratic families
    assert out["families"] == {"r1": "verified", "r2": "verified"}
    out = strict_word_check(BlockSpec((2, 1)))
    assert out["families"] == {"r1": "verified", "r2": "verified"}
    out = strict_word_check(BlockSpec((2, 2)))
    assert set(out["families"].values()) == {"skipped_desk_scale"}


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (1, 1, 1), (3,), (2, 2)])
def test_product_words_are_the_reference_r1_r2_instances(sizes):
    from qautcert.relations import _product_words, _qaut_plans

    pres = QautPresentation(BlockSpec(sizes))
    want = [sorted(rel.lhs + [(-c, w) for c, w in rel.rhs]) for rel in relations(pres)
            if rel.family in ("r1", "r2")]
    got = [sorted(words) for plan in _qaut_plans(sizes)[:2]
           for words in _product_words(plan, pres.generators)]
    assert got == want


@pytest.mark.parametrize("sizes, families", [
    ((2,), {"r1": "verified", "r2": "verified"}),
    ((2, 1), {"r1": "verified", "r2": "verified"}),
    ((1, 1), {"r1": "verified", "r2": "verified"}),
    ((2, 2), {"r1": "skipped_desk_scale", "r2": "skipped_desk_scale"}),
])
def test_strict_word_check_families(sizes, families):
    assert strict_word_check(BlockSpec(sizes))["families"] == families


def test_strict_word_check_is_inconclusive_on_a_wrong_image(monkeypatch):
    def copy_diagonal(pi):
        pi[qsym(1, 1, 0, 1, 0, 0)] = pi[qsym(1, 1, 0, 0, 0, 0)]

    _patch_pi(monkeypatch, copy_diagonal)
    for sizes in [(2,), (2, 1)]:
        assert strict_word_check(BlockSpec(sizes))["families"] == {
            "r1": "inconclusive", "r2": "inconclusive"}


def test_homs_battery_2_2_small_sample():
    spec = BlockSpec((2, 2))
    pi = pi_images(spec)
    pres = QautPresentation(spec)
    for perm in block_preserving_permutations(spec, 3, seed=3):
        uasg = permutation_assignment(spec, perm)
        rep = check_relations(assignment(pres, substitute_all(pi, values_of(uasg))))
        assert rep.ok and rep.worst_residual == 0.0


def test_arbitrary_permutations_pass_bare_relation_checks():
    from qautcert.qaut import arbitrary_permutations

    spec = BlockSpec((2, 1))
    pi = pi_images(spec)
    pres = QautPresentation(spec)
    for perm in arbitrary_permutations(spec, 5, seed=9):
        uasg = permutation_assignment(spec, perm)
        rep = check_relations(assignment(pres, substitute_all(pi, values_of(uasg))))
        assert rep.ok


def test_direct_sum_is_matrix_valued_magic_unitary():
    from qautcert.qaut import arbitrary_permutations, direct_sum_assignment

    spec = BlockSpec((2, 1))
    perms = arbitrary_permutations(spec, 2, seed=1)
    dsum = direct_sum_assignment(spec, perms)
    assert dsum.size == 2  # entries live in M_2
    assert check_relations(dsum).ok
    pi = pi_images(spec)
    rep = check_relations(assignment(QautPresentation(spec), substitute_all(pi, values_of(dsum))))
    assert rep.ok and rep.worst_residual == 0.0
