import functools
import itertools
import math
import os
import time
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.algebra import (
    AxiomViolation,
    BlockSpec,
    MonomialMap,
    NotDeltaForm,
    NotFaithful,
    NotSemisimple,
    RecognitionError,
    StructAlgebra,
    associativity_failure,
    center,
    delta_form_check,
    multimatrix,
    recognize_blocks,
    tensor_algebra,
)
from qautcert.arith import Cyclotomic, root_of_unity
from qautcert.cocycle import (
    FinAbGroup,
    fourier_function_algebra,
    spec_cocycle,
    twist_left,
)

from builders import from_terms, function_algebra, group_algebra, serialize, trace_sparse
from mat_reference import echelon, reference_center, reference_delta_form
from sparse_reference import (
    accumulate,
    as_dicts,
    as_stack,
    central_idempotents_cutting_all,
    invol_sparse,
    mul_sparse,
    product,
    sparse_eq,
    sparse_vector,
    star,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
ONE = Cyclotomic.one()
ZERO = Cyclotomic.zero()


def test_multimatrix_abelian_uniform_trace():
    A = multimatrix(BlockSpec((1, 1, 1, 1)))
    for i in range(4):
        assert trace_sparse(A, {i: ONE}.items()) == Cyclotomic.rational(Fraction(1, 4))


def test_multimatrix_m2_trace_is_normalized_trace():
    # psi = (2/4) Tr on M_2, so diagonal units weigh 1/2
    A = multimatrix(BlockSpec((2,)))
    assert trace_sparse(A, {0: ONE}.items()) == Cyclotomic.rational(Fraction(1, 2))
    assert trace_sparse(A, {1: ONE}.items()).is_zero()


def test_multimatrix_2_1_plancherel_weights():
    A = multimatrix(BlockSpec((2, 1)))
    assert trace_sparse(A, {0: ONE}.items()) == Cyclotomic.rational(Fraction(2, 5))
    assert trace_sparse(A, {4: ONE}.items()) == Cyclotomic.rational(Fraction(1, 5))


def test_plancherel_gram_is_diagonal_with_weights():
    # psi(E_ij* E_kl) = delta_ik delta_jl n_r / N, exactly
    spec = BlockSpec((2, 1))
    A = multimatrix(spec)
    weights = [Fraction(2, 5)] * 4 + [Fraction(1, 5)]
    for i in range(A.dim):
        for j in range(A.dim):
            adj = invol_sparse(A, {i: ONE}.items())
            val = trace_sparse(A, mul_sparse(A, adj.items(), {j: ONE}.items()).items())
            expect = Cyclotomic.rational(weights[i]) if i == j else Cyclotomic.zero()
            assert val == expect


def test_delta_form_m2():
    assert delta_form_check(multimatrix(BlockSpec((2,)))) == Cyclotomic.rational(4)


def test_delta_form_abelian():
    assert delta_form_check(multimatrix(BlockSpec((1, 1, 1)))) == Cyclotomic.rational(3)


def test_delta_form_equals_dimension():
    for sizes in [(2,), (2, 1), (2, 2), (3,)]:
        spec = BlockSpec(sizes)
        assert delta_form_check(multimatrix(spec)) == Cyclotomic.rational(spec.N)


def brute_force_mmstar(A, psi):
    # independent float oracle: m m* with explicit Gram matrices, built from
    # numpy tensors of the structure constants
    n = A.dim
    sc = np.zeros((n, n, n), dtype=complex)
    inv = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            for k, c in product(A, i, j):
                sc[i, j, k] = c.to_complex()
        for k, c in star(A, i):
            inv[i, k] = c.to_complex()
    psi = np.array([p.to_complex() for p in psi])
    gram = np.einsum("ip,pjk,k->ij", inv, sc, psi)
    M = sc.reshape(n * n, n).T
    return M @ np.kron(np.linalg.inv(gram), np.linalg.inv(gram)) @ M.conj().T @ gram


def test_single_block_perturbed_state_is_still_a_delta_form():
    # a faithful state Tr(Q .) on one full matrix block always satisfies
    # m m* = Tr(Q^-1) id; the perturbation changes the constant, not scalarity
    A = multimatrix(BlockSpec((2,)))
    psi = [Cyclotomic.rational(q) for q in (Fraction(3, 4), 0, 0, Fraction(1, 4))]
    mm = brute_force_mmstar(A, psi)
    assert np.max(np.abs(mm - mm[0, 0] * np.eye(4))) < 1e-9
    c = delta_form_check(A, psi)
    assert c == Cyclotomic.rational(Fraction(16, 3))  # Tr(Q^-1) = 4/3 + 4, != dim B
    assert abs(mm[0, 0] - 16 / 3) < 1e-9


def test_perturbed_state_across_blocks_is_not_delta_form():
    # unequal per-block constants break scalarity: C + C with weights 3/4, 1/4
    A = function_algebra(2)
    psi = [Cyclotomic.rational(Fraction(3, 4)), Cyclotomic.rational(Fraction(1, 4))]
    mm = brute_force_mmstar(A, psi)
    off = mm - mm[0, 0] * np.eye(2)
    assert np.max(np.abs(off)) > 1e-3  # oracle sees a non-scalar output
    with pytest.raises(NotDeltaForm):
        delta_form_check(A, psi)


def delta_form_outcome(check, A, psi):
    try:
        return check(A, psi)
    except NotDeltaForm:
        return NotDeltaForm


@pytest.mark.parametrize("build, psi", [
    *[pytest.param(functools.partial(multimatrix, BlockSpec(sizes)), None,
                   id=f"multimatrix-{'-'.join(map(str, sizes))}")
      for sizes in [(2,), (2, 1), (1, 1, 1), (3,), (2, 2), (3, 1)]],
    pytest.param(functools.partial(multimatrix, BlockSpec((2,))),
                 (Fraction(3, 4), 0, 0, Fraction(1, 4)), id="m2-perturbed"),
    pytest.param(functools.partial(function_algebra, 2), (Fraction(3, 4), Fraction(1, 4)),
                 id="c2-perturbed"),
    *[pytest.param(lambda sizes=sizes: twist_algebra(sizes), None,
                   id=f"twist-{'-'.join(map(str, sizes))}") for sizes in [(2,), (3,), (2, 1)]],
    pytest.param(lambda: rescaled_m2([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(5)]),
                 None, id="rescaled-m2"),
])
def test_delta_form_matches_the_gram_inverse_reference(build, psi):
    A = build()
    psi = psi and [Cyclotomic.rational(q) for q in psi]
    got = delta_form_outcome(delta_form_check, A, psi)
    assert got == delta_form_outcome(reference_delta_form, A, psi)


def test_delta_form_needs_a_diagonal_gram_matrix():
    # psi(E_11* E_12) = psi(E_12) = 1/4: a faithful state on M_2, but its
    # Gram matrix in the matrix units is not diagonal
    A = multimatrix(BlockSpec((2,)))
    psi = [Cyclotomic.rational(q) for q in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4),
                                            Fraction(1, 2))]
    with pytest.raises(ValueError, match=r"diagonal Gram matrix; psi\(b_0\* b_1\) != 0") as exc:
        delta_form_check(A, psi)
    assert type(exc.value) is ValueError


@pytest.mark.parametrize("weights", [(1, 0), (1, -1)])
def test_delta_form_refuses_a_gram_entry_that_is_not_positive(weights):
    psi = [Cyclotomic.rational(w) for w in weights]
    with pytest.raises(NotFaithful, match=r"psi\(b_1\* b_1\) = .* is not a positive rational"):
        delta_form_check(function_algebra(2), psi)


def test_center_dimensions():
    assert center(multimatrix(BlockSpec((2,)))).rows == 1
    assert center(multimatrix(BlockSpec((2, 1)))).rows == 2
    assert center(function_algebra(5)).rows == 5


def test_recognize_literal_multimatrix():
    assert recognize_blocks(multimatrix(BlockSpec((2, 2)))).sizes == (2, 2)


def test_recognizer_residual_exact_and_forced_float():
    from qautcert.algebra import _recognize_tt

    for sizes in [(2, 1), (3, 1)]:
        exact = recognize_blocks(multimatrix(BlockSpec(sizes)))
        assert exact.method == "exact" and exact.residual == 0.0
    # above dimension 9 tt's entry runs the float recognizer
    res = _recognize_tt(multimatrix(BlockSpec((3, 1))), 0)
    assert res.method == "float"
    assert res.sizes == (1, 3)
    assert 0.0 <= res.residual <= 1e-9


def test_recognize_abelian_function_algebra():
    assert recognize_blocks(function_algebra(4)).sizes == (1, 1, 1, 1)


def test_recognize_untwisted_group_algebra_z2z2():
    # Fourier diagonalization done by the recognizer itself: the center basis
    # is the group basis, and the generic element has rational character values
    from qautcert.cocycle import FinAbGroup

    graded = group_algebra(FinAbGroup((2, 2)))
    res = recognize_blocks(graded.algebra)
    assert res.sizes == (1, 1, 1, 1)
    assert res.method == "exact"


@pytest.mark.parametrize("factors", [(3,), (4,), (5,), (3, 2)])
def test_recognize_group_algebras_with_irrational_characters(factors):
    # the characters take values outside the rationals, where the center
    # splits only over Q(zeta)
    from qautcert.cocycle import FinAbGroup

    res = recognize_blocks(group_algebra(FinAbGroup(factors)).algebra)
    assert res.sizes == (1,) * math.prod(factors)
    assert res.method == "exact"


def square_root_algebra(square):
    """{1, x} with x^2 = square, a nonzero rational, and x* = x for a positive
    square, x* = -x for a negative one."""
    mul = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
           (1, 1): ((0, Cyclotomic.rational(square)),)}
    star = ONE if square > 0 else -ONE
    return from_terms(2, ["1", "x"], mul, [((0, ONE),), ((1, star),)],
                      [ONE, ZERO], [ONE, ZERO])


@pytest.mark.parametrize("square, root", [
    (4, Cyclotomic.rational(2)),
    (Fraction(1, 9), Cyclotomic.rational(Fraction(1, 3))),
    (-1, root_of_unity(4, 1)),
])
def test_recognizer_splits_by_rational_roots(square, root):
    # x^3 = square x, and the idempotents are (1 +- x / root) / 2
    res = recognize_blocks(square_root_algebra(square))
    assert res.sizes == (1, 1) and res.method == "exact"
    half = Cyclotomic.rational(Fraction(1, 2))
    assert res.idempotents.rows == 2
    for sign in (1, -1):
        assert {0: half, 1: half / root * sign} in as_dicts(res.idempotents)


def test_recognizer_refuses_center_not_split_over_cyclotomics():
    # x^2 = 2: 2 has no rational square root, so the idempotents
    # (1 +- x / sqrt 2) / 2 lie outside Q(zeta)
    with pytest.raises(RecognitionError, match="n-th power of a rational"):
        recognize_blocks(square_root_algebra(2))


@pytest.mark.parametrize("rows", [
    [{0: ONE, 1: ONE}, {1: ONE}],  # overlapping supports
    [{0: ONE, 1: Cyclotomic.rational(2)}, {2: ONE}],  # no power returns to the row
])
def test_center_splitter_refuses_rows(rows):
    from qautcert.algebra import _central_idempotents

    with pytest.raises(RecognitionError):
        _central_idempotents(function_algebra(3), as_stack(rows, 3))


def test_recognize_round_trip_all_partitions_up_to_16():
    def partitions_by_square_sum(limit):
        out = []

        def rec(prefix, remaining, max_part):
            if prefix:
                out.append(tuple(prefix))
            for n in range(min(max_part, int(remaining**0.5)), 0, -1):
                if n * n <= remaining:
                    rec(prefix + [n], remaining - n * n, n)

        rec([], limit, limit)
        return {tuple(sorted(p)) for p in out}

    for sizes in sorted(partitions_by_square_sum(16)):
        spec = BlockSpec(sizes)
        res = recognize_blocks(multimatrix(spec))
        assert res.sizes == tuple(sorted(sizes)), sizes
        assert res.method == "exact"


def test_recognize_tensor_amplification():
    T = tensor_algebra(multimatrix(BlockSpec((2,))), 2)
    assert recognize_blocks(T).sizes == (4,)


def test_not_semisimple_detected():
    # 2-dim algebra spanned by 1, x with x^2 = 0: radical is C x
    one = Cyclotomic.one()
    mul = {(0, 0): ((0, one),), (0, 1): ((1, one),), (1, 0): ((1, one),)}
    invol = [((0, one),), ((1, one),)]
    alg = from_terms(2, ["1", "x"], mul, invol, [one, Cyclotomic.zero()],
                     [one, Cyclotomic.zero()])
    with pytest.raises(NotSemisimple):
        recognize_blocks(alg)


def test_axiom_violation_caught_at_construction():
    one = Cyclotomic.one()
    # b1 * b1 = b1 but b1 declared as the unit with b0: unit axiom breaks
    mul = {(0, 0): ((1, one),), (0, 1): ((0, one),), (1, 0): ((0, one),),
           (1, 1): ((1, one),)}
    invol = [((0, one),), ((1, one),)]
    with pytest.raises(AxiomViolation):
        from_terms(2, ["a", "b"], mul, invol, [one, Cyclotomic.zero()],
                   [one, Cyclotomic.zero()])


# -- automorphism checks on monomial maps ---------------------------------------

def weighted_c2(w0, w1):
    """C^2 in the point basis with trace weights w0, w1."""
    mul = {(0, 0): ((0, ONE),), (1, 1): ((1, ONE),)}
    return from_terms(2, ["p", "q"], mul, [((0, ONE),), ((1, ONE),)], [ONE, ONE],
                      [Cyclotomic.rational(w0), Cyclotomic.rational(w1)])


def test_automorphism_failure_unital():
    # b_0 -> b_0, b_1 -> 2 b_1 sends 1 = b_0 + b_1 to b_0 + 2 b_1
    assert function_algebra(2).automorphism_failure(MonomialMap([0, 1], [1, 2])) == "unital"


def test_automorphism_failure_multiplicative():
    # the transpose E_ij -> E_ji of M_2 is unital and antimultiplicative
    M2 = multimatrix(BlockSpec((2,)))
    assert M2.automorphism_failure(MonomialMap([0, 2, 1, 3])) == "multiplicative"


def test_automorphism_failure_star():
    # Ad(diag(1, 2)) on M_2: E_01 -> E_01 / 2, E_10 -> 2 E_10
    M2 = multimatrix(BlockSpec((2,)))
    theta = MonomialMap(range(4), [1, Fraction(1, 2), 2, 1])
    assert M2.automorphism_failure(theta) == "*-compatible"


def test_automorphism_failure_trace():
    # the swap of C^2 with trace weights 1/3, 2/3
    A = weighted_c2(Fraction(1, 3), Fraction(2, 3))
    assert A.automorphism_failure(MonomialMap([1, 0])) == "trace-preserving"
    assert weighted_c2(Fraction(1, 2), Fraction(1, 2)).automorphism_failure(MonomialMap([1, 0])) is None


def test_automorphism_failure_refuses_maps_of_another_basis():
    with pytest.raises(ValueError):
        function_algebra(2).automorphism_failure(MonomialMap([0, 1, 2]))
    with pytest.raises(ValueError):
        function_algebra(2).automorphism_failure(MonomialMap([0, 2]))


def test_monomial_map_rejects_scalars_off_the_roots_of_unity():
    with pytest.raises(AxiomViolation):
        MonomialMap([0, 1], [ONE, Cyclotomic(4, [1, 1])])  # 1 + i
    with pytest.raises(AxiomViolation):
        MonomialMap([0, 1], [ONE, ZERO])
    with pytest.raises(ValueError):
        MonomialMap([0, 1], [ONE])


def sparse_automorphism_failure(A, theta):
    """The column-by-column automorphism check, on sparse vectors."""
    cols = [((theta.k.item(i), theta.scalars[i]),) for i in range(A.dim)]

    def image(terms):
        out = {}
        for i, a in terms:
            accumulate(out, a, cols[i])
        return out

    unit = {i: a for i, a in enumerate(A.unit) if not a.is_zero()}
    if image(unit.items()) != unit:
        return "unital"
    for i in range(A.dim):
        for j in range(A.dim):
            if image(product(A, i, j)) != mul_sparse(A, cols[i], cols[j]):
                return "multiplicative"
    for i in range(A.dim):
        if image(star(A, i)) != invol_sparse(A, cols[i]):
            return "*-compatible"
    for i in range(A.dim):
        if trace_sparse(A, cols[i]) != A.trace[i]:
            return "trace-preserving"
    return None


def test_automorphism_failure_agrees_with_sparse_reference():
    # random monomial maps of three kinds: a permutation with random scalars,
    # one that fixes the support of the unit and moves the rest, and a bare
    # permutation; every outcome must be reached somewhere
    pool = [ONE, -ONE, Cyclotomic.rational(2), Cyclotomic.rational(Fraction(1, 2)),
            root_of_unity(4, 1), root_of_unity(3, 2)]
    algebras = [multimatrix(BlockSpec((2,))), multimatrix(BlockSpec((2, 1))), function_algebra(3),
                fourier_function_algebra(BlockSpec((2,))).algebra,
                fourier_function_algebra(BlockSpec((3,))).algebra,
                weighted_c2(Fraction(1, 3), Fraction(2, 3))]
    rng = np.random.default_rng(7)
    outcomes = set()
    for A in algebras:
        fixed = [not a.is_zero() for a in A.unit]
        free = np.flatnonzero(np.logical_not(fixed))
        for trial in range(45):
            targets = rng.permutation(A.dim)
            scalars = [pool[t] for t in rng.integers(0, len(pool), A.dim)]
            if trial % 3 == 1:
                targets = np.arange(A.dim)
                targets[free] = rng.permutation(free)
                scalars = [ONE if f else c for f, c in zip(fixed, scalars)]
            elif trial % 3 == 2:
                scalars = [ONE] * A.dim
            theta = MonomialMap(targets, scalars)
            failure = A.automorphism_failure(theta)
            assert failure == sparse_automorphism_failure(A, theta), (A.labels, targets, scalars)
            outcomes.add(failure)
    assert outcomes == {"unital", "multiplicative", "*-compatible", "trace-preserving", None}


def golden_text(name):
    with open(os.path.join(GOLDEN, f"{name}.txt")) as fh:
        return fh.read()


def test_serialization_golden_roundtrip():
    assert serialize(multimatrix(BlockSpec((2, 1)))) == golden_text("multimatrix_2_1")


def twist_algebra(sizes):
    """The twisted algebra whose blocks ``twist`` recognizes."""
    spec = BlockSpec(sizes)
    return twist_left(fourier_function_algebra(spec), spec_cocycle(spec))[0]


def _twist_2_2():
    return twist_algebra((2, 2))


@pytest.mark.parametrize("name, build", [
    ("tensor_multimatrix_2_1_by_2", lambda: tensor_algebra(multimatrix(BlockSpec((2, 1))), 2)),
    ("group_algebra_2_3", lambda: group_algebra(FinAbGroup((2, 3))).algebra),
    ("fourier_function_algebra_2_1", lambda: fourier_function_algebra(BlockSpec((2, 1))).algebra),
    ("twist_left_2_2", _twist_2_2),
])
def test_builders_match_golden_text(name, build):
    assert serialize(build()) == golden_text(name)


@pytest.mark.parametrize("label", ["u(0, 1)", ""])
def test_serialize_refuses_labels_it_cannot_read_back(label):
    A = multimatrix(BlockSpec((1, 1)))
    A.labels = ("a", label)
    with pytest.raises(ValueError, match="whitespace"):
        serialize(A)


def test_two_term_product_rejected_at_construction():
    # C^2 in the basis b0 = 1, b1 = e0 + 2 e1: a valid algebra, but
    # b1 b1 = -2 b0 + 3 b1 is not a monomial
    q = Cyclotomic.rational
    mul = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),),
           (1, 1): ((0, q(Fraction(-2))), (1, q(Fraction(3))))}
    with pytest.raises(AxiomViolation, match=r"b_1 b_1 has 2 terms, not one"):
        from_terms(2, ["1", "x"], mul, [((0, ONE),), ((1, ONE),)], [ONE, ZERO],
                   [ONE, q(Fraction(3, 2))])


def _edited_tensor_128(edit):
    """C(X) x M_2 for |X| = 32, dimension 128, rebuilt after
    ``edit(s, star_s, scalars, trace)`` on copies of its arrays.  The edits
    below touch only d_3 x M_2 (basis 12..15), so they break a handful of
    the 2.1M basis triples or 16k pairs, and the check must find those."""
    T = tensor_algebra(function_algebra(32), 2)
    s, star_s, scalars, trace = T.s.copy(), T.star_s.copy(), list(T.scalars), list(T.trace)
    edit(s, star_s, scalars, trace)
    return StructAlgebra(T.dim, T.labels, k=T.k, s=s, scalars=scalars, star_k=T.star_k,
                         star_s=star_s, unit=T.unit, trace=trace)


def test_associativity_checked_on_every_triple_at_dim_128():
    def negate_product(s, star_s, scalars, trace):
        scalars.append(-scalars[s[13, 14]])  # (d3 E01)(d3 E10) = d3 E00
        s[13, 14] = len(scalars) - 1

    with pytest.raises(AxiomViolation, match=r"associativity fails at basis triple \(13,14,13\)"):
        _edited_tensor_128(negate_product)


def test_antimultiplicativity_checked_on_every_pair_at_dim_128():
    def negate_star(s, star_s, scalars, trace):
        scalars.append(-scalars[star_s[12]])  # (d3 E00)* = -d3 E00, still involutive
        star_s[12] = len(scalars) - 1

    with pytest.raises(AxiomViolation, match=r"not antimultiplicative at \(12,12\)"):
        _edited_tensor_128(negate_star)


def test_trace_property_checked_on_every_pair_at_dim_128():
    def trace_off_diagonal(s, star_s, scalars, trace):
        trace[13] = ONE  # tr(d3 E01) = 1

    with pytest.raises(AxiomViolation, match=r"trace is not tracial at \(12,13\)"):
        _edited_tensor_128(trace_off_diagonal)


def reference_axiom_failure(dim, mul, invol, unit, trace):
    """The message verify_axioms raises for these dict-based structure
    constants, or None: every axiom in plain Cyclotomic arithmetic on sparse
    dicts, over every basis triple and pair in lexicographic order."""

    def clean(out):
        return {k: c for k, c in out.items() if not c.is_zero()}

    def times(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in mul.get((i, j), ()):
                    out[k] = out.get(k, ZERO) + a * b * c
        return clean(out)

    def star(u):
        out = {}
        for i, a in u.items():
            for k, c in invol[i]:
                out[k] = out.get(k, ZERO) + a.conjugate() * c
        return clean(out)

    def tr(u):
        return sum((a * trace[k] for k, a in u.items()), ZERO)

    b = [{i: ONE} for i in range(dim)]
    for i, j, l in itertools.product(range(dim), repeat=3):
        if times(times(b[i], b[j]), b[l]) != times(b[i], times(b[j], b[l])):
            return f"associativity fails at basis triple ({i},{j},{l})"
    for i, j in itertools.product(range(dim), repeat=2):
        if star(times(b[i], b[j])) != times(star(b[j]), star(b[i])):
            return f"involution is not antimultiplicative at ({i},{j})"
    for i in range(dim):
        if star(star(b[i])) != b[i]:
            return f"involution is not involutive at basis {i}"
    u = clean(dict(enumerate(unit)))
    for i in range(dim):
        if times(u, b[i]) != b[i]:
            return f"unit fails on the left at basis {i}"
        if times(b[i], u) != b[i]:
            return f"unit fails on the right at basis {i}"
    for i, j in itertools.product(range(dim), repeat=2):
        if tr(times(b[i], b[j])) != tr(times(b[j], b[i])):
            return f"trace is not tracial at ({i},{j})"
    return None


@st.composite
def twisted_group_algebras(draw, edits=("none", "product", "scale", "star", "trace", "unit")):
    """C[Z_a x Z_b] twisted by zeta_L^e(g, h), with e a bilinear cocycle
    plus a random coboundary, u_g* = conj(sigma(-g, g)) u_-g, unit u_0 and
    tr(u_g) = [g = 0]; then sometimes one product, involution image, trace
    value or the unit is changed.  A factor 2**70 takes the rational
    comparisons past int64."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    L = 2 * a * b
    d = math.gcd(a, b)
    els = list(itertools.product(range(a), range(b)))
    index = {g: i for i, g in enumerate(els)}

    def add(g, h):
        return ((g[0] + h[0]) % a, (g[1] + h[1]) % b)

    m = draw(st.integers(0, d - 1))
    f = [0] + [draw(st.integers(0, L - 1)) for _ in els[1:]]

    def sigma(g, h):
        e = (L // d) * m * g[0] * h[1] + f[index[g]] + f[index[h]] - f[index[add(g, h)]]
        return root_of_unity(L, e)

    mul = {(index[g], index[h]): ((index[add(g, h)], sigma(g, h)),)
           for g in els for h in els}
    neg = {g: (-g[0] % a, -g[1] % b) for g in els}
    invol = [((index[neg[g]], sigma(neg[g], g).conjugate()),) for g in els]
    unit = [ONE] + [ZERO] * (len(els) - 1)
    trace = [ONE] + [ZERO] * (len(els) - 1)
    dim = len(els)
    edit = draw(st.sampled_from(edits))
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    phase = root_of_unity(L, draw(st.integers(1, L - 1)))
    if edit == "product":
        ((k, c),) = mul[(i, j)]
        mul[(i, j)] = ((k, c * phase),)
    elif edit == "scale":
        factor = Cyclotomic.rational(draw(st.sampled_from([2, Fraction(1, 3), 2**70])))
        ((k, c),) = mul[(i, j)]
        mul[(i, j)] = ((k, c * factor),)
    elif edit == "star":
        ((k, c),) = invol[i]
        invol[i] = ((k, c * phase),)
    elif edit == "trace":
        trace[i] = phase
    elif edit == "unit":
        unit = [ZERO] * dim
        unit[i] = phase
    return dim, mul, invol, unit, trace


@settings(max_examples=60, deadline=None)
@given(twisted_group_algebras())
def test_verify_axioms_agrees_with_dict_reference(case):
    dim, mul, invol, unit, trace = case
    try:
        from_terms(dim, [f"u{i}" for i in range(dim)], mul, invol, unit, trace)
        got = None
    except AxiomViolation as exc:
        got = str(exc)
    assert got == reference_axiom_failure(dim, mul, invol, unit, trace)


@settings(max_examples=30, deadline=None)
@given(twisted_group_algebras(edits=("none",)))
def test_exact_recognizer_on_twisted_group_algebras(case):
    # the center is spanned by the z central u_g, whose powers return to u_g
    # up to a root of unity; a twisted group algebra of an abelian group has
    # z blocks of one size
    dim, mul, invol, unit, trace = case
    alg = from_terms(dim, [f"u{i}" for i in range(dim)], mul, invol, unit, trace)
    assert as_dicts(center(alg)) == reference_center(alg)
    z = center(alg).rows
    size = math.isqrt(dim // z)
    assert size * size * z == dim
    res = recognize_blocks(alg)
    assert res.method == "exact" and res.sizes == (size,) * z


# -- float recognizer against the dense structure tensor ----------------------

def dense_structure_tensor(A):
    """sc[i, j, k]: the b_k-coefficient of b_i b_j, in complex128."""
    n = A.dim
    sc = np.zeros((n, n, n), dtype=np.complex128)
    i, j = np.nonzero(A.k >= 0)
    values = np.array([c.to_complex() for c in A.scalars], dtype=np.complex128)
    sc[i, j, A.k[i, j]] = values[A.s[i, j]]
    return sc


class DenseProducts:
    """The reference for ``algebra._FloatProducts``: einsums over the dense
    structure tensor."""

    def __init__(self, A):
        self.sc = dense_structure_tensor(A)

    def mul(self, u, v):
        return np.einsum("i,j,ijk->k", u, v, self.sc)

    def left_rows(self, e):
        return np.einsum("i,ijk->kj", e, self.sc)

    def commutator_rows(self):
        sc = self.sc
        n = sc.shape[0]
        rows = np.zeros((n * n, n), dtype=np.complex128)
        for i in range(n):
            rows[i * n:(i + 1) * n, :] = sc[:, i, :].T - sc[i, :, :].T
        return rows

    def commutator_r(self):
        return np.linalg.qr(self.commutator_rows(), mode="r")


def bitwise_equal(a, b):
    """Equal shapes and equal bits, so +0.0 and -0.0 differ."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def tt_algebras(sizes):
    """The double crossed product and the tensor oracle that ``tt`` compares."""
    from qautcert.cli import _tt_group
    from qautcert.crossed import action_from_graded, crossed_product, dual_action

    spec = BlockSpec(sizes)
    action = action_from_graded(fourier_function_algebra(spec), _tt_group(spec))
    double = crossed_product(dual_action(crossed_product(action))).algebra
    return double, tensor_algebra(action.algebra, action.group.order)


FLOAT_CASES = [pytest.param(sizes, which, id=f"tt-{'-'.join(map(str, sizes))}-{which}")
               for sizes in [(2,), (2, 1), (3,)] for which in ("double", "oracle")]
FLOAT_CASES += [pytest.param(sizes, "multimatrix", id=f"multimatrix-{'-'.join(map(str, sizes))}")
                for sizes in [(3, 1), (3, 2)]]


@pytest.fixture(scope="module")
def float_algebras():
    cache = {}

    def build(sizes, which):
        if (sizes, which) not in cache:
            if which == "multimatrix":
                cache[sizes, which] = multimatrix(BlockSpec(sizes))
            else:
                double, oracle = tt_algebras(sizes)
                cache[sizes, "double"], cache[sizes, "oracle"] = double, oracle
        return cache[sizes, which]

    return build


@pytest.mark.parametrize("sizes, which", FLOAT_CASES)
def test_float_products_match_dense_einsums_bit_for_bit(float_algebras, sizes, which):
    from qautcert.algebra import _FloatProducts

    A = float_algebras(sizes, which)
    assert A.dim > 9
    prods, dense = _FloatProducts(A), DenseProducts(A)
    rng = np.random.default_rng(sum(sizes) + A.dim)
    for _ in range(10):
        u, v = rng.standard_normal((2, A.dim)) + 1j * rng.standard_normal((2, A.dim))
        u[rng.random(A.dim) < 0.3] = 0
        v[rng.random(A.dim) < 0.3] = 0
        assert bitwise_equal(prods.mul(u, v), dense.mul(u, v))
    assert bitwise_equal(prods.dense_commutator_rows(), dense.commutator_rows())


@pytest.mark.parametrize("sizes, which", FLOAT_CASES)
def test_float_recognizer_matches_dense_reference_bit_for_bit(float_algebras, monkeypatch,
                                                               sizes, which):
    from qautcert import algebra

    A = float_algebras(sizes, which)
    for seed in (0, 42):
        got = algebra._recognize_tt(A, seed)
        with monkeypatch.context() as patch:
            patch.setattr(algebra, "_FloatProducts", DenseProducts)
            ref = algebra._recognize_tt(A, seed)
        assert got.method == ref.method == "float"
        assert got.sizes == ref.sizes and got.details == ref.details
        assert bitwise_equal(got.residual, ref.residual)
        assert len(got.idempotents) == len(ref.idempotents)
        for e, f in zip(got.idempotents, ref.idempotents):
            assert bitwise_equal(e, f)


def center_from_thin_svd(rows):
    """The reference for ``algebra._center_float``: the nullspace from the
    thin SVD of the whole (n^2, n) system, left factor included."""
    from qautcert.algebra import _FLOAT_EPS

    n = rows.shape[1]
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    tol = _FLOAT_EPS * max(rows.shape) * max(float(s[0]), 1.0)
    return [vh.conj()[i] for i in range(n - int(np.sum(s <= tol)), n)]


def sparse_dependent_system(n, seed):
    """A seeded random sparse complex (n^2, n) system whose last n // 3
    columns are multiples of earlier ones, so its nullspace is nonzero."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n * n, n)) + 1j * rng.standard_normal((n * n, n))
    rows[rng.random((n * n, n)) < 0.9] = 0
    for j in range(n - n // 3, n):
        rows[:, j] = rng.standard_normal() * rows[:, rng.integers(n - n // 3)]
    return rows


@pytest.mark.parametrize("sizes, which", FLOAT_CASES)
def test_float_center_matches_thin_svd_bit_for_bit(float_algebras, sizes, which):
    from qautcert.algebra import _center_float, _FloatProducts

    prods = _FloatProducts(float_algebras(sizes, which))
    ref = center_from_thin_svd(prods.dense_commutator_rows())
    got = _center_float(prods.commutator_r())
    assert len(got) == len(ref) > 0
    assert all(bitwise_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("n", [10, 23, 47, 81])
def test_float_center_matches_thin_svd_on_random_sparse_systems(n):
    from qautcert.algebra import _center_float, _qr_r

    for seed in range(3):
        rows = sparse_dependent_system(n, seed)
        ref = center_from_thin_svd(rows)  # before _qr_r may overwrite rows
        got = _center_float(_qr_r(rows))
        assert len(got) == len(ref) >= n // 3
        assert all(bitwise_equal(a, b) for a, b in zip(got, ref))


@pytest.fixture(scope="module")
def tt_commutator_systems():
    """``tt``'s whole commutator systems at (2,) and (2, 2), both algebras,
    and the compact systems of the two double crossed products; each call
    builds fresh arrays, since the QR factors overwrite them."""
    from qautcert.algebra import _FloatProducts

    prods = [_FloatProducts(A) for sizes in [(2,), (2, 2)] for A in tt_algebras(sizes)]
    return lambda: ([p._one_term_rows() for p in prods[::2]]
                    + [p.dense_commutator_rows() for p in prods])


def test_commutator_rows_are_column_major(tt_commutator_systems):
    for rows in tt_commutator_systems():
        assert rows.flags.f_contiguous and rows.dtype == np.complex128


def test_qr_factor_matches_numpy_bit_for_bit(tt_commutator_systems):
    from qautcert.algebra import _qr_r

    systems = tt_commutator_systems() + [sparse_dependent_system(n, 0) for n in (10, 47)]
    for rows in systems:
        ref = np.linalg.qr(rows.copy(), mode="r")
        assert bitwise_equal(_qr_r(rows), ref)


def test_float_center_factors_the_system_in_place(tt_commutator_systems):
    from qautcert.algebra import _center_float, _qr_r

    rows = tt_commutator_systems()[-1]
    assert rows.shape == (128 * 128, 128)
    tracemalloc.start()
    try:
        _center_float(_qr_r(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * rows.nbytes


def kept_rows(dense):
    """The rows a compact commutator system keeps: the first n and every
    nonzero row below them."""
    n = dense.shape[1]
    return np.concatenate([np.arange(n), n + np.flatnonzero(dense[n:].any(axis=1))])


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2), (2, 1, 1), (3, 2)],
                         ids=lambda p: "-".join(map(str, p)))
def test_one_term_system_factors_like_the_whole_system(float_algebras, sizes):
    from qautcert.algebra import _center_float, _FloatProducts, _qr_r

    prods = _FloatProducts(float_algebras(sizes, "double"))
    n = prods.n
    rows, dense = prods._one_term_rows(), prods.dense_commutator_rows()
    assert rows.flags.f_contiguous and rows.shape[0] < n * n
    assert bitwise_equal(rows, dense[kept_rows(dense)])
    assert bitwise_equal(_qr_r(rows), _qr_r(dense.copy(order="F")))
    got, ref = _center_float(prods.commutator_r()), _center_float(_qr_r(dense))
    assert len(got) == len(ref) > 0
    assert all(bitwise_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (3,)], ids=lambda p: "-".join(map(str, p)))
def test_tensor_oracles_keep_the_whole_system(float_algebras, sizes):
    from qautcert.algebra import _FloatProducts, _qr_r

    prods = _FloatProducts(float_algebras(sizes, "oracle"))
    assert prods._one_term_rows() is None
    assert bitwise_equal(prods.commutator_r(), _qr_r(prods.dense_commutator_rows()))


def relabeled(A, perm):
    """A with basis element i renamed perm[i]."""
    perm = np.asarray(perm)
    k, s = np.empty_like(A.k), np.empty_like(A.s)
    k[np.ix_(perm, perm)] = np.where(A.k >= 0, perm[A.k], -1)
    s[np.ix_(perm, perm)] = A.s
    star_k, star_s = np.empty_like(A.star_k), np.empty_like(A.star_s)
    star_k[perm], star_s[perm] = perm[A.star_k], A.star_s
    moved = np.argsort(perm).tolist()  # moved[new] = old
    return StructAlgebra(A.dim, [A.labels[i] for i in moved], k=k, s=s, scalars=A.scalars,
                         star_k=star_k, star_s=star_s, unit=[A.unit[i] for i in moved],
                         trace=[A.trace[i] for i in moved])


def symmetric_group_algebra():
    """C[S_3], the unit first: a commutator row (g, k) has two terms, k g^-1
    and g^-1 k, where these differ."""
    perms = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(perms)}
    mul = {(index[g], index[h]): ((index[tuple(g[x] for x in h)], ONE),)
           for g in perms for h in perms}
    invol = [((index[tuple(sorted(range(3), key=g.__getitem__))], ONE),) for g in perms]
    first = [ONE] + [ZERO] * 5
    return from_terms(6, [str(g) for g in perms], mul, invol, first, first)


def test_other_systems_fall_back_to_the_whole_system(float_algebras):
    from qautcert.algebra import _FloatProducts, _qr_r

    double = float_algebras((2,), "double")
    t = min(set(range(double.dim)) - set(center(double).col.tolist()))
    swap = np.arange(double.dim)
    swap[[0, t]] = t, 0  # b_0 is not central now
    for A, first_rows_zero, terms in [(relabeled(double, swap), False, 1),
                                      (symmetric_group_algebra(), True, 2)]:
        prods = _FloatProducts(A)
        dense = prods.dense_commutator_rows()
        assert (not dense[:A.dim].any()) == first_rows_zero
        assert (dense != 0).sum(axis=1).max() == terms
        assert prods._one_term_rows() is None
        assert bitwise_equal(prods.commutator_r(), _qr_r(dense))


def test_float_center_cutoff_counts_every_equation():
    # n zero rows, then one row per column: singular values 1 and 5e-8, which
    # lies under 1e-9 * n^2 but above 1e-9 times the 2n rows stored
    from qautcert.algebra import _center_float, _one_term_r

    n = 10
    rows = np.zeros((2 * n, n), dtype=np.complex128, order="F")
    rows[n:] = np.diag([1.0] * (n - 1) + [5e-8])
    whole = np.zeros((n * n, n), dtype=np.complex128, order="F")
    whole[:2 * n] = rows
    got, ref = _center_float(_one_term_r(rows)), center_from_thin_svd(whole)
    assert len(got) == len(ref) == 1
    assert bitwise_equal(got[0], ref[0])


def test_one_term_system_allocates_a_fraction_of_the_whole(float_algebras):
    from qautcert.algebra import _FloatProducts

    prods = _FloatProducts(float_algebras((2, 2), "double"))
    tracemalloc.start()
    try:
        r = prods.commutator_r()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.shape == (128, 128) and prods._one_term_rows().shape == (3968, 128)
    assert peak < 128 ** 3 * 16 / 3


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2), (2, 1, 1), (3, 1), (3, 2),
                                   (2, 2, 2)], ids=lambda p: "-".join(map(str, p)))
def test_one_term_r_is_the_qr_factor_bit_for_bit(float_algebras, sizes):
    from qautcert.algebra import _FloatProducts, _one_term_r, _qr_r

    prods = _FloatProducts(float_algebras(sizes, "double"))
    rows = prods._one_term_rows()
    r = _one_term_r(rows.copy(order="F"))
    assert not (r - np.diag(np.diag(r))).any()
    assert bitwise_equal(r, _qr_r(rows))
    assert bitwise_equal(r, _qr_r(prods.dense_commutator_rows()))


def test_double_crossed_products_never_call_the_whole_qr(float_algebras, monkeypatch):
    from qautcert import algebra

    def refuse(a):
        raise AssertionError("_qr_r called")

    monkeypatch.setattr(algebra, "_qr_r", refuse)
    for sizes in [(2,), (2, 1), (3,)]:
        assert algebra._recognize_tt(float_algebras(sizes, "double"), 0).method == "float"
        with pytest.raises(AssertionError, match="_qr_r called"):
            algebra._recognize_tt(float_algebras(sizes, "oracle"), 0)


def test_idempotent_check_rejects_a_failed_square_or_sum():
    # orthogonality follows from these two checks, so it is not tested apart:
    # a pair that is not orthogonal, like the unit and a block idempotent,
    # fails the sum
    from qautcert.algebra import _verify_idempotents_exact

    A = multimatrix(BlockSpec((2, 1)))
    idems, unit = as_dicts(recognize_blocks(A).idempotents), sparse_vector(A.unit)

    def verify(elements):
        _verify_idempotents_exact(A, as_stack(elements, A.dim), as_stack([unit], A.dim))

    verify(idems)
    doubled = [{k: 2 * c for k, c in idems[0].items()}] + idems[1:]
    with pytest.raises(RecognitionError, match=r"fails e\^2 = e"):
        verify(doubled)
    for wrong in (idems[:-1], idems + [idems[0]], [unit, idems[0]]):
        with pytest.raises(RecognitionError, match="do not sum to the unit"):
            verify(wrong)


# -- block sizes from regular traces ------------------------------------------

def svd_rank(M):
    """rank M as the float recognizer counted it before it read block sizes
    off regular traces: singular values above 1e-6 of the largest."""
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > 1e-6 * max(float(s[0]), 1.0)))


def echelon_rank(A, e):
    """rank L_e from the echelon form of its columns e b_j, as the exact
    recognizer counted it before it read block sizes off regular traces."""
    return len(echelon(mul_sparse(A, e.items(), ((j, ONE),)) for j in range(A.dim))[0])


def block_sizes(ranks):
    roots = sorted(math.isqrt(r) for r in ranks)
    assert [d * d for d in roots] == sorted(ranks)
    return tuple(roots)


@pytest.mark.parametrize("sizes", [(2,), (2, 1), (2, 2), (3,)], ids=lambda p: "-".join(map(str, p)))
@pytest.mark.parametrize("which", ["double", "oracle"])
def test_float_trace_sizes_equal_the_svd_rank_of_left_multiplication(float_algebras, sizes,
                                                                      which):
    from qautcert.algebra import _recognize_tt, _regular_traces

    A = float_algebras(sizes, which)
    traces = np.zeros(A.dim, dtype=np.complex128)
    for k, t in as_dicts(_regular_traces(A))[0].items():
        traces[k] = t.to_complex()
    dense = DenseProducts(A)
    res = _recognize_tt(A, 42)
    assert res.method == "float"
    ranks = []
    for e in res.idempotents:
        left = dense.left_rows(e)
        tr = complex(e @ traces)
        assert abs(tr - np.trace(left)) < 1e-9 * A.dim
        ranks.append(svd_rank(left))
        assert abs(tr - ranks[-1]) < 1e-9 * A.dim
    assert res.sizes == block_sizes(ranks)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: multimatrix(BlockSpec((2, 1))), id="multimatrix-2-1"),
    pytest.param(lambda: function_algebra(32), id="function-algebra-32"),
    *[pytest.param(functools.partial(twist_algebra, sizes), id=f"twist-{'-'.join(map(str, sizes))}")
      for sizes in [(2,), (3,), (2, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]],
])
def test_exact_trace_sizes_equal_the_echelon_rank(build):
    from qautcert.algebra import _regular_traces

    A = build()
    (traces,) = as_dicts(_regular_traces(A))
    res = recognize_blocks(A)
    # the same idempotents, in the same order, as the dict reference
    assert as_dicts(res.idempotents) == central_idempotents_cutting_all(A, as_dicts(center(A)))
    ranks = []
    for e in as_dicts(res.idempotents):
        tr = sum((e[k] * t for k, t in traces.items() if k in e), ZERO)
        ranks.append(echelon_rank(A, e))
        assert tr == Cyclotomic.rational(ranks[-1])
    assert res.sizes == block_sizes(ranks)


def edit_float_idempotents(monkeypatch, edit):
    """Have the float splitter hand the recognizer edit(idempotents)."""
    from qautcert import algebra

    split = algebra._idempotents_from_generic_float

    def edited(mul, unit, cen, z):
        idems, worst = split(mul, unit, cen, z)
        return edit(idems, unit), worst

    monkeypatch.setattr(algebra, "_idempotents_from_generic_float", edited)


def edit_exact_idempotents(monkeypatch, edit):
    """Have the exact splitter hand the recognizer edit(idempotents)."""
    from qautcert import algebra

    split = algebra._central_idempotents
    monkeypatch.setattr(algebra, "_central_idempotents", lambda A, cen: as_stack(
        edit(as_dicts(split(A, cen)), sparse_vector(A.unit)), A.dim))


def test_float_idempotent_off_an_integer_trace_is_a_failed_split(monkeypatch):
    # e + 1e-3 * 1 has regular trace Tr(L_e) + 1e-3 * dim, off every integer
    from qautcert.algebra import _recognize_float

    edit_float_idempotents(monkeypatch, lambda idems, unit: [idems[0] + 1e-3 * unit] + idems[1:])
    with pytest.raises(RecognitionError, match="float center splitting failed: regular trace "
                                               r"of an idempotent is \(.*\), not an integer"):
        _recognize_float(multimatrix(BlockSpec((3, 1))), 0)


def test_exact_idempotent_off_an_integer_trace_is_refused(monkeypatch):
    # e + 1/3 has regular trace Tr(L_e) + 5/3 in the 5-dimensional M_2 + C
    third = Cyclotomic.rational(Fraction(1, 3))

    def perturb(idems, unit):
        e = dict(idems[0])
        accumulate(e, third, unit.items())
        return [e] + idems[1:]

    edit_exact_idempotents(monkeypatch, perturb)
    with pytest.raises(RecognitionError, match="regular trace of an idempotent is .*, "
                                               "not an integer"):
        recognize_blocks(multimatrix(BlockSpec((2, 1))))


def test_float_zero_idempotent_is_a_failed_split(monkeypatch):
    from qautcert.algebra import _recognize_float

    edit_float_idempotents(monkeypatch, lambda idems, unit: idems + [0 * unit])
    with pytest.raises(RecognitionError, match="float center splitting failed: idempotent "
                                               "of regular trace 0: a block of size 0"):
        _recognize_float(multimatrix(BlockSpec((3, 1))), 0)


def test_exact_zero_idempotent_is_refused(monkeypatch):
    edit_exact_idempotents(monkeypatch, lambda idems, unit: idems + [{}])
    with pytest.raises(RecognitionError, match="idempotent of regular trace 0: a block of "
                                               "size 0"):
        recognize_blocks(multimatrix(BlockSpec((2, 1))))


def run_tt(sizes):
    from qautcert.cli import SuiteConfig, run

    return run(SuiteConfig(partition=sizes, suites=("tt",), seed=42))["suites"]["tt"]


def test_tt_passes_at_2_2_2_1_with_the_exact_blocks():
    # the SVD rank of L_e counted two valid splits of the oracle as
    # non-square here, and the retries ended in "idempotent residual too large"
    frag = run_tt((2, 2, 2, 1))
    assert frag["passed"], frag
    assert frag["recognizer_methods"] == ["float", "float"]
    for A, blocks in zip(tt_algebras((2, 2, 2, 1)),
                         (frag["double_crossed_blocks"], frag["tensor_oracle_blocks"])):
        assert blocks == list(recognize_blocks(A).sizes) == [4] * 13


def test_twist_recognizes_exactly_above_dimension_9():
    from qautcert.cocycle import verify_twist_theorem

    cert = verify_twist_theorem(BlockSpec((4,)))  # the twisted algebra has dimension 16
    assert cert["passed"] and cert["recognized_blocks"] == [4]
    assert cert["recognizer_method"] == "exact" and cert["worst_residual"] == 0.0


def test_tt_falls_back_to_the_exact_recognizer_when_the_float_split_fails(monkeypatch):
    from qautcert import algebra

    def fail(A, seed):
        raise RecognitionError("float center splitting failed")

    monkeypatch.setattr(algebra, "_recognize_float", fail)
    frag = run_tt((2,))
    assert frag["passed"], frag
    assert frag["recognizer_methods"] == ["exact", "exact"] and frag["worst_residual"] == 0.0


@pytest.mark.parametrize("sizes, methods", [((3, 2, 1), ["exact", "float"]),
                                            ((4,), ["exact", "exact"])],
                         ids=["3-2-1", "4"])
def test_tt_passes_where_the_float_split_fails(sizes, methods):
    # the float split fails on the double crossed product at (3,2,1) and on
    # both algebras at (4,); those are recognized exactly
    frag = run_tt(sizes)
    assert frag["passed"], frag
    assert frag["recognizer_methods"] == methods


# -- the exact recognizer on the monomial arrays ------------------------------

TT_CENTER_SIZES = [(2,), (3,), (2, 2), (3, 2, 1), (2, 2, 2, 2)]


@pytest.mark.parametrize("which", [0, 1], ids=["double", "oracle"])
@pytest.mark.parametrize("sizes", TT_CENTER_SIZES, ids=lambda p: "-".join(map(str, p)))
def test_center_of_tt_algebras_matches_the_reduced_echelon_rows(sizes, which):
    A = tt_algebras(sizes)[which]
    assert as_dicts(center(A)) == reference_center(A)


def rescaled_m2(lam):
    """M_2 in the basis b_ij = lam[ij] E_ij, lam positive rationals: then
    b_ij b_jl = (lam_ij lam_jl / lam_il) b_il and b_ij* = (lam_ij / lam_ji) b_ji."""
    q = Cyclotomic.rational
    mul = {(2 * i + j, 2 * j + l):
           ((2 * i + l, q(lam[2 * i + j] * lam[2 * j + l] / lam[2 * i + l])),)
           for i in range(2) for j in range(2) for l in range(2)}
    invol = [((2 * j + i, q(lam[2 * i + j] / lam[2 * j + i])),) for i in range(2) for j in range(2)]
    unit = [q(1 / lam[0]), ZERO, ZERO, q(1 / lam[3])]
    trace = [q(lam[0] / 2), ZERO, ZERO, q(lam[3] / 2)]
    return from_terms(4, ["b11", "b12", "b21", "b22"], mul, invol, unit, trace)


@pytest.mark.parametrize("lam", [(1, 2, 1, 3), (Fraction(1, 2), 5, Fraction(2, 7), 4)])
def test_center_carries_rational_ratios_along_its_links(lam):
    # the center is spanned by E_11 + E_22 = b_11 / lam_11 + b_22 / lam_22
    A = rescaled_m2([Fraction(x) for x in lam])
    q = Cyclotomic.rational
    assert as_dicts(center(A)) == reference_center(A) == [{0: ONE, 3: q(Fraction(lam[0]) / lam[3])}]
    assert recognize_blocks(A).sizes == (2,)


def test_recognizer_refuses_products_not_injective_along_a_row():
    # C^2 in the basis {1, e} with e^2 = e is a *-algebra, but b_e b_1 and
    # b_e b_e are both b_e, so a commutator row has more than two terms
    mul = {(0, 0): ((0, ONE),), (0, 1): ((1, ONE),), (1, 0): ((1, ONE),), (1, 1): ((1, ONE),)}
    alg = from_terms(2, ["1", "e"], mul, [((0, ONE),), ((1, ONE),)],
                     [ONE, ZERO], [ONE, ZERO])
    with pytest.raises(RecognitionError, match="products not injective along a row/column"):
        recognize_blocks(alg)


def test_recognizer_refuses_a_trace_form_off_a_permutation_pattern(monkeypatch):
    # with both basis traces nonzero, each row of the form of C[Z_2] has two nonzeros
    from qautcert import algebra

    monkeypatch.setattr(algebra, "_regular_traces",
                        lambda A: as_stack([{k: ONE for k in range(A.dim)}], A.dim))
    with pytest.raises(RecognitionError, match="trace form of the regular representation is "
                                               "not monomial"):
        recognize_blocks(group_algebra(FinAbGroup((2,))).algebra)


S3 = list(itertools.permutations(range(3)))


@st.composite
def monomial_tables(draw):
    """The arrays ``center`` reads, for products b_p b_q = c_pq b_(p q) over
    S_3, associative or not: c_pq = 1 where p and q commute, so no row
    forces a zero there, and elsewhere a drawn root of unity times 1, 2 or
    1/3, so the ratios around a conjugacy class may disagree.  Some
    products are zero, and some tables repeat a target in a row or a
    column only."""
    from qautcert.algebra import _monomial_arrays

    n = len(S3)
    k = np.array([[S3.index(tuple(p[i] for i in q)) for q in S3] for p in S3])
    scalars = []
    for p in range(n):
        for q in range(n):
            c = ONE
            if k[p, q] != k[q, p] and draw(st.booleans()):
                c = (Cyclotomic.rational(draw(st.sampled_from([1, 2, Fraction(1, 3)])))
                     * root_of_unity(4, draw(st.integers(0, 3))))
            scalars.append(c)
    for p, q in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        k[p, q] = -1
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        k[k[:, 1] == k[row, 0], 1] = -1  # b_row b_1 = b_row b_0, the only repeat
        k[row, 1] = k[row, 0]
        k = k.T if draw(st.booleans()) else k
    L, exp, num, den = _monomial_arrays(scalars)
    return types.SimpleNamespace(dim=n, k=k, s=np.arange(n * n).reshape(n, n), scalars=scalars,
                                 L=L, exp=exp, num=num, den=den)


@settings(max_examples=80, deadline=None)
@given(monomial_tables())
def test_center_matches_the_elimination_on_monomial_tables(table):
    k = table.k
    if any(len(set(r[r >= 0].tolist())) < np.count_nonzero(r >= 0) for r in (*k, *k.T)):
        with pytest.raises(RecognitionError, match="not injective"):
            center(table)
    else:
        assert as_dicts(center(table)) == reference_center(table)


@pytest.mark.parametrize("sizes", [(4,), (2, 2, 2, 2), (3, 2, 1), (2,) + (1,) * 12],
                         ids=lambda p: "-".join(map(str, p)))
def test_exact_recognizer_agrees_where_the_float_one_fails(sizes):
    # tt's float recognizer fails at these partitions; the exact one gives
    # the double crossed product the blocks of its oracle, in under 1 s of
    # CPU each
    blocks = []
    for A in tt_algebras(sizes):
        start = time.process_time()
        blocks.append(recognize_blocks(A).sizes)
        assert time.process_time() - start < 1.0
    assert blocks[0] == blocks[1]

def test_exact_recognizer_at_trivial_group_6():
    # tt acts by the trivial group at (6,): both algebras are C(X) with
    # |X| = 36, and each recognizes as 36 blocks of size 1
    from qautcert.cli import _tt_group

    assert _tt_group(BlockSpec((6,))).order == 1
    for A in tt_algebras((6,)):
        assert A.dim == 36
        assert recognize_blocks(A).sizes == (1,) * 36


# -- exact splitter against cutting every idempotent ----------------------------

@settings(max_examples=30, deadline=None)
@given(twisted_group_algebras(edits=("none",)))
def test_central_idempotents_match_cutting_every_idempotent(case):
    from qautcert.algebra import _central_idempotents

    dim, mul, invol, unit, trace = case
    alg = from_terms(dim, [f"u{i}" for i in range(dim)], mul, invol, unit, trace)
    cen = center(alg)
    assert as_dicts(cen) == reference_center(alg)
    assert as_dicts(_central_idempotents(alg, cen)) == central_idempotents_cutting_all(
        alg, as_dicts(cen))


@st.composite
def elements(draw, dim):
    """A dict element: at each of a few basis indices, a sum of one or two
    rationals, some past int64, times roots of unity of orders 1 to 6."""
    out = {}
    for k in draw(st.lists(st.integers(0, dim - 1), max_size=dim, unique=True)):
        c = ZERO
        for _ in range(draw(st.integers(1, 2))):
            q = Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from([1, 2, 3, 2**70])))
            c = c + Cyclotomic.rational(q) * root_of_unity(draw(st.integers(1, 6)),
                                                           draw(st.integers(0, 5)))
        if not c.is_zero():
            out[k] = c
    return out


@settings(max_examples=40, deadline=None)
@given(twisted_group_algebras(edits=("none",)), st.data())
def test_element_stacks_agree_with_the_dict_reference(case, data):
    # the row-wise product (row by row, and with a one-row right factor
    # broadcast), the involution, row-wise equality and the center
    from qautcert.algebra import _rows_equal

    dim, mul, invol, unit, trace = case
    alg = from_terms(dim, [f"u{i}" for i in range(dim)], mul, invol, unit, trace)
    xs = data.draw(st.lists(elements(dim), min_size=1, max_size=4))
    ys = [data.draw(st.one_of(st.just(x), elements(dim))) for x in xs]
    x, y = as_stack(xs, dim), as_stack(ys, dim)
    assert as_dicts(alg.mul(x, y)) == [mul_sparse(alg, u.items(), v.items())
                                       for u, v in zip(xs, ys)]
    assert as_dicts(alg.mul(x, as_stack(ys[:1], dim))) == [
        mul_sparse(alg, u.items(), ys[0].items()) for u in xs]
    assert as_dicts(alg.adjoint(x)) == [invol_sparse(alg, u.items()) for u in xs]
    assert _rows_equal(x, y).tolist() == [sparse_eq(u, v) for u, v in zip(xs, ys)]
    assert _rows_equal(x.reduced(), x).all()
    assert as_dicts(center(alg)) == reference_center(alg)


# -- Light's associativity test against the lexicographic scan ---------------

def lexicographic_first_triple(k, e, L, num, den):
    """First (i, j, l) with (b_i b_j) b_l != b_i (b_j b_l), scanning every
    triple one row i at a time: the check Light's test replaces."""
    for i in range(k.shape[0]):
        ki = k[i]
        left_k = np.where(ki[:, None] >= 0, k[ki], -1)
        right_k = np.where(k >= 0, ki[k], -1)
        left = (e[i][:, None] + e[ki], num[i][:, None] * num[ki], den[i][:, None] * den[ki])
        right = (e + e[i][k], num * num[i][k], den * den[i][k])
        bad = (left_k != right_k) | ((left_k >= 0) & (((left[0] - right[0]) % L != 0)
                                                     | (left[1] * right[2] != right[1] * left[2])))
        if bad.any():
            return (i, *np.argwhere(bad)[0].tolist())
    return None


@functools.lru_cache(maxsize=None)
def tt_structures(sizes):
    """Every algebra ``tt`` builds at a partition: C(X), its crossed
    product, the double crossed product and the tensor oracle."""
    from qautcert.cli import _tt_group
    from qautcert.crossed import action_from_graded, crossed_product, dual_action

    spec = BlockSpec(sizes)
    action = action_from_graded(fourier_function_algebra(spec), _tt_group(spec))
    cp = crossed_product(action)
    return (action.algebra, cp.algebra, crossed_product(dual_action(cp)).algebra,
            tensor_algebra(action.algebra, action.group.order))


TT_STRUCTURES = [(sizes, which) for sizes in [(2,), (2, 2)] for which in range(4)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(TT_STRUCTURES), st.sampled_from(["exponent", "target", "rational"]),
       st.data())
def test_light_test_agrees_with_the_lexicographic_scan(structure, edit, data):
    A = tt_structures(structure[0])[structure[1]]
    k, e = A.k.copy(), A.exp[A.s]
    num, den = A.num[A.s].astype(object), A.den[A.s].astype(object)
    # a scalar is edited where the product is not zero, a target anywhere
    live = np.argwhere(A.k >= 0).tolist() if edit != "target" else None
    i, j = (data.draw(st.sampled_from(live)) if live
            else [data.draw(st.integers(0, A.dim - 1)) for _ in range(2)])
    if edit == "exponent":
        e[i, j] = (e[i, j] + data.draw(st.integers(1, A.L - 1))) % A.L
    elif edit == "target":
        k[i, j] = data.draw(st.integers(-1, A.dim - 1).filter(lambda t: t != k[i, j]))
    else:
        num[i, j] *= data.draw(st.sampled_from([2, 3, 2**70]))
    expected = lexicographic_first_triple(k, e, A.L, num, den)
    assert associativity_failure(k, e, A.L, num, den) == expected
    if edit != "rational":
        assert (num == 1).all() and (den == 1).all()
        assert associativity_failure(k, e, A.L) == expected  # exponents alone


def words_reach(k, gens):
    """The basis elements that left-normed words in ``gens`` reach, with
    nonzero coefficient, by plain set closure."""
    reached = set(gens)
    while True:
        more = {k.item(t, g) for t in reached for g in gens} - {-1} - reached
        if not more:
            return reached
        reached |= more


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_generators_reach_every_basis_element(rows):
    from qautcert.algebra import _generators

    k = np.array(rows, dtype=np.int64)
    gens = _generators(k).tolist()
    assert words_reach(k, gens) == set(range(len(k)))
    # an index is a generator exactly when the generators before it miss it
    for t in range(len(k)):
        assert (t in gens) == (t not in words_reach(k, [g for g in gens if g < t]))


@pytest.mark.parametrize("structure", TT_STRUCTURES)
def test_generators_of_tt_structures_reach_every_basis_element(structure):
    from qautcert.algebra import _generators

    A = tt_structures(structure[0])[structure[1]]
    gens = _generators(A.k).tolist()
    assert words_reach(A.k, gens) == set(range(A.dim))
    assert len(gens) < A.dim or A.dim == 1


def test_function_algebra_where_every_element_is_a_generator():
    from qautcert.algebra import _generators

    A = function_algebra(32)  # verify_axioms runs at construction
    assert _generators(A.k).tolist() == list(range(32))


def dict_form(A):
    """(dim, mul, invol, unit, trace) of an algebra, as the text form has them."""
    mul = {(i, j): product(A, i, j) for i, j in np.argwhere(A.k >= 0).tolist()}
    return A.dim, mul, [star(A, i) for i in range(A.dim)], list(A.unit), list(A.trace)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1), (1, 1, 1), (2, 2)]), st.data())
def test_unit_check_agrees_with_dict_reference(sizes, data):
    # units of several terms, some cancelling against a second term that
    # reaches the same target
    dim, mul, invol, unit, trace = dict_form(multimatrix(BlockSpec(sizes)))
    pool = [ZERO, ONE, -ONE, Cyclotomic.rational(2), root_of_unity(4, 1)]
    for i in data.draw(st.lists(st.integers(0, dim - 1), max_size=3)):
        unit[i] = data.draw(st.sampled_from(pool))
    try:
        from_terms(dim, [f"b{i}" for i in range(dim)], mul, invol, unit, trace)
        got = None
    except AxiomViolation as exc:
        got = str(exc)
    assert got == reference_axiom_failure(dim, mul, invol, unit, trace)


@pytest.mark.parametrize("u, expected", [
    ([Cyclotomic.rational(2), -ONE], [True, False]),  # 2 b_0 - b_0 = b_0 in column 0
    ([ONE, ONE], [False, False]),
    ([ONE, -ONE], [False, False]),  # the terms of column 0 cancel
    ([ONE], [True, True]),
    ([], [False, False]),
])
def test_unit_terms_at_one_target_are_added(u, expected):
    from qautcert.algebra import _basis, _rows_equal, _take

    # term t times b_i lands on b_K[t, i]: both terms on b_0 in column 0
    K = np.array([[0, 1], [0, 0]])
    table = types.SimpleNamespace(dim=2, k=K, s=np.zeros_like(K), L=2, exp=np.zeros(1, dtype=int),
                                  num=np.ones(1, dtype=int), den=np.ones(1, dtype=int))
    unit = as_stack([{t: c for t, c in enumerate(u) if not c.is_zero()}], 2)
    left = StructAlgebra.mul(table, _take(unit, [0, 0]), _basis(2))
    assert _rows_equal(left, _basis(2)).tolist() == expected
