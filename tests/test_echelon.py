"""The tests' exact sparse Gaussian elimination, `mat_reference.echelon`, and
what is read off it: kernels, inverses, ranks and Sylvester's positivity
criterion."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qautcert
from qautcert.algebra import NotFaithful
from qautcert.arith import Cyclotomic, euler_phi, root_of_unity

from mat_reference import echelon, kernel, positive_definite_inverse
from sparse_reference import accumulate

ORDERS = (1, 3, 4, 8)
SINGULAR = "Gram matrix singular or not positive definite"
ZERO = Cyclotomic.zero()
ONE = Cyclotomic.one()


def entries(order, exponents=None):
    """Cyclotomics of the given order with coefficients in [-2, 2], on the
    given powers of zeta only (all of them by default)."""
    exponents = range(euler_phi(order)) if exponents is None else exponents

    def build(cs):
        coeffs = [0] * euler_phi(order)
        for t, c in zip(exponents, cs):
            coeffs[t] = c
        return Cyclotomic(order, coeffs)

    n = len(exponents)
    return st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(build)


@st.composite
def sparse_matrices(draw):
    """(rows, ncols): up to 4 x 4, about half the entries zero, sometimes
    with a last row that is a combination of two others."""
    order = draw(st.sampled_from(ORDERS))
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            c = draw(entries(order))
            if draw(st.booleans()) and not c.is_zero():
                row[j] = c
        rows.append(row)
    if nrows > 2 and draw(st.booleans()):
        combo = dict(rows[0])
        accumulate(combo, draw(entries(order)), rows[1].items())
        rows[-1] = combo
    return rows, ncols


def product(X, Y):
    """Sparse rows of X Y."""
    out = []
    for row in X:
        acc: dict = {}
        for k, a in row.items():
            accumulate(acc, a, Y[k].items())
        out.append(acc)
    return out


def to_numpy(rows, ncols):
    return np.array([[row.get(j, ZERO).to_complex() for j in range(ncols)]
                     for row in rows])


@settings(max_examples=80, deadline=None)
@given(sparse_matrices())
def test_kernel_annihilates_rows_and_rank_matches_float(drawn):
    rows, ncols = drawn
    rref, leads = echelon(rows)
    ker = kernel(rows, ncols)
    for v in ker:
        for row in rows:
            acc = ZERO
            for k, c in row.items():
                acc = acc + c * v.get(k, ZERO)
            assert acc.is_zero()
    assert len(rref) + len(ker) == ncols
    assert len(rref) == sum(lead is not None for lead in leads)
    for p, row in rref.items():
        assert row[p] == ONE
        assert min(row) == p
        assert not any(q in row for q in rref if q != p)
    assert len(rref) == np.linalg.matrix_rank(to_numpy(rows, ncols), tol=1e-9)


@st.composite
def invertible_matrices(draw):
    """(rows, n): a row permutation of L D U, up to 4 x 4, with L and U
    sparse unit-triangular and D diagonal, its entries nonzero multiples of
    roots of unity, so every draw is invertible by construction."""
    order = draw(st.sampled_from(ORDERS))
    n = draw(st.integers(1, 4))

    def unit_triangular(lower):
        rows = [{i: ONE} for i in range(n)]
        for i in range(n):
            for j in range(i):
                c = draw(entries(order))
                if draw(st.booleans()) and not c.is_zero():
                    r, col = (i, j) if lower else (j, i)
                    rows[r][col] = c
        return rows

    diagonal = [{i: Cyclotomic.rational(draw(st.sampled_from([1, -1, 2, -2])))
                 * root_of_unity(order, draw(st.integers(0, order - 1)))} for i in range(n)]
    rows = product(product(unit_triangular(True), diagonal), unit_triangular(False))
    return draw(st.permutations(rows)), n


@settings(max_examples=60, deadline=None)
@given(invertible_matrices())
def test_inverse_from_augmented_echelon(drawn):
    rows, n = drawn
    rref, _ = echelon({**row, n + i: ONE} for i, row in enumerate(rows))
    inverse = [{j - n: c for j, c in rref[i].items() if j >= n} for i in range(n)]
    for i, row in enumerate(product(inverse, rows)):
        assert row == {i: ONE}


@st.composite
def hermitian_matrices(draw):
    """Hermitian matrices over Q(zeta_M) whose leading minors are rational:
    at order 8 the entries stay in Q(i), spanned by 1 and zeta_8^2.  Half of
    the draws are H^2 + 1, which is positive definite."""
    order = draw(st.sampled_from(ORDERS))
    off_diagonal = entries(order, (0, 2) if order == 8 else None)
    n = draw(st.integers(1, 4))
    rows = [{} for _ in range(n)]
    for i in range(n):
        d = draw(st.integers(-3, 6))
        if d:
            rows[i][i] = Cyclotomic.rational(d)
        for j in range(i + 1, n):
            c = draw(off_diagonal)
            if not c.is_zero():
                rows[i][j], rows[j][i] = c, c.conjugate()
    if draw(st.booleans()):
        rows = product(rows, rows)
        for i in range(n):
            accumulate(rows[i], ONE, ((i, ONE),))
    return rows


@settings(max_examples=80, deadline=None)
@given(hermitian_matrices())
def test_positivity_verdict_matches_eigenvalues(rows):
    n = len(rows)
    eig = np.linalg.eigvalsh(to_numpy(rows, n))
    assume(np.min(np.abs(eig)) > 1e-3)
    try:
        inverse = positive_definite_inverse(rows)
    except NotFaithful as exc:
        assert str(exc) == SINGULAR
        assert eig.min() < 0
        return
    assert eig.min() > 0
    for i, row in enumerate(product(inverse, rows)):
        assert row == {i: ONE}


Z8 = root_of_unity(8, 1)
SQRT2 = Z8 + Z8.conjugate()


def rational_rows(grid):
    return [{j: Cyclotomic._coerce(c) for j, c in enumerate(row) if c != 0} for row in grid]


@pytest.mark.parametrize("rows, message", [
    (rational_rows([[1, 1], [0, 1]]), "Gram matrix is not Hermitian"),
    (rational_rows([[-1]]), SINGULAR),
    (rational_rows([[0, 1], [1, 0]]), SINGULAR),  # first minor 0, the matrix invertible
    (rational_rows([[1, 1], [1, 1]]), SINGULAR),
    (rational_rows([[2, 1, 0], [1, 1, 0], [0, 0, -5]]), SINGULAR),
    ([{0: SQRT2}], "Gram minors are not totally real"),
    # second minor 3 - |1 + zeta_8|^2 = 1 - sqrt 2
    ([{0: ONE, 1: ONE + Z8}, {0: ONE + Z8.conjugate(), 1: Cyclotomic.rational(3)}],
     "Gram minors are not totally real"),
])
def test_positivity_failures_keep_their_messages(rows, message):
    with pytest.raises(NotFaithful) as exc:
        positive_definite_inverse(rows)
    assert str(exc.value) == message


def test_positive_definite_inverse_is_exact():
    rows = rational_rows([[2, 1], [1, 2]])
    q = Cyclotomic.rational
    assert positive_definite_inverse(rows) == [
        {0: q(Fraction(2, 3)), 1: q(Fraction(-1, 3))},
        {0: q(Fraction(-1, 3)), 1: q(Fraction(2, 3))}]


def test_no_module_of_the_library_eliminates():
    # the recognizer, cov's span and the delta-form check decide on monomial
    # arrays; the elimination and what was read off it live only here
    gone = {"echelon", "_kernel", "_positive_definite_inverse", "_regular_trace_form_exact"}
    names = ["qautcert"] + [f"qautcert.{m.name}" for m in pkgutil.iter_modules(qautcert.__path__)]
    for name in names:
        assert not gone & set(vars(importlib.import_module(name))), name


def test_only_arith_binds_mat():
    # every other module, and the package itself, takes matrices as ``Terms``
    from qautcert.cocycle import GroupCocycle
    from qautcert.formal import FormalTensor
    from qautcert.relations import GeneratorAssignment

    assert "Mat" not in vars(qautcert)
    for m in pkgutil.iter_modules(qautcert.__path__):
        if m.name != "arith":
            assert "Mat" not in vars(importlib.import_module(f"qautcert.{m.name}")), m.name
    # each boundary takes one form, so none of them dispatches on its input
    for boundary in (GeneratorAssignment.__init__, FormalTensor.substitute_terms,
                     GroupCocycle.__init__):
        assert "isinstance" not in inspect.getsource(boundary), boundary.__qualname__
