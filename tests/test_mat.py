from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.arith import (
    Cyclotomic,
    DimensionMismatch,
    Mat,
    euler_phi,
    root_of_unity,
)

from mat_reference import echelon, kernel


def test_identity_is_unitary():
    assert Mat.identity(3).is_unitary()


def test_kron_of_x2_with_identity_is_traceless():
    X2 = Mat.exact([[1, 0], [0, -1]])
    K = X2.kron(Mat.identity(2))
    assert K.trace().is_zero()


def test_adjoint_antimultiplicative():
    A = Mat.exact([[root_of_unity(8, 1), 2], [0, root_of_unity(3, 2)]])
    B = Mat.exact([[1, root_of_unity(5, 1)], [root_of_unity(7, 3), 0]])
    assert (A @ B).adjoint().equals(B.adjoint() @ A.adjoint())
    assert A.adjoint().adjoint().equals(A)


def test_kron_mixed_product():
    A = Mat.exact([[1, 2], [3, 4]])
    B = Mat.exact([[0, 1], [1, 0]])
    C = Mat.exact([[root_of_unity(4, 1), 0], [0, 1]])
    D = Mat.exact([[2, 0], [1, 1]])
    assert (A.kron(B) @ C.kron(D)).equals((A @ C).kron(B @ D))


def test_normalized_trace_of_identity():
    assert Mat.identity(5).normalized_trace().is_one()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Mat.identity(2) @ Mat.identity(3)
    with pytest.raises(DimensionMismatch):
        Mat.zeros(2, 3).trace()


def test_scalar_multiple_detection():
    M = Mat.identity(3).scale(root_of_unity(3, 1))
    c = M.scalar_multiple_of_identity()
    assert c == root_of_unity(3, 1)
    assert Mat.exact([[1, 1], [0, 1]]).scalar_multiple_of_identity() is None


def test_residual_exact_zero_and_float():
    A = Mat.exact([[1, 0], [0, 1]])
    assert A.residual(Mat.identity(2)) == 0.0
    Af = A.to_float()
    assert np.max(np.abs(Af - np.eye(2))) < 1e-15


def test_kernel_and_span_rank():
    one = Cyclotomic.rational
    ker = kernel([{0: one(1), 1: one(2), 2: one(3)}], 3)
    assert len(ker) == 2
    assert len(echelon([{0: one(1), 1: one(2)}, {0: one(2), 1: one(4)}])[0]) == 1
    vecs = [{0: one(1)}, {0: one(2)}, {1: root_of_unity(3, 1)}]
    assert len(echelon(vecs)[0]) == 2


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4))
def test_exact_float_agree_on_products(xs, ys):
    A = Mat.exact([xs[:2], xs[2:]])
    B = Mat.exact([ys[:2], ys[2:]])
    exact = (A @ B).to_float()
    floated = A.to_float() @ B.to_float()
    assert np.max(np.abs(exact - floated)) < 1e-9


ORDERS = (1, 2, 3, 4, 5, 8, 12)
# Small and at-least-2**31 numerators, so both int64 and Python-int
# coefficient planes occur, alone and mixed; some near 2**62, where sums of
# two coefficients already leave int64.
NUMERATORS = st.one_of(st.integers(-3, 3), st.integers(2**31, 2**40),
                       st.integers(-(2**40), -(2**31)), st.integers(2**61, 2**63),
                       st.integers(-(2**63), -(2**61)))


def cyclotomics():
    coeff = st.builds(Fraction, NUMERATORS, st.sampled_from([1, 2, 3]))
    return st.sampled_from(ORDERS).flatmap(
        lambda M: st.lists(coeff, min_size=euler_phi(M), max_size=euler_phi(M))
        .map(lambda cs: Cyclotomic(M, cs)))


def grids(rows, cols):
    return st.lists(st.lists(cyclotomics(), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def assert_entries(m: Mat, expected):
    assert (m.rows, m.cols) == (len(expected), len(expected[0]))
    for i, row in enumerate(expected):
        for j, x in enumerate(row):
            assert m.entry(i, j) == x, (i, j)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_ops_match_cyclotomic_entrywise(data):
    r, k, c = (data.draw(st.integers(1, 3)) for _ in range(3))
    a, b = data.draw(grids(r, k)), data.draw(grids(k, c))
    a2 = data.draw(grids(r, k))
    s = data.draw(cyclotomics())
    A, B, A2 = Mat.exact(a), Mat.exact(b), Mat.exact(a2)
    assert_entries(A @ B, [[sum((a[i][t] * b[t][j] for t in range(k)), Cyclotomic.zero())
                            for j in range(c)] for i in range(r)])
    assert_entries(A.kron(B), [[a[i][j] * b[p][q] for j in range(k) for q in range(c)]
                               for i in range(r) for p in range(k)])
    assert_entries(A + A2, [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)])
    assert_entries(A.scale(s), [[x * s for x in u] for u in a])
    assert_entries(A.conj(), [[x.conjugate() for x in u] for u in a])
    assert_entries(A.adjoint(), [[a[i][j].conjugate() for i in range(r)] for j in range(k)])
    assert A.equals(A2) == (a == a2)
    if not s.is_zero():
        assert A.equals(A.scale(s).scale(s.inverse()))


@pytest.mark.parametrize("x, y", [(2**62, 2**62), (-(2**62), -(2**62)),
                                  (2**63 - 1, 1), (2**62, Fraction(2**62, 3))])
def test_exact_sum_near_int64_limit(x, y):
    a, b = Cyclotomic(1, [x]), Cyclotomic(1, [y])
    A, B = Mat.exact([[a]]), Mat.exact([[b]])
    assert (A + B).entry(0, 0) == a + b
    assert (A - B.scale(-1)).entry(0, 0) == a + b
    assert (A + B).equals(Mat.exact([[a + b]]))


# -- the dtypes of exact products ----------------------------------------------

def integer_entries(m: Mat) -> np.ndarray:
    """The entries of an order-1 matrix with denominator 1, as Python ints."""
    assert (m.order, m.den) == (1, 1)
    out = np.zeros((m.rows, m.cols), dtype=object)
    row, col, _, num = m.terms()
    for i, j, x in zip(row.tolist(), col.tolist(), num.tolist()):
        out[i, j] += x
    return out


def matmul_calls(monkeypatch):
    """Record (dtype, m, k, n) of every np.matmul call."""
    calls, real = [], np.matmul

    def spy(a, b, *args, **kwargs):
        calls.append((np.result_type(a, b), a.shape[-2], a.shape[-1], b.shape[-1]))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


def signed(rng, shape, low, high):
    return (rng.integers(low, high, size=shape, endpoint=True)
            * rng.choice([-1, 1], size=shape)).tolist()


@pytest.mark.parametrize("x, y, inner", [(2**25, 2**25, 16), (2**26 + 1, 2**27 + 1, 16),
                                         (2**26 + 1, -(2**27 + 1), 24)])
def test_product_at_or_above_2_53_takes_the_exact_fallback(monkeypatch, x, y, inner):
    # (2**26 + 1)(2**27 + 1) is odd and above 2**53: a double cannot hold it
    a, b = [[x] * inner] * 32 + [[1] * inner], [[y] * 32] * inner
    assert abs(x * y) * inner >= 2**53
    calls = matmul_calls(monkeypatch)
    got = integer_entries(Mat.exact(a) @ Mat.exact(b))
    assert np.float64 not in [c[0] for c in calls]
    assert got.tolist() == [[x * y * inner] * 32] * 32 + [[y * inner] * 32]


def test_small_products_stay_in_int64(monkeypatch):
    rng = np.random.default_rng(2)
    a, b = signed(rng, (8, 8), 0, 9), signed(rng, (8, 8), 0, 9)
    calls = matmul_calls(monkeypatch)
    got = integer_entries(Mat.exact(a) @ Mat.exact(b))
    assert [c[0] for c in calls] == [np.int64]
    assert (got == np.array(a, dtype=object) @ np.array(b, dtype=object)).all()
