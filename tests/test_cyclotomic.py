import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.arith import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    root_of_unity,
)


def poly_div_exact(num, den):
    # independent long division oracle over the integers
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1] // den[-1]
        q[i] = c
        for j, y in enumerate(den):
            num[i + j] -= c * y
    assert all(v == 0 for v in num[: len(den) - 1])
    return q


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_phi_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_phi_4():
    assert cyclotomic_polynomial(4) == (1, 0, 1)


def test_phi_6_against_division_oracle():
    # divide x^6 - 1 by Phi_1 Phi_2 Phi_3 with exact polynomial division
    den = poly_mul(poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    num = [-1, 0, 0, 0, 0, 0, 1]
    assert tuple(poly_div_exact(num, den)) == (1, -1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_phi_degree_is_totient():
    for m in range(1, 25):
        assert len(cyclotomic_polynomial(m)) - 1 == euler_phi(m)


def test_root_of_unity_basics():
    assert root_of_unity(2, 1) == Cyclotomic.rational(-1)
    assert root_of_unity(4, 2) == Cyclotomic.rational(-1)
    assert root_of_unity(3, 1) + root_of_unity(3, 2) == Cyclotomic.rational(-1)


def test_root_product_law_all_orders():
    for m in range(1, 25):
        for k in range(m):
            for l in range(m):
                assert root_of_unity(m, k) * root_of_unity(m, l) == \
                    root_of_unity(m, (k + l) % m)


def test_phi_vanishes_at_primitive_root():
    for m in range(1, 25):
        z = root_of_unity(m, 1)
        acc = Cyclotomic.zero()
        for t, c in enumerate(cyclotomic_polynomial(m)):
            acc = acc + c * z**t
        assert acc.is_zero()


def test_mth_power_is_one():
    for m in (2, 3, 5, 8, 12):
        assert (root_of_unity(m, 1) ** m).is_one()


def test_mixed_order_promotion():
    # zeta_2 inside order 6: zeta_6^3
    assert root_of_unity(2, 1) == root_of_unity(6, 3)
    x = root_of_unity(3, 1) * root_of_unity(4, 1)
    assert x.order == 12
    assert abs(x.to_complex() - cmath.exp(2j * cmath.pi * 7 / 12)) < 1e-12


def test_inverse_and_conjugate():
    x = root_of_unity(8, 3) + Cyclotomic.rational(Fraction(2, 3))
    assert (x * x.inverse()).is_one()
    assert x.conjugate().conjugate() == x
    z = root_of_unity(5, 2)
    assert z.conjugate() == root_of_unity(5, 3)


def test_canonical_equality_within_one_order():
    a = Cyclotomic(4, [0, 1])
    b = root_of_unity(4, 1)
    assert a == b and a.coeffs == b.coeffs


small_roots = st.tuples(st.integers(min_value=1, max_value=12),
                        st.integers(min_value=0, max_value=11))


@settings(max_examples=60, deadline=None)
@given(small_roots, small_roots, st.integers(min_value=-3, max_value=3))
def test_embedding_is_homomorphism_up_to_eps(rk, rl, q):
    eps = 1e-9
    a = root_of_unity(*rk) + q
    b = root_of_unity(*rl)
    lhs = (a * b).to_complex()
    rhs = a.to_complex() * b.to_complex()
    assert abs(lhs - rhs) <= 10 * eps


@settings(max_examples=40, deadline=None)
@given(small_roots, small_roots)
def test_mul_commutes_and_conj_distributes(rk, rl):
    a = root_of_unity(*rk)
    b = root_of_unity(*rl) + 1
    assert a * b == b * a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero().inverse()
