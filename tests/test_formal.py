import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.algebra import BlockSpec
from qautcert.arith import Mat, root_of_unity
from qautcert.cli import ft_to_float
from qautcert.formal import FormalTensor, qsym, symbol_adjoint, usym
from qautcert.pauli import BlockEmbedding
from qautcert.qaut import pi_map, rho_map


def test_symbol_adjoints():
    assert symbol_adjoint(usym(1, 0, 1, 2, 1, 0)) == usym(1, 0, 1, 2, 1, 0)
    assert symbol_adjoint(qsym(1, 2, 0, 1, 2, 3)) == qsym(1, 2, 1, 0, 3, 2)


def test_substitute_scalar_assignment():
    sym = usym(1, 0, 0, 1, 0, 0)
    # 2 E_00 + 2 E_11
    ft = FormalTensor(2, 1, Fraction(2), (sym,), [0, 0], [0, 1], [0, 1], [0, 0])
    out = ft.substitute({sym: Mat.scalar(Fraction(1, 2))})
    assert out.equals(Mat.identity(2))


def test_substitute_matrix_assignment_uses_kron():
    c = Mat.exact([[1, 0], [0, 0]])
    sym = usym(1, 0, 0, 1, 0, 0)
    ft = FormalTensor(2, 1, Fraction(1), (sym,), [0], [0], [0], [0])
    val = Mat.exact([[0, 1], [1, 0]])
    out = ft.substitute({sym: val})
    assert out.rows == 4
    assert out.equals(c.kron(val))


# -- substitute against the dense kron().scale() sum ---------------------------

def dense_image(spec, source, values):
    """pi(q) or rho(u) under ``values``: the sum over the other side's
    indices of E^(s)_(i-y,j-y) x E^(r)_(k-w,l-w), scaled by its phase and
    prefactor, times (scalar value) or kron (matrix value) the value of its
    symbol."""
    emb = BlockEmbedding(spec)
    of_pi = source[0] == "q"
    if of_pi:
        _, s, r, *fixed = source
    else:
        _, s, x, y, r, v, w = source
        fixed = (x, y, v, w)
    ns, nr = spec.sizes[s - 1], spec.sizes[r - 1]
    sign, pref = (-1, Fraction(1, nr)) if of_pi else (1, Fraction(1, ns))
    out = None
    for free in itertools.product(range(ns), range(ns), range(nr), range(nr)):
        (i, j, k, l), (x, y, v, w) = (fixed, free) if of_pi else (free, fixed)
        sym = usym(s, x, y, r, v, w) if of_pi else qsym(s, r, i, j, k, l)
        phase = root_of_unity(ns, sign * x * (i - j)) * root_of_unity(nr, sign * v * (k - l))
        coeff = (emb.paren_unit(s, i - y, j - y).kron(emb.paren_unit(r, k - w, l - w))
                 .scale(phase * pref))
        val = values[sym]
        term = coeff.scale(val.entry(0, 0)) if val.rows == 1 else coeff.kron(val)
        out = term if out is None else out + term
    return out


@st.composite
def images_and_values(draw):
    spec = BlockSpec(draw(st.sampled_from([(1,), (2,), (2, 1), (3,), (1, 1)])))
    of_rho = draw(st.booleans())
    images = rho_map(spec) if of_rho else pi_map(spec)
    source = draw(st.sampled_from(sorted(images)))
    ft = images[source]
    k = draw(st.sampled_from([1, 1, 2, 3]))
    values = {}
    for sym in ft.symbols:
        if k > 1:
            diag = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
            values[sym] = Mat.exact([[diag[a] if a == b else 0 for b in range(k)]
                                     for a in range(k)])
        elif draw(st.booleans()):
            values[sym] = Mat.scalar(draw(st.integers(0, 1)))
        else:
            order = draw(st.sampled_from([2, 3, 4, 6]))
            values[sym] = Mat.scalar(root_of_unity(order, draw(st.integers(0, order - 1))))
    return spec, source, ft, values


@settings(max_examples=40, deadline=None)
@given(images_and_values())
def test_substitute_matches_dense_kron_sum(case):
    spec, source, ft, values = case
    expected = dense_image(spec, source, values)
    assert ft.substitute(values).equals(expected)
    got = ft_to_float(ft).substitute(values)
    assert np.max(np.abs(got - expected.to_float())) <= 1e-9
