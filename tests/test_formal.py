import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.algebra import BlockSpec
from qautcert.arith import Mat, root_of_unity
from qautcert.cli import ft_to_float
from qautcert.formal import FormalTensor, qsym, usym
from qautcert.pauli import BlockEmbedding
from qautcert.qaut import (
    GeneratorAssignment,
    IncompleteAssignment,
    QautPresentation,
    SnPresentation,
)

from image_reference import image_stack, pi_images, rho_images
from mat_reference import assignment, paren_unit, substitute, values_of
from relation_reference import symbol_adjoint


def test_symbol_adjoints():
    assert symbol_adjoint(usym(1, 0, 1, 2, 1, 0)) == usym(1, 0, 1, 2, 1, 0)
    assert symbol_adjoint(qsym(1, 2, 0, 1, 2, 3)) == qsym(1, 2, 1, 0, 3, 2)


def test_substitute_scalar_assignment():
    sym = usym(1, 0, 0, 1, 0, 0)
    # 2 E_00 + 2 E_11
    ft = FormalTensor(2, 1, (Fraction(2),), (sym,), [0, 0], [0, 1], [0, 1], [0, 0])
    out = substitute(ft, {sym: Mat.scalar(Fraction(1, 2))})
    assert out.equals(Mat.identity(2))


def test_substitute_matrix_assignment_uses_kron():
    c = Mat.exact([[1, 0], [0, 0]])
    sym = usym(1, 0, 0, 1, 0, 0)
    ft = FormalTensor(2, 1, (Fraction(1),), (sym,), [0], [0], [0], [0])
    val = Mat.exact([[0, 1], [1, 0]])
    out = substitute(ft, {sym: val})
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
        coeff = (paren_unit(emb, s, i - y, j - y).kron(paren_unit(emb, r, k - w, l - w))
                 .scale(phase * pref))
        val = values[sym]
        term = coeff.scale(val.entry(0, 0)) if val.rows == 1 else coeff.kron(val)
        out = term if out is None else out + term
    return out


@st.composite
def images_and_values(draw):
    spec = BlockSpec(draw(st.sampled_from([(1,), (2,), (2, 1), (3,), (1, 1)])))
    of_rho = draw(st.booleans())
    images = rho_images(spec) if of_rho else pi_images(spec)
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
    assert substitute(ft, values).equals(expected)
    got = substitute(ft_to_float(ft), values)
    assert np.max(np.abs(got - expected.to_float())) <= 1e-9


# -- the stacked substitution against dense_image, block by block ---------------

def random_value(draw, k, order):
    """A k x k exact value: 0, 1 or zeta_order in each entry, so that the
    value has several power-basis terms."""
    return Mat.exact([[draw(st.sampled_from([0, 1, root_of_unity(order, 1)]))
                       for _ in range(k)] for _ in range(k)])


@st.composite
def families_and_values(draw):
    spec = BlockSpec(draw(st.sampled_from([(2,), (3,), (2, 1)])))
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    of_rho = draw(st.booleans())
    images, pres, target = ((rho_images(spec), upres, qpres) if of_rho
                            else (pi_images(spec), qpres, upres))
    # scale a few images' prefactors, on top of the mix (2, 1) has already
    scaled = draw(st.lists(st.integers(0, len(pres.generators) - 1), max_size=3))
    for t in scaled:
        source = pres.generators[t]
        images[source] = replace(images[source],
                                 prefactors=(images[source].prefactors[0]
                                             * draw(st.sampled_from([2, 3])),))
    k = draw(st.sampled_from([1, 2, 3]))
    # one order for all values, so that their stack's order need not be a
    # multiple of the images' order
    order = draw(st.sampled_from([1, 2, 3, 4, 6]))
    values = {sym: random_value(draw, k, order) for sym in target.generators}
    # the first and last images (whose prefactors differ at (2, 1)), the
    # scaled ones and a few more
    checked = {0, len(pres.generators) - 1, *scaled,
               *draw(st.lists(st.integers(0, len(pres.generators) - 1), max_size=2))}
    return spec, images, pres, target, values, sorted(checked)


def scaled_dense_image(spec, images, source, values):
    """dense_image, times the factor by which ``images[source]``'s prefactor
    differs from its own."""
    natural = (pi_images(spec) if source[0] == "q" else rho_images(spec))[source].prefactors[0]
    return dense_image(spec, source, values).scale(images[source].prefactors[0] / natural)


@settings(max_examples=25, deadline=None)
@given(families_and_values())
def test_stacked_substitute_matches_dense_image_per_block(case):
    spec, images, pres, target, values, checked = case
    stack = image_stack(images, pres, target)
    values_stack = assignment(target, values).stack
    exact = stack.substitute_terms(values_stack)
    floats = ft_to_float(stack).substitute(values_stack)
    subst = values_of(GeneratorAssignment(pres, exact))
    n = exact.cols
    for t in checked:
        source = pres.generators[t]
        expected = scaled_dense_image(spec, images, source, values)
        assert subst[source].equals(expected)
        got = floats[t * n:(t + 1) * n]
        assert np.max(np.abs(got - expected.to_float()), initial=0.0) <= 1e-12


def test_image_family_missing_a_generator_is_incomplete():
    spec = BlockSpec((2, 1))
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    images = pi_images(spec)
    del images[qpres.generators[5]]
    with pytest.raises(IncompleteAssignment):
        image_stack(images, qpres, upres)
