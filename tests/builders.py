"""Builders and checks that only the tests use, kept out of ``qautcert``
because no certificate runs them: a ``StructAlgebra`` from term tuples
(``from_terms``), its trace on a sparse element (``trace_sparse``) and its
stable text form, the writer of ``tests/golden/*.txt`` (``serialize``);
the function algebra C(X) and the group algebra C[K]; the trivial and the
inverse cocycle and a cocycle's values as a dict (``cocycle_table``);
addition and negation in a ``FinAbGroup`` and nondegeneracy of its pairing; the
translation action of Gamma on C(X) and a cyclic inner action; and exact
equality of two ``FormalTensor`` stacks (``formal_equals``)."""

import numpy as np

from qautcert.algebra import (
    AxiomViolation,
    BlockSpec,
    MonomialMap,
    StructAlgebra,
    multimatrix,
)
from qautcert.arith import Cyclotomic
from qautcert.cocycle import FinAbGroup, GradedAlgebra, GroupCocycle, _roots, fourier_function_algebra
from qautcert.crossed import GroupAction, NotAutomorphism, action_from_graded

from sparse_reference import invol_sparse, mul_sparse, product, sparse_vector, star


def from_terms(dim, labels, mul, invol, unit, trace) -> StructAlgebra:
    """The algebra whose products ``mul[(i, j)]`` (absent: zero) and stars
    ``invol[i]`` are given as tuples of (k, c) terms.  A product or star of
    more than one nonzero term raises AxiomViolation."""
    scalars: list = []

    def monomial(terms, what):
        terms = [(k, c) for k, c in terms if not c.is_zero()]
        if len(terms) > 1:
            raise AxiomViolation(f"{what} has {len(terms)} terms, not one")
        if not terms:
            return -1, 0
        scalars.append(terms[0][1])
        return terms[0][0], len(scalars) - 1

    k = np.full((dim, dim), -1, dtype=np.int64)
    s = np.zeros((dim, dim), dtype=np.int64)
    for (i, j), terms in mul.items():
        k[i, j], s[i, j] = monomial(terms, f"b_{i} b_{j}")
    stars = [monomial(terms, f"b_{i}*") for i, terms in enumerate(invol)]
    return StructAlgebra(dim, labels, k=k, s=s, scalars=scalars, star_k=[k for k, _ in stars],
                         star_s=[t for _, t in stars], unit=unit, trace=trace)


def trace_sparse(A: StructAlgebra, terms) -> Cyclotomic:
    """The trace of the element with (k, coefficient) pairs ``terms``."""
    out = Cyclotomic.zero()
    for k, a in terms:
        out = out + a * A.trace[k]
    return out


def serialize(A: StructAlgebra) -> str:
    """Stable text form for golden-file regression; a label that is
    empty or holds whitespace raises ValueError."""
    if not all(lab.split() == [lab] for lab in A.labels):
        raise ValueError("labels must be nonempty and hold no whitespace")
    lines = [f"dim {A.dim}", "labels " + " ".join(A.labels)]

    def scal(c: Cyclotomic) -> str:
        return f"{c.order}:" + ",".join(str(q) for q in c.coeffs)

    for i, j in np.argwhere(A.k >= 0).tolist():
        ((k, c),) = product(A, i, j)
        lines.append(f"mul {i} {j} {k}={scal(c)}")
    for i in range(A.dim):
        ((k, c),) = star(A, i)
        lines.append(f"invol {i} {k}={scal(c)}")
    lines.append("unit " + " ".join(scal(c) for c in A.unit))
    lines.append("trace " + " ".join(scal(c) for c in A.trace))
    return "\n".join(lines) + "\n"


def function_algebra(npoints: int) -> StructAlgebra:
    """C(X) for |X| = npoints in the point-indicator basis, uniform trace:
    the multimatrix algebra of npoints blocks of size 1, relabelled."""
    A = multimatrix(BlockSpec((1,) * npoints))
    A.labels = tuple(f"d{x}" for x in range(npoints))
    return A


def negative(group: FinAbGroup, g):
    return tuple((-a) % f for a, f in zip(g, group.factors))


def add(group: FinAbGroup, g, h):
    return tuple((a + b) % f for a, b, f in zip(g, h, group.factors))


def pairing_nondegenerate(group: FinAbGroup) -> bool:
    for chi in group.elements():
        if chi == group.identity:
            continue
        if all(group.pairing(chi, g).is_one() for g in group.elements()):
            return False
    return True


def group_algebra(group: FinAbGroup) -> GradedAlgebra:
    """C[K] graded by itself: u_g u_h = u_{gh}, u_g* = u_{g^-1}, tau(u_g) = [g=e]."""
    els, pos = group.elements(), group.position_map()
    k = group.addition_table()
    delta = [Cyclotomic.one() if g == group.identity else Cyclotomic.zero() for g in els]
    alg = StructAlgebra(len(els), [f"u{g}".replace(" ", "") for g in els], k=k, s=np.zeros_like(k),
                        scalars=[Cyclotomic.one()], star_k=[pos[negative(group, g)] for g in els],
                        star_s=np.zeros(len(els), dtype=np.int64), unit=delta, trace=delta)
    return GradedAlgebra(alg, group, tuple(els))


def trivial_cocycle(group: FinAbGroup) -> GroupCocycle:
    return GroupCocycle(group, np.zeros((group.order, group.order), dtype=np.int64), 1)


def inverse_cocycle(sigma: GroupCocycle) -> GroupCocycle:
    return GroupCocycle(sigma.group, -sigma.E, sigma.L, sigma.W)


def cocycle_table(sigma: GroupCocycle) -> dict:
    """{(g, h): sigma(g, h)}, read off E."""
    els = sigma.group.elements()
    values, t = _roots(sigma.L, sigma.E, sigma.W)
    return {(g, h): values[t.item(a, b)] for a, g in enumerate(els) for b, h in enumerate(els)}


def translation_action(spec: BlockSpec):
    """Gamma acting on C(X) by translation, in the character basis, with the
    graded algebra returned alongside (the action is diagonal there)."""
    graded = fourier_function_algebra(spec)
    return action_from_graded(graded), graded


def inner_action(group: FinAbGroup, algebra: StructAlgebra, unitary_vec) -> GroupAction:
    """Cyclic inner action Ad(u^k) of Z_n given the coordinate vector of a
    unitary u with u^n = 1.  Raises NotAutomorphism when Ad(u) is not a
    monomial map."""
    if len(group.factors) != 1:
        raise ValueError("inner_action builds cyclic actions only")
    A, one = algebra, Cyclotomic.one()
    u = sparse_vector(unitary_vec).items()
    images = [mul_sparse(A, mul_sparse(A, u, ((i, one),)).items(), invol_sparse(A, u).items())
              for i in range(A.dim)]
    if any(len(image) != 1 for image in images):
        raise NotAutomorphism("Ad(u) is not a monomial map")
    try:
        ad = MonomialMap(*zip(*(image.popitem() for image in images)))
    except AxiomViolation as err:
        raise NotAutomorphism(f"Ad(u) is not a monomial map: {err}") from err
    thetas, k, c = {}, np.arange(A.dim), [one] * A.dim
    for p in range(group.factors[0]):  # Ad(u)(c_i b_k[i]) for Ad(u^p)(b_i) = c_i b_k[i]
        thetas[(p,)] = MonomialMap(k, c)
        k, c = ad.k[k], [ci * ad.scalars[ki] for ci, ki in zip(c, k.tolist())]
    return GroupAction(group, A, thetas)


def formal_equals(a, b) -> bool:
    """Exact equality of two ``FormalTensor`` stacks: ``differing`` marks no image."""
    return (a.size == b.size and a.symbols == b.symbols
            and len(a.prefactors) == len(b.prefactors) and not a.differing(b).any())
