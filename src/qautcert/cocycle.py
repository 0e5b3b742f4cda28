"""Finite abelian groups, 2-cocycles, graded algebras and cocycle twists.

The base cocycle on Z_n x Z_n is w'([j1,j2],[k1,k2]) = zeta_n^(j1*k2).
A coboundary normalization produces a cohomologous cocycle with
w(h, h^-1) = 1 for every h; products over blocks give the cocycle used to
twist C(X) into a multimatrix algebra, certified by block recognition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (
    BlockSpec,
    StructAlgebra,
    _scalar_products,
    associativity_failure,
    monomial_forms,
    recognize_blocks,
)
from .arith import Cyclotomic, root_of_unity
from .pauli import weyl_basis

__all__ = [
    "FinAbGroup",
    "GroupCocycle",
    "GradedAlgebra",
    "base_cocycle",
    "normalize_inverse_pairing",
    "product_cocycle",
    "twist_left",
    "fourier_function_algebra",
    "gamma_group",
    "verify_twist_theorem",
    "GradingMismatch",
    "CocycleError",
]

class GradingMismatch(ValueError):
    pass


class CocycleError(ValueError):
    pass


@dataclass(frozen=True)
class FinAbGroup:
    """prod_i Z_{f_i} with elements as tuples; the dual group is identified
    with the same tuples through <chi, g> = prod_i zeta_{f_i}^(chi_i g_i)."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(f < 1 for f in self.factors):
            raise ValueError("factors must be >= 1")
        object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))

    @property
    def order(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    def elements(self):
        return [tuple(e) for e in itertools.product(*[range(f) for f in self.factors])]

    @property
    def identity(self):
        return tuple(0 for _ in self.factors)

    def add(self, g, h):
        return tuple((a + b) % f for a, b, f in zip(g, h, self.factors))

    def position_map(self) -> dict:
        """g -> the position of g in ``elements()``."""
        return {g: a for a, g in enumerate(self.elements())}

    def addition_table(self) -> np.ndarray:
        """t[a, b] = the position of g_a + g_b, for the elements g in
        ``elements()`` order, which is lexicographic: the position of g is
        the mixed-radix number with digits g, so the table is built one
        factor at a time as the product of the tables before it and Z_f's."""
        table = np.zeros((1, 1), dtype=np.int64)
        for f in self.factors:
            table = _product_table(np.add, table * f, np.add.outer(range(f), range(f)) % f)
        return table

    def negation(self) -> np.ndarray:
        """n[a] = the position of -g_a, built one factor at a time as
        ``addition_table`` is: each mixed-radix digit d becomes -d mod f."""
        neg = np.zeros(1, dtype=np.int64)
        for f in self.factors:
            neg = (neg[:, None] * f + (-np.arange(f)) % f).ravel()
        return neg

    def pairing(self, chi, g) -> Cyclotomic:
        out = Cyclotomic.one()
        for c, a, f in zip(chi, g, self.factors):
            if f > 1 and (c * a) % f:
                out = out * root_of_unity(f, c * a)
        return out


class GroupCocycle:
    """A normalized 2-cocycle with root-of-unity values, held as one
    exponent table: sigma(g_a, g_b) = zeta_L^E[a, b], with a and b the
    positions of g_a and g_b in ``group.elements()``.  ``W[a, b]`` is the
    order M of the field Q(zeta_M) that the views ``value`` and ``psi``
    write the value over: the lcm of the orders of the values it
    was built from, as their exact product would write it (all L when
    omitted), so that the views print and convert to floats as that
    product does.  ``coboundary``, when normalization produced the cocycle,
    is psi as (exponents at order L, field orders)."""

    def __init__(self, group: FinAbGroup, E, L: int, W=None, coboundary=None):
        self.group = group
        self.L = L
        self.E = np.asarray(E, dtype=np.int64) % L
        self.W = np.full_like(self.E, L) if W is None else W
        self.coboundary = coboundary
        self.verify()

    def value(self, g, h) -> Cyclotomic:
        pos = self.group.position_map()
        (c,), _ = _roots(self.L, self.E[pos[g], pos[h]], self.W[pos[g], pos[h]])
        return c

    @property
    def psi(self) -> dict | None:
        """{g: psi(g)}, read off the coboundary record, or None."""
        if self.coboundary is None:
            return None
        values, t = _roots(self.L, *self.coboundary)
        return {g: values[i] for g, i in zip(self.group.elements(), t.tolist())}

    def verify(self):
        """Normalization, and the cocycle identity sigma(g, h) sigma(g+h, k)
        = sigma(h, k) sigma(g, h+k) on every triple, in exponents.  It is
        the associativity of the twisted group algebra u_g u_h =
        sigma(g, h) u_(g+h), so ``associativity_failure`` decides it by
        Light's test on the u_g of the factors' unit vectors g: every u_h is
        a nonzero multiple of a word in them, and u_0 is the unit once the
        cocycle is normalized.  The first failing triple is reported in
        lexicographic order."""
        G, E = self.group, self.E
        els = G.elements()
        bad = (E[0] != 0) | (E[:, 0] != 0)  # the identity is position 0
        if bad.any():
            raise CocycleError(f"cocycle not normalized at {els[np.argmax(bad)]}")
        unit_vectors = [math.prod(G.factors[i + 1:]) for i, f in enumerate(G.factors) if f > 1]
        bad = associativity_failure(G.addition_table(), E, self.L, generators=unit_vectors)
        if bad:
            raise CocycleError("cocycle identity fails at ({},{},{})".format(*(els[t] for t in bad)))

    def inverse_pairing_trivial(self) -> bool:
        return not self.E[np.arange(self.group.order), self.group.negation()].any()


def _roots(L: int, e, w):
    """(values, t) with values[t[i]] = zeta_L^e[i] written over
    Q(zeta_w[i]), elementwise over the int arrays e (in [0, L)) and w (each
    w[i] | L, with zeta_L^e[i] a w[i]-th root of unity), each distinct value
    built once."""
    keys, t = np.unique(e * (L + 1) + w, return_inverse=True)
    pairs = (divmod(key, L + 1) for key in keys.tolist())
    return [root_of_unity(w, e * w // L) for e, w in pairs], t.reshape(np.shape(e))


def _product_table(op, x, y):
    """z[a len(y) + b, ...] = op(x[a, ...], y[b, ...]) on every axis: the
    table on the product group of tables x and y on its factors."""
    d = x.ndim
    z = op.outer(x, y).transpose([i for a in range(d) for i in (a, d + a)])
    return z.reshape([p * q for p, q in zip(x.shape, y.shape)])


def base_cocycle(n_t: int) -> GroupCocycle:
    """w'([j1,j2],[k1,k2]) = zeta_{n_t}^(j1 k2) on Z_{n_t} x Z_{n_t}."""
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    j = np.arange(n_t)
    return GroupCocycle(FinAbGroup((n_t, n_t)), np.outer(np.repeat(j, n_t), np.tile(j, n_t)), n_t)


def normalize_inverse_pairing(sigma: GroupCocycle) -> GroupCocycle:
    """Cohomologous cocycle with w(h, h^-1) = 1 for every h.

    For sigma(h, h^-1) = zeta_L^e, psi(h) = zeta_2L^-e halves the exponent
    at order 2L, so psi(h)^-2 = sigma(h, h^-1); a normalized cocycle has
    sigma(h, h^-1) = sigma(h^-1, h), so psi(h) = psi(h^-1).  Returns
    sigma * d(psi), with psi as its coboundary record.
    """
    G, L, add = sigma.group, 2 * sigma.L, sigma.group.addition_table()
    inverse_pairs = (np.arange(G.order), G.negation())  # the entries (h, h^-1)
    psi = -sigma.E[inverse_pairs] % L
    psi_w = 2 * sigma.W[inverse_pairs]
    psi_w[0] = 1  # psi(e) = 1, written over Q
    table = 2 * sigma.E + psi[:, None] + psi[None, :] - psi[add]
    W = np.lcm(np.lcm(sigma.W, psi_w[:, None]), np.lcm(psi_w[None, :], psi_w[add]))
    out = GroupCocycle(G, table, L, W, coboundary=(psi, psi_w))
    if not out.inverse_pairing_trivial():
        raise CocycleError("normalization failed to trivialize inverse pairing")
    return out


def product_cocycle(parts: list[GroupCocycle]) -> GroupCocycle:
    """Cocycle on the product group, sigma((g_t), (h_t)) = prod sigma_t(g_t, h_t)."""
    if not parts:
        raise ValueError("need at least one part")
    G = FinAbGroup(tuple(f for p in parts for f in p.group.factors))
    L = math.lcm(*(p.L for p in parts))

    def combine(op, arrays):
        return functools.reduce(functools.partial(_product_table, op), arrays)

    E = combine(np.add, [p.E * (L // p.L) for p in parts])
    coboundary = None
    if all(p.coboundary is not None for p in parts):
        coboundary = (combine(np.add, [p.coboundary[0] * (L // p.L) for p in parts]) % L,
                      combine(np.lcm, [p.coboundary[1] for p in parts]))
    return GroupCocycle(G, E, L, combine(np.lcm, [p.W for p in parts]), coboundary)


@dataclass
class GradedAlgebra:
    """A StructAlgebra with a group degree attached to each basis element."""

    algebra: StructAlgebra
    group: FinAbGroup
    degrees: tuple

    def __post_init__(self):
        K = self.algebra.k
        if len(self.degrees) != self.algebra.dim:
            raise GradingMismatch("one degree per basis element is required")
        deg = self.positions()
        bad = (K >= 0) & (deg[K] != self.group.addition_table()[np.ix_(deg, deg)])
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise GradingMismatch(
                f"structure constants violate the grading at ({i},{j})->{K.item(i, j)}")

    def positions(self) -> np.ndarray:
        """The degrees as positions in ``group.elements()``."""
        pos = self.group.position_map()
        if not all(d in pos for d in self.degrees):
            raise GradingMismatch("every degree must be an element of the grading group")
        return np.array([pos[d] for d in self.degrees], dtype=np.int64)


def twist_left(graded: GradedAlgebra, sigma: GroupCocycle):
    """The twisted algebra: structure constants multiplied by sigma on
    degrees, involution corrected by the recorded unit scalars.

    Returns (StructAlgebra, twist_record) where the record holds the
    involution scalars conj(sigma(deg^-1, deg)) per basis element and flags
    any scalar different from 1.
    """
    A = graded.algebra
    G = graded.group
    if sigma.group != G:
        raise GradingMismatch("cocycle group does not match the grading group")
    deg = graded.positions()
    values, t = _roots(sigma.L, sigma.E, sigma.W)
    products, s = _scalar_products(A.scalars, A.s, values, t[deg[:, None], deg])
    scalars = [values[i].conjugate() for i in t[G.negation()[deg], deg].tolist()]
    stars, star_s = _scalar_products(A.scalars, A.star_s, scalars, np.arange(A.dim))
    twisted = StructAlgebra(A.dim, A.labels, k=A.k, s=s, scalars=products + stars,
                            star_k=A.star_k, star_s=star_s + len(products),
                            unit=A.unit, trace=A.trace)
    record = {
        "involution_scalars_all_one": all(s.is_one() for s in scalars),
        "involution_scalars": scalars,
    }
    return twisted, record


def gamma_group(spec: BlockSpec) -> FinAbGroup:
    """Gamma = prod_t (Z_{n_t} x Z_{n_t}) as one tuple group."""
    factors = []
    for n in spec.sizes:
        factors += [n, n]
    return FinAbGroup(tuple(factors))


def fourier_function_algebra(spec: BlockSpec) -> GradedAlgebra:
    """C(X) for X = coprod X_r in the character basis of the translation
    action, graded by the dual of Gamma.

    Block r contributes basis elements indexed by characters chi of
    Gamma_r = Z_{n_r} x Z_{n_r}, with e^(r)_chi supported on X_r, value
    <chi, gamma> at gamma.(0,0); degrees embed chi into the full dual.
    The base point (0, 0) per block is the recorded torsor trivialization.
    """
    G = gamma_group(spec)
    labels, degrees, unit, trace = [], [], [], []
    k = np.full((spec.N, spec.N), -1, dtype=np.int64)
    star_k = np.zeros(spec.N, dtype=np.int64)
    o = 0  # e^(r)_[c1,c2] is basis o + c1 n + c2
    for r, n in enumerate(spec.sizes):
        for c1 in range(n):
            for c2 in range(n):
                labels.append(f"e{r + 1}[{c1},{c2}]")
                deg = [0] * (2 * spec.m)
                deg[2 * r], deg[2 * r + 1] = c1, c2
                degrees.append(tuple(deg))
                # Plancherel trace on C(X) is the uniform state: psi(e^(r)_chi)
                # is (n_r^2 / N) for the trivial character and 0 otherwise.
                trivial = (c1, c2) == (0, 0)
                unit.append(Cyclotomic.one() if trivial else Cyclotomic.zero())
                trace.append(Cyclotomic.rational(Fraction(n * n, spec.N)) if trivial
                             else Cyclotomic.zero())
        c1, c2, d1, d2 = np.ogrid[:n, :n, :n, :n]
        k[o + c1 * n + c2, o + d1 * n + d2] = o + (c1 + d1) % n * n + (c2 + d2) % n
        c1, c2 = np.ogrid[:n, :n]
        star_k[o + c1 * n + c2] = o + (-c1 % n) * n + (-c2 % n)
        o += n * n
    alg = StructAlgebra(spec.N, labels, k=k, s=np.zeros_like(k), scalars=[Cyclotomic.one()],
                        star_k=star_k, star_s=np.zeros_like(star_k), unit=unit, trace=trace)
    return GradedAlgebra(alg, G, tuple(degrees))


def spec_cocycle(spec: BlockSpec) -> GroupCocycle:
    """The normalized product cocycle sigma_0 for a partition."""
    parts = [normalize_inverse_pairing(base_cocycle(n)) for n in spec.sizes]
    return product_cocycle(parts)


def verify_twist_theorem(spec: BlockSpec) -> dict:
    """Twist C(X) by sigma_0 and certify the recognized blocks equal the
    partition; for a single block an explicit Weyl-relation isomorphism is
    exhibited as well.  The same exact computation on both backends, with
    residual 0.0."""
    graded = fourier_function_algebra(spec)
    sigma = spec_cocycle(spec)
    twisted, record = twist_left(graded, sigma)
    cross_block_zero = _cross_block_products_vanish(spec, twisted)
    result = recognize_blocks(twisted)
    expected = tuple(sorted(spec.sizes))
    cert = {
        "partition": list(spec.sizes),
        "backend": "exact",
        "identification": "pairing <[a,b],[j,k]> = zeta_n^(a j + b k) per block",
        "base_points": "x_r = (0,0) in each Y_r x Y_r",
        "psi": {str(g): repr(v) for g, v in sorted(sigma.psi.items())} if sigma.psi else None,
        "involution_scalars_all_one": record["involution_scalars_all_one"],
        "recognized_blocks": list(result.sizes),
        "expected_blocks": list(expected),
        "cross_block_products_vanish": cross_block_zero,
        "recognizer_method": result.method,
        "worst_residual": result.residual,
        "passed": result.sizes == expected and cross_block_zero,
    }
    if spec.m == 1:
        cert["explicit_isomorphism"] = _explicit_weyl_isomorphism(sigma, _weyl_coboundary(sigma))
        cert["passed"] = cert["passed"] and cert["explicit_isomorphism"]["verified"]
    return cert


def _cross_block_products_vanish(spec: BlockSpec, twisted: StructAlgebra) -> bool:
    block_of = np.repeat(np.arange(spec.m), [n * n for n in spec.sizes])
    cross = block_of[:, None] != block_of[None, :]
    return not np.any(cross & (twisted.k >= 0))


def _weyl_coboundary(sigma: GroupCocycle) -> dict:
    """For one block, the scalars c with c_g c_h T_g T_h = c_(g+h) sigma(g, h)
    T_(g+h), T_(i,j) = X^i Z^j, along the generators (1,0) and (0,1): the
    coboundary between sigma_0 and the Weyl-relation cocycle."""
    n = sigma.group.factors[0]
    c = {(0, 0): Cyclotomic.one()}
    for i, j in itertools.product(range(n), repeat=2):
        if i:
            c[(i, j)] = c[(i - 1, j)] / sigma.value((1, 0), (i - 1, j))
        elif j:
            c[(i, j)] = c[(i, j - 1)] / sigma.value((i, j - 1), (0, 1))
    return c


def _explicit_weyl_isomorphism(sigma: GroupCocycle, c: dict) -> dict:
    """For one block, map e_g -> c_g T_g and verify, on the phase-permutation
    tables of all pairs at once, every product against the twisted
    convolution, c_g c_h T_g T_h = c_(g+h) sigma(g, h) T_(g+h), and the
    involution, (c_g T_g)* = c_(-g) conj(sigma(-g, g)) T_(-g).  The
    coboundary scalars c are roots of unity; the first failure in the order
    g, then its products over h, then its star, is reported."""
    group = sigma.group
    els, G = group.elements(), group.order
    Lc, forms = monomial_forms([c[g] for g in els])
    if any(form is None or form[0] != 1 for form in forms):
        raise CocycleError("coboundary scalars must be roots of unity")
    image = weyl_basis(group.factors[0]).scaled(Lc, np.array([e for _, e in forms])[:, None])
    products = image.at(np.s_[:, None]).compose(image.at(np.s_[None])).equals(
        image.at(group.addition_table()).scaled(sigma.L, sigma.E[..., None]))
    neg = group.negation()
    stars = image.adjoint().equals(image.at(neg).scaled(sigma.L, -sigma.E[neg, np.arange(G), None]))
    for g in range(G):
        if not products[g].all():
            return {"verified": False, "failed_at": [list(els[g]), list(els[np.argmin(products[g])])]}
        if not stars[g]:
            return {"verified": False, "failed_at": ["star", list(els[g])]}
    return {
        "verified": True,
        "products_checked": G * G,
        "star_checked": G,
        "coboundary": {str(k): repr(v) for k, v in sorted(c.items())},
    }
