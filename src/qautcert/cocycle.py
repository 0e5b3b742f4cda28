"""Finite abelian groups, 2-cocycles, graded algebras and cocycle twists.

The base cocycle on Z_n x Z_n is w'([j1,j2],[k1,k2]) = zeta_n^(j1*k2).
A coboundary normalization produces a cohomologous cocycle with
w(h, h^-1) = 1 for every h; products over blocks give the cocycle used to
twist C(X) into a multimatrix algebra, certified by block recognition.
"""

from __future__ import annotations

import itertools
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
    "trivial_cocycle",
    "normalize_inverse_pairing",
    "product_cocycle",
    "inverse_cocycle",
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

    def neg(self, g):
        return tuple((-a) % f for a, f in zip(g, self.factors))

    def position_map(self) -> dict:
        """g -> the position of g in ``elements()``."""
        return {g: a for a, g in enumerate(self.elements())}

    def addition_table(self) -> np.ndarray:
        """t[a, b] = the position of g_a + g_b, for the elements g in
        ``elements()`` order."""
        els, pos = self.elements(), self.position_map()
        return np.array([[pos[self.add(g, h)] for h in els] for g in els], dtype=np.int64)

    def pairing(self, chi, g) -> Cyclotomic:
        out = Cyclotomic.one()
        for c, a, f in zip(chi, g, self.factors):
            if f > 1 and (c * a) % f:
                out = out * root_of_unity(f, c * a)
        return out

    def pairing_nondegenerate(self) -> bool:
        for chi in self.elements():
            if chi == self.identity:
                continue
            if all(self.pairing(chi, g).is_one() for g in self.elements()):
                return False
        return True


@dataclass
class GroupCocycle:
    """Table-valued normalized 2-cocycle with unit-modulus cyclotomic values."""

    group: FinAbGroup
    table: dict
    psi: dict | None = None  # coboundary record when produced by normalization

    def __post_init__(self):
        self.verify()

    def value(self, g, h) -> Cyclotomic:
        return self.table[(g, h)]

    def verify(self):
        """Normalization, and the cocycle identity on every triple: it is
        the associativity of the twisted group algebra u_g u_h =
        sigma(g, h) u_(g+h), with each value a root of unity zeta_L^e."""
        G = self.group
        els = G.elements()
        e = G.identity
        for g in els:
            if not self.table[(e, g)].is_one() or not self.table[(g, e)].is_one():
                raise CocycleError(f"cocycle not normalized at {g}")
        distinct = {(c.order, c.coeffs): c for c in self.table.values()}
        L, forms = monomial_forms(list(distinct.values()))
        exps = {}
        for (key, c), form in zip(distinct.items(), forms):
            if form is None or form[0] != 1:
                raise CocycleError(f"cocycle value {c!r} is not a root of unity")
            exps[key] = form[1]
        index = G.position_map()
        target = G.addition_table()
        exp = np.zeros_like(target)
        for (g, h), c in self.table.items():
            exp[index[g], index[h]] = exps[(c.order, c.coeffs)]
        ones = np.ones_like(exp)
        bad = associativity_failure(target, exp, ones, ones, L)
        if bad:
            g, h, k = (els[i] for i in bad)
            raise CocycleError(f"cocycle identity fails at ({g},{h},{k})")

    def inverse_pairing_trivial(self) -> bool:
        G = self.group
        return all(self.table[(g, G.neg(g))].is_one() for g in G.elements())


def trivial_cocycle(group: FinAbGroup) -> GroupCocycle:
    one = Cyclotomic.one()
    table = {(g, h): one for g in group.elements() for h in group.elements()}
    return GroupCocycle(group, table)


def base_cocycle(n_t: int) -> GroupCocycle:
    """w'([j1,j2],[k1,k2]) = zeta_{n_t}^(j1 k2) on Z_{n_t} x Z_{n_t}."""
    if n_t < 1:
        raise ValueError("n_t must be >= 1")
    G = FinAbGroup((n_t, n_t))
    table = {}
    for g in G.elements():
        for h in G.elements():
            table[(g, h)] = root_of_unity(n_t, g[0] * h[1]) if n_t > 1 else Cyclotomic.one()
    return GroupCocycle(G, table)


def normalize_inverse_pairing(sigma: GroupCocycle) -> GroupCocycle:
    """Cohomologous cocycle with w(h, h^-1) = 1 for every h.

    Chooses psi(h) with psi(h)^-2 = sigma(h, h^-1) by exponent halving on a
    deterministic representative of each pair {h, h^-1}, copies the value to
    the inverse, and returns sigma * d(psi) together with the psi record.
    """
    G = sigma.group
    psi = {G.identity: Cyclotomic.one()}
    for g in sorted(G.elements()):
        if g in psi:
            continue
        ginv = G.neg(g)
        val = sigma.value(g, ginv)
        psi_g = _principal_inverse_sqrt(val)
        psi[g] = psi_g
        psi.setdefault(ginv, psi_g)
    table = {}
    for g in G.elements():
        for h in G.elements():
            table[(g, h)] = sigma.value(g, h) * psi[g] * psi[h] / psi[G.add(g, h)]
    out = GroupCocycle(G, table, psi=psi)
    if not out.inverse_pairing_trivial():
        raise CocycleError("normalization failed to trivialize inverse pairing")
    return out


def _principal_inverse_sqrt(val: Cyclotomic) -> Cyclotomic:
    """psi with psi^-2 = val, for val a root of unity: write val = zeta_M^k
    and halve the exponent inside zeta_2M, psi = zeta_2M^-k."""
    M = val.order
    for k in range(M):
        if val == root_of_unity(M, k):
            return root_of_unity(2 * M, (2 * M - k) % (2 * M))
    raise CocycleError("cocycle value is not a root of unity")


def product_cocycle(parts: list[GroupCocycle]) -> GroupCocycle:
    """Cocycle on the product group, sigma((g_t), (h_t)) = prod sigma_t(g_t, h_t)."""
    if not parts:
        raise ValueError("need at least one part")
    factors = tuple(f for p in parts for f in p.group.factors)
    G = FinAbGroup(factors)
    widths = [len(p.group.factors) for p in parts]
    table = {}
    for g in G.elements():
        for h in G.elements():
            val = Cyclotomic.one()
            pos = 0
            for p, w in zip(parts, widths):
                val = val * p.value(g[pos:pos + w], h[pos:pos + w])
                pos += w
            table[(g, h)] = val
    psi = None
    if all(p.psi is not None for p in parts):
        psi = {}
        for g in G.elements():
            val = Cyclotomic.one()
            pos = 0
            for p, w in zip(parts, widths):
                val = val * p.psi[g[pos:pos + w]]
                pos += w
            psi[g] = val
    return GroupCocycle(G, table, psi=psi)


def inverse_cocycle(sigma: GroupCocycle) -> GroupCocycle:
    table = {k: v.inverse() for k, v in sigma.table.items()}
    return GroupCocycle(sigma.group, table)


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
    els, deg = G.elements(), graded.positions()
    values = [sigma.value(g, h) for g in els for h in els]
    products, s = _scalar_products(A.scalars, A.s, values, deg[:, None] * len(els) + deg)
    scalars = [sigma.value(G.neg(d), d).conjugate() for d in graded.degrees]
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


def group_algebra(group: FinAbGroup) -> GradedAlgebra:
    """C[K] graded by itself: u_g u_h = u_{gh}, u_g* = u_{g^-1}, tau(u_g) = [g=e]."""
    els, pos = group.elements(), group.position_map()
    k = group.addition_table()
    delta = [Cyclotomic.one() if g == group.identity else Cyclotomic.zero() for g in els]
    alg = StructAlgebra(len(els), [f"u{g}".replace(" ", "") for g in els], k=k, s=np.zeros_like(k),
                        scalars=[Cyclotomic.one()], star_k=[pos[group.neg(g)] for g in els],
                        star_s=np.zeros(len(els), dtype=np.int64), unit=delta, trace=delta)
    return GradedAlgebra(alg, group, tuple(els))


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


def verify_twist_theorem(spec: BlockSpec, seed: int = 0) -> dict:
    """Twist C(X) by sigma_0 and certify the recognized blocks equal the
    partition; for a single block an explicit Weyl-relation isomorphism is
    exhibited as well.  The same computation on both backends; ``seed``
    reaches only the float block recognizer, above dimension 9."""
    graded = fourier_function_algebra(spec)
    sigma = spec_cocycle(spec)
    twisted, record = twist_left(graded, sigma)
    cross_block_zero = _cross_block_products_vanish(spec, twisted)
    result = recognize_blocks(twisted, seed=seed)
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
        cert["explicit_isomorphism"] = _explicit_weyl_isomorphism(spec, graded, sigma, twisted)
        cert["passed"] = cert["passed"] and cert["explicit_isomorphism"]["verified"]
    return cert


def _cross_block_products_vanish(spec: BlockSpec, twisted: StructAlgebra) -> bool:
    block_of = np.repeat(np.arange(spec.m), [n * n for n in spec.sizes])
    cross = block_of[:, None] != block_of[None, :]
    return not np.any(cross & (twisted.k >= 0))


def _explicit_weyl_isomorphism(spec: BlockSpec, graded: GradedAlgebra,
                               sigma: GroupCocycle, twisted: StructAlgebra) -> dict:
    """For one block, map e_[c1,c2] -> c(c1,c2) X^c1 Z^c2 and verify every
    product against the twisted convolution; the scalars c form the recorded
    coboundary between sigma_0 and the Weyl-relation cocycle."""
    n = spec.sizes[0]
    wb = weyl_basis(n)
    c = {(0, 0): Cyclotomic.one()}
    for i in range(n):
        for j in range(n):
            if (i, j) in c:
                continue
            if i > 0:
                prev = c[(i - 1, j)]
                c[(i, j)] = prev / sigma.value((1, 0), (i - 1, j))
            else:
                prev = c[(i, j - 1)]
                c[(i, j)] = prev / sigma.value((i, j - 1), (0, 1))
    index = {}
    for i in range(n):
        for j in range(n):
            index[(i, j)] = i * n + j
    products_checked = 0
    star_checked = 0
    for g in sigma.group.elements():
        for h in sigma.group.elements():
            gh = sigma.group.add(g, h)
            lhs = (wb.t(*g).scale(c[g])) @ (wb.t(*h).scale(c[h]))
            rhs = wb.t(*gh).scale(c[gh] * sigma.value(g, h))
            if not lhs.equals(rhs):
                return {"verified": False, "failed_at": [list(g), list(h)]}
            products_checked += 1
        # *-compatibility: image of the twisted involution of e_g equals the
        # adjoint of the image of e_g.
        ginv = sigma.group.neg(g)
        scal = sigma.value(ginv, g).conjugate()
        lhs = (wb.t(*g).scale(c[g])).adjoint()
        rhs = wb.t(*ginv).scale(c[ginv] * scal)
        if not lhs.equals(rhs):
            return {"verified": False, "failed_at": ["star", list(g)]}
        star_checked += 1
    return {
        "verified": True,
        "products_checked": products_checked,
        "star_checked": star_checked,
        "coboundary": {str(k): repr(v) for k, v in sorted(c.items())},
    }
