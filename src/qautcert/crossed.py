"""Crossed products by finite abelian groups, dual actions, and the two
finite-dimensional certificates built on them: the Takesaki-Takai check
(A rtimes Lambda) rtimes dual ~ A x M_|Lambda| and the conjugation-unitary
identity behind the twisted/untwisted crossed-product isomorphism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    MonomialMap,
    StructAlgebra,
    _monomials_differ,
    _scalar_products,
    recognize_blocks,
    sparse_eq,
    sparse_vector,
    tensor_algebra,
)
from .arith import Cyclotomic
from .cocycle import FinAbGroup, GradedAlgebra, GroupCocycle

__all__ = [
    "GroupAction",
    "CrossedProduct",
    "crossed_product",
    "dual_action",
    "action_from_graded",
    "takesaki_takai_check",
    "conjugation_lemma_check",
    "NotAutomorphism",
    "NormalizationMissing",
]


class NotAutomorphism(ValueError):
    pass


class NormalizationMissing(ValueError):
    pass


@dataclass
class GroupAction:
    """An action of a finite abelian group on a StructAlgebra by monomial
    *-automorphisms: ``thetas[g]`` is the MonomialMap theta_g.  Checked on
    the basis at construction, on arrays: the identity acts trivially,
    each theta_g is unital, multiplicative, *-compatible and
    trace-preserving (``StructAlgebra.automorphism_failure``), and
    theta_g theta_h = theta_(g+h) for every pair."""

    group: FinAbGroup
    algebra: StructAlgebra
    thetas: dict

    def __post_init__(self):
        A, G = self.algebra, self.group
        els = G.elements()
        for g in els:
            if g not in self.thetas:
                raise NotAutomorphism(f"missing map for {g}")
        ident = self.thetas[G.identity]
        if (not np.array_equal(ident.k, np.arange(A.dim))
                or not all(c.is_one() for c in ident.scalars)):
            raise NotAutomorphism("identity element does not act trivially")
        for g in els:
            failure = A.automorphism_failure(self.thetas[g])
            if failure == "trace-preserving":
                raise NotAutomorphism(f"action of {g} does not preserve the trace")
            if failure:
                raise NotAutomorphism(f"action of {g} is not {failure}")
        maps = [self.thetas[g] for g in els]
        L = math.lcm(*(m.L for m in maps))
        k, e = np.stack([m.k for m in maps]), np.stack([m.exp * (L // m.L) for m in maps])
        num, den = np.stack([m.num for m in maps]), np.stack([m.den for m in maps])
        for t, (g, gh) in enumerate(zip(els, G.addition_table())):
            # theta_g theta_h (b_i) = c^h_i c^g_(k_h[i]) b_(k_g[k_h[i]]), for every h at once
            bad = _monomials_differ(k[t][k], e + e[t][k], num * num[t][k], den * den[t][k],
                                    k[gh], e[gh], num[gh], den[gh], L).any(axis=1)
            if bad.any():
                raise NotAutomorphism(f"composition fails at ({g},{els[int(np.argmax(bad))]})")


@dataclass
class CrossedProduct:
    base: StructAlgebra
    group: FinAbGroup
    algebra: StructAlgebra
    index: dict  # (basis index of A, group element) -> basis index, in basis order

    def z_vector(self, g) -> dict:
        """The distinguished unitary z_g = 1_A z_g as a sparse vector."""
        return {self.index[(i, g)]: a for i, a in enumerate(self.base.unit)
                if not a.is_zero()}

    def embed(self, vec: dict) -> dict:
        """A -> A rtimes Lambda, b -> b z_e, on sparse vectors."""
        e = self.group.identity
        return {self.index[(i, e)]: a for i, a in vec.items()}


def crossed_product(action: GroupAction) -> CrossedProduct:
    """A rtimes Lambda on the basis {b_i z_g}: (b_i z_g)(b_j z_h) =
    b_i theta_g(b_j) z_{gh}, (b z_g)* = theta_{g^-1}(b*) z_{g^-1},
    tau(b z_g) = [g = e] tau_A(b).  Every product and star is one term,
    read off the arrays of A and of the maps; the relations of z_g are
    checked on the result."""
    A, G = action.algebra, action.group
    els = G.elements()
    n = len(els)
    index = {(i, g): i * n + a for i in range(A.dim) for a, g in enumerate(els)}
    labels = [f"{A.labels[i]}.z{g}".replace(" ", "") for i, g in index]
    dim = len(labels)
    thetas = [action.thetas[g] for g in els]
    theta_k = np.stack([theta.k for theta in thetas])  # (g, j)
    theta_c = [c for theta in thetas for c in theta.scalars]  # at g n_A + j
    add = G.addition_table()
    # (b_i z_g)(b_j z_h) = b_i theta_g(b_j) z_(g+h) = c^g_j c_(i, k_g[j]) b_K[i, k_g[j]] z_(g+h),
    # on axes (i, g, j, h)
    i, g, j, h = np.ix_(range(A.dim), range(n), range(A.dim), range(n))
    K = A.k[i, theta_k[g, j]]
    products, S = _scalar_products(theta_c, g * A.dim + j, A.scalars, A.s[i, theta_k[g, j]])
    k = np.where(K >= 0, K * n + add[g, h], -1).reshape(dim, dim)
    s = np.broadcast_to(S, (A.dim, n, A.dim, n)).reshape(dim, dim)
    # (b_i z_g)* = theta_(-g)(b_i*) z_(-g) = s_i c^(-g)_(i*) b_(k_(-g)[i*]) z_(-g)
    i, g = np.ix_(range(A.dim), range(n))
    neg, istar = G.negation()[g], A.star_k[i]
    stars, star_s = _scalar_products(A.scalars, A.star_s[i], theta_c, neg * A.dim + istar)
    star_k = theta_k[neg, istar] * n + neg
    zero = Cyclotomic.zero()
    unit = [A.unit[i] if g == G.identity else zero for i, g in index]
    trace = [A.trace[i] if g == G.identity else zero for i, g in index]
    alg = StructAlgebra(dim, labels, k=k, s=s, scalars=products + stars,
                        star_k=star_k.ravel(), star_s=star_s.ravel() + len(products),
                        unit=unit, trace=trace)
    out = CrossedProduct(A, G, alg, index)
    _verify_crossed_relations(out, action)
    return out


def _verify_crossed_relations(cp: CrossedProduct, action: GroupAction):
    A, G, alg = cp.base, cp.group, cp.algebra
    one = Cyclotomic.one()
    unit = cp.embed(sparse_vector(A.unit))
    for g in G.elements():
        theta = action.thetas[g]
        zg = cp.z_vector(g).items()
        zg_star = alg.invol_sparse(zg).items()
        if not sparse_eq(alg.mul_sparse(zg, zg_star), unit):
            raise NotAutomorphism(f"z_{g} is not unitary in the crossed product")
        for h in G.elements():
            lhs = alg.mul_sparse(zg, cp.z_vector(h).items())
            if not sparse_eq(lhs, cp.z_vector(G.add(g, h))):
                raise NotAutomorphism(f"z_{g} z_{h} != z_(gh)")
        for i in range(A.dim):
            b = cp.embed({i: one}).items()
            lhs = alg.mul_sparse(alg.mul_sparse(zg, b).items(), zg_star)
            if not sparse_eq(lhs, cp.embed({theta.k.item(i): theta.scalars[i]})):
                raise NotAutomorphism(f"z_{g} b z_{g}* != action_{g}(b)")


def dual_action(cp: CrossedProduct) -> GroupAction:
    """The dual group acting by z_g -> <chi, g> z_g (diagonal on the basis).

    The pairing is the global identification table from the cocycle module.
    """
    G = cp.group
    return GroupAction(G, cp.algebra, {chi: MonomialMap(range(cp.algebra.dim),
                                                        [G.pairing(chi, g) for _, g in cp.index])
                                       for chi in G.elements()})


def action_from_graded(graded: GradedAlgebra, group: FinAbGroup | None = None) -> GroupAction:
    """The diagonal action attached to a grading: g acts on degree chi by
    the pairing <chi, g>.  ``group`` is the acting subgroup, by default the
    whole grading group; its elements are zero-padded on the right into the
    grading group."""
    G = graded.group
    group = G if group is None else group
    pad = (0,) * (len(G.factors) - len(group.factors))
    return GroupAction(group, graded.algebra, {
        g: MonomialMap(range(graded.algebra.dim), [G.pairing(chi, g + pad) for chi in graded.degrees])
        for g in group.elements()})


def takesaki_takai_check(action: GroupAction, seed: int = 0) -> dict:
    """Blocks of (A rtimes Lambda) rtimes dual-Lambda against the blocks of
    the independently built A x M_|Lambda|.  ``seed`` reaches only the float
    block recognizer, above dimension 9."""
    cp = crossed_product(action)
    dp = crossed_product(dual_action(cp))
    double = dp.algebra
    blocks_double = recognize_blocks(double, seed=seed)
    oracle = tensor_algebra(action.algebra, action.group.order)
    blocks_oracle = recognize_blocks(oracle, seed=seed)
    return {
        "base_dim": action.algebra.dim,
        "group_order": action.group.order,
        "double_crossed_dim": double.dim,
        "double_crossed_blocks": list(blocks_double.sizes),
        "tensor_oracle_blocks": list(blocks_oracle.sizes),
        "recognizer_methods": [blocks_double.method, blocks_oracle.method],
        "worst_residual": max(blocks_double.residual, blocks_oracle.residual),
        "passed": blocks_double.sizes == blocks_oracle.sizes,
    }


def conjugation_lemma_check(graded: GradedAlgebra, sigma: GroupCocycle) -> dict:
    """Exact coefficient check, on l2(K) x l2(K) x A with K the grading
    group, that Ad V conjugates the twisted-crossed generators to cocycle-
    weighted untwisted ones:

        V (alpha'_sigma(x) (chi_g)_1) V* = sum_h sigma(h, g) alpha'(x_h) (chi_g)_1

    for homogeneous x, where V delta_k x delta_k' = sigma(k^-1, k') (...),
    alpha'_sigma(x) = lambda_k x lambda^sigma_k x L_x on the graded pieces,
    and x_h is the degree-h component.  Requires sigma(k, k^-1) = 1.
    """
    K = graded.group
    if sigma.group != K:
        raise ValueError("cocycle group must equal the grading group")
    els, E, L = K.elements(), sigma.E, sigma.L
    neg, add = K.negation(), K.addition_table()
    unnormalized = E[np.arange(K.order), neg] != 0
    if unnormalized.any():
        k = els[np.argmax(unnormalized)]
        raise NormalizationMissing(f"sigma({k}, -{k}) != 1")
    A = graded.algebra
    # Applied to a basis vector delta_g x delta_k' x b_j, both operators land
    # on delta_(hg) x delta_(hk') x (x b_j), so the coefficient comparison
    # splits into the cocycle factor (per k') and the shared product
    # expansion x b_j (per j); vectors in any other first-leg fibre vanish on
    # both sides because of the (chi_g)_1 projection.  The cocycle factor
    # depends on x only through its degree h: V* gives conj(sigma(g^-1, k')),
    # the twisted generator gives sigma(h, k'), V gives sigma((hg)^-1, hk'),
    # and the target is sigma(h, g), for every (g, k') at once, in exponents.
    deg = graded.positions()
    for x_idx in np.sort(np.unique(deg, return_index=True)[1]):  # the first x of each degree
        h = deg[x_idx]
        bad = (-E[neg] + E[h] + E[np.ix_(neg[add[h]], add[h])] - E[h][:, None]) % L != 0
        if bad.any():
            g, kp = np.argwhere(bad)[0].tolist()
            return {
                "passed": False,
                "failed_at": {"x": A.labels[x_idx], "g": list(els[g]), "kp": list(els[kp])},
            }
    product_nnz = int(np.count_nonzero(A.k >= 0))
    return {
        "passed": True,
        "group_order": K.order,
        "algebra_dim": A.dim,
        "space_dim": K.order * K.order * A.dim,
        "cases": A.dim * K.order,
        "coefficient_checks": A.dim * K.order * K.order * max(product_nnz // A.dim, 1),
        "worst_residual": 0.0,
    }
