"""Crossed products by finite abelian groups, dual actions, and the two
finite-dimensional certificates built on them: the Takesaki-Takai check
(A rtimes Lambda) rtimes dual ~ A x M_|Lambda| and the conjugation-unitary
identity behind the twisted/untwisted crossed-product isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    BlockSpec,
    StructAlgebra,
    apply_columns,
    column_sparse,
    recognize_blocks,
    sparse_eq,
    sparse_vector,
    tensor_algebra,
)
from .arith import Cyclotomic
from .cocycle import (
    FinAbGroup,
    GradedAlgebra,
    GroupCocycle,
    fourier_function_algebra,
)

__all__ = [
    "GroupAction",
    "CrossedProduct",
    "crossed_product",
    "dual_action",
    "translation_action",
    "action_from_graded",
    "inner_action",
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
    """Per-element *-automorphisms of a StructAlgebra, verified on basis:
    multiplicative, unital, involution-compatible, trace-preserving, and
    composing along the group law.

    ``maps`` may be given as dense matrices (rows of scalars); internally the
    action is kept column-sparse.
    """

    group: FinAbGroup
    algebra: StructAlgebra
    maps: dict
    cols: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.cols = {}
        for g in self.group.elements():
            if g not in self.maps:
                raise NotAutomorphism(f"missing map for {g}")
            m = self.maps[g]
            self.cols[g] = m if isinstance(m, tuple) else column_sparse(m)
        self._verify()

    @classmethod
    def from_columns(cls, group, algebra, cols):
        return cls(group, algebra, {g: tuple(tuple(col) for col in c)
                                    for g, c in cols.items()})

    def apply_sparse(self, g, vec: dict) -> dict:
        return apply_columns(self.cols[g], vec.items())

    def _verify(self):
        A = self.algebra
        G = self.group
        for i, col in enumerate(self.cols[G.identity]):
            if dict(col) != {i: Cyclotomic.one()}:
                raise NotAutomorphism("identity element does not act trivially")
        for g in G.elements():
            failure = A.automorphism_failure(self.cols[g])
            if failure == "trace-preserving":
                raise NotAutomorphism(f"action of {g} does not preserve the trace")
            if failure:
                raise NotAutomorphism(f"action of {g} is not {failure}")
        for g in G.elements():
            for h in G.elements():
                gh = G.add(g, h)
                for i in range(A.dim):
                    lhs = apply_columns(self.cols[g], self.cols[h][i])
                    if not sparse_eq(lhs, dict(self.cols[gh][i])):
                        raise NotAutomorphism(f"composition fails at ({g},{h})")


@dataclass
class CrossedProduct:
    base: StructAlgebra
    group: FinAbGroup
    algebra: StructAlgebra
    index: dict  # (basis index of A, group element) -> basis index

    def z_vector(self, g) -> dict:
        """The distinguished unitary z_g = 1_A z_g as a sparse vector."""
        return {self.index[(i, g)]: a for i, a in enumerate(self.base.unit)
                if not a.is_zero()}

    def embed(self, vec: dict) -> dict:
        """A -> A rtimes Lambda, b -> b z_e, on sparse vectors."""
        e = self.group.identity
        return {self.index[(i, e)]: a for i, a in vec.items()}


def crossed_product(action: GroupAction, verify_relations: bool = True) -> CrossedProduct:
    """A rtimes Lambda on the basis {b_i z_g}: (b_i z_g)(b_j z_h) =
    b_i theta_g(b_j) z_{gh}, (b z_g)* = theta_{g^-1}(b*) z_{g^-1},
    tau(b z_g) = [g = e] tau_A(b)."""
    A = action.algebra
    G = action.group
    els = G.elements()
    index = {}
    labels = []
    for i in range(A.dim):
        for g in els:
            index[(i, g)] = len(labels)
            labels.append(f"{A.labels[i]}.z{g}")
    dim = len(labels)
    one = Cyclotomic.one()
    mul = {}
    for g in els:
        cols_g = action.cols[g]
        for i in range(A.dim):
            for j in range(A.dim):
                acc = A.mul_sparse(((i, one),), cols_g[j])  # b_i theta_g(b_j)
                if not acc:
                    continue
                terms = sorted(acc.items())
                for h in els:
                    gh = G.add(g, h)
                    mul[(index[(i, g)], index[(j, h)])] = tuple(
                        (index[(k, gh)], c) for k, c in terms)
    invol = [None] * dim
    unit = [Cyclotomic.zero() for _ in range(dim)]
    trace = [Cyclotomic.zero() for _ in range(dim)]
    e = G.identity
    for (i, g), a in index.items():
        ginv = G.neg(g)
        star = action.apply_sparse(ginv, A.invol_sparse(((i, one),)))
        invol[a] = tuple((index[(k, ginv)], c) for k, c in sorted(star.items()))
        if g == e:
            unit[a] = A.unit[i]
            trace[a] = A.trace[i]
    alg = StructAlgebra(dim, labels, mul=mul, invol=invol, unit=unit,
                        trace=trace, tracial=A.tracial)
    out = CrossedProduct(A, G, alg, index)
    if verify_relations:
        _verify_crossed_relations(out, action)
    return out


def _verify_crossed_relations(cp: CrossedProduct, action: GroupAction):
    A, G, alg = cp.base, cp.group, cp.algebra
    one = Cyclotomic.one()
    unit = cp.embed(sparse_vector(A.unit))
    for g in G.elements():
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
            if not sparse_eq(lhs, cp.embed(dict(action.cols[g][i]))):
                raise NotAutomorphism(f"z_{g} b z_{g}* != action_{g}(b)")


def dual_action(cp: CrossedProduct) -> GroupAction:
    """The dual group acting by z_g -> <chi, g> z_g (diagonal on the basis).

    The pairing is the global identification table from the cocycle module.
    """
    G = cp.group
    alg = cp.algebra
    cols = {}
    for chi in G.elements():
        col = [None] * alg.dim
        for (i, g), a in cp.index.items():
            col[a] = ((a, G.pairing(chi, g)),)
        cols[chi] = tuple(col)
    return GroupAction.from_columns(G, alg, cols)


def translation_action(spec: BlockSpec):
    """Gamma acting on C(X) by translation, in the character basis, with the
    graded algebra returned alongside (the action is diagonal there)."""
    graded = fourier_function_algebra(spec)
    return action_from_graded(graded), graded


def action_from_graded(graded: GradedAlgebra) -> GroupAction:
    """The diagonal action attached to a grading: g acts on degree chi by
    the pairing <chi, g>."""
    G = graded.group
    A = graded.algebra
    cols = {}
    for g in G.elements():
        cols[g] = tuple(((i, G.pairing(graded.degrees[i], g)),) for i in range(A.dim))
    return GroupAction.from_columns(G, A, cols)


def inner_action(group: FinAbGroup, algebra: StructAlgebra, unitary_vec) -> GroupAction:
    """Cyclic inner action Ad(u^k) of Z_n given the coordinate vector of a
    unitary u with u^n = 1."""
    if len(group.factors) != 1:
        raise ValueError("inner_action builds cyclic actions only")
    n = group.factors[0]
    A = algebra
    u = sparse_vector(unitary_vec)
    ustar = A.invol_sparse(u.items())
    cols_by_power = []
    cur = {i: {i: Cyclotomic.one()} for i in range(A.dim)}
    for _ in range(n):
        cols_by_power.append(cur)
        nxt = {}
        for i in range(A.dim):
            nxt[i] = A.mul_sparse(A.mul_sparse(u.items(), cur[i].items()).items(),
                                  ustar.items())
        cur = nxt
    cols = {}
    for k in range(n):
        cols[(k,)] = tuple(tuple(sorted(cols_by_power[k][i].items()))
                           for i in range(A.dim))
    return GroupAction.from_columns(group, A, cols)


def takesaki_takai_check(action: GroupAction, seed: int = 0) -> dict:
    """Blocks of (A rtimes Lambda) rtimes dual-Lambda against the blocks of
    the independently built A x M_|Lambda|.  ``seed`` reaches only the float
    block recognizer, above dimension 9."""
    cp = crossed_product(action)
    dp = crossed_product(dual_action(cp), verify_relations=False)
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
    for k in K.elements():
        if not sigma.value(k, K.neg(k)).is_one():
            raise NormalizationMissing(f"sigma({k}, -{k}) != 1")
    A = graded.algebra
    els = K.elements()
    # Applied to a basis vector delta_g x delta_k' x b_j, both operators land
    # on delta_(hg) x delta_(hk') x (x b_j), so the coefficient comparison
    # splits into the cocycle factor (per k') and the shared product
    # expansion x b_j (per j); vectors in any other first-leg fibre vanish on
    # both sides because of the (chi_g)_1 projection.
    product_nnz = int(np.count_nonzero(A.k >= 0))
    cases = 0
    scalar_checks = 0
    for x_idx in range(A.dim):
        h = graded.degrees[x_idx]
        for g in els:
            for kp in els:
                # V* gives conj(sigma(g^-1, k')), the twisted generator gives
                # sigma(h, k'), V gives sigma((hg)^-1, hk'); the target is
                # sigma(h, g).
                lhs = (
                    sigma.value(K.neg(g), kp).conjugate()
                    * sigma.value(h, kp)
                    * sigma.value(K.neg(K.add(h, g)), K.add(h, kp))
                )
                if lhs != sigma.value(h, g):
                    return {
                        "passed": False,
                        "failed_at": {"x": A.labels[x_idx], "g": list(g),
                                      "kp": list(kp)},
                    }
                scalar_checks += 1
            cases += 1
    return {
        "passed": True,
        "group_order": K.order,
        "algebra_dim": A.dim,
        "space_dim": K.order * K.order * A.dim,
        "cases": cases,
        "coefficient_checks": scalar_checks * max(product_nnz // A.dim, 1),
        "worst_residual": 0.0,
    }
