"""Finite-dimensional *-algebras given by structure constants.

Multimatrix algebras carry the Plancherel trace psi(A) = sum_r (n_r/N) Tr(A_r),
the unique tracial state whose multiplication map satisfies m m* = N id with
respect to the GNS inner products.  Block recognition certifies isomorphism
type by splitting the center into primitive idempotents.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.linalg import LinAlgError, lapack_lite

from .arith import Cyclotomic, accumulate, root_of_unity

__all__ = [
    "BlockSpec",
    "StructAlgebra",
    "sparse_vector",
    "sparse_eq",
    "MonomialMap",
    "multimatrix",
    "tensor_algebra",
    "delta_form_check",
    "center",
    "recognize_blocks",
    "BlocksResult",
    "NotDeltaForm",
    "NotFaithful",
    "NotSemisimple",
    "NonSquareBlock",
    "RecognitionError",
    "AxiomViolation",
]


class NotDeltaForm(ValueError):
    pass


class NotFaithful(ValueError):
    pass


class NotSemisimple(ValueError):
    pass


class NonSquareBlock(ValueError):
    pass


class RecognitionError(RuntimeError):
    pass


class AxiomViolation(ValueError):
    pass


@dataclass(frozen=True)
class BlockSpec:
    """A partition (n_1, ..., n_m) of matrix block sizes."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("all block sizes must be >= 1")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))

    @property
    def m(self) -> int:
        return len(self.sizes)

    @property
    def N(self) -> int:
        return sum(n * n for n in self.sizes)

    @property
    def d(self) -> int:
        out = 1
        for n in self.sizes:
            out *= n
        return out

    @property
    def D(self) -> int:
        """Size of the block-diagonal embedding, sum of the n_r."""
        return sum(self.sizes)


# Rationals in the axiom checks are products of at most five table entries;
# numerators and denominators below this bound keep them inside int64.
_INT64_RATIONAL_BOUND = 2**12
# Relative singular-value cutoff of the float center: the default float tolerance.
_FLOAT_EPS = 1e-9
# Largest distance |tr - d| / max(1, |tr|) of a float idempotent's regular
# trace tr from the integer d = d_e^2 it is read as.
_TRACE_EPS = 1e-6


def monomial_forms(values):
    """(L, forms): L = lcm(2, orders of the values), and forms[t] = (q, e)
    with values[t] = q zeta_L^e and q a positive Fraction, or None where
    values[t] is not of that form.  The roots of unity in Q(zeta_M) are the
    lcm(2, M)-th ones, so L suffices.  Each exponent is read off the
    argument of the value and confirmed exactly."""
    L = math.lcm(2, *(c.order for c in values))
    forms = []
    for c in values:
        e = round(cmath.phase(c.to_complex()) * L / (2 * math.pi)) % L
        q = c * root_of_unity(L, -e)
        forms.append((q.as_fraction(), e) if q.is_rational() and q.as_fraction() > 0
                     else None)
    return L, forms


def _monomial_arrays(values):
    """(L, exp, num, den) with values[t] = (num[t]/den[t]) zeta_L^exp[t], as
    ``monomial_forms`` reads them; AxiomViolation for any other value."""
    L, forms = monomial_forms(values)
    for c, form in zip(values, forms):
        if form is None:
            raise AxiomViolation(f"{c!r} is not a rational times a root of unity")
    big = max((max(q.numerator, q.denominator) for q, _ in forms), default=1)
    dtype = np.int64 if big < _INT64_RATIONAL_BOUND else object
    return (L, np.array([e for _, e in forms], dtype=np.int64),
            np.array([q.numerator for q, _ in forms], dtype=dtype),
            np.array([q.denominator for q, _ in forms], dtype=dtype))


def _monomials_differ(k1, e1, n1, d1, k2, e2, n2, d2, L):
    """Where (n1/d1) zeta_L^e1 b_k1 and (n2/d2) zeta_L^e2 b_k2 differ,
    elementwise; k = -1 stands for zero."""
    return (k1 != k2) | ((k1 >= 0) & (((e1 - e2) % L != 0) | (n1 * d2 != n2 * d1)))


def _generators(k) -> np.ndarray:
    """Basis indices that generate the algebra of the products ``k``
    (k = -1: zero), in ascending order: each index not yet reached is added,
    and the reached set is closed under right multiplication by the
    generators.  Every stored scalar is nonzero, so a reached b_t is a
    nonzero multiple of a left-normed word in the generators.  Each element
    is reached once and multiplied then by the generators so far, and each
    new generator multiplies the reached set once: O(dim r) lookups for r
    generators."""
    rows = k.tolist()
    reached = [False] * len(rows)
    words: list = []  # the reached indices, in the order reached
    gens: list = []
    for g in range(len(rows)):
        if reached[g]:
            continue
        gens.append(g)
        new = [rows[t][g] for t in words] + [g]  # the words so far times b_g, and b_g
        while new:
            fresh = [t for t in set(new) if t >= 0 and not reached[t]]
            for t in fresh:
                reached[t] = True
            words += fresh
            new = [rows[t][h] for t in fresh for h in gens]
    return np.array(gens, dtype=np.int64)


# how the exponent, numerator and denominator planes of two products combine
_PLANE_OPS = (np.add, np.multiply, np.multiply)


def _with_unit_ratios(planes: list) -> list:
    """Exponent planes, or exponent, numerator and denominator planes, as
    the three of ``_monomials_differ``: absent ratios are 1/1."""
    return planes + [1, 1] if len(planes) == 1 else planes


def associativity_failure(k, e, L, num=None, den=None, generators=None):
    """First basis triple (i, j, l), in lexicographic order, at which
    (b_i b_j) b_l != b_i (b_j b_l), or None, for the monomial products
    b_i b_j = (num/den)[i, j] zeta_L^e[i, j] b_k[i, j] (k = -1: zero; num
    and den None: all ones, and only targets and exponents are compared).

    Light's test decides whether there is one.  The a with (x a) y = x (a y)
    for all x and y form a subalgebra: for two of them, x (a a') = (x a) a',
    so (x (a a')) y = (x a) (a' y) = x (a (a' y)) = x ((a a') y).  So the
    identity on the basis elements ``generators`` (by default
    ``_generators(k)``) holds on every triple.  Only when it fails is the
    first triple looked for, one row i at a time.  Memory stays O(dim^2)."""
    planes = [e] if num is None else [e, num, den]
    columns = [p.T.copy() for p in [k] + planes]  # row a: column a
    if not any(_middle_differs(k, planes, columns, a, L).any()
               for a in (_generators(k) if generators is None else generators)):
        return None
    for i in range(k.shape[0]):
        ki = k[i]
        # (b_i b_j) b_l = c_ij c_(ki[j], l) b_k[ki[j], l]
        left = [op(p[i][:, None], p[ki]) for p, op in zip(planes, _PLANE_OPS)]
        # b_i (b_j b_l) = c_jl c_(i, k[j, l]) b_ki[k[j, l]]
        right = [op(p, p[i][k]) for p, op in zip(planes, _PLANE_OPS)]
        bad = _monomials_differ(np.where(ki[:, None] >= 0, k[ki], -1), *_with_unit_ratios(left),
                                np.where(k >= 0, ki[k], -1), *_with_unit_ratios(right), L)
        if bad.any():
            j, l = np.argwhere(bad)[0].tolist()
            return i, j, l
    return None


def _middle_differs(k, planes, columns, a, L):
    """Where (b_x b_a) b_y != b_x (b_a b_y), over (x, y), for the products
    of ``associativity_failure``; ``columns`` are k and the planes
    transposed, so that every gather takes whole rows."""
    kc, *pc = columns
    ka, ra = kc[a], k[a]  # b_x b_a = c_xa b_ka[x] and b_a b_y = c_ay b_ra[y]
    # (b_x b_a) b_y = c_xa c_(ka[x], y) b_k[ka[x], y]
    left = [op(q[a][:, None], p[ka]) for p, q, op in zip(planes, pc, _PLANE_OPS)]
    # b_x (b_a b_y) = c_ay c_(x, ra[y]) b_k[x, ra[y]], formed over (y, x)
    right = [op(p[a][:, None], q[ra]).T for p, q, op in zip(planes, pc, _PLANE_OPS)]
    return _monomials_differ(np.where(ka[:, None] >= 0, k[ka], -1), *_with_unit_ratios(left),
                             np.where(ra[:, None] >= 0, kc[ra], -1).T,
                             *_with_unit_ratios(right), L)


class StructAlgebra:
    """A *-algebra with basis, exact monomial structure constants, involution
    and trace.

    Each product b_i b_j is zero or c b_k, and each b_i* is c b_k, with c a
    positive rational times a root of unity.  They are stored as arrays, the
    one form of the structure constants: ``k[i, j]`` is the target of
    b_i b_j, -1 when it is zero, and ``s[i, j]`` indexes ``scalars``;
    ``star_k``/``star_s`` hold b_i* the same way.  ``scalars`` holds one
    object per distinct (order, coefficients), numbered in order of first
    use, row-major over ``k`` and then the stars, so every construction of
    the same algebra gives the same ``scalars`` and ``s``.  Scalar t is
    (num[t]/den[t]) zeta_L^exp[t], with L even.  ``unit`` and ``trace`` are
    scalar lists.  Term tuples ((k, c),) appear only in ``product`` and
    ``star``.  The sparse element operations take elements as iterables of
    (k, coefficient) pairs (a dict's ``items()``, or the tuples of
    ``product`` and ``star``) and return dicts {k: coefficient} without
    zeros.  Linear maps on the basis are MonomialMaps.
    """

    def __init__(self, dim, labels, *, k, s, scalars, star_k, star_s, unit, trace):
        self.dim = dim
        self.labels = tuple(labels)
        k, s = np.array(k, dtype=np.int64), np.array(s, dtype=np.int64)
        star_k, star_s = np.array(star_k, dtype=np.int64), np.array(star_s, dtype=np.int64)
        scalars = [Cyclotomic._coerce(c) for c in scalars]
        self.unit = [Cyclotomic._coerce(c) for c in unit]
        self.trace = [Cyclotomic._coerce(c) for c in trace]
        if (k.shape != (dim, dim) or s.shape != k.shape or star_k.shape != (dim,)
                or star_s.shape != (dim,)
                or not len(self.labels) == len(self.unit) == len(self.trace) == dim):
            raise ValueError(f"structure constants do not have dimension {dim}")
        live = k >= 0
        targets, used = np.concatenate([k.ravel(), star_k]), np.concatenate([s[live], star_s])
        if not (((-1 <= targets) & (targets < dim)).all()
                and ((0 <= used) & (used < len(scalars))).all()):
            raise ValueError("structure constant index out of range")
        if (star_k < 0).any():
            raise AxiomViolation(f"b_{np.argmax(star_k < 0)}* is zero")
        # renumber the distinct values in order of first use
        firsts, at = np.unique(used, return_index=True)
        remap = np.zeros(len(scalars), dtype=np.int64)
        slots: dict = {}  # (order, coeffs) -> (new index, value)
        for t in firsts[np.argsort(at)].tolist():
            c = scalars[t]
            remap[t] = slots.setdefault((c.order, c.coeffs), (len(slots), c))[0]
        self.scalars = [c for _, c in slots.values()]
        self.k, self.s = k, np.zeros_like(k)
        self.s[live] = remap[s[live]]
        self.star_k, self.star_s = star_k, remap[star_s]
        self.L, self.exp, self.num, self.den = _monomial_arrays(self.scalars)
        self.verify_axioms()

    # -- basis products -------------------------------------------------------
    def product(self, i, j) -> tuple:
        """b_i b_j as a tuple of (k, c) pairs: empty, or one pair."""
        k = self.k.item(i, j)
        return () if k < 0 else ((k, self.scalars[self.s.item(i, j)]),)

    def star(self, i) -> tuple:
        """b_i* as a tuple of one (k, c) pair."""
        return ((self.star_k.item(i), self.scalars[self.star_s.item(i)]),)

    # -- element operations ----------------------------------------------------
    def mul_sparse(self, u, v) -> dict:
        out: dict = {}
        for i, a in u:
            for j, b in v:
                terms = self.product(i, j)
                if terms:
                    accumulate(out, a * b, terms)
        return out

    def invol_sparse(self, terms) -> dict:
        out: dict = {}
        for i, a in terms:
            accumulate(out, a.conjugate(), self.star(i))
        return out

    # -- verification ---------------------------------------------------------
    def verify_axioms(self):
        """Check every axiom on the basis: associativity on all triples (by
        Light's test, ``associativity_failure``), antimultiplicativity of the
        involution and the trace property on all pairs, involutivity and the
        unit on every basis element."""
        K, L = self.k, self.L
        E, N, D = self.exp[self.s], self.num[self.s], self.den[self.s]
        ratios = () if (self.num == 1).all() and (self.den == 1).all() else (N, D)
        bad = associativity_failure(K, E, L, *ratios)
        if bad:
            raise AxiomViolation("associativity fails at basis triple ({},{},{})".format(*bad))
        ik, ie = self.star_k, self.exp[self.star_s]
        inum, iden = self.num[self.star_s], self.den[self.star_s]
        # (b_i b_j)* = conj(c_ij) b_k* against b_j* b_i* = c_j* c_i* b_(j*) b_(i*)
        rs = self.s[np.ix_(ik, ik)].T
        bad = _monomials_differ(
            np.where(K >= 0, ik[K], -1), ie[K] - E, N * inum[K], D * iden[K],
            K[np.ix_(ik, ik)].T, ie[:, None] + ie[None, :] + self.exp[rs],
            inum[:, None] * inum[None, :] * self.num[rs],
            iden[:, None] * iden[None, :] * self.den[rs], L)
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise AxiomViolation(f"involution is not antimultiplicative at ({i},{j})")
        # (b_i*)* = conj(c_i) c_(i*) b_(i**) against b_i
        bad = _monomials_differ(ik[ik], ie[ik] - ie, inum * inum[ik], iden * iden[ik],
                                np.arange(self.dim), 0, 1, 1, L)
        if bad.any():
            raise AxiomViolation(f"involution is not involutive at basis {np.argmax(bad)}")
        support = [t for t, c in enumerate(self.unit) if not c.is_zero()]
        u = [self.unit[t] for t in support]
        left = _fixes_basis(u, self.k[support], self.s[support], self.scalars)
        right = _fixes_basis(u, self.k[:, support].T, self.s[:, support].T, self.scalars)
        if not (left & right).all():
            i = int(np.argmin(left & right))
            raise AxiomViolation(f"unit fails on the {'left' if not left[i] else 'right'} "
                                 f"at basis {i}")
        values = self._trace_of_products()
        bad = values != values.T
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise AxiomViolation(f"trace is not tracial at ({i},{j})")

    def _trace_of_products(self):
        """Array whose entries (i, j) and (p, q) are equal iff
        tr(b_i b_j) = tr(b_p b_q): one exact product c tr(b_k) per distinct
        pair of scalar and target (a zero product pairs with a zero appended
        to the trace), then one code per distinct value."""
        values, t = _scalar_products(self.scalars, self.s, self.trace + [Cyclotomic.zero()],
                                     np.where(self.k >= 0, self.k, self.dim))
        L = math.lcm(*(v.order for v in values))
        codes: dict = {}
        code = np.array([codes.setdefault(v.promoted(L).coeffs, len(codes))
                         for v in values], dtype=np.int64)
        return code[t]

    def automorphism_failure(self, theta) -> str | None:
        """Check the monomial map ``theta`` (a MonomialMap on this basis)
        on every basis element and pair.  Returns the first property it
        lacks, one of "unital", "multiplicative", "*-compatible" and
        "trace-preserving", or None when it is a trace-preserving unital
        *-endomorphism."""
        k, c = theta.k, theta.scalars
        if k.shape != (self.dim,) or not ((0 <= k) & (k < self.dim)).all():
            raise ValueError(f"not a map on a basis of dimension {self.dim}")
        unit, image = sparse_vector(self.unit), {}
        for i, a in unit.items():
            accumulate(image, a, ((k.item(i), c[i]),))
        if not sparse_eq(image, unit):
            return "unital"
        L = math.lcm(self.L, theta.L)
        e, n, d = theta.exp * (L // theta.L), theta.num, theta.den
        K, E, N, D = self.k, self.exp[self.s] * (L // self.L), self.num[self.s], self.den[self.s]
        # theta(b_i b_j) = c_ij c_(K[i, j]) b_k[K[i, j]] against
        # theta(b_i) theta(b_j) = c_i c_j c_(k[i], k[j]) b_K[k[i], k[j]]
        kk = np.ix_(k, k)
        if _monomials_differ(np.where(K >= 0, k[K], -1), E + e[K], N * n[K], D * d[K],
                             K[kk], e[:, None] + e[None, :] + E[kk],
                             n[:, None] * n[None, :] * N[kk], d[:, None] * d[None, :] * D[kk],
                             L).any():
            return "multiplicative"
        ik, ie = self.star_k, self.exp[self.star_s] * (L // self.L)
        inum, iden = self.num[self.star_s], self.den[self.star_s]
        # with b_i* = s_i b_(i*): theta(b_i*) = s_i c_(i*) b_k[i*] against
        # theta(b_i)* = conj(c_i) s_k[i] b_(k[i])*
        if _monomials_differ(k[ik], ie + e[ik], inum * n[ik], iden * d[ik],
                             ik[k], ie[k] - e, n * inum[k], d * iden[k], L).any():
            return "*-compatible"
        if any(c[i] * self.trace[t] != self.trace[i] for i, t in enumerate(k.tolist())):
            return "trace-preserving"
        return None

def sparse_vector(vec) -> dict:
    """The nonzero coordinates of a dense vector, as {k: Cyclotomic}."""
    out = {}
    for i, a in enumerate(vec):
        a = Cyclotomic._coerce(a)
        if not a.is_zero():
            out[i] = a
    return out


def sparse_eq(a: dict, b: dict) -> bool:
    zero = Cyclotomic.zero()
    return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))


class MonomialMap:
    """The linear map b_i -> c_i b_(k[i]) on a basis: ``k`` is the integer
    array of targets and ``scalars`` lists the c_i (all ones when omitted),
    each a positive rational times a root of unity.  ``L``, ``exp``,
    ``num`` and ``den`` read them as the structure constants of a
    StructAlgebra are read: c_i = (num[i]/den[i]) zeta_L^exp[i]."""

    def __init__(self, targets, scalars=None):
        self.k = np.array(targets, dtype=np.int64)
        self.scalars = ([Cyclotomic.one()] * len(self.k) if scalars is None
                        else [Cyclotomic._coerce(c) for c in scalars])
        if self.k.ndim != 1 or len(self.scalars) != len(self.k):
            raise ValueError("a monomial map has one target and one scalar per basis element")
        self.L, self.exp, self.num, self.den = _monomial_arrays(self.scalars)

    @classmethod
    def of_roots(cls, targets, L: int, exp) -> "MonomialMap":
        """b_i -> zeta_L^exp[i] b_(k[i]), each scalar at order L, its arrays
        written as ``monomial_forms`` would read them, at lcm(2, L)."""
        theta = cls.__new__(cls)
        theta.k = np.array(targets, dtype=np.int64)
        exp = np.asarray(exp, dtype=np.int64) % L
        units = [root_of_unity(L, e) for e in range(L)]
        theta.scalars = [units[e] for e in exp.tolist()]
        theta.L = math.lcm(2, L)
        theta.exp = exp * (theta.L // L)
        theta.num, theta.den = np.ones_like(exp), np.ones_like(exp)
        return theta


def _fixes_basis(u, K, S, scalars) -> np.ndarray:
    """Over i, whether sum over t of u[t] c b_K[t, i] = b_i, with
    c = scalars[S[t, i]]: the products of the unit's terms with each b_i,
    one row t per term.  A column with one nonzero product is decided by
    its target and scalar; one with several adds them exactly."""
    if not u:
        return np.zeros(K.shape[1], dtype=bool)
    live = K >= 0
    count, cols = live.sum(axis=0), np.arange(K.shape[1])
    t = live.argmax(axis=0)  # the nonzero product, where there is one
    values, code = _scalar_products(u, t, scalars, S[t, cols])
    ok = ((count == 1) & (K[t, cols] == cols)
          & np.array([v.is_one() for v in values], dtype=bool)[code])
    one = Cyclotomic.one()
    for i in np.flatnonzero(count > 1).tolist():
        total: dict = {}
        for r in np.flatnonzero(live[:, i]).tolist():
            accumulate(total, u[r] * scalars[S[r, i]], ((K[r, i], one),))
        ok[i] = sparse_eq(total, {i: one})
    return ok


def _scalar_products(left, i, right, j):
    """(values, t) with values[t] = left[i] * right[j], elementwise over the
    integer arrays i and j, each distinct pair multiplied once."""
    i, j = np.broadcast_arrays(i, j)
    pairs, t = np.unique(i * len(right) + j, return_inverse=True)
    values = [left[p // len(right)] * right[p % len(right)] for p in pairs.tolist()]
    return values, t.reshape(i.shape)


def multimatrix(spec: BlockSpec) -> StructAlgebra:
    """The multimatrix algebra of a partition, in its matrix-unit basis,
    with the Plancherel trace psi(E^(r)_ij) = delta_ij * n_r / N."""
    labels = [f"E{r + 1}[{i},{j}]" for r, n in enumerate(spec.sizes)
              for i in range(n) for j in range(n)]
    dim = len(labels)
    k = np.full((dim, dim), -1, dtype=np.int64)
    star_k = np.zeros(dim, dtype=np.int64)
    unit, trace = [Cyclotomic.zero()] * dim, [Cyclotomic.zero()] * dim
    o = 0  # E^(r)_ij is basis o + i n + j
    for n in spec.sizes:
        i, j, l = np.ogrid[:n, :n, :n]
        k[o + i * n + j, o + j * n + l] = o + i * n + l  # E_ij E_jl = E_il
        i, j = np.ogrid[:n, :n]
        star_k[o + i * n + j] = o + j * n + i
        for d in range(o, o + n * n, n + 1):
            unit[d], trace[d] = Cyclotomic.one(), Cyclotomic.rational(Fraction(n, spec.N))
        o += n * n
    return StructAlgebra(dim, labels, k=k, s=np.zeros_like(k), scalars=[Cyclotomic.one()],
                         star_k=star_k, star_s=np.zeros_like(star_k), unit=unit, trace=trace)


def tensor_algebra(A: StructAlgebra, k: int) -> StructAlgebra:
    """A tensor M_k in the basis b_i x E_uv, with trace tau_A x (Tr/k)."""
    labels = [f"{a}*E[{u},{v}]" for a in A.labels for u in range(k) for v in range(k)]
    dim = A.dim * k * k  # b_i x E_uv is basis (i k + u) k + v
    i, u, v, j, w, q = np.ix_(*[range(n) for n in (A.dim, k, k, A.dim, k, k)])
    # (b_i x E_uv)(b_j x E_wq) = [v = w] b_i b_j x E_uq
    K = A.k[i, j]
    target = np.where((K >= 0) & (v == w), (K * k + u) * k + q, -1)
    S = np.broadcast_to(A.s[i, j], target.shape)
    i, u, v = np.ix_(range(A.dim), range(k), range(k))
    star_k = (A.star_k[i] * k + v) * k + u  # (b_i x E_uv)* = b_i* x E_vu
    star_s = np.broadcast_to(A.star_s[i], star_k.shape)
    unit, trace = [Cyclotomic.zero()] * dim, [Cyclotomic.zero()] * dim
    for a in range(A.dim):
        for d in range(a * k * k, (a + 1) * k * k, k + 1):
            unit[d], trace[d] = A.unit[a], A.trace[a] / Cyclotomic.rational(k)
    return StructAlgebra(dim, labels, k=target.reshape(dim, dim), s=S.reshape(dim, dim),
                         scalars=A.scalars, star_k=star_k.ravel(), star_s=star_s.ravel(),
                         unit=unit, trace=trace)


def delta_form_check(A: StructAlgebra, psi=None):
    """Scalar c with m m* = c id for the GNS inner products of psi.

    Returns c (the square of the delta-form constant).  psi(b_i* b_j) must
    be diagonal (else ValueError: a premise, not a verdict on psi) with
    each g_i = psi(b_i* b_i) a positive rational (else NotFaithful).  Then
    (m m*)_ll = g_l sum over b_i b_j = c_ij b_l of |c_ij|^2 / (g_i g_j),
    which must be one c for all l (else NotDeltaForm)."""
    psi = [Cyclotomic._coerce(p) for p in (A.trace if psi is None else psi)]
    n, one = A.dim, Cyclotomic.one()
    # b_i* b_j is a multiple of b_k for k = A.k[A.star_k][i, j]
    live = np.isin(A.k[A.star_k], [k for k, p in enumerate(psi) if not p.is_zero()])
    off = np.argwhere(live & ~np.eye(n, dtype=bool))
    if len(off):
        raise ValueError("the delta-form check needs a diagonal Gram matrix; "
                         "psi(b_%d* b_%d) != 0" % tuple(off[0].tolist()))
    g = []
    for i in range(n):
        val = sum((c * psi[k] for k, c in A.mul_sparse(A.star(i), ((i, one),)).items()),
                  Cyclotomic.zero())
        if not (val.is_rational() and val.as_fraction() > 0):
            raise NotFaithful(f"psi(b_{i}* b_{i}) = {val!r} is not a positive rational")
        g.append(val.as_fraction())
    square = [Fraction(p, q) ** 2 for p, q in zip(A.num.tolist(), A.den.tolist())]
    mm = [Fraction(0)] * n
    for (i, j), l in zip(np.argwhere(A.k >= 0).tolist(), A.k[A.k >= 0].tolist()):
        mm[l] += g[l] * square[A.s.item(i, j)] / (g[i] * g[j])
    if len(set(mm)) != 1:
        raise NotDeltaForm("m m* is not a scalar multiple of the identity")
    return Cyclotomic.rational(mm[0])


def center(A: StructAlgebra):
    """Basis of the center, [x, b_i] = 0 for all i, as vectors with disjoint
    supports, each 1 at its smallest index, in the order of their largest.
    With products injective along each row and column of ``k`` (else
    RecognitionError), row (i, t) is x_a c_(a,i) - x_a' c_(i,a') for
    b_a b_i = c_(a,i) b_t and b_i b_a' = c_(i,a') b_t, either term possibly
    absent.  One term, or a = a' with c_(a,i) != c_(i,a), forces x_a = 0;
    two link x_a' = x_a c_(a,i) / c_(i,a').  A linked component with no
    forced zero and ratios that agree around its cycles spans one central
    vector (the sigma-regular classes of a twisted group algebra)."""
    n = A.dim
    i, j = np.nonzero(A.k >= 0)
    t = A.k[i, j]
    left, right = np.full((2, n, n), -1, dtype=np.int64)
    left[j, t], right[i, t] = i, j  # a = left[i, t] and a' = right[i, t]
    if min(np.count_nonzero(left >= 0), np.count_nonzero(right >= 0)) < len(t):
        raise RecognitionError("products not injective along a row/column of the basis")
    i, t = np.nonzero((left >= 0) | (right >= 0))
    a, b = left[i, t], right[i, t]
    sa, sb = A.s[a, i], A.s[i, b]
    link = (a >= 0) & (b >= 0) & (a != b)
    zero = np.isin(np.arange(n), np.maximum(a, b)[~link & _monomials_differ(
        a, A.exp[sa], A.num[sa], A.den[sa], b, A.exp[sb], A.num[sb], A.den[sb], A.L)])
    inverse = [c.inverse() for c in A.scalars]
    ratios: list = [[] for _ in range(n)]  # (a', c_(a,i) / c_(i,a')) at a, and back at a'
    for x, y, s1, s2 in zip(*(v[link].tolist() for v in (a, b, sa, sb))):
        ratios[x].append((y, A.scalars[s1] * inverse[s2]))
        ratios[y].append((x, A.scalars[s2] * inverse[s1]))
    value, basis = [None] * n, []
    for r in range(n):
        if value[r] is None:
            value[r], comp, free = Cyclotomic.one(), [r], True
            for x in comp:  # breadth first
                for y, c in ratios[x]:
                    if value[y] is None:
                        value[y] = value[x] * c
                        comp.append(y)
                    free &= value[y] == value[x] * c
            if free and not zero[comp].any():
                basis.append({x: value[x] for x in comp})
    return sorted(basis, key=max)


@dataclass
class BlocksResult:
    sizes: tuple[int, ...]
    idempotents: list
    method: str
    details: dict
    residual: float  # worst |e e - e| over the idempotents; 0.0 when exact


def recognize_blocks(A: StructAlgebra, seed: int = 0) -> BlocksResult:
    """Artin-Wedderburn block sizes with explicit central idempotents.

    Semisimplicity is detected (trace-form nondegeneracy of the regular
    representation), never assumed.  The center is split exactly for
    dim <= 9 (``center``; the trace form must have a permutation pattern);
    above that it is split numerically in complex128, from seeded
    generic central elements, with every product read off the monomial
    arrays ``k``, ``s`` and ``scalars``.  ``seed`` reaches only that float
    path.  The block of a minimal central idempotent e is M_d with
    d^2 = Tr(L_e), the regular trace, which is the rank of the idempotent
    L_e.  Both paths read it as sum_k e_k Tr(L_(b_k)) off one vector of
    basis traces (``_regular_traces``): exactly, where it must be a rational
    integer, or in complex128, where it must lie within ``_TRACE_EPS`` of one.
    A trace below 1 raises RecognitionError and one that is not a square
    NonSquareBlock; on the float path either is a failed split, and the
    next generic element is tried.

    The float center is the nullspace of the commutator system, read off
    the SVD of its QR factor R.  When each of its rows has at most one
    nonzero and the first n, the commutators of b_0, are zero, as for
    ``tt``'s double crossed products with b_0 the unit, Householder QR
    updates no column, so R is diagonal: LAPACK reduces each column alone,
    from the n rows and the nonzero rows below them, and R is the whole
    system's bit for bit (``_one_term_r``).  Systems with rows of two terms,
    such as ``tt``'s tensor oracles, are factored whole (``_qr_r``), since
    the benchmark's reference certificates pin their float residual until
    the exact path replaces this one.
    """
    if A.dim > 9:
        return _recognize_float(A, seed)
    return _recognize_exact(A)


def _regular_traces(A: StructAlgebra) -> dict:
    """{k: Tr(L_(b_k))} without zeros: the sum of c over the products
    b_k b_l = c b_l, the regular trace of each basis element."""
    one = Cyclotomic.one()
    t: dict = {}
    for k, l in np.argwhere(A.k == np.arange(A.dim)).tolist():
        accumulate(t, A.scalars[A.s.item(k, l)], ((k, one),))
    return t


def _block_size(tr: int) -> int:
    """d with d^2 = tr, the regular trace of a minimal central idempotent."""
    if tr < 1:
        raise RecognitionError(f"idempotent of regular trace {tr}: a block of size 0")
    root = math.isqrt(tr)
    if root * root != tr:
        raise NonSquareBlock(f"block of non-square dimension {tr}")
    return root


def _recognize_exact(A: StructAlgebra) -> BlocksResult:
    cen = center(A)
    traces = _regular_traces(A)
    form = np.isin(A.k, list(traces))  # where Tr(L_(b_i b_j)) = c_ij t[k_ij] != 0
    if (form.sum(axis=0) > 1).any() or (form.sum(axis=1) > 1).any():
        raise RecognitionError("trace form of the regular representation is not monomial")
    if not form.any(axis=1).all():
        raise NotSemisimple("trace form of the regular representation is degenerate")
    idems = _central_idempotents(A, cen)
    sizes = []
    for e in idems:
        tr = sum((e[k] * t for k, t in traces.items() if k in e), Cyclotomic.zero())
        if not (tr.is_rational() and tr.as_fraction().denominator == 1):
            raise RecognitionError(f"regular trace of an idempotent is {tr!r}, not an integer")
        sizes.append(_block_size(int(tr.as_fraction())))
    return BlocksResult(tuple(sorted(sizes)), idems, "exact",
                        {"center_dim": len(cen)}, 0.0)


def _central_idempotents(A: StructAlgebra, cen):
    """The minimal central idempotents, from a center basis whose rows have
    disjoint supports, as ``center`` gives it.  Each row c
    must satisfy c^(n+1) = lam c with lam = q zeta_L^e != 0 for some n <= dim,
    and q must have a rational n-th root: then p = c^n / lam is idempotent,
    and on p the eigenvalues of c are the n-th roots mu of lam, with spectral
    projections (1/n) sum_(k=1..n) (c/mu)^k.  Every idempotent found so far
    is cut by 1 - p and by these projections, until there are as many as the
    center has dimensions.  An idempotent g with g c = a g is kept whole:
    exactly one cut keeps it (1 - p when a = 0, else the projection for
    mu = a), and every other cut gives zero."""
    support = [k for c in cen for k in c]
    if len(support) != len(set(support)):
        raise RecognitionError("reduced center basis rows share basis elements")
    unit = sparse_vector(A.unit)
    idems = [unit]
    for c in cen:
        if len(idems) == len(cen):
            break
        lam, powers = _power_cycle(A, c)
        n = len(powers)
        L, (form,) = monomial_forms([lam])
        r = form and _nth_root(form[0], n)
        if not r:
            raise RecognitionError(f"c^(n+1) = lam c with n = {n} and lam = {lam!r}, not "
                                   "a root of unity times the n-th power of a rational")
        e = form[1]
        cuts = [dict(unit)]  # 1 - p, then one projection per root mu
        accumulate(cuts[0], -lam.inverse(), powers[-1].items())
        for j in range(n):
            mu_inv = root_of_unity(n * L, -(e + j * L)) / Cyclotomic.rational(r)
            proj: dict = {}
            w = Cyclotomic.rational(Fraction(1, n))
            for ck in powers:
                w = w * mu_inv
                accumulate(proj, w, ck.items())
            cuts.append(proj)
        split = []
        for g in idems:
            gc = A.mul_sparse(g.items(), c.items())
            k0, x0 = next(iter(g.items()))
            a = gc.get(k0, Cyclotomic.zero()) / x0
            if sparse_eq(gc, {i: a * x for i, x in g.items()}):
                split.append(g)
            else:
                split += [f for f in (A.mul_sparse(g.items(), cut.items()) for cut in cuts) if f]
        idems = split
    _verify_idempotents_exact(A, idems, unit)
    return idems


def _power_cycle(A: StructAlgebra, c):
    """(lam, [c, c^2, ..., c^n]) for the least n <= dim with
    c^(n+1) = lam c and lam != 0; raises RecognitionError when there is none."""
    k, a = next(iter(c.items()))
    powers = [c]
    for _ in range(A.dim):
        nxt = A.mul_sparse(powers[-1].items(), c.items())
        lam = nxt[k] / a if k in nxt else None
        if lam is not None and sparse_eq(nxt, {i: lam * x for i, x in c.items()}):
            return lam, powers
        powers.append(nxt)
    raise RecognitionError("no power of a center row is a multiple of it")


def _nth_root(q: Fraction, n: int):
    """The rational r > 0 with r^n = q, for q > 0, or None."""

    def floor_root(a):  # the largest integer x with x^n <= a
        lo, hi = 0, 1 << (a.bit_length() // n + 1)
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid ** n <= a else (lo, mid - 1)
        return lo

    r = Fraction(floor_root(q.numerator), floor_root(q.denominator))
    return r if r ** n == q else None


def _verify_idempotents_exact(A: StructAlgebra, idems, unit):
    """e^2 = e for each candidate and their sum is the unit.  That makes
    them orthogonal: they are central (cut from center rows), so for a != b
    each e_a e_b is an idempotent, and these products sum to
    (sum e)^2 - sum e^2 = 1 - 1 = 0; the regular trace of an idempotent is
    its rank, >= 0, so each has rank 0 and e_a e_b = 0."""
    one = Cyclotomic.one()
    total: dict = {}
    for e in idems:
        if not sparse_eq(A.mul_sparse(e.items(), e.items()), e):
            raise RecognitionError("candidate idempotent fails e^2 = e")
        accumulate(total, one, e.items())
    if not sparse_eq(total, unit):
        raise RecognitionError("idempotents do not sum to the unit")


def _recognize_float(A: StructAlgebra, seed: int) -> BlocksResult:
    prods = _FloatProducts(A)
    unit = np.array([c.to_complex() for c in A.unit])
    traces = np.zeros(A.dim, dtype=np.complex128)
    for k, t in _regular_traces(A).items():
        traces[k] = t.to_complex()
    sv = np.linalg.svd(prods.trace_form(), compute_uv=False)
    if sv.size and sv[-1] <= 1e-6 * max(sv[0], 1.0):
        raise NotSemisimple("trace form of the regular representation is degenerate")
    cen = _center_float(prods.commutator_r())
    m = len(cen)
    if m == 0:
        raise RecognitionError("empty center")
    rng = random.Random(seed)
    coeff_sets = [np.arange(1, m + 1, dtype=np.complex128)]
    for _ in range(4):
        coeff_sets.append(np.array([rng.uniform(0.5, 2.0) for _ in range(m)],
                                   dtype=np.complex128))
    last_err = None
    for coeffs in coeff_sets:
        z = sum(c * v for c, v in zip(coeffs, cen))
        try:
            idems, resid = _idempotents_from_generic_float(prods.mul, unit, cen, z)
            sizes = []
            for e in idems:
                tr = complex(e @ traces)
                if not (cmath.isfinite(tr)
                        and abs(tr - round(tr.real)) <= _TRACE_EPS * max(1.0, abs(tr))):
                    raise RecognitionError(f"regular trace of an idempotent is {tr}, "
                                           "not an integer")
                sizes.append(_block_size(round(tr.real)))
            return BlocksResult(tuple(sorted(sizes)), idems, "float",
                                {"center_dim": m}, resid)
        except (RecognitionError, NonSquareBlock) as exc:
            # A trace off the squares means this element merged blocks: a failed split.
            last_err = str(exc)  # not exc, whose traceback would hold this frame in a cycle
    raise RecognitionError(f"float center splitting failed: {last_err}")


class _FloatProducts:
    """The nonzero products b_i b_j = c b_k of an algebra in row-major (i, j)
    order, c in complex128.  Products (u_i v_j) c are summed per k in that
    order, so each float is, bit for bit, that of an einsum over the dense
    (dim, dim, dim) structure tensor, which is never built."""

    def __init__(self, A: StructAlgebra):
        self.n = A.dim
        self.i, self.j = np.nonzero(A.k >= 0)
        self.k = A.k[self.i, self.j]
        self.values = np.array([c.to_complex() for c in A.scalars], dtype=np.complex128)
        self.c = self.values[A.s[self.i, self.j]]
        self.tables = A.k, A.s

    def mul(self, u, v):
        """The product u v."""
        return _sums(self.k, _times(_times(u[self.i], v[self.j]), self.c), self.n)

    def trace_form(self):
        """Tr(L_(b_i b_j)), the trace form of the regular representation.
        Each product is added to +0.0, as einsum's accumulator adds it, so
        that c 0 = -0.0 is written +0.0."""
        fixed = self.k == self.j  # b_i b_j = c b_j adds c to Tr(L_(b_i))
        form = np.zeros((self.n, self.n), dtype=np.complex128)
        traces = _sums(self.i[fixed], self.c[fixed], self.n)
        form[self.i, self.j] = 0.0 + _times(self.c, traces[self.k])
        return form

    def commutator_r(self):
        """The (n, n) QR factor R of the commutator system, whose row (i, k),
        column j is the b_k-coefficient of b_j b_i - b_i b_j.

        When every row has at most one nonzero and rows (0, k), the first n,
        are zero, R is diagonal and comes from those n rows and the nonzero
        rows below them (``_one_term_rows``), one column at a time
        (``_one_term_r``), bit for bit the whole system's.  Any other system,
        such as ``tt``'s tensor oracles, whose matrix units give rows of two
        terms, is built whole (``dense_commutator_rows``) and factored in
        place (``_qr_r``): there leaving out the zero rows moves R by an
        ulp, and the benchmark's reference certificates pin ``tt``'s float
        residual until the exact recognizer replaces this path."""
        rows = self._one_term_rows()
        return _qr_r(self.dense_commutator_rows()) if rows is None else _one_term_r(rows)

    def dense_commutator_rows(self):
        """The whole (n^2, n) commutator system, column-major."""
        n = self.n
        cols = np.zeros((n, n * n), dtype=np.complex128)
        cols[self.i, self.j * n + self.k] = self.c
        cols[self.j, self.i * n + self.k] -= self.c
        return cols.T

    def _one_term_rows(self):
        """The first n rows of the commutator system and its nonzero rows
        below them, or None when a row has two nonzeros or one of the first
        n has any.  Each value comes from the float operations of the dense
        build: b_i b_j = c b_k puts c in row (j, k), column i, and -c in row
        (i, k), column j, one cell when b_j b_i = c' b_k too (c - c'), else
        0 - c."""
        n = self.n
        k, s = self.tables
        swapped = k.T[self.i, self.j] == self.k  # b_j b_i has the target of b_i b_j
        plus = self.c.copy()
        plus[swapped] -= self.values[s.T[self.i, self.j][swapped]]
        alone = ~swapped
        row = np.concatenate([self.j * n + self.k, (self.i * n + self.k)[alone]])
        col = np.concatenate([self.i, self.j[alone]])
        val = np.concatenate([plus, 0 - self.c[alone]])
        live = np.flatnonzero(val != 0)
        live = live[np.argsort(row[live])]
        row = row[live]
        if row.size and (row[0] < n or (row[1:] == row[:-1]).any()):
            return None
        cols = np.zeros((n, n + row.size), dtype=np.complex128)
        cols[col[live], np.arange(n, n + row.size)] = val[live]
        return cols.T


def _times(a, b):
    """a * b elementwise from rounded float64 products, as einsum forms it;
    numpy's complex multiply may fuse them and round differently."""
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _sums(index, values, size):
    """out[t] = the sum of values[index == t], added in order."""
    out = np.empty(size, dtype=np.complex128)
    out.real = np.bincount(index, values.real, size)
    out.imag = np.bincount(index, values.imag, size)
    return out


def _center_float(r):
    """Center basis as the SVD nullspace of the (n^2, n) commutator system,
    from its (n, n) QR factor R (``_FloatProducts.commutator_r``): for a
    matrix this tall LAPACK's SVD factors it as QR and computes s and V^H
    from R alone, so they are bit for bit those of the thin SVD of the
    whole system, without its (n^2, n) left factor.  The cutoff counts the
    n^2 equations of the whole system, however many rows R was formed from."""
    n = r.shape[1]
    s, vh = np.linalg.svd(r, full_matrices=False)[1:]
    tol = _FLOAT_EPS * (n * n) * max(float(s[0]), 1.0)
    return list(vh.conj()[len(s) - int(np.sum(s <= tol)):])


def _zgeqrf(m, n, a, tau, work, lwork):
    """LAPACK's zgeqrf on the column-major (m, n) matrix whose transpose is
    the C-contiguous ``a``, in place."""
    info = lapack_lite.zgeqrf(m, n, a, max(1, m), tau, work, lwork, 0)["info"]
    if info:
        raise LinAlgError(f"zgeqrf returns {info}")


def _qr_r(a):
    """The R factor of a tall (m, n) matrix, bit for bit that of
    ``np.linalg.qr(a, mode="r")``: LAPACK's zgeqrf with its optimal
    workspace, run on ``a`` where it sits if it is column-major complex128
    (``a`` is overwritten), else on one column-major copy."""
    m, n = a.shape
    a = np.asarray(a, dtype=np.complex128, order="F")
    tau = np.empty(n, dtype=np.complex128)
    work = np.empty(1, dtype=np.complex128)
    _zgeqrf(m, n, a.T, tau, work, -1)  # a workspace query: the optimal size comes back in work[0]
    lwork = max(1, n, int(work[0].real))
    _zgeqrf(m, n, a.T, tau, np.empty(lwork, dtype=np.complex128), lwork)
    return np.triu(a[:n])


def _one_term_r(rows):
    """``_qr_r(rows)`` bit for bit, for an (m, n) system whose first n rows
    are zero and whose other rows have at most one nonzero each, as
    ``_FloatProducts._one_term_rows`` returns it: R is diagonal, R[j, j]
    from a one-column zgeqrf on rows j.. of column j.  ``rows`` is
    overwritten if it is column-major complex128.

    Step j of the whole factorization (LAPACK's unblocked zgeqr2) is one
    zlarfg on rows j.. of column j, and that column is still the input's:
    each earlier reflector v has its nonzeros in one column's rows, so
    every w = C^H v of the trailing updates is a sum of products with a
    zero factor, and each update adds +-0 to every cell.  The pivot entry
    is a zero row's +0.0, so zlarfg returns -dznrm2 of the slice, or +0.0
    with tau = 0 for a zero slice, as the one-column call does; every other
    entry of R stays +0.0."""
    m, n = rows.shape
    cols = np.ascontiguousarray(rows.T, dtype=np.complex128)  # column j is cols[j]
    tau, work = np.empty(1, dtype=np.complex128), np.empty(1, dtype=np.complex128)
    for j in range(n):
        _zgeqrf(m - j, 1, cols[j, j:], tau, work, 1)
    return np.diag(cols.diagonal())


def _idempotents_from_generic_float(mul, unit, cen, z):
    """Idempotents from the spectral projections of z, with the worst
    |e e - e| among them; ``mul(u, v)`` is the product of the algebra."""
    m = len(cen)
    cen_mat = np.array(cen).T  # dim x m
    pinv = np.linalg.pinv(cen_mat)
    cols = []
    for j in range(m):
        prod = mul(z, cen[j])
        cols.append(pinv @ prod)
    Mz = np.array(cols).T
    lam, _ = np.linalg.eig(Mz)
    lam = sorted(lam, key=lambda w: (round(w.real, 7), round(w.imag, 7)))
    distinct = []
    for w in lam:
        if all(abs(w - u) > 1e-6 for u in distinct):
            distinct.append(w)
    if len(distinct) != m:
        raise RecognitionError("eigenvalue collision for generic central element")
    idems = []
    worst = 0.0
    for w in distinct:
        e = unit
        for u in distinct:
            if u == w:
                continue
            shifted = z - u * unit
            e = mul(e, shifted) / (w - u)
        resid = float(np.max(np.abs(mul(e, e) - e)))
        if resid > 1e-6 * max(1.0, float(np.max(np.abs(e))) ** 2):
            raise RecognitionError(f"idempotent residual too large: {resid}")
        worst = max(worst, resid)
        idems.append(e)
    total = sum(idems)
    if float(np.max(np.abs(total - unit))) > 1e-6:
        raise RecognitionError("idempotents do not sum to the unit")
    return idems, worst
