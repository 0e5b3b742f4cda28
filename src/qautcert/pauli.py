"""Generalized Pauli matrices, Weyl unitary error bases and block embeddings.

Convention: X is diagonal (X|j> = w^j |j>) and Z is the cyclic shift
(Z|j> = |j+1>), so XZ = w ZX.  Every downstream covariance formula depends
on this choice, which is therefore fixed here once.

Every Weyl operator is a phase permutation (``PhasePermutation``), and the
entangled projections are one scale times a phase on each of their
nonzeros; both are built here as index tables.  The exact matrices of
``weyl_basis`` are read off those tables, and ``pvm_check`` takes the
projections as their terms (``table_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import BlockSpec
from .arith import Cyclotomic, Mat, Terms, root_of_unity, sqrt_int
from .relations import GeneratorAssignment, PvmPresentation, check_relations

__all__ = [
    "PhasePermutation",
    "weyl_tables",
    "WeylBasis",
    "weyl_basis",
    "is_unitary_error_basis",
    "depolarization_check",
    "EntangledBasis",
    "entangled_basis",
    "table_terms",
    "pvm_check",
    "BlockEmbedding",
    "WrongCount",
    "NotPVM",
    "SlotMismatch",
    "UebReport",
]


class WrongCount(ValueError):
    pass


class NotPVM(ValueError):
    def __init__(self, condition: str):
        super().__init__(f"not a PVM: {condition}")
        self.condition = condition


class SlotMismatch(ValueError):
    pass


class PhasePermutation(NamedTuple):
    """The unitary sum over c of zeta_L^exp[c] E_(perm[c], c): it sends
    basis vector c to zeta_L^exp[c] times basis vector perm[c].  ``perm``
    and ``exp`` may carry leading axes, one operator per index; products,
    Kronecker products and slot placements are index arithmetic."""

    L: int
    perm: np.ndarray
    exp: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "PhasePermutation":
        return cls(1, np.arange(n), np.zeros(n, dtype=np.int64))

    def at(self, index) -> "PhasePermutation":
        """The operator (or operators) at ``index`` of the leading axes."""
        return PhasePermutation(self.L, self.perm[index], self.exp[index])

    def compose(self, other: "PhasePermutation") -> "PhasePermutation":
        """self @ other: c -> perm[other.perm[c]], with both phases."""
        L = math.lcm(self.L, other.L)
        return PhasePermutation(L, np.take_along_axis(self.perm, other.perm, -1),
                                other.exp * (L // other.L)
                                + np.take_along_axis(self.exp, other.perm, -1) * (L // self.L))

    def adjoint(self) -> "PhasePermutation":
        """The inverse, for a permutation ``perm``."""
        perm, exp = np.empty_like(self.perm), np.empty_like(self.exp)
        np.put_along_axis(perm, self.perm, np.arange(self.perm.shape[-1]), -1)
        np.put_along_axis(exp, self.perm, -self.exp, -1)
        return PhasePermutation(self.L, perm, exp)

    def kron(self, other: "PhasePermutation") -> "PhasePermutation":
        """self x other, index a n + b for n = other's size; leading axes
        broadcast."""
        L, n = math.lcm(self.L, other.L), other.perm.shape[-1]
        perm = self.perm[..., :, None] * n + other.perm[..., None, :]
        exp = self.exp[..., :, None] * (L // self.L) + other.exp[..., None, :] * (L // other.L)
        return PhasePermutation(L, perm.reshape(perm.shape[:-2] + (-1,)),
                                exp.reshape(exp.shape[:-2] + (-1,)))

    def scaled(self, M: int, e: int) -> "PhasePermutation":
        """zeta_M^e times the operator."""
        L = math.lcm(self.L, M)
        return PhasePermutation(L, self.perm, self.exp * (L // self.L) + e * (L // M))

    def is_unitary(self) -> bool:
        """Whether ``perm`` is a permutation: U U* = sum over c of
        E_(perm[c], perm[c])."""
        return np.array_equal(np.sort(self.perm, axis=-1),
                              np.broadcast_to(np.arange(self.perm.shape[-1]), self.perm.shape))

    def equals(self, other: "PhasePermutation") -> bool:
        """Entry by entry: one nonzero per column, at one row with one phase."""
        L = math.lcm(self.L, other.L)
        return bool(np.array_equal(self.perm, other.perm)
                    and ((self.exp * (L // self.L) - other.exp * (L // other.L)) % L == 0).all())

    def mat(self) -> Mat:
        """The exact matrix of one operator (``table_terms``)."""
        n = len(self.perm)
        return table_terms(n, (self.L, Fraction(1), self.perm, np.arange(n), self.exp)).dense()


def weyl_tables(n: int) -> PhasePermutation:
    """T_(a,b) = X^a Z^b of M_n, for every a, b < n, at index a n + b:
    X^a Z^b |c> = w^(a(c+b)) |c+b>."""
    a, b, c = np.ogrid[:n, :n, :n]
    perm = (c + b) % n
    return PhasePermutation(n, np.broadcast_to(perm, (n, n, n)).reshape(n * n, n),
                            (a * perm % n).reshape(n * n, n))


@dataclass
class WeylBasis:
    n: int
    omega: Cyclotomic
    x: Mat
    z: Mat
    family: list  # T[i*n + j] = X^i Z^j

    def t(self, i: int, j: int) -> Mat:
        return self.family[(i % self.n) * self.n + (j % self.n)]


def weyl_basis(n: int) -> WeylBasis:
    """The family {X^i Z^j} as exact matrices, read off ``weyl_tables``,
    with both defining invariants verified exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tables = weyl_tables(n)
    family = [tables.at(k).mat() for k in range(n * n)]
    w = root_of_unity(n, 1)
    basis = WeylBasis(n, w, family[(1 % n) * n], family[1 % n], family)
    x, z = basis.x, basis.z
    if not (x @ z).equals((z @ x).scale(w)):
        raise AssertionError("commutation relation XZ = wZX failed")
    for i in range(n):
        for j in range(n):
            t = basis.t(i, j)
            if not t.is_unitary():
                raise AssertionError(f"T[{i},{j}] is not unitary")
            tr = t.trace()
            expect = Cyclotomic.rational(n if (i, j) == (0, 0) else 0)
            if tr != expect:
                raise AssertionError(f"trace of T[{i},{j}] is wrong")
    return basis


@dataclass
class UebReport:
    ok: bool
    worst_residual: float
    failure: str | None = None

    def __bool__(self):
        return self.ok


def is_unitary_error_basis(family: list, n: int | None = None) -> UebReport:
    """Unitarity plus pairwise orthonormality under the normalized trace."""
    if not family:
        raise WrongCount("empty family")
    size = family[0].rows
    n = n or size
    if len(family) != n * n:
        raise WrongCount(f"expected {n * n} members, got {len(family)}")
    for idx, u in enumerate(family):
        if not u.is_unitary():
            resid = (u @ u.adjoint()).residual(Mat.identity(size))
            return UebReport(False, resid, f"member {idx} is not unitary")
    for a, ua in enumerate(family):
        for b, ub in enumerate(family):
            val = (ua.adjoint() @ ub).normalized_trace()
            expect = 1 if a == b else 0
            if val != Cyclotomic.rational(expect):
                return UebReport(False, abs(val.to_complex() - expect),
                                 f"trace pairing ({a},{b})")
    return UebReport(True, 0.0)


def depolarization_check(family: list, x: Mat) -> UebReport:
    """sum_a u_a* x u_a = n Tr(x) 1 for an n x n input x."""
    n = x.rows
    acc = Mat.zeros(n, n)
    for u in family:
        acc = acc + (u.adjoint() @ x @ u)
    target = Mat.identity(n).scale(x.trace() * n)
    if acc.equals(target):
        return UebReport(True, 0.0)
    return UebReport(False, acc.residual(target), "depolarization identity")


@dataclass
class EntangledBasis:
    n: int
    vectors: list  # n^2 column vectors of size n^2


def entangled_basis(n: int) -> EntangledBasis:
    """Vectors (T_ij x I)|phi> with |phi> = n^{-1/2} sum |ii>.

    Orthonormality of all n^2 vectors is verified exactly on construction.
    """
    wb = weyl_basis(n)
    inv_sqrt = sqrt_int(n).inverse()
    phi = Mat.exact([[inv_sqrt if k % (n + 1) == 0 else 0] for k in range(n * n)])
    vectors = []
    ident = Mat.identity(n)
    for i in range(n):
        for j in range(n):
            vectors.append(wb.t(i, j).kron(ident) @ phi)
    for a, va in enumerate(vectors):
        for b, vb in enumerate(vectors):
            ip = (va.adjoint() @ vb).entry(0, 0)
            if ip != Cyclotomic.rational(1 if a == b else 0):
                raise AssertionError(f"entangled vectors ({a},{b}) not orthonormal")
    return EntangledBasis(n, vectors)


def entangled_table(n: int, i: int, j: int):
    """|phi_ij><phi_ij| in M_n x M_n, square-root free, as (L, q, row, col,
    exp): q sum over t of zeta_L^exp[t] E_(row[t], col[t]), from
    (1/n) sum_{a,b} w^{i(a-b)} E_{a+j,b+j} x E_{a,b}, over (a, b)."""
    a, b = np.divmod(np.arange(n * n), n)
    return (n, Fraction(1, n), (a + j) % n * n + a, (b + j) % n * n + b, i * (a - b) % n)


def table_terms(size: int, table) -> Terms:
    """The size x size ``Terms`` of an (L, q, row, col, exp) table, at order
    1 when every phase is 1, as ``Mat.exact`` writes such a matrix."""
    L, q, row, col, exp = table
    return Terms(size, size, L if (exp % L).any() else 1, q.denominator, row, col, exp,
                 np.full(len(row), q.numerator))


def pvm_check(projections: list) -> UebReport:
    """Projection-valued measure check on the ``Terms`` of the members;
    zero members are admissible outcomes.

    The members are the generators of a ``PvmPresentation``, decided by one
    exact ``check_relations`` of their stack.  Raises NotPVM naming the
    first violated condition: an empty family or a member of another shape
    than member 0 (every shape is checked before any relation), a member
    that is not a projection (selfadj or idem), two members that are not
    orthogonal, or members that do not sum to the identity.
    """
    if not projections:
        raise NotPVM("empty family")
    size = projections[0].rows
    for idx, p in enumerate(projections):
        if p.rows != size or p.cols != size:
            raise NotPVM(f"member {idx} has mismatched shape")
    rep = check_relations(GeneratorAssignment(PvmPresentation(len(projections)),
                                              Terms.vstack(projections)))
    if rep.ok:
        return UebReport(True, 0.0)
    family, _, members = rep.failing.rstrip("]").partition("[")
    if family == "orth":  # p_b p_a = (p_a p_b)* once both are self-adjoint
        a, b = sorted(map(int, members.split(",")))
        raise NotPVM(f"members {a} and {b} are not orthogonal")
    if family == "sum":
        raise NotPVM("members do not sum to the identity")
    raise NotPVM(f"member {members} is not a projection")


class BlockEmbedding:
    """Placements for a block partition of d = n_1 ... n_m.

    ``paren_table(r, U)`` puts the phase permutations U in the r-th slot of
    M_{n_1} x ... x M_{n_m} = M_d.
    ``phi_table(s, i, j)`` puts the entangled projection of M_{n_s} x M_{n_s}
    in the s-th doubled slot of the interleaved product of the
    M_{n_t} x M_{n_t} and rearranges it into M_d x M_d: ``_to_paired`` sends
    an interleaved index, digits (a_1, b_1, ..., a_m, b_m), to the paired
    index ((a_1 .. a_m), (b_1 .. b_m))."""

    def __init__(self, spec: BlockSpec):
        self.spec = spec
        self.d = spec.d
        inter = np.arange(self.d * self.d)
        a = b = 0
        for t, n in enumerate(spec.sizes):
            pair = inter // math.prod(m * m for m in spec.sizes[t + 1:]) % (n * n)
            a, b = a * n + pair // n, b * n + pair % n
        self._to_paired = a * self.d + b

    def _size(self, r: int) -> int:
        """n_r, for a slot r of the partition."""
        if not (1 <= r <= self.spec.m):
            raise SlotMismatch(f"slot {r} out of range")
        return self.spec.sizes[r - 1]

    def paren_table(self, r: int, U: PhasePermutation) -> PhasePermutation:
        """The phase permutations U of M_{n_r} in slot r, identities in the
        others, leading axes kept: the slot-r digit c_r of an index of C^d
        moves to perm[c_r]."""
        n = self._size(r)
        if U.perm.shape[-1] != n:
            raise SlotMismatch(f"operator size {U.perm.shape[-1]} does not fit block {r}")
        stride = math.prod(self.spec.sizes[r:])
        c = np.arange(self.d)
        digit = c // stride % n
        return PhasePermutation(U.L, c + (U.perm[..., digit] - digit) * stride, U.exp[..., digit])

    def phi_table(self, s: int, i: int, j: int):
        """phi^[s]_{i,j}, the entangled projection in the s-th doubled slot,
        as an (L, q, row, col, exp) table over M_d x M_d: each nonzero of
        ``entangled_table`` times each index of the identity on the other
        doubled slots, rearranged."""
        n = self._size(s)
        L, q, row, col, exp = entangled_table(n, i % n, j % n)
        stride = math.prod(m * m for m in self.spec.sizes[s:])
        inter = np.arange(self.d * self.d)
        rest = inter[inter // stride % (n * n) == 0]
        return (L, q, self._to_paired[(row[:, None] * stride + rest).ravel()],
                self._to_paired[(col[:, None] * stride + rest).ravel()], np.repeat(exp, len(rest)))
