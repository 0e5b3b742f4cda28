"""Generalized Pauli matrices, Weyl unitary error bases and block embeddings.

Convention: X is diagonal (X|j> = w^j |j>) and Z is the cyclic shift
(Z|j> = |j+1>), so XZ = w ZX.  Every downstream covariance formula depends
on this choice, which is therefore fixed here once.

Every Weyl operator is a phase permutation (``PhasePermutation``), and the
entangled vectors and projections are one scale times a phase on each of
their nonzeros; all are built here as index tables, and their identities
are decided on the tables: products and adjoints by index arithmetic,
traces and inner products as sums of roots of unity in the power basis.
``pvm_check`` takes the projections as their terms (``table_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .algebra import BlockSpec
from .arith import Cyclotomic, Terms, _positions, _root_table
from .relations import GeneratorAssignment, PvmPresentation, check_relations

__all__ = [
    "PhasePermutation",
    "weyl_basis",
    "is_unitary_error_basis",
    "depolarization_check",
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


_JOIN_ROWS = 1 << 20  # most pairs of nonzeros in one join of PhasePermutation.pairing


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

    def is_unitary(self) -> np.ndarray:
        """Whether ``perm`` is a permutation, for each operator of the
        leading axes: U U* = sum over c of E_(perm[c], perm[c])."""
        return (np.sort(self.perm, axis=-1) == np.arange(self.perm.shape[-1])).all(axis=-1)

    def equals(self, other: "PhasePermutation") -> np.ndarray:
        """Entry by entry, for each operator of the broadcast leading axes:
        one nonzero per column, at one row with one phase."""
        L = math.lcm(self.L, other.L)
        return ((self.perm == other.perm)
                & ((self.exp * (L // self.L) - other.exp * (L // other.L)) % L == 0)).all(axis=-1)

    def pairing(self, other: "PhasePermutation") -> np.ndarray:
        """Tr(A* B) for every operator A of ``self`` and B of ``other``, one
        leading axis each, as a (len A, len B, phi(L)) array of integer
        coefficients in the power basis of order L = lcm(self.L, other.L):
        the sum of zeta_L^(exp_B[c] - exp_A[c]) over the columns c where A
        and B have their nonzero in one row, joined on (row, column), for
        any matrices with one nonzero per column, unitary or not."""
        L, (count, size), other_count = math.lcm(self.L, other.L), self.perm.shape, len(other.perm)
        key_a = (self.perm * size + np.arange(size)).ravel()
        by = np.argsort(key_a, kind="stable")
        key_a = key_a[by]  # sorted: by[p] is the flat (a, c) of the p-th
        step = max(1, _JOIN_ROWS // max(1, count * size))  # operators of B per join
        out = np.empty((count, other_count, _root_table(L).shape[1]), dtype=np.int64)
        for start in range(0, other_count, step):
            B = other.at(slice(start, start + step))
            key_b = (B.perm * size + np.arange(size)).ravel()
            lo, hi = np.searchsorted(key_a, key_b), np.searchsorted(key_a, key_b, "right")
            nb = np.repeat(np.arange(key_b.size), hi - lo)  # one entry per pair of nonzeros
            na = by[_positions(lo, hi - lo)]
            exp = B.exp.ravel()[nb] * (L // other.L) - self.exp.ravel()[na] * (L // self.L)
            pair = (na // size * len(B.perm) + nb // size) * L + exp % L
            powers = np.bincount(pair, minlength=count * len(B.perm) * L)
            out[:, start:start + step] = powers.reshape(count, -1, L) @ _root_table(L)
        return out


def _off_delta(gram: np.ndarray, scale: int):
    """The first (a, b), in order, at which an array of power-basis
    coefficients such as ``pairing`` gives is not scale delta_ab, or None."""
    bad, i = gram.any(axis=2), np.arange(min(gram.shape[:2]))
    bad[i, i] = (gram[i, i, 0] != scale) | gram[i, i, 1:].any(axis=1)
    bad = np.argwhere(bad)
    return tuple(bad[0].tolist()) if len(bad) else None


def weyl_basis(n: int) -> PhasePermutation:
    """T_(a,b) = X^a Z^b of M_n, for every a, b < n, at index a n + b:
    X^a Z^b |c> = w^(a(c+b)) |c+b>.  Both defining invariants are verified
    exactly: XZ = wZX, and every T_(a,b) is unitary with trace n for
    (a, b) = (0, 0) and 0 otherwise."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b, c = np.ogrid[:n, :n, :n]
    perm = (c + b) % n
    T = PhasePermutation(n, np.broadcast_to(perm, (n, n, n)).reshape(n * n, n),
                         (a * perm % n).reshape(n * n, n))
    x, z = T.at((1 % n) * n), T.at(1 % n)
    if not x.compose(z).equals(z.compose(x).scaled(n, 1)):
        raise AssertionError("commutation relation XZ = wZX failed")
    bad = np.flatnonzero(~T.is_unitary())
    if len(bad):
        raise AssertionError("T[%d,%d] is not unitary" % divmod(int(bad[0]), n))
    off = _off_delta(PhasePermutation.identity(n).at(None).pairing(T), n)  # Tr T = Tr(I* T)
    if off is not None:
        raise AssertionError("trace of T[%d,%d] is wrong" % divmod(off[1], n))
    return T


@dataclass
class UebReport:
    ok: bool
    worst_residual: float
    failure: str | None = None

    def __bool__(self):
        return self.ok


def is_unitary_error_basis(family: PhasePermutation, n: int | None = None) -> UebReport:
    """Unitarity of each member of a stack of phase permutations, then
    orthonormality of every pair under the normalized trace,
    Tr(T_a* T_b) / size = delta_ab, decided for all pairs at once; the first
    failing member, or pair (a, b) in order, is reported."""
    count, size = family.perm.shape
    if not count:
        raise WrongCount("empty family")
    n = n or size
    if count != n * n:
        raise WrongCount(f"expected {n * n} members, got {count}")
    bad = np.flatnonzero(~family.is_unitary())
    if len(bad):
        # U U* is diagonal: the number of columns with their nonzero in each row
        rows = np.bincount(family.perm[bad[0]], minlength=size)
        return UebReport(False, float(np.abs(rows - 1).max()), f"member {bad[0]} is not unitary")
    gram = family.pairing(family)
    off = _off_delta(gram, size)
    if off is None:
        return UebReport(True, 0.0)
    a, b = off
    val = Cyclotomic(family.L, [Fraction(int(c), size) for c in gram[a, b]])
    return UebReport(False, abs(val.to_complex() - int(a == b)), f"trace pairing ({a},{b})")


def depolarization_check(family: PhasePermutation) -> UebReport:
    """sum over the members u of u* E_pq u = n delta_pq 1 for every matrix
    unit E_pq of M_n at once, n the size of the phase permutations u: with
    v = u*, u* E_pq u = zeta^(v.exp[p] - v.exp[q]) E_(v.perm[p], v.perm[q]).
    The sums less the right sides are one ``Terms`` of the n^2 units' blocks
    in order (p, q); the first unit with a nonzero entry fails."""
    n = family.perm.shape[-1]
    v = family.adjoint()
    p, q = np.divmod(np.arange(n * n), n)
    # block p n + q holds the sum; less n at (q, q) of each diagonal block p (n + 1)
    key, coef = Terms(n ** 3, n, family.L, 1,
                      np.append((p * n + q) * n + v.perm[:, p], p * (n + 1) * n + q),
                      np.append(v.perm[:, q], q), np.append(v.exp[:, p] - v.exp[:, q], 0 * q),
                      np.append(np.ones(v.perm[:, p].size, dtype=np.int64), np.full(n * n, -n))
                      ).coefficients()
    if not len(key):
        return UebReport(True, 0.0)
    first = key[0] // n ** 2
    resid = max(abs(Cyclotomic(family.L, [Fraction(int(c)) for c in row]).to_complex())
                for row in coef[key // n ** 2 == first])
    return UebReport(False, resid, "depolarization n=%d unit (%d,%d)" % (n, *divmod(first, n)))


def entangled_basis(n: int) -> PhasePermutation:
    """The vectors |phi_k> = (T_k x I)|phi>, |phi> = n^(-1/2) sum over c of
    |cc>, of the Weyl basis T, as the n^2 x n matrices V_k with
    V_k|c> = (T_k x I)|cc>, so |phi_k> = n^(-1/2) V_k sum over c of |c>.
    Distinct columns of V_k have their rows in distinct last digits c, so
    <phi_a|phi_b> = Tr(V_a* V_b) / n, a sum of phases over n: orthonormality
    of all n^2 vectors is verified exactly on construction, with no square
    root."""
    doubled = weyl_basis(n).kron(PhasePermutation.identity(n))
    V = PhasePermutation(doubled.L, doubled.perm[:, ::n + 1], doubled.exp[:, ::n + 1])
    off = _off_delta(V.pairing(V), n)
    if off is not None:
        raise AssertionError("entangled vectors (%d,%d) not orthonormal" % off)
    return V


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
