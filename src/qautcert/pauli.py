"""Generalized Pauli matrices, Weyl unitary error bases and block embeddings.

Convention: X is diagonal (X|j> = w^j |j>) and Z is the cyclic shift
(Z|j> = |j+1>), so XZ = w ZX.  Every downstream covariance formula depends
on this choice, which is therefore fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import BlockSpec
from .arith import Cyclotomic, Mat, root_of_unity, sqrt_int

__all__ = [
    "WeylBasis",
    "weyl_basis",
    "is_unitary_error_basis",
    "depolarization_check",
    "EntangledBasis",
    "entangled_basis",
    "entangled_projection",
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


@dataclass
class WeylBasis:
    n: int
    omega: Cyclotomic
    x: Mat
    z: Mat
    family: list  # T[i*n + j] = X^i Z^j

    def t(self, i: int, j: int) -> Mat:
        return self.family[(i % self.n) * self.n + (j % self.n)]


def pauli_x(n: int) -> Mat:
    w = root_of_unity(n, 1)
    return Mat.exact([[w ** i if i == j else 0 for j in range(n)] for i in range(n)])


def pauli_z(n: int) -> Mat:
    return Mat.exact([[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)])


def weyl_basis(n: int) -> WeylBasis:
    """The family {X^i Z^j} with both defining invariants verified exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, z = pauli_x(n), pauli_z(n)
    w = root_of_unity(n, 1)
    xs = [Mat.identity(n)]
    zs = [Mat.identity(n)]
    for _ in range(n - 1):
        xs.append(xs[-1] @ x)
        zs.append(zs[-1] @ z)
    family = [xs[i] @ zs[j] for i in range(n) for j in range(n)]
    basis = WeylBasis(n, w, x, z, family)
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


def entangled_projection(n: int, i: int, j: int) -> Mat:
    """|phi_ij><phi_ij| in M_n x M_n, built square-root free:
    (1/n) sum_{a,b} w^{i(a-b)} E_{a+j,b+j} x E_{a,b}."""
    w = root_of_unity(n, 1)
    entries = [[Cyclotomic.zero() for _ in range(n * n)] for _ in range(n * n)]
    inv_n = Fraction(1, n)
    for a in range(n):
        for b in range(n):
            phase = (w ** ((i * (a - b)) % n)) * inv_n
            row = ((a + j) % n) * n + a
            col = ((b + j) % n) * n + b
            entries[row][col] = phase
    return Mat.exact(entries)


def pvm_check(projections: list) -> UebReport:
    """Projection-valued measure check; zero members are admissible outcomes.

    Raises NotPVM naming the first violated condition (projection property,
    mutual orthogonality, or completeness).
    """
    if not projections:
        raise NotPVM("empty family")
    size = projections[0].rows
    for idx, p in enumerate(projections):
        if p.rows != size or p.cols != size:
            raise NotPVM(f"member {idx} has mismatched shape")
        if not p.is_projection():
            raise NotPVM(f"member {idx} is not a projection")
    for a in range(len(projections)):
        for b in range(a + 1, len(projections)):
            if not (projections[a] @ projections[b]).is_zero():
                raise NotPVM(f"members {a} and {b} are not orthogonal")
    total = Mat.zeros(size, size)
    for p in projections:
        total = total + p
    if not total.equals(Mat.identity(size)):
        raise NotPVM("members do not sum to the identity")
    return UebReport(True, 0.0)


class BlockEmbedding:
    """Kronecker placements for a block partition.

    ``paren(r, T)`` puts T in the r-th slot of M_{n_1} x ... x M_{n_m} = M_d.
    ``bracket(s, T2)`` puts a doubled-slot operator T2 in M_{n_s} x M_{n_s}
    inside the interleaved product and rearranges it into M_d x M_d; the
    rearrangement permutation is recorded and its round trip is the identity.
    """

    def __init__(self, spec: BlockSpec):
        self.spec = spec
        self.d = spec.d
        sizes = spec.sizes
        m = spec.m
        # index maps between interleaved (a1,b1,...,am,bm) and paired
        # ((a1..am),(b1..bm)) mixed-radix orderings of C^d x C^d.
        self._to_paired = [0] * (self.d * self.d)
        radix_inter = []
        for n in sizes:
            radix_inter += [n, n]
        for idx in range(self.d * self.d):
            digits = _digits(idx, radix_inter)
            a = digits[0::2]
            b = digits[1::2]
            paired = _undigits(a + b, list(sizes) + list(sizes))
            self._to_paired[idx] = paired
        self._from_paired = [0] * len(self._to_paired)
        for src, dst in enumerate(self._to_paired):
            self._from_paired[dst] = src

    def paren(self, r: int, T: Mat) -> Mat:
        sizes = self.spec.sizes
        if not (1 <= r <= self.spec.m):
            raise SlotMismatch(f"slot {r} out of range")
        if T.rows != sizes[r - 1] or T.cols != sizes[r - 1]:
            raise SlotMismatch(f"operator size {T.rows} does not fit block {r}")
        out = None
        for t, n in enumerate(sizes, start=1):
            factor = T if t == r else Mat.identity(n)
            out = factor if out is None else out.kron(factor)
        return out

    def bracket(self, s: int, T2: Mat) -> Mat:
        sizes = self.spec.sizes
        if not (1 <= s <= self.spec.m):
            raise SlotMismatch(f"slot {s} out of range")
        ns = sizes[s - 1]
        if T2.rows != ns * ns or T2.cols != ns * ns:
            raise SlotMismatch(f"doubled operator size {T2.rows} does not fit block {s}")
        out = None
        for t, n in enumerate(sizes, start=1):
            factor = T2 if t == s else Mat.identity(n * n)
            out = factor if out is None else out.kron(factor)
        return self.rearrange(out)

    def rearrange(self, interleaved: Mat) -> Mat:
        """Conjugate an interleaved-layout operator into the M_d x M_d layout."""
        return interleaved.select(self._from_paired, self._from_paired)

    def rearrange_inverse(self, paired: Mat) -> Mat:
        return paired.select(self._to_paired, self._to_paired)

    def bracket_phi(self, s: int, i: int, j: int) -> Mat:
        """phi^[s]_{i,j}: the entangled projection in the s-th doubled slot."""
        n = self.spec.sizes[s - 1]
        return self.bracket(s, entangled_projection(n, i % n, j % n))

    def paren_unit(self, s: int, i: int, j: int) -> Mat:
        """E^(s)_{i,j} embedded in M_d."""
        n = self.spec.sizes[s - 1]
        unit = Mat.exact([[1 if (a, b) == (i % n, j % n) else 0 for b in range(n)]
                          for a in range(n)])
        return self.paren(s, unit)


def _digits(idx: int, radix: list[int]) -> list[int]:
    out = []
    for n in reversed(radix):
        out.append(idx % n)
        idx //= n
    return out[::-1]


def _undigits(digits: list[int], radix: list[int]) -> int:
    idx = 0
    for d, n in zip(digits, radix):
        idx = idx * n + d
    return idx
