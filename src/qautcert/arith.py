"""Exact cyclotomic scalars and the dense exact matrices over them.

:class:`Cyclotomic` is an exact element of the field Q(zeta_M) stored as the
canonical residue modulo the M-th cyclotomic polynomial, and :class:`Mat` a
dense matrix of them; ``Mat.to_float`` gives its complex array, for
residuals.  Outside :class:`Mat`, exact vectors are sparse dicts
{index: Cyclotomic}, added to by :func:`accumulate`.

Canonical form reduces modulo Phi_M rather than x^M - 1, so exact equality
of coefficient vectors decides equality of the represented complex numbers.
Mixed-order arithmetic promotes both operands to order lcm(M1, M2) through
zeta_M = zeta_L^(L/M).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "Cyclotomic",
    "Mat",
    "Terms",
    "DimensionMismatch",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "accumulate",
]


class DimensionMismatch(ValueError):
    pass


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _int_poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _int_poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division is exact for cyclotomic factors of x^M - 1.
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        q[i] = c
        if c:
            for j, y in enumerate(den):
                num[i + j] -= c * y
    assert all(c == 0 for c in num[: len(den) - 1])
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, ascending degree, computed by exact division
    of x^M - 1 by the product of Phi_d over proper divisors d of M."""
    if M < 1:
        raise ValueError("order must be >= 1")
    if M == 1:
        return (-1, 1)
    num = [0] * M + [1]
    num[0] = -1
    den = [1]
    for d in _divisors(M)[:-1]:
        den = _int_poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_int_poly_divexact(num, den))


@lru_cache(maxsize=None)
def _power_row(M: int, e: int) -> tuple:
    """Coefficient row of zeta_M^e in the canonical basis."""
    D = euler_phi(M)
    e %= M
    if e < D:
        row = [0] * D
        row[e] = 1
        return tuple(row)
    # Repeated multiplication by x with reduction; M is small here.
    phi = cyclotomic_polynomial(M)
    row = [0] * D
    row[0] = 1
    for _ in range(e):
        row = [0] + row
        if row[D]:
            c = row[D]
            row = [row[j] - c * phi[j] for j in range(D)]
        else:
            row = row[:D]
    return tuple(row)


def _power_rows(M: int, exponents) -> np.ndarray:
    return np.array([_power_row(M, e) for e in exponents], dtype=np.int64)


@lru_cache(maxsize=None)
def _root_table(M: int) -> np.ndarray:
    """Row e is the coefficient row of zeta_M^e, for 0 <= e < M."""
    return _power_rows(M, range(M))


@lru_cache(maxsize=None)
def _reduction_table(M: int) -> np.ndarray:
    """Integer matrix whose row t is x^t mod Phi_M, for 0 <= t < 2*deg - 1."""
    D = euler_phi(M)
    return _power_rows(M, range(max(2 * D - 1, D)))


@lru_cache(maxsize=None)
def _product_table(M: int) -> np.ndarray:
    """Row t1*D + t2 is the coefficient row of zeta_M^(t1 + t2), shape (D*D, D)."""
    D = euler_phi(M)
    return _reduction_table(M)[np.add.outer(np.arange(D), np.arange(D)).ravel()]


@lru_cache(maxsize=None)
def _promotion_table(M: int, L: int) -> np.ndarray:
    """Integer matrix sending the basis of Q(zeta_M) into Q(zeta_L), L = k*M."""
    assert L % M == 0
    return _power_rows(L, range(0, L, L // M)[:euler_phi(M)])


@lru_cache(maxsize=None)
def _conjugation_table(M: int) -> np.ndarray:
    """Integer matrix of complex conjugation zeta^t -> zeta^(M-t)."""
    return _power_rows(M, range(0, -euler_phi(M), -1))


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


_ZERO = Fraction(0)


class Cyclotomic:
    """An exact element of Q(zeta_M) in canonical form modulo Phi_M."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be >= 1")
        D = euler_phi(order)
        vec = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(vec) > D:
            vec = _reduce_mod_phi(vec, order)
        vec += [_ZERO] * (D - len(vec))
        self.order = order
        self.coeffs = tuple(vec)

    @classmethod
    def _make(cls, order: int, coeffs: tuple) -> "Cyclotomic":
        """Internal fast path: coeffs already canonical Fractions of the
        right length."""
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = coeffs
        return obj

    # -- constructors -----------------------------------------------------
    @classmethod
    def rational(cls, q) -> "Cyclotomic":
        return cls(1, [Fraction(q)])

    @classmethod
    def zero(cls) -> "Cyclotomic":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "Cyclotomic":
        return cls(1, [1])

    # -- representation helpers -------------------------------------------
    def promoted(self, L: int) -> "Cyclotomic":
        if L == self.order:
            return self
        if L % self.order != 0:
            raise ValueError("can only promote to a multiple order")
        table = _promotion_table(self.order, L)
        DL = euler_phi(L)
        out = [_ZERO] * DL
        for t, c in enumerate(self.coeffs):
            if c:
                row = table[t]
                for j in range(DL):
                    if row[j]:
                        out[j] += c * int(row[j])
        return Cyclotomic._make(L, tuple(out))

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic"):
        L = _lcm(a.order, b.order)
        return a.promoted(L), b.promoted(L)

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to Cyclotomic")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Cyclotomic:
            other = self._coerce(other)
        if other.order == self.order:
            return Cyclotomic._make(
                self.order, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))
        a, b = self._common(self, other)
        return Cyclotomic._make(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Cyclotomic:
            if isinstance(other, (int, Fraction)):
                return Cyclotomic._make(self.order, tuple(c * other for c in self.coeffs))
            other = self._coerce(other)
        a, b = (self, other) if other.order == self.order else self._common(self, other)
        n = len(a.coeffs)
        if n == 1:
            return Cyclotomic._make(a.order, (a.coeffs[0] * b.coeffs[0],))
        prod = [_ZERO] * (2 * n - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        out = prod[:n]
        red = _reduction_table(a.order)
        for u in range(n, 2 * n - 1):
            c = prod[u]
            if c:
                row = red[u]
                for v in range(n):
                    if row[v]:
                        out[v] += c * int(row[v])
        return Cyclotomic._make(a.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        inv = _poly_modular_inverse(list(self.coeffs), phi)
        return Cyclotomic(self.order, inv)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        table = _conjugation_table(self.order)
        D = len(self.coeffs)
        out = [Fraction(0)] * D
        for t, c in enumerate(self.coeffs):
            if c:
                row = table[t]
                for j in range(D):
                    if row[j]:
                        out[j] += c * int(row[j])
        return Cyclotomic(self.order, out)

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if type(other) is Cyclotomic and other.order == self.order:
            return self.coeffs == other.coeffs
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._common(self, other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        # Hash through a reduced representation: trailing-zero-stripped
        # coefficients do not identify equal elements across orders, so hash
        # rationals by value and everything else by a float image.
        if self.is_rational():
            return hash(self.coeffs[0])
        z = self.to_complex()
        return hash((round(z.real, 9), round(z.imag, 9)))

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for t, c in enumerate(self.coeffs):
            if c:
                total += float(c) * z**t
        return total

    def __repr__(self):
        if self.is_rational():
            return f"Cyc({self.coeffs[0]})"
        terms = [
            f"{c}*z{self.order}^{t}" for t, c in enumerate(self.coeffs) if c != 0
        ]
        return "Cyc(" + " + ".join(terms) + ")"


def _reduce_mod_phi(coeffs: list, M: int) -> list:
    phi = cyclotomic_polynomial(M)
    D = len(phi) - 1
    vec = list(coeffs)
    for i in range(len(vec) - 1, D - 1, -1):
        c = vec[i]
        if c:
            for j in range(D + 1):
                vec[i - D + j] -= c * phi[j]
    return vec[:D]


def _poly_modular_inverse(a: list, mod: list) -> list:
    """Extended Euclid in Q[x]: inverse of a modulo the monic poly mod."""

    def degree(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    def trim(p):
        d = degree(p)
        return p[: d + 1] if d >= 0 else []

    def poly_divmod(num, den):
        num = list(num)
        dd = degree(den)
        lead = den[dd]
        q = [Fraction(0)] * max(len(num) - dd, 1)
        for i in range(len(num) - 1 - dd, -1, -1):
            c = num[i + dd] / lead
            q[i] = c
            if c:
                for j in range(dd + 1):
                    num[i + j] -= c * den[j]
        return trim(q), trim(num)

    r0, r1 = [Fraction(c) for c in mod], trim([Fraction(c) for c in a])
    s0, s1 = [], [Fraction(1)]
    while degree(r1) > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        qs = _frac_poly_mul(q, s1)
        s_new = _frac_poly_sub(s0, qs)
        s0, s1 = s1, s_new
    if degree(r1) != 0:
        raise ZeroDivisionError("element is not invertible")
    c = r1[0]
    return [x / c for x in s1]


def _frac_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return out


def root_of_unity(M: int, k: int) -> Cyclotomic:
    """zeta_M^k in canonical form."""
    if M < 1:
        raise ValueError("order must be >= 1")
    return Cyclotomic(M, _power_row(M, k % M))


# Coefficient planes are stored as int64 while every coefficient is below
# this bound and as Python ints otherwise.
_INT64_GUARD = 2**31

def _maxabs(a: np.ndarray) -> int:
    """Largest absolute value, at least 1, so that a product of these caps
    each of its factors.  int64 input never holds -2**63 (whose abs wraps):
    every int64 result is computed under a bound below 2**63."""
    return int(np.abs(a).max(initial=1))


def _stored(planes: np.ndarray) -> np.ndarray:
    dtype = np.int64 if _maxabs(planes) < _INT64_GUARD else object
    return planes.astype(dtype, copy=False)


def _working(bound: int, *arrays):
    """The arrays as int64 when bound caps every intermediate value below
    2**63, as Python ints otherwise."""
    dtype = np.int64 if bound < 2**63 else object
    return [a.astype(dtype, copy=False) for a in arrays]


def _starts(a: np.ndarray) -> np.ndarray:
    """The positions where the runs of equal values of a sorted array
    begin."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _contract(table: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """out[v] = sum over k of table[k, v] * stack[k]."""
    out = np.dot(table.T, stack.reshape(len(stack), -1))
    return out.reshape(table.shape[1], *stack.shape[1:])


def _linear(planes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Map a plane stack (D_in, r, c) through an integer matrix (D_in, D_out)."""
    bound = _maxabs(planes) * _maxabs(table) * len(table)
    planes, table = _working(bound, planes, table)
    return _stored(_contract(table, planes))


def _bilinear(order: int, a: np.ndarray, b: np.ndarray, product, inner: int) -> np.ndarray:
    """sum over t1, t2 of zeta^(t1 + t2) * product(a[t1], b[t2]) as a plane
    stack; ``product(a, b)`` maps the two stacks to the (D, D, r, c) stack
    of plane products, each entry a sum of ``inner`` terms.

    The plane products are bounded by maxabs(a) maxabs(b) inner.  They are
    int64 below 2**63 and Python ints above it."""
    T = _product_table(order)
    bound = _maxabs(a) * _maxabs(b) * max(inner, 1)
    P = product(*_working(bound, a, b))
    P, T = _working(bound * _maxabs(T) * len(T), P, T)
    return _stored(_contract(T, P.reshape(len(T), *P.shape[2:])))


def _planes_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.kron(a, b)
    return out.reshape(len(a), len(b), *out.shape[1:])


class Mat:
    """Dense exact matrix over Q(zeta_M).

    Payload: integer coefficient tensor ``coef`` of shape (D, r, c) with a
    single positive integer denominator, representing
    (1/den) * sum_t coef[t] * zeta_M^t entrywise.  Only this module reads
    or builds that payload.
    """

    __slots__ = ("rows", "cols", "order", "coef", "den")

    backend = "exact"  # the one kind; perfbench's span probes read it

    def __init__(self):
        raise TypeError("use the Mat.exact/Mat.from_entries/Mat.zeros/... constructors")

    @classmethod
    def _new(cls, rows, cols, order, coef, den) -> "Mat":
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        m.order, m.coef, m.den = order, coef, den
        return m

    # -- constructors -----------------------------------------------------
    @classmethod
    def exact(cls, entries) -> "Mat":
        """Build an exact matrix from scalars (Cyclotomic, int or Fraction)."""
        vals = [[Cyclotomic._coerce(x) for x in row] for row in entries]
        r = len(vals)
        c = len(vals[0]) if r else 0
        order = 1
        for row in vals:
            for x in row:
                order = _lcm(order, x.order)
        D = euler_phi(order)
        den = 1
        promoted = [[x.promoted(order) for x in row] for row in vals]
        for row in promoted:
            for x in row:
                for q in x.coeffs:
                    den = _lcm(den, q.denominator)
        coef = np.zeros((D, r, c), dtype=object)
        for i, row in enumerate(promoted):
            for j, x in enumerate(row):
                for t, q in enumerate(x.coeffs):
                    if q:
                        coef[t, i, j] = int(q * den)
        return cls._new(r, c, order, _stored(coef), den)

    @classmethod
    def from_entries(cls, rows, cols, order, row, col, exp, num, den=1) -> "Mat":
        """The exact rows x cols matrix (1/den) sum over t of
        num[t] * zeta_order^exp[t] * E_(row[t], col[t]), for integers num[t];
        entries at one position add.  ``terms`` reads a matrix back in this
        form."""
        num = np.asarray(num)
        num = num.astype(np.int64 if num.dtype.kind in "iub" else object, copy=False)
        powers = _root_table(order)[np.asarray(exp, dtype=np.int64) % order]
        num, powers = _working(_maxabs(num) * _maxabs(powers) * max(len(num), 1), num, powers)
        planes = np.zeros((powers.shape[1], rows * cols), dtype=num.dtype)
        np.add.at(planes.T, np.asarray(row, dtype=np.int64) * cols + np.asarray(col, dtype=np.int64),
                  num[:, None] * powers)
        return cls._new(rows, cols, order, _stored(planes.reshape(-1, rows, cols)), den)

    @classmethod
    def vstack(cls, mats) -> "Mat":
        """The matrices of one width stacked top to bottom, at one order and
        one denominator."""
        order = math.lcm(*{m.order for m in mats})
        den = math.lcm(*{m.den for m in mats})
        scales = [den // m.den for m in mats]
        planes = [m._promote_order(order).coef for m in mats]
        stack = np.concatenate(_working(max(map(_maxabs, planes)) * max(scales), *planes), axis=1)
        if max(scales) > 1:
            rows = np.repeat(np.array(scales, dtype=stack.dtype), [m.rows for m in mats])
            stack = stack * rows[:, None]
        return cls._new(stack.shape[1], mats[0].cols, order, _stored(stack), den)

    @classmethod
    def zeros(cls, rows, cols) -> "Mat":
        return cls._new(rows, cols, 1, np.zeros((1, rows, cols), dtype=np.int64), 1)

    @classmethod
    def identity(cls, n) -> "Mat":
        return cls._new(n, n, 1, np.eye(n, dtype=np.int64)[None], 1)

    @classmethod
    def scalar(cls, value) -> "Mat":
        return cls.exact([[value]])

    # -- shared helpers ----------------------------------------------------
    def _promote_pair(self, other: "Mat"):
        L = _lcm(self.order, other.order)
        return self._promote_order(L), other._promote_order(L)

    def _promote_order(self, L: int) -> "Mat":
        if L == self.order:
            return self
        coef = _linear(self.coef, _promotion_table(self.order, L))
        return Mat._new(self.rows, self.cols, L, coef, self.den)

    def _rescaled_pair(self, other: "Mat", ka: int, kb: int):
        """Both coefficient stacks at a common order, times ka and kb, in a
        dtype that also holds their sum."""
        a, b = self._promote_pair(other)
        ca, cb = _working(_maxabs(a.coef) * ka + _maxabs(b.coef) * kb, a.coef, b.coef)
        return a, ca * ka, cb * kb

    # -- arithmetic ---------------------------------------------------------
    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, b = self._promote_pair(other)
        coef = _bilinear(a.order, a.coef, b.coef, lambda x, y: np.matmul(x[:, None], y[None]),
                         a.cols)
        return Mat._new(self.rows, other.cols, a.order, coef, a.den * b.den)

    def __add__(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("shape mismatch in add")
        den = _lcm(self.den, other.den)
        a, ca, cb = self._rescaled_pair(other, den // self.den, den // other.den)
        return Mat._new(a.rows, a.cols, a.order, _stored(ca + cb), den)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + (-other)

    def __neg__(self) -> "Mat":
        return Mat._new(self.rows, self.cols, self.order, -self.coef, self.den)

    def scale(self, s) -> "Mat":
        """Multiply by a scalar (Cyclotomic, int or Fraction)."""
        s = Cyclotomic._coerce(s)
        L = _lcm(self.order, s.order)
        sv = s.promoted(L)
        # Represent s with integer coefficients over a common denominator.
        sden = 1
        for q in sv.coeffs:
            sden = _lcm(sden, q.denominator)
        ints = np.array([int(q * sden) for q in sv.coeffs], dtype=object)
        # Promotion to order L, then multiplication by s: one integer map.
        D = len(ints)
        table = np.dot(_promotion_table(self.order, L),
                       np.dot(ints, _product_table(L).reshape(D, D, D)))
        return Mat._new(self.rows, self.cols, L, _linear(self.coef, table),
                              self.den * sden)

    def kron(self, other: "Mat") -> "Mat":
        a, b = self._promote_pair(other)
        coef = _bilinear(a.order, a.coef, b.coef, _planes_kron, 1)
        return Mat._new(a.rows * b.rows, a.cols * b.cols, a.order, coef, a.den * b.den)

    def adjoint(self) -> "Mat":
        return self.conj().transpose()

    def transpose(self) -> "Mat":
        out = np.ascontiguousarray(self.coef.transpose(0, 2, 1))
        return Mat._new(self.cols, self.rows, self.order, out, self.den)

    def conj(self) -> "Mat":
        coef = _linear(self.coef, _conjugation_table(self.order))
        return Mat._new(self.rows, self.cols, self.order, coef, self.den)

    def select(self, rows, cols) -> "Mat":
        """The submatrix of the given row and column indices, in that order."""
        ix = np.ix_(rows, cols)
        return Mat._new(len(rows), len(cols), self.order,
                              self.coef[(slice(None),) + ix], self.den)

    # -- scalar extraction ---------------------------------------------------
    def entry(self, i: int, j: int) -> Cyclotomic:
        return Cyclotomic(
            self.order, [Fraction(int(self.coef[t, i, j]), self.den) for t in range(self.coef.shape[0])]
        )

    def trace(self) -> Cyclotomic:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        return Cyclotomic(
            self.order,
            [Fraction(int(np.trace(self.coef[t])), self.den) for t in range(self.coef.shape[0])],
        )

    def normalized_trace(self) -> Cyclotomic:
        return self.trace() / Cyclotomic.rational(self.rows)

    def to_float(self) -> np.ndarray:
        """The complex128 array of the entries."""
        z = cmath.exp(2j * cmath.pi / self.order)
        acc = np.zeros((self.rows, self.cols), dtype=np.complex128)
        for t in range(self.coef.shape[0]):
            block = self.coef[t]
            if block.any():
                acc += block.astype(np.complex128) * z**t
        return acc / self.den

    # -- predicates ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coef.any()

    def equals(self, other: "Mat") -> bool:
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        _, ca, cb = self._rescaled_pair(other, other.den, self.den)
        return bool((ca == cb).all())

    def residual(self, other: "Mat") -> float:
        """Max entrywise deviation, in floats; exactly 0.0 for equal matrices."""
        return 0.0 if self.equals(other) else _float_residual(self, other)

    def is_unitary(self) -> bool:
        if self.rows != self.cols:
            return False
        return (self @ self.adjoint()).equals(Mat.identity(self.rows))

    def scalar_multiple_of_identity(self):
        """Return the scalar c with self == c*I, or None."""
        if self.rows != self.cols or self.rows == 0:
            return None
        c = self.entry(0, 0)
        return c if self.equals(Mat.identity(self.rows).scale(c)) else None

    def entries(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def terms(self):
        """(row, col, exp, num), integer arrays over the nonzero terms of the
        power basis: self = (1/den) sum over t of
        num[t] * zeta_order^exp[t] * E_(row[t], col[t])."""
        exp, row, col = np.nonzero(self.coef)
        return row, col, exp, self.coef[exp, row, col]

    def sparse_entries(self) -> dict:
        """Nonzero entries as {(i, j): Cyclotomic}."""
        nonzero = (self.coef != 0).any(axis=0)
        return {(int(i), int(j)): self.entry(int(i), int(j)) for i, j in zip(*np.nonzero(nonzero))}

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, order {self.order})"


@dataclass(frozen=True)
class Terms:
    """A rows x cols matrix as arrays over its terms,
    (1/den) sum over t of num[t] * zeta_order^exp[t] * E_(row[t], col[t]),
    where terms at one position add.  Integer numerators make it an exact
    matrix (the arguments of ``Mat.from_entries``); complex ones, with exp 0,
    order 1 and den 1, a complex array."""

    rows: int
    cols: int
    order: int
    den: int
    row: np.ndarray
    col: np.ndarray
    exp: np.ndarray
    num: np.ndarray

    @property
    def exact(self) -> bool:
        return self.num.dtype.kind != "c"

    @classmethod
    def vstack(cls, parts) -> "Terms":
        """Terms of one width stacked top to bottom, at the lcm of their
        orders and of their denominators."""
        order, den = math.lcm(*(t.order for t in parts)), math.lcm(*(t.den for t in parts))
        offset = np.cumsum([0] + [t.rows for t in parts]).tolist()
        num = [t.num if t.den == den else
               _working(_maxabs(t.num) * den // t.den, t.num)[0] * (den // t.den) for t in parts]
        return cls(offset[-1], parts[0].cols, order, den,
                   np.concatenate([t.row + o for t, o in zip(parts, offset)]),
                   np.concatenate([t.col for t in parts]),
                   np.concatenate([t.exp * (order // t.order) for t in parts]), np.concatenate(num))

    def coefficients(self):
        """(key, coef) over the nonzero entries of exact terms, in position
        order: key = row * cols + col, and coef the entry's integer
        coefficients in the power basis of order ``order``, over ``den``."""
        table = _root_table(self.order)
        key = self.row * self.cols + self.col
        by = np.argsort(key, kind="stable")
        key = key[by]
        first = _starts(key)
        num, powers = _working(_maxabs(self.num) * _maxabs(table) * max(len(key), 1),
                               self.num[by], table[self.exp[by] % self.order])
        coef = np.add.reduceat(num[:, None] * powers, first, axis=0)
        live = coef.any(axis=1)
        return key[first][live], coef[live]

    def dense(self):
        """The exact ``Mat``, or the complex array."""
        if self.exact:
            return Mat.from_entries(self.rows, self.cols, self.order, self.row, self.col,
                                    self.exp, self.num, self.den)
        out = np.zeros((self.rows, self.cols), dtype=np.complex128)
        np.add.at(out, (self.row, self.col), self.num)
        return out


def _float_residual(a: Mat, b: Mat) -> float:
    return float(np.max(np.abs(a.to_float() - b.to_float()), initial=0.0))


# -- exact sparse vectors {index: Cyclotomic} ---------------------------------

def accumulate(out: dict, a, terms):
    """out += a * (sum of c e_k over the (k, c) pairs of terms), dropping
    coordinates that cancel."""
    for k, c in terms:
        cur = out.get(k)
        new = a * c if cur is None else cur + a * c
        if new.is_zero():
            out.pop(k, None)
        else:
            out[k] = new
