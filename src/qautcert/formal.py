"""Formal tensors: elements of M_size x (generator symbols) whose every
coefficient is a phase-permutation, stored as rows of an index table.

A symbol is a hashable tuple, a q-symbol (``qsym``) or a u-symbol
(``usym``), read only as a name: a table row holds its symbol's number.
The images of the generators under pi and rho are such tensors, one stack
each (see ``qaut.pi_map``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import Terms, _positions

__all__ = ["FormalTensor", "qsym", "usym"]


def qsym(s, r, i, j, k, l):
    return ("q", s, r, i, j, k, l)


def usym(s, x, y, r, v, w):
    return ("u", s, x, y, r, v, w)


@dataclass(eq=False)
class FormalTensor:
    """A vertical stack of images, each an element of M_size x (symbols)
    whose coefficients are phase-permutations.  Image b is

        sum over the rows t with row[t] // size == b of
            prefactor_b * zeta_order^exp[t] * E_(row[t] - b size, col[t]) (x) symbols[sym[t]],

    E the matrix units of M_size, and ``prefactors`` holds prefactor_b for
    each image b.  The rows of image b follow those of image b - 1.  One
    image is a stack of one, with rows below ``size``; ``take`` reads some
    images of a stack as one.

    ``cli.ft_to_float`` sets ``phase``, each row's coefficient as a complex
    number; ``substitute`` then computes in floats."""

    size: int
    order: int
    prefactors: tuple
    symbols: tuple
    sym: np.ndarray
    row: np.ndarray
    col: np.ndarray
    exp: np.ndarray
    phase: np.ndarray | None = None

    def __post_init__(self):
        self.prefactors = tuple(p if type(p) is Fraction else Fraction(p) for p in self.prefactors)
        for name in ("sym", "row", "col", "exp"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def take(self, images) -> "FormalTensor":
        """The stack of the images numbered ``images`` of this one, in that
        order: image a of it is image images[a] here, its rows in their
        order.  As row // size grows along the table, bisection on ``row``
        finds each image's rows."""
        images = np.asarray(images, dtype=np.int64)
        lo = np.searchsorted(self.row, images * self.size)
        cnt = np.searchsorted(self.row, (images + 1) * self.size) - lo
        image, rows = np.repeat(np.arange(len(images)), cnt), _positions(lo, cnt)
        return FormalTensor(self.size, self.order,
                            tuple(self.prefactors[b] for b in images.tolist()), self.symbols,
                            self.sym[rows], self.row[rows] % self.size + image * self.size,
                            self.col[rows], self.exp[rows])

    def differing(self, other: "FormalTensor") -> np.ndarray:
        """Which images of two stacks of one size, length and symbols
        differ, as one bool per image.  Each row is encoded as one int64
        key (symbol, image, row, col, exponent modulo the common order) and
        each side's keys are sorted once; an image differs where its keys
        or its prefactor differ.  Rows are compared as a multiset, so the
        images of pi and rho, which hold each (symbol, row, col) at most
        once, are compared as matrices."""
        images = len(self.prefactors)
        if (self.size, images, self.symbols) != (other.size, len(other.prefactors),
                                                 other.symbols):
            raise ValueError("differing compares stacks of one size, length and symbols")
        order = math.lcm(self.order, other.order)
        if len(self.symbols) * images * self.size ** 2 * order >= 2**63:
            raise OverflowError(f"{images} images of size {self.size} exceed int64 keys")
        a, b = self._sorted_keys(order), other._sorted_keys(order)
        out = np.array([p != q for p, q in zip(self.prefactors, other.prefactors)], dtype=bool)
        if len(a) == len(b) and np.array_equal(a, b):
            return out
        # the keys of group g = symbol * images + image span ``width``: keep the
        # images whose every group has one length on both sides, which then line up
        width, groups = self.size * self.size * order, len(self.symbols) * images
        ga, gb = a // width, b // width
        uneven = np.bincount(ga, minlength=groups) != np.bincount(gb, minlength=groups)
        out[np.nonzero(uneven)[0] % images] = True
        a, b = a[~out[ga % images]], b[~out[gb % images]]
        out[a[a != b] // width % images] = True
        return out

    def _sorted_keys(self, order: int) -> np.ndarray:
        key = self.sym * (len(self.prefactors) * self.size)
        key += self.row
        key *= self.size
        key += self.col
        key *= order
        exp = self.exp * (order // self.order)
        exp %= order
        key += exp
        key.sort()
        return key

    def substitute(self, values: Terms):
        """``substitute_terms`` as an exact ``Mat``, or a complex array once
        ``phase`` is set."""
        return self.substitute_terms(values).dense()

    def substitute_terms(self, values: Terms) -> Terms:
        """Evaluate every image under symbol -> exact k x k value: image b
        goes to block b of a (G size k) x (size k) stack, G the number of
        images, the sum over its rows of their coefficient times
        E_(row, col) (x) value.  ``values`` is the ``Terms`` of the vertical
        stack of the values of ``symbols`` in order (an exact
        ``GeneratorAssignment.stack``).  One scatter over the pairs of a row
        and a nonzero power-basis term of its symbol's value gives the
        stack's terms, exact at one order and denominator, or complex once
        ``phase`` is set; no dense matrix is formed."""
        k = values.cols
        if values.rows != len(self.symbols) * k:
            raise ValueError(f"{values.rows}x{k} values for {len(self.symbols)} symbols")
        n = self.size * k
        shape = (len(self.prefactors) * n, n)
        vrow, vcol, vexp, vnum = values.row, values.col, values.exp, values.num
        # t: table row, v: value term of its symbol, for every such pair
        by_symbol = np.argsort(vrow // k, kind="stable")
        counts = np.bincount(vrow // k, minlength=len(self.symbols))
        reps = counts[self.sym]
        t = np.repeat(np.arange(len(self.sym)), reps)
        v = by_symbol[_positions((np.cumsum(counts) - counts)[self.sym], reps)]
        rows, cols = self.row[t] * k + vrow[v] % k, self.col[t] * k + vcol[v]
        if self.phase is not None:
            z = cmath.exp(2j * cmath.pi / values.order)
            powers = np.array([z ** e for e in range(values.order)])
            num = self.phase[t] * (vnum[v].astype(np.float64) / values.den) * powers[vexp[v]]
            return Terms(*shape, 1, 1, rows, cols, np.zeros(len(t), dtype=np.int64), num)
        order = math.lcm(self.order, values.order)
        den = math.lcm(*(p.denominator for p in self.prefactors))
        scale = [p.numerator * (den // p.denominator) for p in self.prefactors]
        # stored value terms are below 2**31, so below it the products fit int64
        scale = np.array(scale, dtype=np.int64 if max(map(abs, scale)) < 2**31 else object)
        return Terms(*shape, order, den * values.den, rows, cols,
                     self.exp[t] * (order // self.order) + vexp[v] * (order // values.order),
                     scale[self.row[t] // self.size] * vnum[v])
