"""Formal tensors: elements of M_size x (generator symbols) whose every
coefficient is a phase-permutation, stored as rows of an index table.

A symbol is a hashable tuple; q-type symbols carry their own adjoint rule
(index transposition), u-type symbols are formally self-adjoint.  The images
of the generators under pi and rho are such tensors (see ``qaut.pi_map``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import Mat, Terms, accumulate, root_of_unity

__all__ = ["FormalTensor", "symbol_adjoint", "qsym", "usym"]


def qsym(s, r, i, j, k, l):
    return ("q", s, r, i, j, k, l)


def usym(s, x, y, r, v, w):
    return ("u", s, x, y, r, v, w)


def symbol_adjoint(sym):
    if sym[0] == "u":
        return sym
    if sym[0] == "q":
        _, s, r, i, j, k, l = sym
        return ("q", s, r, j, i, l, k)
    raise ValueError(f"unknown symbol kind {sym[0]!r}")


@dataclass(eq=False)
class FormalTensor:
    """A vertical stack of images, each an element of M_size x (symbols)
    whose coefficients are phase-permutations.  Image b is

        sum over the rows t with row[t] // size == b of
            prefactor_b * zeta_order^exp[t] * E_(row[t] - b size, col[t]) (x) symbols[sym[t]],

    E the matrix units of M_size, and ``prefactors`` holds prefactor_b for
    each image b.  One image is a stack of one, with rows below ``size``;
    ``stack`` lays several images out as one tensor.

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

    @classmethod
    def stack(cls, images, symbols) -> "FormalTensor":
        """The images, of one size, as one tensor over the symbols
        ``symbols``: image b of the list is image b of the stack, and its
        rows follow those of image b - 1."""
        size = images[0].size
        order = math.lcm(*(ft.order for ft in images))
        number = {s: n for n, s in enumerate(symbols)}
        renumbered = {}  # images often share their symbols tuple
        for ft in images:
            if id(ft.symbols) not in renumbered:
                renumbered[id(ft.symbols)] = np.array([number[s] for s in ft.symbols],
                                                      dtype=np.int64)
        return cls(size, order, sum((ft.prefactors for ft in images), ()), tuple(symbols),
                   np.concatenate([renumbered[id(ft.symbols)][ft.sym] for ft in images]),
                   np.concatenate([ft.row + b * size for b, ft in enumerate(images)]),
                   np.concatenate([ft.col for ft in images]),
                   np.concatenate([ft.exp * (order // ft.order) for ft in images]))

    def equals(self, other: "FormalTensor") -> bool:
        """Exact equality of two stacks: ``differing`` marks no image."""
        return (self.size == other.size and self.symbols == other.symbols
                and len(self.prefactors) == len(other.prefactors)
                and not self.differing(other).any())

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

    def sparse(self) -> dict:
        """The nonzero coefficients of one image as {(symbol, row, col):
        Cyclotomic}."""
        if len(self.prefactors) != 1:
            raise ValueError(f"sparse reads one image, not a stack of {len(self.prefactors)}")
        units = [root_of_unity(self.order, e) for e in range(self.order)]
        out: dict = {}
        accumulate(out, self.prefactors[0],
                   (((self.symbols[j], r, c), units[e % self.order])
                    for j, r, c, e in zip(self.sym.tolist(), self.row.tolist(),
                                          self.col.tolist(), self.exp.tolist())))
        return out

    def substitute(self, values) -> Mat | np.ndarray:
        """``substitute_terms`` as an exact Mat, or a complex array once
        ``phase`` is set."""
        return self.substitute_terms(values).dense()

    def substitute_terms(self, values) -> Terms:
        """Evaluate every image under symbol -> exact k x k value: image b
        goes to block b of a (G size k) x (size k) stack, G the number of
        images, the sum over its rows of their coefficient times
        E_(row, col) (x) value.  ``values`` is a dict {symbol: Mat} or the
        vertical stack of the values of ``symbols`` in order (an exact
        ``GeneratorAssignment.stack``, a ``Mat`` or its ``Terms``).  One
        scatter over the pairs of a row and a nonzero power-basis term of
        its symbol's value gives the stack's terms, exact at one order and
        denominator, or complex once ``phase`` is set; no dense matrix is
        formed."""
        if isinstance(values, dict):
            values = Mat.vstack([values[s] for s in self.symbols])
        if isinstance(values, Mat):
            values = Terms.of(values)
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
        first = np.cumsum(counts) - counts
        v = by_symbol[np.repeat(first[self.sym] - (np.cumsum(reps) - reps), reps)
                      + np.arange(len(t))]
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
