"""Formal tensors: elements of M_size x (generator symbols) whose every
coefficient is a phase-permutation, stored as rows of an index table.

A symbol is a hashable tuple; q-type symbols carry their own adjoint rule
(index transposition), u-type symbols are formally self-adjoint.  The images
of the generators under pi and rho are such tensors (see ``qaut.pi_map``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import Mat, accumulate, root_of_unity

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
    """sum over rows t of prefactor * zeta_order^exp[t] * E_(row[t], col[t])
    (x) symbols[sym[t]], with E the matrix units of M_size.

    ``cli.ft_to_float`` sets ``phase``, each row's coefficient as a complex
    number; ``substitute`` then computes in floats."""

    size: int
    order: int
    prefactor: Fraction
    symbols: tuple
    sym: np.ndarray
    row: np.ndarray
    col: np.ndarray
    exp: np.ndarray
    phase: np.ndarray | None = None

    def __post_init__(self):
        for name in ("sym", "row", "col", "exp"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def equals(self, other: "FormalTensor") -> bool:
        """Exact equality, for tensors that hold each (symbol, row, col) in
        at most one row, as the images of pi and rho do."""
        if self.prefactor != other.prefactor or self.symbols != other.symbols:
            return False
        order = math.lcm(self.order, other.order)
        return np.array_equal(self._sorted_rows(order), other._sorted_rows(order))

    def _sorted_rows(self, order: int) -> np.ndarray:
        rows = np.stack([self.sym, self.row, self.col,
                         self.exp * (order // self.order) % order])
        return rows[:, np.lexsort(rows[::-1])]

    def sparse(self) -> dict:
        """The nonzero coefficients as {(symbol, row, col): Cyclotomic}."""
        units = [root_of_unity(self.order, e) for e in range(self.order)]
        out: dict = {}
        accumulate(out, self.prefactor,
                   (((self.symbols[j], r, c), units[e % self.order])
                    for j, r, c, e in zip(self.sym.tolist(), self.row.tolist(),
                                          self.col.tolist(), self.exp.tolist())))
        return out

    def substitute(self, assignment: dict) -> Mat | np.ndarray:
        """Evaluate under symbol -> exact Mat, every value k x k: the sum
        over the rows of their coefficient times E_(row, col) (x) value, a
        (size k) x (size k) exact Mat, or complex array once ``phase`` is
        set."""
        k = next(iter(assignment.values())).rows if assignment else 1
        n = self.size * k
        parts = []  # (table rows, rows, cols, value entry) per nonzero value entry
        for j, symbol in enumerate(self.symbols):
            value = assignment[symbol]
            if value.is_zero():
                continue
            t = np.flatnonzero(self.sym == j)
            parts += [(t, self.row[t] * k + a, self.col[t] * k + b, c)
                      for (a, b), c in value.sparse_entries().items()]
        if self.phase is not None:
            data = np.zeros((n, n), dtype=np.complex128)
            for t, rows, cols, c in parts:
                np.add.at(data, (rows, cols), self.phase[t] * c.to_complex())
            return data
        # each value entry is sum over e of q_e zeta_M^e, its power basis
        order = math.lcm(self.order, *(c.order for *_, c in parts))
        rows, cols, exps, rational = [], [], [], []
        for t, r, cl, c in parts:
            for e, q in enumerate(c.coeffs):
                if q:
                    rows.append(r)
                    cols.append(cl)
                    exps.append(self.exp[t] * (order // self.order) + e * (order // c.order))
                    rational += [q * self.prefactor] * len(t)
        if not rows:
            return Mat.zeros(n, n)
        return Mat.from_entries(n, n, order, np.concatenate(rows), np.concatenate(cols),
                                np.concatenate(exps), rational)
