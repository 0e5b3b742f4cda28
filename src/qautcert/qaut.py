"""Generator presentations of the quantum automorphism algebra of a
multimatrix algebra and of the quantum permutation algebra, together with
the finite-dimensional machinery connecting them: the block-diagonal PVM
representation, the generator homomorphisms pi and rho, the
order-n_t automorphism families on both sides, and the covariance and
trace-constant certificates.

Conventions fixed here (and recorded in every certificate):
  * q-generators q^(s,r)_(i,j),(k,l) with i,j < n_s, k,l < n_r satisfy the
    five standard relation families (partial-isometry products, adjoint
    symmetry, and the two partition-of-unity sums).
  * u-generators form a magic unitary: self-adjoint idempotent entries with
    row and column sums equal to 1.
  * pi(q^(s,r)_(i,j),(k,l)) = (1/n_r) sum_{x,y<n_s} sum_{v,w<n_r}
      w_s^(-x(i-j)) w_r^(-v(k-l)) E^(s)_(i-y,j-y) x E^(r)_(k-w,l-w)
      x u_(s,x,y),(r,v,w)
  * rho(u_(s,x,y),(r,v,w)) = (1/n_s) sum w_s^(x(i-j)) w_r^(v(k-l))
      E^(s)_(i-y,j-y) x E^(r)_(k-w,l-w) x q^(s,r)_(i,j),(k,l)
The 1/n_r and 1/n_s prefactors are forced: the column-sum relation pins
pi's constant and idempotency of rho(u) pins rho's; with these choices the
generator-level trace constants on both sides agree (see haar_compat_check).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import BlockSpec, MonomialMap, monomial_forms, multimatrix
from .arith import (Cyclotomic, Mat, Terms, _maxabs, _root_table, _working, accumulate,
                    echelon, euler_phi, root_of_unity)
from .formal import FormalTensor, qsym, symbol_adjoint, usym
from .pauli import BlockEmbedding, NotPVM, pvm_check, weyl_basis

__all__ = [
    "QautPresentation",
    "SnPresentation",
    "GeneratorAssignment",
    "RelationReport",
    "check_relations",
    "counit_assignment",
    "permutation_assignment",
    "block_preserving_permutations",
    "arbitrary_permutations",
    "direct_sum_assignment",
    "classical_assignment_aut",
    "theta_identity",
    "theta_ad_unitary",
    "theta_block_swap",
    "classical_theta_battery",
    "uet_pvm",
    "pi_map",
    "rho_map",
    "rho_forms_agree",
    "image_stack",
    "rearranged_Q_check",
    "alpha",
    "beta",
    "substitution_preserves_relations",
    "covariance_check",
    "haar_compat_check",
    "strict_word_check",
    "IncompleteAssignment",
    "NotAutomorphismB",
    "NotTracePreserving",
    "IndexOutOfRange",
]


class IncompleteAssignment(ValueError):
    pass


class NotAutomorphismB(ValueError):
    pass


class NotTracePreserving(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


# ---------------------------------------------------------------------------
# presentations

@dataclass
class RelationInstance:
    rid: str
    family: str
    lhs: list  # [(coeff, word)], word a tuple of symbols
    rhs: list
    adjoint_lhs: bool = False


@dataclass
class QautPresentation:
    spec: BlockSpec

    @property
    def generators(self):
        out = []
        for s, ns in enumerate(self.spec.sizes, start=1):
            for r, nr in enumerate(self.spec.sizes, start=1):
                for i in range(ns):
                    for j in range(ns):
                        for k in range(nr):
                            for l in range(nr):
                                out.append(qsym(s, r, i, j, k, l))
        return out

    def relations(self):
        sizes = self.spec.sizes
        m = self.spec.m
        one = Fraction(1)
        for s in range(1, m + 1):
            ns = sizes[s - 1]
            for sp in range(1, m + 1):
                nsp = sizes[sp - 1]
                for r in range(1, m + 1):
                    nr = sizes[r - 1]
                    for i, j, ip, jp, k, l in itertools.product(
                            range(ns), range(ns), range(nsp), range(nsp),
                            range(nr), range(nr)):
                        lhs = [(one, (qsym(s, r, i, j, k, v), qsym(sp, r, ip, jp, v, l)))
                               for v in range(nr)]
                        rhs = []
                        if s == sp and j == ip:
                            rhs = [(one, (qsym(s, r, i, jp, k, l),))]
                        yield RelationInstance(
                            f"r1[{s},{sp},{r},{i},{j},{ip},{jp},{k},{l}]", "r1", lhs, rhs)
        for s in range(1, m + 1):
            ns = sizes[s - 1]
            for r in range(1, m + 1):
                nr = sizes[r - 1]
                for rp in range(1, m + 1):
                    nrp = sizes[rp - 1]
                    for i, j, k, l, kp, lp in itertools.product(
                            range(ns), range(ns), range(nr), range(nr),
                            range(nrp), range(nrp)):
                        lhs = [(Fraction(1, ns),
                                (qsym(s, r, i, v, k, l), qsym(s, rp, v, j, kp, lp)))
                               for v in range(ns)]
                        rhs = []
                        if r == rp and l == kp:
                            rhs = [(Fraction(1, nr), (qsym(s, r, i, j, k, lp),))]
                        yield RelationInstance(
                            f"r2[{s},{r},{rp},{i},{j},{k},{l},{kp},{lp}]", "r2", lhs, rhs)
        for sym in self.generators:
            _, s, r, i, j, k, l = sym
            yield RelationInstance(
                f"r3[{s},{r},{i},{j},{k},{l}]", "r3",
                [(one, (sym,))], [(one, (qsym(s, r, j, i, l, k),))], adjoint_lhs=True)
        for r in range(1, m + 1):
            nr = sizes[r - 1]
            for k in range(nr):
                for l in range(nr):
                    lhs = [(one, (qsym(s, r, i, i, k, l),))
                           for s in range(1, m + 1) for i in range(sizes[s - 1])]
                    rhs = [(one, ())] if k == l else []
                    yield RelationInstance(f"r4[{r},{k},{l}]", "r4", lhs, rhs)
        for s in range(1, m + 1):
            ns = sizes[s - 1]
            for i in range(ns):
                for j in range(ns):
                    lhs = [(Fraction(sizes[r - 1]), (qsym(s, r, i, j, k, k),))
                           for r in range(1, m + 1) for k in range(sizes[r - 1])]
                    rhs = [(Fraction(ns), ())] if i == j else []
                    yield RelationInstance(f"r5[{s},{i},{j}]", "r5", lhs, rhs)

    def block_residuals(self, values: "_BlockValues"):
        """The residual of every relation instance, one array per relation
        family, the arrays and their entries in the order of
        ``relations()``."""
        for plan in _qaut_plans(self.spec.sizes):
            yield values.residuals(plan)


@dataclass
class SnPresentation:
    """Magic-unitary presentation on the index set {(s,a,b)} of a partition."""

    spec: BlockSpec

    @property
    def points(self):
        return [(s, a, b)
                for s, ns in enumerate(self.spec.sizes, start=1)
                for a in range(ns) for b in range(ns)]

    @property
    def generators(self):
        pts = self.points
        return [usym(*p, *q) for p in pts for q in pts]

    def relations(self):
        pts = self.points
        one = Fraction(1)
        for p in pts:
            for q in pts:
                sym = usym(*p, *q)
                yield RelationInstance(f"selfadj[{p},{q}]", "selfadj",
                                       [(one, (sym,))], [(one, (sym,))],
                                       adjoint_lhs=True)
                yield RelationInstance(f"idem[{p},{q}]", "idem",
                                       [(one, (sym, sym))], [(one, (sym,))])
        for p in pts:
            yield RelationInstance(f"rowsum[{p}]", "rowsum",
                                   [(one, (usym(*p, *q),)) for q in pts],
                                   [(one, ())])
        for q in pts:
            yield RelationInstance(f"colsum[{q}]", "colsum",
                                   [(one, (usym(*p, *q),)) for p in pts],
                                   [(one, ())])

    def block_residuals(self, values: "_BlockValues"):
        """The residual of every relation instance, one array per relation
        family (``selfadj`` and ``idem`` interleaved per (p, q)), the arrays
        and their entries in the order of ``relations()``."""
        selfadj, idem, rowsum, colsum = _sn_plans(self.spec.sizes)
        yield np.stack([values.residuals(selfadj), values.residuals(idem)], axis=1)
        yield values.residuals(rowsum)
        yield values.residuals(colsum)


class GeneratorAssignment:
    """Generator values, all exact or all complex, every one k x k, held as
    one block stack: ``stack`` is a (G k) x k exact ``Mat`` at one order and
    denominator, or a complex array, or the ``Terms`` of either, whose block
    t is the value of generator number t of ``presentation.generators``.
    ``values`` is that stack, as ``FormalTensor.substitute`` or
    ``substitute_terms`` returns it, or a dict {generator: value}, which is
    stacked once here."""

    def __init__(self, presentation, values):
        self.presentation = presentation
        gens = presentation.generators
        if isinstance(values, dict):
            missing = [g for g in gens if g not in values]
            if missing:
                raise IncompleteAssignment(f"{len(missing)} generators unassigned")
            kinds = {isinstance(v, Mat) for v in values.values()}
            if len(kinds) != 1:
                raise IncompleteAssignment("assigned matrices must be all exact or all float")
            exact = kinds.pop()
            shapes = {(v.rows, v.cols) if exact else np.shape(v) for v in values.values()}
            if len(shapes) != 1 or any(len(sh) != 2 or sh[0] != sh[1] for sh in shapes):
                raise IncompleteAssignment("assigned matrices must be square of one size")
            ordered = [values[g] for g in gens]
            values = (Mat.vstack(ordered) if exact
                      else np.concatenate(ordered).astype(np.complex128, copy=False))
        sized = isinstance(values, (Mat, Terms))
        self.exact = values.exact if isinstance(values, Terms) else isinstance(values, Mat)
        rows, self.size = (values.rows, values.cols) if sized else np.shape(values)
        if rows != len(gens) * self.size:
            raise IncompleteAssignment(f"a {rows}x{self.size} stack for {len(gens)} generators")
        self.stack = values

    @functools.cached_property
    def terms(self) -> Terms:
        """The stack as its ``Terms``."""
        return self.stack if isinstance(self.stack, Terms) else Terms.of(self.stack)

    @functools.cached_property
    def values(self) -> dict:
        """{generator: value}, read off the stack."""
        n = self.size
        stack = self.stack.dense() if isinstance(self.stack, Terms) else self.stack

        def block(t):
            rows = range(t * n, t * n + n)
            return stack.select(rows, range(n)) if self.exact else stack[rows.start:rows.stop]

        return {g: block(t) for t, g in enumerate(self.presentation.generators)}


@dataclass
class RelationReport:
    ok: bool
    worst_residual: float
    failing: str | None
    checked: int

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# relation families as index plans over the generators

@dataclass(frozen=True)
class _Sums:
    """A relation family whose two sides are sums of generator values and
    multiples of the identity.  For each entry e, instance inst[e] holds
    weight[e] times the value of generator gen[e], or its adjoint where
    adjoint[e]; instance x holds minus eye[x] times the identity."""

    size: int
    gen: np.ndarray
    inst: np.ndarray
    weight: np.ndarray
    adjoint: np.ndarray
    eye: np.ndarray


@dataclass(frozen=True)
class _Products:
    """A relation family whose left sides are sums of products of two
    generator values and whose right sides are sums of values.  The value
    of generator g times that of g' counts lweight[g] times towards the
    instance of code lpart[g] rparts + rpart[g'] for every pair with
    lkey[g] == rkey[g']; ``instance`` maps codes to instances.  ``rhs`` is a
    ``_Sums`` plan of the right sides over codes, in their order.  The
    instances of one left part are evaluated together.  The instances are
    ``scale`` times the relations."""

    size: int
    lkey: np.ndarray
    rkey: np.ndarray
    lpart: np.ndarray
    rpart: np.ndarray
    rparts: int
    instance: np.ndarray
    lweight: np.ndarray
    rhs: _Sums
    scale: int = 1


def _sum_plan(size, gen, inst, weight, adjoint=False, eye=0) -> _Sums:
    gen = np.asarray(gen, dtype=np.int64)
    return _Sums(size, gen, np.asarray(inst, dtype=np.int64),
                 np.broadcast_to(np.asarray(weight, dtype=np.int64), gen.shape),
                 np.broadcast_to(np.asarray(adjoint, dtype=bool), gen.shape),
                 np.broadcast_to(np.asarray(eye, dtype=np.int64), (size,)))


def _product_plan(inst_codes, gen_codes, keys, rhs, lweight=1, scale=1) -> _Products:
    """A ``_Products`` plan from the codes of the left and right part of
    every instance, in order, and of every generator as a left and as a
    right factor; the join keys of every generator as a left and as a right
    factor; and the (instance, generator, weight) entries of the right
    sides."""
    (il, ir), (gl, gr) = inst_codes, gen_codes
    lparts, rparts = (np.sort(c) for c in inst_codes)
    lparts, rparts = lparts[_starts(lparts)], rparts[_starts(rparts)]
    code = np.searchsorted(lparts, il) * len(rparts) + np.searchsorted(rparts, ir)
    instance = np.full(len(lparts) * len(rparts), -1, dtype=np.int64)
    instance[code] = np.arange(len(il))
    inst, gen, weight = rhs
    order = np.argsort(code[inst], kind="stable")
    return _Products(len(il), *keys, np.searchsorted(lparts, gl), np.searchsorted(rparts, gr),
                     len(rparts), instance,
                     np.broadcast_to(np.asarray(lweight, dtype=np.int64), gl.shape),
                     _sum_plan(len(instance), gen[order], code[inst[order]],
                               np.broadcast_to(weight, inst.shape)[order]), scale)


def _enumerate(sizes, blocks: int, shape) -> np.ndarray:
    """Index columns over the instances of a family, in the order of
    ``relations()``: ``blocks`` block numbers, counted from 0, in
    lexicographic order, and for each such tuple the free indices over the
    ranges ``shape(*their block sizes)``, in lexicographic order."""
    cols = []
    for b in itertools.product(range(len(sizes)), repeat=blocks):
        free = np.indices(shape(*(sizes[x] for x in b)))
        free = free.reshape(len(free), -1)
        cols.append(np.vstack([np.repeat(np.array(b)[:, None], free.shape[1], axis=1), free]))
    return np.concatenate(cols, axis=1)


def _codes(radix: int, *cols) -> np.ndarray:
    """One integer per index tuple, its digits in base ``radix``."""
    out = np.zeros(np.broadcast_shapes(*(np.shape(c) for c in cols)), dtype=np.int64)
    for c in cols:
        out = out * radix + c
    return out


@functools.lru_cache(maxsize=None)
def _qaut_plans(sizes: tuple) -> tuple:
    """Index plans of the families r1-r5 of ``QautPresentation``, in the
    order of ``relations()``; block numbers count from 0."""
    n, m = np.array(sizes), len(sizes)
    code = functools.partial(_codes, max(m, *sizes))
    # the generators q^(s,r)_(i,j),(k,l), in order, and their numbers
    s, r, i, j, k, l = _enumerate(sizes, 2, lambda ns, nr: (ns, ns, nr, nr))
    counts = (np.multiply.outer(n, n) ** 2).ravel()
    first = (np.cumsum(counts) - counts).reshape(m, m)

    def number(s, r, i, j, k, l):
        return first[s, r] + ((i * n[s] + j) * n[r] + k) * n[r] + l

    P = math.lcm(*sizes)
    # r1: sum_v q(s,r,i,j,k,v) q(s',r,i',j',v,l) = [s = s', j = i'] q(s,r,i,j',k,l)
    S, Sp, R, I, J, Ip, Jp, K, L = _enumerate(sizes, 3,
                                              lambda ns, nsp, nr: (ns, ns, nsp, nsp, nr, nr))
    x = np.flatnonzero((S == Sp) & (J == Ip))
    r1 = _product_plan((code(S, R, I, J, K), code(Sp, R, Ip, Jp, L)),
                       (code(s, r, i, j, k), code(s, r, i, j, l)), (code(r, l), code(r, k)),
                       (x, number(S, R, I, Jp, K, L)[x], -1))
    # r2, times P: sum_v (P/n_s) q(s,r,i,v,k,l) q(s,r',v,j,k',l')
    #   = [r = r', l = k'] (P/n_r) q(s,r,i,j,k,l')
    S, R, Rp, I, J, K, L, Kp, Lp = _enumerate(sizes, 3,
                                              lambda ns, nr, nrp: (ns, ns, nr, nr, nrp, nrp))
    x = np.flatnonzero((R == Rp) & (L == Kp))
    r2 = _product_plan((code(S, R, I, K, L), code(S, Rp, J, Kp, Lp)),
                       (code(s, r, i, k, l), code(s, r, j, k, l)), (code(s, j), code(s, i)),
                       (x, number(S, R, I, J, K, Lp)[x], -(P // n[R[x]])), P // n[s], P)
    # r3: instance number t, that of its generator: q(s,r,i,j,k,l)* = q(s,r,j,i,l,k)
    t = np.arange(len(s))
    r3 = _sum_plan(len(t), np.r_[t, number(s, r, j, i, l, k)], np.r_[t, t],
                   np.repeat([1, -1], len(t)), np.repeat([True, False], len(t)))
    # r4[r, k, l]: sum_(s,i) q(s,r,i,i,k,l) = [k = l];
    # r5[s, i, j]: sum_(r,k) n_r q(s,r,i,j,k,k) = [i = j] n_s
    first = np.cumsum(n * n) - n * n
    R, K, L = _enumerate(sizes, 1, lambda nr: (nr, nr))
    x = np.flatnonzero(i == j)
    r4 = _sum_plan(len(R), x, first[r[x]] + k[x] * n[r[x]] + l[x], 1, eye=K == L)
    S, I, J = _enumerate(sizes, 1, lambda ns: (ns, ns))
    x = np.flatnonzero(k == l)
    r5 = _sum_plan(len(S), x, first[s[x]] + i[x] * n[s[x]] + j[x], n[r[x]], eye=(I == J) * n[S])
    return r1, r2, r3, r4, r5


@functools.lru_cache(maxsize=None)
def _sn_plans(sizes: tuple) -> tuple:
    """Index plans of ``SnPresentation``'s families selfadj, idem, rowsum
    and colsum; generator number t = p N + q is u_(p),(q)."""
    N = sum(n * n for n in sizes)
    t = np.arange(N * N)
    selfadj = _sum_plan(len(t), np.r_[t, t], np.r_[t, t], np.repeat([1, -1], len(t)),
                        np.repeat([True, False], len(t)))
    idem = _product_plan((t, t * 0), (t, t * 0), (t, t), (t, t, -1))
    return selfadj, idem, _sum_plan(N, t, t // N, 1, eye=1), _sum_plan(N, t, t % N, 1, eye=1)


def _positions(lo, cnt):
    """Every position of the ranges [lo[a], lo[a] + cnt[a]), in order."""
    return np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)


# Product pairs evaluated at once, over whole groups of instances, which
# bounds the working arrays (about 100 bytes a pair) and so peak memory.
_CHUNK_PAIRS = 1 << 17


class _BlockValues:
    """The generator values of an assignment as one term table: for every
    term of its ``Terms``, the number ``gen`` of its generator in
    ``presentation.generators``, its ``row`` and ``col`` in the k x k value,
    and its coefficient num * zeta_order^exp / den, with integer numerators
    on the exact backend and complex ones (exp 0, order 1, den 1) on the
    float backend.  Terms at one position add.  ``residuals(plan)``
    evaluates one relation family on them."""

    def __init__(self, asg: GeneratorAssignment, tol: float):
        terms = asg.terms
        self.k = asg.size
        self.exact = asg.exact
        # an instance passes when its residual is at most this
        self.threshold = 0.0 if asg.exact else tol
        self.col, self.exp, self.num = terms.col, terms.exp, terms.num
        self.order, self.den = terms.order, terms.den
        self.gen, self.row = np.divmod(terms.row, self.k)
        self.numax = _maxabs(self.num) if asg.exact else 1
        self.by_gen = np.argsort(self.gen)
        self.gen_start = np.searchsorted(self.gen[self.by_gen],
                                         np.arange(len(asg.presentation.generators) + 1))
        self.roots = np.exp(2j * np.pi / self.order * np.arange(euler_phi(self.order)))
        # keys hold an exponent below this: a sum of two below the order
        self._radix = 2 * self.order

    def _fit(self, bound: int, *arrays):
        """Exact numerators in the dtype ``_working`` gives them under
        ``bound``; complex ones as they are."""
        return _working(bound, *arrays) if self.exact else arrays

    def residuals(self, plan) -> np.ndarray:
        """The residual of every instance of a family, in order: max |entry|
        of the difference of its two sides.  An exact instance is 0.0 when
        every power-basis coefficient of every entry cancels, and at least
        the smallest positive float otherwise."""
        out = np.zeros(plan.size)
        if isinstance(plan, _Sums):
            _, key, num = self._sums(plan, 1)
            ikey, inum = self._identities(plan.eye, self.den)
            self._reduce(out, np.concatenate([key, ikey]), np.concatenate([num, inum]), 1, 1)
            return out
        k, R, nR = self.k, self._radix, plan.rparts
        # join the terms (a, b) of left factors with the terms (b, c) of
        # right ones on (key, b); a pair's entry key is the sum of a left
        # and a right part
        lk = plan.lkey[self.gen] * k + self.col
        rk = plan.rkey[self.gen] * k + self.row
        right = np.argsort(rk)
        rk = rk[right]
        lo = np.searchsorted(rk, lk)
        cnt = np.searchsorted(rk, lk, side="right") - lo
        group = plan.lpart[self.gen]
        left = np.argsort(group)
        group, lo, cnt = group[left], lo[left], cnt[left]
        num, = self._fit(self.numax ** 2 * _maxabs(plan.lweight), self.num)
        lnum, rnum = (num * plan.lweight[self.gen])[left], num[right]
        lkey = (group * nR * k + self.row[left]) * k * R + self.exp[left] % self.order
        rkey = ((plan.rpart[self.gen] * k * k + self.col) * R + self.exp % self.order)[right]
        # the right sides, over den^2 as the products
        e, hkey, hnum = self._sums(plan.rhs, self.den)
        hgroup = plan.rhs.inst[e] // nR
        # chunks of whole groups, a new one after about _CHUNK_PAIRS pairs
        starts = _starts(group)
        bucket = (np.cumsum(cnt) - cnt)[starts] // _CHUNK_PAIRS
        bounds = [0, *starts[1:][bucket[1:] != bucket[:-1]].tolist(), len(left)]
        for a, b in zip(bounds, bounds[1:]):
            pos = _positions(lo[a:b], cnt[a:b])
            c = np.searchsorted(hgroup, group[a]) if a else 0
            d = np.searchsorted(hgroup, group[b]) if b < len(left) else len(hgroup)
            key = np.repeat(lkey[a:b], cnt[a:b]) + rkey[pos]
            num = np.repeat(lnum[a:b], cnt[a:b]) * rnum[pos]
            self._reduce(out, np.concatenate([key, hkey[c:d]]), np.concatenate([num, hnum[c:d]]),
                         plan.scale, 2, plan.instance)
        return out

    def _sums(self, plan: _Sums, scale: int):
        """(entry, key, num) for every term of every entry's generator, in
        entry order: the key of the entry (instance, row, col, exponent) it
        adds to, and its numerator times the weight and ``scale``."""
        lo = self.gen_start[plan.gen]
        cnt = self.gen_start[plan.gen + 1] - lo
        e, t = np.repeat(np.arange(len(cnt)), cnt), self.by_gen[_positions(lo, cnt)]
        adj = plan.adjoint[e]
        k, M = self.k, self.order
        row, col = np.where(adj, self.col[t], self.row[t]), np.where(adj, self.row[t], self.col[t])
        exp = np.where(adj, -self.exp[t], self.exp[t]) % M
        num, w = self._fit(self.numax * _maxabs(plan.weight) * scale,
                           np.where(adj, np.conj(self.num[t]), self.num[t]), plan.weight[e])
        return e, ((plan.inst[e] * k + row) * k + col) * self._radix + exp, num * w * scale

    def _identities(self, eye, scale: int):
        """(key, num) of minus eye[x] times the identity for each instance
        x, the numerators times ``scale``."""
        x = np.flatnonzero(eye)
        inst, diag = np.repeat(x, self.k), np.tile(np.arange(self.k), len(x))
        num, = self._fit(_maxabs(eye) * scale, -eye[inst])
        return ((inst * self.k + diag) * self.k + diag) * self._radix, num * scale

    def _reduce(self, out, key, num, scale: int, degree: int, instance=None) -> None:
        """Sum the numerators per key ((code, row, col) of an entry, and an
        exponent below ``_radix``) and write the residual of each instance
        they reach into ``out``: max over its entries of
        |sum of num * zeta^exp| / (scale den^degree).  ``instance`` maps codes
        to instances (the identity when None); every contribution to such an
        instance is among these."""
        if not len(key):
            return
        M, table = self.order, _root_table(self.order)
        if self.exact:
            num, = _working(_maxabs(num) * _maxabs(table) * len(num), num)
        # one sum per (entry, exponent), then per entry in the power basis
        order = np.argsort(key)
        key = key[order]
        first = _starts(key)
        sums = np.add.reduceat(num[order], first)
        key, exp = np.divmod(key[first], self._radix)
        if self.exact:  # an entry whose sums all cancel is zero
            live = sums != 0
            key, exp, sums = key[live], exp[live], sums[live]
            if not len(key):
                return
        first = _starts(key)
        coef = np.add.reduceat(sums[:, None] * table[exp % M], first, axis=0)
        key = key[first]
        if self.exact:
            live = (coef != 0).any(axis=1)
            key, coef = key[live], coef[live]
            if not len(key):
                return
        denom = scale * self.den ** degree
        if self.exact:  # a nonzero entry fails, however small its float value
            resid = np.maximum(np.abs(_quotients(coef, denom) @ self.roots), np.nextafter(0.0, 1.0))
        else:
            resid = np.abs(coef[:, 0]) / denom
        code = key // self.k ** 2
        first = _starts(code)
        code = code[first]
        out[code if instance is None else instance[code]] = np.maximum.reduceat(resid, first)


def _quotients(a: np.ndarray, d: int) -> np.ndarray:
    """The floats a / d for an integer array a; Python ints are divided as
    fractions, so that neither a nor d need be below the float range."""
    if a.dtype == object:
        return np.array([float(Fraction(x, d)) for x in a.ravel()]).reshape(a.shape)
    return a * (1 / d)


def _starts(a: np.ndarray) -> np.ndarray:
    """The positions where the runs of equal values of a sorted array
    begin."""
    new = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def check_relations(asg: GeneratorAssignment, tol: float = 1e-9) -> RelationReport:
    """Evaluate the relation instances of the presentation under the
    assignment and report the first that fails in the order of
    ``relations()``.  The values are read into one term table
    (``_BlockValues``); each relation family is one join of its terms (r1,
    r2, idem) or one keyed sum (r3-r5, selfadj, rowsum, colsum), summed per
    (instance, row, col).  Exact values demand literal equality, every
    power-basis coefficient cancelling; complex-array values pass a relation
    when max|lhs - rhs| <= tol.  ``worst_residual`` is the largest residual of the
    instances up to the first failure (all of them on a pass), and
    ``checked`` counts those instances."""
    values = _BlockValues(asg, tol)
    worst = 0.0
    checked = 0
    for resid in asg.presentation.block_residuals(values):
        resid = resid.ravel()
        fails = ~(resid <= values.threshold)  # a NaN residual fails
        if fails.any():
            t = int(fails.argmax())
            worst = max(worst, float(resid[:t + 1].max()))
            rel = next(itertools.islice(asg.presentation.relations(), checked + t, None))
            return RelationReport(False, worst, rel.rid, checked + t + 1)
        worst = max(worst, float(resid.max(initial=0.0)))
        checked += resid.size
    return RelationReport(True, worst, None, checked)


# ---------------------------------------------------------------------------
# classical points

def counit_assignment(spec: BlockSpec) -> GeneratorAssignment:
    """q^(s,r)_(i,j),(k,l) -> delta_sr delta_ik delta_jl, as 1x1 matrices."""
    pres = QautPresentation(spec)
    return GeneratorAssignment(pres, Mat.exact([[int(s == r and i == k and j == l)]
                                                for _, s, r, i, j, k, l in pres.generators]))


def permutation_assignment(spec: BlockSpec, perm: dict) -> GeneratorAssignment:
    """u_(P),(Q) -> [P == perm(Q)] for a permutation of the N points."""
    return direct_sum_assignment(spec, [perm])


def arbitrary_permutations(spec: BlockSpec, count: int, seed: int):
    """Seeded sample of arbitrary permutations of the N points (admissible
    for bare relation checks; block preservation only matters for trace
    claims)."""
    rng = random.Random(seed)
    pts = SnPresentation(spec).points
    out = []
    for _ in range(count):
        images = list(pts)
        rng.shuffle(images)
        out.append(dict(zip(pts, images)))
    return out


def direct_sum_assignment(spec: BlockSpec, perms: list) -> GeneratorAssignment:
    """The direct sum of classical points: u_(P),(Q) is the diagonal matrix
    with the indicator of each permutation on its own summand.  A genuinely
    matrix-valued magic unitary."""
    pres = SnPresentation(spec)
    pts = pres.points
    N, k = len(pts), len(perms)
    number = {p: x for x, p in enumerate(pts)}
    # summand a of u_(perm_a(Q)),(Q), generator number perm_a(Q) N + Q
    image = np.array([[number[perm[q]] for q in pts] for perm in perms], dtype=np.int64)
    a, q = np.indices((k, N)).reshape(2, -1)
    rows = (image[a, q] * N + q) * k + a
    return GeneratorAssignment(pres, Mat.from_entries(N * N * k, k, 1, rows, a, np.zeros_like(a),
                                                      np.ones_like(a)))


def block_preserving_permutations(spec: BlockSpec, count: int, seed: int):
    """Seeded sample of permutations of the point set that preserve the
    block sizes: independent shuffles within each block composed with a
    random swap of equal-size blocks."""
    rng = random.Random(seed)
    pts = SnPresentation(spec).points
    by_block = {}
    for p in pts:
        by_block.setdefault(p[0], []).append(p)
    out = []
    for _ in range(count):
        perm = {}
        sizes = spec.sizes
        block_map = list(range(1, spec.m + 1))
        eq_classes = {}
        for s, n in enumerate(sizes, start=1):
            eq_classes.setdefault(n, []).append(s)
        for cls in eq_classes.values():
            shuffled = list(cls)
            rng.shuffle(shuffled)
            for a, b in zip(cls, shuffled):
                block_map[a - 1] = b
        for s, members in by_block.items():
            target_block = block_map[s - 1]
            images = list(by_block[target_block])
            rng.shuffle(images)
            for src, dst in zip(members, images):
                perm[src] = dst
        out.append(perm)
    return out


def theta_identity(spec: BlockSpec) -> MonomialMap:
    """The identity of B, as a monomial map."""
    return MonomialMap(range(spec.N))


def _unit_index(spec: BlockSpec):
    """(r, i, j) -> the position of E^(r)_(i,j) in the basis of B."""
    return {p: n for n, p in enumerate(SnPresentation(spec).points)}


def theta_ad_unitary(spec: BlockSpec, r: int, U: Mat) -> MonomialMap:
    """Ad(U) on block r, identity on the others, for a phase-permutation U:
    U E_ij U* = u_i conj(u_j) E_(perm[i], perm[j]) with u_c = U[perm[c], c].
    The scalars are products of entries of U at its order, so the
    assignment ``classical_assignment_aut`` builds keeps that order."""
    n = spec.sizes[r - 1]
    if U.rows != n:
        raise IndexOutOfRange(f"unitary size {U.rows} does not match block {r}")
    perm = _phase_permutation(U)[1].tolist()
    u = [U.entry(p, c) for c, p in enumerate(perm)]
    index, one = _unit_index(spec), Cyclotomic.one()
    return MonomialMap([index[(r, perm[i], perm[j]) if rr == r else (rr, i, j)] for rr, i, j in index],
                       [u[i] * u[j].conjugate() if rr == r else one for rr, i, j in index])


def theta_block_swap(spec: BlockSpec, r1: int, r2: int) -> MonomialMap:
    if spec.sizes[r1 - 1] != spec.sizes[r2 - 1]:
        raise IndexOutOfRange("can only swap blocks of equal size")
    index = _unit_index(spec)
    swap = {r1: r2, r2: r1}
    return MonomialMap([index[(swap.get(r, r), i, j)] for (r, i, j) in index])


def classical_assignment_aut(spec: BlockSpec, theta: MonomialMap) -> GeneratorAssignment:
    """Scalar q-assignment reading the coefficients of a verified unital
    *-automorphism of B that preserves the Plancherel trace, given as a
    monomial map: q_(s,r,i,j,k,l) is the scalar of theta(E^(s)_ij) when
    its target is E^(r)_kl, and 0 otherwise."""
    failure = multimatrix(spec).automorphism_failure(theta)
    if failure == "trace-preserving":
        raise NotTracePreserving("theta does not preserve the Plancherel trace")
    if failure:
        raise NotAutomorphismB(f"theta is not {failure}")
    index = _unit_index(spec)
    zero = Cyclotomic.zero()
    pres = QautPresentation(spec)
    values = []
    for _, s, r, i, j, k, l in pres.generators:
        src = index[(s, i, j)]
        values.append([theta.scalars[src] if theta.k[src] == index[(r, k, l)] else zero])
    return GeneratorAssignment(pres, Mat.exact(values))


def classical_theta_battery(spec: BlockSpec, count: int, seed: int):
    """At least ``count`` verified automorphisms: Ad of every Weyl element
    per block, one swap per equal-size block pair, then seeded Ad's of
    permutation and diagonal-phase unitaries."""
    rng = random.Random(seed)
    battery = []
    for r, n in enumerate(spec.sizes, start=1):
        wb = weyl_basis(n)
        for i in range(n):
            for j in range(n):
                battery.append(("ad_weyl", r, i, j,
                                theta_ad_unitary(spec, r, wb.t(i, j))))
    swaps = [(r1, r2) for r1, r2 in itertools.combinations(range(1, spec.m + 1), 2)
             if spec.sizes[r1 - 1] == spec.sizes[r2 - 1]]
    if swaps:
        battery.append(("block_swap", *swaps[0], None, theta_block_swap(spec, *swaps[0])))
    while len(battery) < count:
        r = rng.randrange(1, spec.m + 1)
        n = spec.sizes[r - 1]
        kind = rng.choice(["perm", "diag"]) if n > 1 else "diag"
        if kind == "perm":
            p = list(range(n))
            rng.shuffle(p)
            detail = tuple(p)
            U = Mat.exact([[1 if a == p[b] else 0 for b in range(n)] for a in range(n)])
        else:
            exps = [rng.randrange(n) for _ in range(n)]
            detail = tuple(exps)
            U = Mat.exact([[root_of_unity(n, exps[a]) if a == b else 0
                            for b in range(n)] for a in range(n)])
        battery.append((kind, r, detail, None, theta_ad_unitary(spec, r, U)))
    return battery


# ---------------------------------------------------------------------------
# the PVM representation in B x M_d

def _block_diag_unit(spec: BlockSpec, s: int, i: int, j: int) -> Mat:
    D = spec.D
    offset = sum(spec.sizes[: s - 1])
    return Mat.exact([[1 if (a, b) == (offset + i, offset + j) else 0
                       for b in range(D)] for a in range(D)])


def uet_pvm(spec: BlockSpec) -> dict:
    """The N projections P_(s,a,b) in B x M_d built from the Weyl bases,
    with all five verification conditions, exact: projection, mutual
    orthogonality and completeness (``pvm_check``), partial trace, and
    Plancherel value 1/N."""
    d = spec.d
    D = spec.D
    emb = BlockEmbedding(spec)
    projections = []
    meta = []
    for s, ns in enumerate(spec.sizes, start=1):
        wb = weyl_basis(ns)
        for a in range(ns):
            for b in range(ns):
                U = wb.t(a, b)
                Ustar = U.adjoint()
                P = Mat.zeros(D * d, D * d)
                for i in range(ns):
                    for j in range(ns):
                        unit = Mat.exact([[1 if (p, q) == (i, j) else 0
                                           for q in range(ns)] for p in range(ns)])
                        inner = (Ustar @ unit @ U).scale(Fraction(1, ns))
                        P = P + _block_diag_unit(spec, s, i, j).kron(emb.paren(s, inner))
                projections.append(P)
                meta.append((s, a, b))
    cert = {"partition": list(spec.sizes), "N": spec.N, "d": d,
            "backend": "exact", "outcomes": len(projections)}
    try:
        pvm_check(projections)
    except NotPVM as exc:
        cert.update(passed=False, failure=str(exc))
        return cert
    # partial trace over the B leg, block s: n_s sum_i block (s,i),(s,i)
    ranks = []
    for label, P in zip(meta, projections):
        s = label[0]
        ns = spec.sizes[s - 1]
        offset = sum(spec.sizes[: s - 1])
        pt = Mat.zeros(d, d)
        for i in range(ns):
            row = offset + i
            rng = range(row * d, (row + 1) * d)
            pt = pt + P.select(rng, rng)
        if not pt.scale(ns).equals(Mat.identity(d)):
            cert.update(passed=False, failure=f"partial trace of P{label}")
            return cert
        if _psi_tr(spec, P) != Fraction(1, spec.N):
            cert.update(passed=False, failure=f"(psi x tr)(P{label}) != 1/N")
            return cert
        ranks.append(P.rank())
        if ranks[-1] != d // ns:
            cert.update(passed=False,
                        failure=f"rank of P{label} is {ranks[-1]}, expected {d // ns}")
            return cert
    cert.update(passed=True, worst_residual=0.0, ranks=ranks)
    return cert


def _psi_tr(spec: BlockSpec, P: Mat) -> Cyclotomic:
    """(psi x tr) of an element of B x M_d presented in M_D x M_d."""
    d = spec.d
    acc = Cyclotomic.zero()
    pos = 0
    for n in spec.sizes:
        weight = Fraction(n, spec.N * d)
        for i in range(n):
            row = pos + i
            rng = range(row * d, (row + 1) * d)
            acc = acc + P.select(rng, rng).trace() * weight
        pos += n
    return acc


# ---------------------------------------------------------------------------
# the homomorphisms pi and rho

def _unit_positions(spec: BlockSpec, s: int):
    """(stride, base): E^(s)_(a,b), embedded in M_d, has its ones at
    (base + a*stride, base + b*stride), elementwise over base."""
    stride = math.prod(spec.sizes[s:])
    idx = np.arange(spec.d)
    return stride, idx[(idx // stride) % spec.sizes[s - 1] == 0]


def _index_range(ns: int, nr: int):
    return itertools.product(range(ns), range(ns), range(nr), range(nr))


def _phase_table(spec: BlockSpec):
    """The one table of pi and rho.  Per block pair (s, r), integer arrays
    row, col and exp over the axes (i, j, k, l, x, y, v, w, rest), one entry
    per nonzero of

        zeta_L^exp E_(row, col) = w_s^(-x(i-j)) w_r^(-v(k-l))
                                  E^(s)_(i-y,j-y) x E^(r)_(k-w,l-w)

    in M_d x M_d, L the lcm of the block sizes: the coefficient of
    u_(s,x,y),(r,v,w) in n_r pi(q^(s,r)_(i,j),(k,l)) and, conjugated, that
    of q^(s,r)_(i,j),(k,l) in n_s rho(u_(s,x,y),(r,v,w))."""
    sizes, d = spec.sizes, spec.d
    L = math.lcm(*sizes)
    for s, ns in enumerate(sizes, start=1):
        stride_s, base_s = _unit_positions(spec, s)
        for r, nr in enumerate(sizes, start=1):
            stride_r, base_r = _unit_positions(spec, r)
            i, j, k, l, x, y, v, w = (np.arange(n).reshape((-1,) + (1,) * (8 - axis))
                                      for axis, n in enumerate((ns, ns, nr, nr) * 2))
            rest = np.arange(len(base_s) * len(base_r))
            left, right = base_s[rest // len(base_r)], base_r[rest % len(base_r)]
            row = ((left + (i - y) % ns * stride_s) * d
                   + right + (k - w) % nr * stride_r)
            col = ((left + (j - y) % ns * stride_s) * d
                   + right + (l - w) % nr * stride_r)
            exp = (-x * (i - j) * (L // ns) - v * (k - l) * (L // nr)) % L
            yield (s, r, L) + tuple(np.broadcast_arrays(row, col, exp))


def _table_images(spec: BlockSpec, of_rho: bool) -> dict:
    """The images of pi (q-generators) or rho (u-generators), each read off
    its rows of the phase table."""
    out = {}
    for s, r, L, row, col, exp in _phase_table(spec):
        ns, nr = spec.sizes[s - 1], spec.sizes[r - 1]
        qs = [qsym(s, r, *t) for t in _index_range(ns, nr)]
        us = [usym(s, x, y, r, v, w) for x, y, v, w in _index_range(ns, nr)]
        sources, targets, prefactor = qs, tuple(us), Fraction(1, nr)
        if of_rho:
            row, col, exp = (a.transpose(4, 5, 6, 7, 0, 1, 2, 3, 8) for a in (row, col, -exp))
            sources, targets, prefactor = us, tuple(qs), Fraction(1, ns)
        shape = (len(sources), len(targets), row.shape[-1])
        row, col, exp = (a.reshape(shape) for a in (row, col, exp % L))
        sym = np.repeat(np.arange(len(targets)), shape[2])
        for n, source in enumerate(sources):
            out[source] = FormalTensor(spec.d ** 2, L, (prefactor,), targets, sym,
                                       row[n].ravel(), col[n].ravel(), exp[n].ravel())
    return out


def pi_map(spec: BlockSpec) -> dict:
    """pi on q-generators as formal tensors over M_d x M_d in u-symbols."""
    return _table_images(spec, of_rho=False)


def rho_map(spec: BlockSpec) -> dict:
    """rho on u-generators as formal tensors over M_d x M_d in q-symbols."""
    return _table_images(spec, of_rho=True)


def image_stack(images: dict, presentation, target) -> FormalTensor:
    """The images of ``presentation.generators``, in that order, as one
    stacked formal tensor over ``target.generators``: its ``substitute``
    takes the stack of a ``GeneratorAssignment`` of ``target`` and returns
    the stack of one of ``presentation``."""
    missing = [g for g in presentation.generators if g not in images]
    if missing:
        raise IncompleteAssignment(f"{len(missing)} generators have no image")
    return FormalTensor.stack([images[g] for g in presentation.generators], target.generators)


_CHUNK_ROWS = 1 << 14  # rows of a table that one comparison of cov or rho_forms_agree takes


def rho_forms_agree(spec: BlockSpec, rho: dict) -> bool:
    """Whether every rho(u_(s,x,y),(r,v,w)) equals its conjugated form

        (T^[s]_(x,-y) x T^[r]_(v,-w))(Q^(s,r)/n_s)(T^[s]_(x,-y) x T^[r]_(v,-w))*,

    Q^(s,r) = sum E^(s)_(i,j) x E^(r)_(k,l) x q^(s,r)_(i,j),(k,l).  Q is
    read off the d x d matrix units ``paren_unit`` and each factor
    T^[t]_(a,-b) off the d x d ``paren`` as a phase-permutation,
    independently of the phase table that ``rho`` comes from.  Kronecker
    products are index arithmetic, Ad(A x B) E_(a d + a', b d + b') =
    Ad(A) E_(a,b) x Ad(B) E_(a',b'), so per block pair the n_s^2 n_r^2
    conjugations of Q are one gather, compared with the stacked images by
    one ``FormalTensor.differing``, in chunks of about ``_CHUNK_ROWS``
    rows."""
    emb, d = BlockEmbedding(spec), spec.d
    units, weyl = {}, {}
    for t, n in enumerate(spec.sizes, start=1):
        wb = weyl_basis(n)
        # (row, col) of the ones of E^(t)_(i,j), over (i, j)
        units[t] = np.array([emb.paren_unit(t, i, j).terms()[:2]
                             for i in range(n) for j in range(n)]).transpose(1, 0, 2)
        # T^[t]_(a,-b) = sum over c of zeta_L^exp[c] E_(perm[c], c), over (a, b)
        conj = [_phase_permutation(emb.paren(t, wb.t(a, -b % n)))
                for a in range(n) for b in range(n)]
        L = math.lcm(*(c[0] for c in conj))
        weyl[t] = (L, np.array([c[1] for c in conj]), np.array([c[2] * (L // c[0]) for c in conj]))
    for s, ns in enumerate(spec.sizes, start=1):
        for r, nr in enumerate(spec.sizes, start=1):
            qs = tuple(qsym(s, r, *t) for t in _index_range(ns, nr))
            images = [rho[usym(s, x, y, r, v, w)] for x, y, v, w in _index_range(ns, nr)]
            if any(ft.symbols != qs for ft in images):
                return False
            # Q's rows over (i, j) x (k, l) x (a one of E^(s)_(i,j)) x (a one of E^(r)_(k,l))
            ij, kl, a, b = np.indices((ns * ns, nr * nr, d // ns, d // nr)).reshape(4, -1)
            (rows_s, cols_s), (rows_r, cols_r) = units[s], units[r]
            rs, cs, rr, cr = rows_s[ij, a], cols_s[ij, a], rows_r[kl, b], cols_r[kl, b]
            (Ls, perm_s, exp_s), (Lr, perm_r, exp_r) = weyl[s], weyl[r]
            L = math.lcm(Ls, Lr)
            # Ad(A x B) of Q for the conjugations c = (A = T^[s]_(x,-y)) x (B = T^[r]_(v,-w))
            # of a chunk, over (c, row of Q)
            step = max(1, _CHUNK_ROWS // len(rs))
            for lo in range(0, len(images), step):
                c = np.arange(lo, min(lo + step, len(images)))[:, None]
                A, B = c // (nr * nr), c % (nr * nr)
                forms = FormalTensor(
                    d * d, L, (Fraction(1, ns),) * len(c), qs, np.tile(ij * nr * nr + kl, len(c)),
                    (perm_s[A, rs] * d + perm_r[B, rr] + d * d * (c - lo)).ravel(),
                    (perm_s[A, cs] * d + perm_r[B, cr]).ravel(),
                    ((exp_s[A, rs] - exp_s[A, cs]) * (L // Ls)
                     + (exp_r[B, rr] - exp_r[B, cr]) * (L // Lr)).ravel())
                if forms.differing(FormalTensor.stack(images[lo:lo + len(c)], qs)).any():
                    return False
    return True


def rearranged_Q_check(spec: BlockSpec) -> dict:
    """Exact identity, per block pair (s, r):

        shuffle((id x id x pi)(Q^(s,r))) =
            n_s sum_{x,y,v,w} phi^[s]_(-x,y) x phi^[r]_(-v,w) x u_(s,x,y),(r,v,w)

    where the shuffle re-pairs the four M_d legs (1,2,3,4) -> (1,3)(2,4) and
    is applied exactly once, here at certificate assembly.  The coefficient
    of each u on either side is a table of (row, col, exponent) rows (d^4
    nonzeros out of d^8): on the left read off pi's images, on the right
    the Kronecker product of the entangled projections' nonzeros.  The
    u-symbols of the pair (s, r) occur in pi(q^(s,r)) only, so each block
    pair is one comparison of two tables with one image per u
    (``_shuffle_failure``); a failure names the first u in order."""
    sizes = spec.sizes
    pi = pi_map(spec)
    emb = BlockEmbedding(spec)
    empty = np.zeros(0, dtype=np.int64)
    phi = {(t, a, b): (_monomial_entries(emb.bracket_phi(t, -a, b))  # phi^[t]_(-a,b)
                       or (1, Fraction(0), empty, empty, empty))  # not of one scale: fails
           for t, n in enumerate(sizes, start=1) for a in range(n) for b in range(n)}
    pairs = [(s, r) for s in range(1, spec.m + 1) for r in range(1, spec.m + 1)]
    us = [[usym(s, x, y, r, v, w) for x, y, v, w in _index_range(sizes[s - 1], sizes[r - 1])]
          for s, r in pairs]
    uid = {u: (p, n) for p, pair_us in enumerate(us) for n, u in enumerate(pair_us)}
    # per symbols tuple of pi's images, the (pair, number) of each symbol's u; per
    # prefactor, an id; per pair, the images that reach its u
    codes, ids, reach = {}, {}, [[] for _ in pairs]
    for q, ft in pi.items():
        if id(ft.symbols) not in codes:
            codes[id(ft.symbols)] = np.array([uid[u] for u in ft.symbols],
                                             dtype=np.int64).reshape(-1, 2).T
        where = codes[id(ft.symbols)]
        for p in np.flatnonzero(np.bincount(where[0][ft.sym], minlength=len(pairs))).tolist():
            reach[p].append((q, ft, where, ids.setdefault(ft.prefactors, len(ids))))
    prefactors = [p[0] for p in ids]
    for p, (s, r) in enumerate(pairs):
        failed = _shuffle_failure(spec, s, r, p, us[p], reach[p], prefactors, phi)
        if failed is not None:
            return {"passed": False, "failed_word": str(failed), "partition": list(sizes)}
    return {"passed": True, "partition": list(sizes), "d": spec.d,
            "words_checked": len(uid), "shuffle": "(1,2,3,4)->(1,3)(2,4)",
            "rhs_constant": "n_s", "worst_residual": 0.0}


def _shuffle_failure(spec: BlockSpec, s: int, r: int, p: int, us: list, images: list,
                     prefactors: list, phi: dict):
    """The first u of ``us``, the u-symbols of the block pair (s, r), number
    p, at which the shuffle identity fails, or None.  ``images`` holds
    (q, image, where, prefactor id) for the images of pi that reach these
    u, where[0] and where[1] the pair and number of each image symbol's u.
    Both sides are one table with one image per u, its rows the outer sums
    of a vector over one factor's rows and one over the other's."""
    d = spec.d
    d2 = d * d
    size = d2 * d2
    order = math.lcm(1, *(ft.order for _, ft, _, _ in images))
    # left: per image, its legs' rows (row, col) and its rows of this pair (u, row, col, exp);
    # each u must be reached, by images of one prefactor
    factors = []
    least, most = np.full(len(us), len(prefactors)), np.full(len(us), -1)
    for (_, s_, r_, i, j, k, l), ft, where, pid in images:
        mine = where[0][ft.sym] == p
        u = where[1][ft.sym[mine]]
        (stride_s, base_s), (stride_r, base_r) = (_unit_positions(spec, s_),
                                                  _unit_positions(spec, r_))
        legs_row = ((base_s + i * stride_s)[:, None] * d + base_r + k * stride_r).ravel()
        legs_col = ((base_s + j * stride_s)[:, None] * d + base_r + l * stride_r).ravel()
        factors.append(((_spread(legs_row, d) * d, _spread(ft.row[mine], d) + u * size),
                        (_spread(legs_col, d) * d, _spread(ft.col[mine], d)),
                        (np.zeros(len(legs_row), dtype=np.int64),
                         ft.exp[mine] * (order // ft.order))))
        least[u], most[u] = np.minimum(least[u], pid), np.maximum(most[u], pid)
    bad = least != most
    lhs = FormalTensor(size, order, [0 if b else prefactors[m]
                                     for b, m in zip(bad.tolist(), least.tolist())],
                       ("u",), *_outer_sums(factors))
    # right: every nonzero of phi^[s]_(-x,y) times every one of phi^[r]_(-v,w)
    sides = []
    for t in (s, r):
        n = spec.sizes[t - 1]
        forms = [phi[t, a, b] for a in range(n) for b in range(n)]
        L = math.lcm(*(f[0] for f in forms))
        sides.append((L, [f[1] for f in forms],
                      np.concatenate([np.full(len(f[2]), m) for m, f in enumerate(forms)]),
                      *(np.concatenate([f[c] for f in forms]) for c in (2, 3)),
                      np.concatenate([f[4] * (L // f[0]) for f in forms])))
    (Ls, qs, owner_s, row_s, col_s, exp_s), (Lr, qr, owner_r, row_r, col_r, exp_r) = sides
    L = math.lcm(Ls, Lr)
    rhs = FormalTensor(size, L, [spec.sizes[s - 1] * a * b for a in qs for b in qr], ("u",),
                       *_outer_sums([((owner_s * len(qr) * size + row_s * d2,
                                       owner_r * size + row_r),
                                      (col_s * d2, col_r),
                                      (exp_s * (L // Ls), exp_r * (L // Lr)))]))
    bad |= lhs.differing(rhs)
    return us[int(np.argmax(bad))] if bad.any() else None


def _outer_sums(factors):
    """(sym, row, col, exp) of a one-symbol table, each of row, col and exp
    laid out as the outer sums of the (left, right) pairs of ``factors``
    one after another; sym is zero."""
    total = sum(len(left) * len(right) for left, right in (f[0] for f in factors))
    out = [np.zeros(total, dtype=np.int64) for _ in range(4)]
    at = 0
    for pairs in factors:
        n = len(pairs[0][0]) * len(pairs[0][1])
        for a, (left, right) in zip(out[1:], pairs):
            np.add.outer(left, right, out=a[at:at + n].reshape(len(left), len(right)))
        at += n
    return out


def _spread(idx, d: int):
    """The index a d + b of legs (1, 2) of (C^d)^(x4), elementwise, as
    a d^2 + b: the shuffle (1,2,3,4) -> (1,3)(2,4) sends p on legs (1, 2)
    and q on legs (3, 4) to _spread(p) d + _spread(q)."""
    return idx // d * (d * d) + idx % d


# ---------------------------------------------------------------------------
# the automorphism substitutions

@dataclass
class Substitution:
    """Index substitution on generator symbols: sym -> (phase, sym)."""

    name: str
    spec: BlockSpec
    t: int
    fn: object

    def __call__(self, sym):
        return self.fn(sym)

    @property
    def order(self) -> int:
        return self.spec.sizes[self.t - 1]


def alpha(spec: BlockSpec, idx: int, t: int) -> Substitution:
    """The four order-n_t automorphism families on q-generators:
    1: phase w^(i-j) on block s = t;  2: (i,j) -> (i+1,j+1) on s = t;
    3: phase w^(k-l) on block r = t;  4: (k,l) -> (k+1,l+1) on r = t."""
    if not (1 <= t <= spec.m) or idx not in (1, 2, 3, 4):
        raise IndexOutOfRange(f"alpha_{idx},{t}")
    nt = spec.sizes[t - 1]
    w = root_of_unity(nt, 1) if nt > 1 else Cyclotomic.one()
    powers = [w ** e for e in range(nt)]

    def fn(sym):
        kind, s, r, i, j, k, l = sym
        assert kind == "q"
        one = Cyclotomic.one()
        if idx == 1:
            return (powers[(i - j) % nt] if s == t and nt > 1 else one), sym
        if idx == 3:
            return (powers[(k - l) % nt] if r == t and nt > 1 else one), sym
        if idx == 2 and s == t:
            return one, qsym(s, r, (i + 1) % nt, (j + 1) % nt, k, l)
        if idx == 4 and r == t:
            return one, qsym(s, r, i, j, (k + 1) % nt, (l + 1) % nt)
        return one, sym

    return Substitution(f"alpha{idx},{t}", spec, t, fn)


def beta(spec: BlockSpec, idx: int, t: int) -> Substitution:
    """The four order-n_t shifts on u-generators: x+1 (s=t), y-1 (s=t),
    v+1 (r=t), w-1 (r=t), for idx 1..4 respectively.

    The index targets are the well-typed ones compatible with conjugation by
    the Pauli images of the crossed-product unitaries; the signs are +1 on
    the x/v legs and -1 on the y/w legs.
    """
    if not (1 <= t <= spec.m) or idx not in (1, 2, 3, 4):
        raise IndexOutOfRange(f"beta_{idx},{t}")
    nt = spec.sizes[t - 1]

    def fn(sym):
        kind, s, x, y, r, v, w = sym
        assert kind == "u"
        one = Cyclotomic.one()
        if idx == 1 and s == t:
            return one, usym(s, (x + 1) % nt, y, r, v, w)
        if idx == 2 and s == t:
            return one, usym(s, x, (y - 1) % nt, r, v, w)
        if idx == 3 and r == t:
            return one, usym(s, x, y, r, (v + 1) % nt, w)
        if idx == 4 and r == t:
            return one, usym(s, x, y, r, v, (w - 1) % nt)
        return one, sym

    return Substitution(f"beta{idx},{t}", spec, t, fn)


def _expression_key(terms, order: int):
    """Canonical form of a formal linear combination: normalize by the
    coefficient of the least word, promote scalars to one common cyclotomic
    order, drop zeros, sort."""
    agg = {}
    for coeff, word in terms:
        c = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.rational(coeff)
        agg[word] = agg.get(word, Cyclotomic.zero()) + c
    agg = {w: c for w, c in agg.items() if not c.is_zero()}
    if not agg:
        return ()
    least = min(agg)
    inv = agg[least].inverse()
    return tuple(sorted((w, (c * inv).promoted(order).coeffs)
                        for w, c in agg.items()))


def substitution_preserves_relations(spec: BlockSpec, sub: Substitution,
                                     presentation) -> dict:
    """The image of every relation instance is again a relation instance of
    the same family, up to a unit scalar (canonical re-indexing check), and
    the substitution commutes with the formal adjoint."""
    relations = list(presentation.relations())
    order = 1
    for n in spec.sizes:
        order = order * n // math.gcd(order, n)
    by_family: dict = {}
    for rel in relations:
        if rel.adjoint_lhs:
            continue
        key = _expression_key(rel.lhs + [(-c, w) for c, w in rel.rhs], order)
        by_family.setdefault(rel.family, {})[key] = rel.rid
    checked = 0
    for rel in relations:
        if rel.adjoint_lhs:
            continue
        mapped = []
        for coeff, word in rel.lhs + [(-c, w) for c, w in rel.rhs]:
            scalar = Cyclotomic.one()
            new_word = []
            for sym in word:
                ph, new_sym = sub(sym)
                scalar = scalar * ph
                new_word.append(new_sym)
            c = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.rational(coeff)
            mapped.append((c * scalar, tuple(new_word)))
        key = _expression_key(mapped, order)
        if key != () and key not in by_family[rel.family]:
            return {"passed": False, "substitution": sub.name,
                    "failing_relation": rel.rid}
        checked += 1
    # adjoint compatibility: sub(sym*) = (conj(phase), sub(sym)*)
    for sym in presentation.generators:
        ph, img = sub(sym)
        ph2, img2 = sub(symbol_adjoint(sym))
        if img2 != symbol_adjoint(img) or ph2 != ph.conjugate():
            return {"passed": False, "substitution": sub.name,
                    "failing_relation": f"adjoint compatibility at {sym}"}
        checked += 1
    return {"passed": True, "substitution": sub.name, "instances_checked": checked}


# ---------------------------------------------------------------------------
# covariance suite

def _z_images(spec: BlockSpec):
    emb = BlockEmbedding(spec)
    d = spec.d
    ident = Mat.identity(d)
    out = {}
    for t, n in enumerate(spec.sizes, start=1):
        wb = weyl_basis(n)
        out[(1, t)] = emb.paren(t, wb.x).kron(ident)
        out[(2, t)] = emb.paren(t, wb.z).kron(ident)
        out[(3, t)] = ident.kron(emb.paren(t, wb.x))
        out[(4, t)] = ident.kron(emb.paren(t, wb.z))
    return out


def _monomial_entries(U: Mat):
    """(L, q, row, col, exp) with U = q sum over t of zeta_L^exp[t]
    E_(row[t], col[t]) and q a positive Fraction, or None when the nonzeros
    of U are not all of that form with one q."""
    entries = U.sparse_entries()
    values = list(dict.fromkeys(entries.values()))
    L, forms = monomial_forms(values)
    scales = {None if form is None else form[0] for form in forms}
    if len(scales) != 1 or None in scales:
        return None
    exp = dict(zip(values, (e for _, e in forms)))
    row, col = np.array(list(entries), dtype=np.int64).T
    return L, scales.pop(), row, col, np.array([exp[c] for c in entries.values()], dtype=np.int64)


def _phase_permutation(U: Mat):
    """(L, perm, exp) with U = sum over c of zeta_L^exp[c] E_(perm[c], c)."""
    form = _monomial_entries(U)
    if (form is None or form[1] != 1
            or not np.array_equal(np.sort(form[2]), np.arange(U.rows))
            or not np.array_equal(np.sort(form[3]), np.arange(U.cols))):
        raise ValueError("not a phase-permutation")
    L, _, row, col, exp = form
    perm, phase = np.empty_like(row), np.empty_like(exp)
    perm[col], phase[col] = row, exp
    return L, perm, phase


def _conjugated(ft: FormalTensor, U) -> FormalTensor:
    """Ad(U) of every image of the stack ft, for U = (L, perm, exp) as
    ``_phase_permutation`` reads it: U E_(a,b) U* = zeta_L^(exp[a] - exp[b])
    E_(perm[a], perm[b])."""
    L, perm, exp = U
    order = math.lcm(ft.order, L)
    row = ft.row % ft.size
    return replace(ft, order=order, row=ft.row - row + perm[row], col=perm[ft.col],
                   exp=ft.exp * (order // ft.order) + (exp[row] - exp[ft.col]) * (order // L))


def _first_not_intertwined(stack: FormalTensor, generators: list, sub: Substitution, U):
    """The first generator g, in ``generators`` order, at which
    c image(g') != Ad(U)(image(g)) for sub(g) = (c, g'), or None; image(g)
    is image n of ``stack`` for g = generators[n], its rows in image order
    as ``FormalTensor.stack`` lays them out.  Both sides are formed for
    chunks of whole images of about ``_CHUNK_ROWS`` rows and compared with
    one ``FormalTensor.differing`` per chunk: the left side regroups the
    rows of the images g' and adds c's phase, the right side conjugates the
    chunk's own rows."""
    number = {g: n for n, g in enumerate(generators)}
    phases, targets = zip(*(sub(g) for g in generators))
    distinct = list(dict.fromkeys(phases))
    L, forms = monomial_forms(distinct)
    if None in forms:
        raise ValueError(f"{sub.name} has a phase that is not a rational times a root of unity")
    form = dict(zip(distinct, forms))
    target = np.array([number[g] for g in targets], dtype=np.int64)
    shift = np.array([form[c][1] for c in phases], dtype=np.int64)
    prefactors = [stack.prefactors[n] if form[c][0] == 1 else form[c][0] * stack.prefactors[n]
                  for c, n in zip(phases, target.tolist())]
    counts = np.bincount(stack.row // stack.size, minlength=len(generators))
    ends = np.cumsum(counts)
    starts = ends - counts
    order = math.lcm(stack.order, L)
    cuts = np.searchsorted(ends, np.arange(_CHUNK_ROWS, ends[-1], _CHUNK_ROWS))
    bounds = sorted({0, len(generators), *cuts.tolist()})
    for lo, hi in zip(bounds, bounds[1:]):
        src = target[lo:hi]
        cnt = counts[src]
        image = np.repeat(np.arange(hi - lo), cnt)
        take = (starts[src] - np.cumsum(cnt) + cnt)[image] + np.arange(cnt.sum())
        lhs = FormalTensor(stack.size, order, prefactors[lo:hi], stack.symbols, stack.sym[take],
                           stack.row[take] % stack.size + image * stack.size, stack.col[take],
                           stack.exp[take] * (order // stack.order) + shift[lo:hi][image]
                           * (order // L))
        own = slice(starts[lo], ends[hi - 1])
        rhs = _conjugated(FormalTensor(stack.size, stack.order, stack.prefactors[lo:hi],
                                       stack.symbols, stack.sym[own],
                                       stack.row[own] - lo * stack.size, stack.col[own],
                                       stack.exp[own]), U)
        bad = lhs.differing(rhs)
        if bad.any():
            return generators[lo + int(np.argmax(bad))]
    return None


def covariance_check(spec: BlockSpec) -> dict:
    """Items (a)-(e): the alpha/beta families are implemented by conjugation
    with the Pauli images of the crossed-product unitaries, the phase tables
    of the extended actions hold, and the z-words L x R span all of
    M_d x M_d.  For (a)/(b) and (d), the images of pi and of rho are
    stacked once each, and each of the 8m substitutions is checked on
    every generator at once (``_first_not_intertwined``); a failure names
    the first generator in ``generators`` order.  For (e),
    span{L x R} = span(words) x span(words), so ``e_span_rank`` is r^2, r
    the rank of the d^2 words of M_d."""
    d = spec.d
    z = _z_images(spec)
    zperm = {key: _phase_permutation(U) for key, U in z.items()}
    qpres = QautPresentation(spec)
    upres = SnPresentation(spec)
    cert = {"partition": list(spec.sizes), "d": d}
    # (a)/(b): pi intertwines alpha_i,t with Ad(z_i,t)
    pi = image_stack(pi_map(spec), qpres, upres)
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sym = _first_not_intertwined(pi, qpres.generators, alpha(spec, idx, t),
                                         zperm[(idx, t)])
            if sym is not None:
                cert.update(passed=False, failure=f"alpha{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                return cert
    cert["a_b_alpha_cases"] = 4 * spec.m * len(qpres.generators)
    del pi
    # (c): phase tables and group relations of the z-images
    checks = 0
    for t in range(1, spec.m + 1):
        nt = spec.sizes[t - 1]
        w_inv = root_of_unity(nt, nt - 1) if nt > 1 else Cyclotomic.one()
        for idx in (1, 2, 3, 4):
            zi = z[(idx, t)]
            if not zi.is_unitary():
                cert.update(passed=False, failure=f"z{idx},{t} not unitary")
                return cert
            power = Mat.identity(d * d)
            for _ in range(nt):
                power = power @ zi
            if not power.equals(Mat.identity(d * d)):
                cert.update(passed=False, failure=f"z{idx},{t}^n != 1")
                return cert
            checks += 2
        for tau in range(1, spec.m + 1):
            for (a, b) in [(1, 3), (1, 1), (3, 3), (2, 4), (2, 2), (4, 4)]:
                za, zb = z[(a, t)], z[(b, tau)]
                if not (za @ zb).equals(zb @ za):
                    cert.update(passed=False,
                                failure=f"[z{a},{t}, z{b},{tau}] != 0")
                    return cert
                checks += 1
            for (conjugator, target, phase_applies) in [
                    (2, 1, True), (2, 3, False), (4, 3, True), (4, 1, False)]:
                zc, zt = z[(conjugator, tau)], z[(target, t)]
                conj = zc @ zt @ zc.adjoint()
                w_tau = spec.sizes[tau - 1]
                if phase_applies and tau == t and w_tau > 1:
                    expected = zt.scale(root_of_unity(w_tau, w_tau - 1))
                else:
                    expected = zt
                if not conj.equals(expected):
                    cert.update(passed=False,
                                failure=f"Ad(z{conjugator},{tau})(z{target},{t}) phase")
                    return cert
                checks += 1
    cert["c_z_relation_checks"] = checks
    # (d): rho intertwines beta_i,t with Ad(z_i,t)
    rho = image_stack(rho_map(spec), upres, qpres)
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sym = _first_not_intertwined(rho, upres.generators, beta(spec, idx, t),
                                         zperm[(idx, t)])
            if sym is not None:
                cert.update(passed=False, failure=f"beta{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                return cert
    cert["d_beta_cases"] = 4 * spec.m * len(upres.generators)
    # (e): span{L x R} = span(words) x span(words), so the z-words span
    # M_d x M_d exactly when the d^2 words span M_d: rank r^2 = d^4
    r = len(echelon({i * d + j: v for (i, j), v in w.sparse_entries().items()}
                    for w in _z_words(spec))[0])
    cert["e_span_rank"] = r * r
    cert["e_expected"] = d ** 4
    cert["passed"] = r * r == d ** 4
    cert["worst_residual"] = 0.0
    return cert


def _z_words(spec: BlockSpec) -> list:
    """The d^2 words x_1^a_1 z_1^b_1 ... x_m^a_m z_m^b_m of M_d, over all
    exponents a_t, b_t < n_t."""
    words = []
    for exps in itertools.product(*[range(n) for n in spec.sizes for _ in (0, 1)]):
        word = Mat.identity(spec.d)
        for t, which in enumerate("xz" * spec.m):
            for _ in range(exps[t]):
                word = word @ _paren_pauli(spec, t // 2 + 1, which)
        words.append(word)
    return words


_PAULI_CACHE: dict = {}


def _paren_pauli(spec: BlockSpec, t: int, which: str) -> Mat:
    key = (spec.sizes, t, which)
    if key not in _PAULI_CACHE:
        emb = BlockEmbedding(spec)
        wb = weyl_basis(spec.sizes[t - 1])
        _PAULI_CACHE[key] = emb.paren(t, wb.x if which == "x" else wb.z)
    return _PAULI_CACHE[key]


# ---------------------------------------------------------------------------
# trace constants

def haar_compat_check(spec: BlockSpec) -> dict:
    """Substitute the flat value 1/N for every u-generator inside pi(q), in
    one substitution of the stack of pi's images, and record the scalar;
    compare against both candidate generator traces n_s/N and n_r/N without
    asserting either as ground truth.  A
    substitution that is not a scalar multiple of the identity, two
    diagonal generators of one class (s, r) with different constants, and
    an off-diagonal generator with a nonzero constant each fail the
    fragment."""
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    N = spec.N
    flat = Mat.exact([[Fraction(1, N)]] * len(upres.generators))
    substituted = GeneratorAssignment(qpres, image_stack(pi_map(spec), qpres, upres).substitute(flat))

    def failed(failure: str, **extra) -> dict:
        return {"partition": list(spec.sizes), **extra, "passed": False,
                "worst_residual": 0.0, "failure": failure}

    classes = {}
    for sym, result in substituted.values.items():
        _, s, r, i, j, k, l = sym
        scal = result.scalar_multiple_of_identity()
        if scal is None:
            if not result.is_zero():
                return failed(f"substitution for {sym} is not scalar", all_scalar=False)
            scal = Cyclotomic.zero()
        if i == j and k == l:
            prev = classes.setdefault((s, r), scal)
            if prev != scal:
                return failed(f"inconsistent constants in class ({s},{r})")
        elif not scal.is_zero():
            return failed(f"off-diagonal generator {sym} has nonzero constant")
    records = []
    for (s, r), c in sorted(classes.items()):
        ns = Fraction(spec.sizes[s - 1], N)
        nr = Fraction(spec.sizes[r - 1], N)
        matches = []
        if c == Cyclotomic.rational(ns):
            matches.append("n_s/N")
        if c == Cyclotomic.rational(nr):
            matches.append("n_r/N")
        records.append({
            "class": [s, r],
            "substitution_constant": str(c.as_fraction() if c.is_rational() else c),
            "invariance_candidate_ns": str(ns),
            "formal_candidate_nr": str(nr),
            "matches": matches,
            "discrepancy": not matches,
        })
    return {
        "partition": list(spec.sizes),
        "records": records,
        "all_scalar": True,
        "agreement": all(rec["matches"] for rec in records),
        "passed": True,
        "worst_residual": 0.0,
        "note": "constants recorded for both candidates; no ground truth asserted",
    }


# ---------------------------------------------------------------------------
# optional strict word-level checker

def strict_word_check(spec: BlockSpec, families=("r1", "r2")) -> dict:
    """Local-rewrite verification of pi-images of the quadratic relations:
    u-words collapse by idempotency and row/column annihilation.  Returns
    'verified' per family when all irreducible coefficients cancel and
    'inconclusive' otherwise; no failure is ever concluded from this mode.

    The expansion is quadratic in the N^2-term images, so partitions with
    N > 5 are skipped rather than ground through."""
    if spec.N > 5:
        return {"partition": list(spec.sizes),
                "families": {f: "skipped_desk_scale" for f in families},
                "note": "word-level expansion skipped for N > 5"}

    def reduce_pair(a, b):
        """The word u_a u_b after the rewrites, or None when they annihilate it."""
        if a == b:
            return (a,)
        if a[1:4] == b[1:4] or a[4:7] == b[4:7]:
            return None
        return (a, b)

    pi = {sym: ft.sparse() for sym, ft in pi_map(spec).items()}
    by_row = {sym: {} for sym in pi}
    for sym, entries in pi.items():
        for (u, row, col), c in entries.items():
            by_row[sym].setdefault(row, []).append((u, col, c))
    unit = Cyclotomic.one()

    def entries(word):
        """pi(word) for words of length <= 2 as ((reduced word, row, col),
        value) pairs; words the rewrites annihilate are dropped."""
        if not word:
            return [(((), row, row), unit) for row in range(spec.d ** 2)]
        if len(word) == 1:
            return [(((u,), row, col), c) for (u, row, col), c in pi[word[0]].items()]
        out = []
        for (u1, row, mid), c1 in pi[word[0]].items():
            for u2, col, c2 in by_row[word[1]].get(mid, ()):
                red = reduce_pair(u1, u2)
                if red is not None:
                    out.append(((red, row, col), c1 * c2))
        return out

    results = {}
    for family in families:
        status = "verified"
        for rel in QautPresentation(spec).relations():
            if rel.family != family:
                continue
            acc: dict = {}
            for coeff, word in rel.lhs:
                accumulate(acc, coeff, entries(word))
            for coeff, word in rel.rhs:
                accumulate(acc, -coeff, entries(word))
            if acc:
                status = "inconclusive"
                break
        results[family] = status
    return {"partition": list(spec.sizes), "families": results,
            "note": "local rewrites only; 'inconclusive' is not a failure"}
