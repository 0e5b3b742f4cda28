"""Generator presentations of the quantum automorphism algebra of a
multimatrix algebra and of the quantum permutation algebra, generator
assignments, and relation checking.

  * q-generators q^(s,r)_(i,j),(k,l) with i,j < n_s, k,l < n_r satisfy the
    five standard relation families (partial-isometry products, adjoint
    symmetry, and the two partition-of-unity sums).
  * u-generators form a magic unitary: self-adjoint idempotent entries with
    row and column sums equal to 1.

Each relation family is evaluated from an index plan over the generators,
as one join or one keyed sum of the terms of their values
(``check_relations``); a battery of points is checked as a few direct sums
of them (``battery_groups``).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import BlockSpec
from .arith import Mat, Terms, _maxabs, _root_table, _working, euler_phi
from .formal import FormalTensor, qsym, usym

__all__ = [
    "QautPresentation",
    "SnPresentation",
    "GeneratorAssignment",
    "RelationReport",
    "check_relations",
    "battery_groups",
    "IncompleteAssignment",
]


class IncompleteAssignment(ValueError):
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
        yield np.stack([values.residuals(selfadj), values.residuals(idem)], axis=-1)
        yield values.residuals(rowsum)
        yield values.residuals(colsum)


class GeneratorAssignment:
    """Generator values, all exact or all complex, every one k x k, held as
    one block stack: ``stack`` is a (G k) x k exact ``Mat`` at one order and
    denominator, or a complex array, or the ``Terms`` of either, whose block
    t is the value of generator number t of ``presentation.generators``.
    ``values`` is that stack, as ``FormalTensor.substitute`` or
    ``substitute_terms`` returns it, or a dict {generator: value}, which is
    stacked once here.

    The assignment may hold several cases as one direct sum: ``cases[a]``
    is the case of index a < k (all 0, one case, when omitted), and every
    value is block-diagonal over the cases, its block at a case being its
    value there.  ``check_relations`` reports on the cases in their
    order."""

    def __init__(self, presentation, values, cases=None):
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
        self.cases = (np.zeros(self.size, dtype=np.int64) if cases is None
                      else np.asarray(cases, dtype=np.int64))
        if self.cases.shape != (self.size,):
            raise IncompleteAssignment(f"{len(self.cases)} case numbers for {self.size} indices")

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
    failing_case: int | None = None  # the case of ``failing``, None on a pass

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
    evaluates one relation family on them, for every case of the
    assignment: a product joins terms of one case only, as the values are
    block-diagonal over the cases."""

    def __init__(self, asg: GeneratorAssignment, tol: float):
        terms = asg.terms
        self.k = asg.size
        self.exact = asg.exact
        self.cases = asg.cases
        self.ncases = int(asg.cases.max(initial=-1)) + 1
        if self.ncases > 1 and (asg.cases[terms.row % self.k] != asg.cases[terms.col]).any():
            raise IncompleteAssignment("a value is not block-diagonal over the cases")
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
        """The residual of every instance of a family at every case, a
        (cases, instances) array in order: max |entry| over the case's
        entries of the difference of its two sides.  An exact instance is
        0.0 when every power-basis coefficient of every entry cancels, and
        at least the smallest positive float otherwise."""
        out = np.zeros((self.ncases, plan.size))
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
        they reach into ``out``, at the case of the entry's row: max over
        its entries of |sum of num * zeta^exp| / (scale den^degree).
        ``instance`` maps codes to instances (the identity when None);
        every contribution to such an instance is among these."""
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
        code, row = np.divmod(key // self.k, self.k)
        inst = code if instance is None else instance[code]
        np.maximum.at(out, (self.cases[row], inst), resid)


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
    assignment, case by case, and report the first that fails: at the first
    failing case, in the order of ``relations()``.  The values are read into
    one term table (``_BlockValues``); each relation family is one join of
    its terms (r1, r2, idem) or one keyed sum (r3-r5, selfadj, rowsum,
    colsum), summed per (instance, row, col), for all cases at once.  Exact
    values demand literal equality, every power-basis coefficient
    cancelling; complex-array values pass a relation when max|lhs - rhs| <=
    tol.  ``worst_residual`` is the largest residual of the instances up to
    the first failure (all of them on a pass), and ``checked`` counts those
    instances, over the cases before it and its own case: what checking one
    case at a time adds up to."""
    values = _BlockValues(asg, tol)
    resid = np.concatenate([r.reshape(values.ncases, -1)
                            for r in asg.presentation.block_residuals(values)], axis=1)
    fails = ~(resid <= values.threshold)  # a NaN residual fails
    if not fails.any():
        return RelationReport(True, float(resid.max(initial=0.0)), None, resid.size)
    case = int(fails.any(axis=1).argmax())
    t = int(fails[case].argmax())
    worst = max(float(resid[:case].max(initial=0.0)), float(resid[case, :t + 1].max()))
    rel = next(itertools.islice(asg.presentation.relations(), t, None))
    return RelationReport(False, worst, rel.rid, case * resid.shape[1] + t + 1, case)


# Substituted terms that one group of battery_groups holds at most, unless
# it is a single case.  The check's working arrays grow with the group, its
# fixed numpy cost does not.  perfbench at seed 42 (scaled, one run each, a
# 2-core x86_64 host): exact-qaut cert_s 0.186-0.200 s checking one case at
# a time; 0.143-0.152 s at 2^10, two (2,2) cases of 512 terms a group, peak
# RSS 35.2 MB on both qaut workloads; 0.134-0.143 s at 2^11 but 36.7 MB on
# float-qaut; 0.133-0.139 s at 3 x 2^10 and 36.5 / 37.9 MB.
_GROUP_TERMS = 1 << 10


def battery_groups(images: FormalTensor, presentation, asg: GeneratorAssignment):
    """(first case, assignment) for consecutive groups of the cases of
    ``asg``, an assignment of the symbols of ``images``: the assignment of
    ``presentation`` at the images of the group's values, one
    ``substitute_terms`` of their direct sum, the cases numbered from 0 in
    the group.  A group ends before the case that would take its
    substituted terms past ``_GROUP_TERMS``.  A relation holds on a direct
    sum exactly when it holds on every summand, so ``check_relations`` of
    the groups in turn reports what it would of each case in turn."""
    t, k = asg.terms, asg.size
    uses = np.bincount(images.sym, minlength=len(images.symbols))
    load = np.bincount(asg.cases[t.col], weights=uses[t.row // k],
                       minlength=int(asg.cases.max()) + 1)
    bounds, held = [0], 0
    for c, terms in enumerate(load.tolist()):
        if held and held + terms > _GROUP_TERMS:
            bounds.append(c)
            held = 0
        held += terms
    bounds.append(len(load))
    for lo, hi in zip(bounds, bounds[1:]):
        # the group's indices and value terms, renumbered from 0
        keep = np.flatnonzero((asg.cases >= lo) & (asg.cases < hi))
        index = np.full(k, -1, dtype=np.int64)
        index[keep] = np.arange(len(keep))
        mine = index[t.col] >= 0
        gen, row = np.divmod(t.row[mine], k)
        values = Terms(len(asg.presentation.generators) * len(keep), len(keep), t.order, t.den,
                       gen * len(keep) + index[row], index[t.col[mine]], t.exp[mine], t.num[mine])
        yield lo, GeneratorAssignment(presentation, images.substitute_terms(values),
                                      np.tile(asg.cases[keep] - lo, images.size))
