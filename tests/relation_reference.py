"""The relation families written out instance by instance, the reference
the index plans of ``qautcert.relations`` are tested against: each instance
of Qaut (r1-r5), of S_N^+ (selfadj, idem, rowsum, colsum) and of a PVM
(selfadj, idem, orth, sum) as a ``RelationInstance`` of symbolic words, in
the order ``check_relations`` evaluates them (``relations``); the formal
adjoint of a symbol (``symbol_adjoint``); a ``Substitution`` read as a map
of symbols (``symbolic``); and the symbolic check that a substitution maps
every instance of a family to a unit multiple of another
(``substitution_preserves_relations``)."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qautcert.arith import Cyclotomic, root_of_unity
from qautcert.formal import qsym, usym
from qautcert.relations import PvmPresentation, QautPresentation, SnPresentation


@dataclass
class RelationInstance:
    rid: str
    family: str
    lhs: list  # [(coeff, word)], word a tuple of symbols
    rhs: list
    adjoint_lhs: bool = False


def relations(presentation):
    """Every relation instance of a presentation, in order."""
    return {QautPresentation: qaut_relations, SnPresentation: sn_relations,
            PvmPresentation: pvm_relations}[type(presentation)](presentation)


def qaut_relations(self: QautPresentation):
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


def sn_relations(self: SnPresentation):
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


def pvm_relations(self: PvmPresentation):
    gens, one = self.generators, Fraction(1)
    for a, p in enumerate(gens):
        yield RelationInstance(f"selfadj[{a}]", "selfadj", [(one, (p,))], [(one, (p,))],
                               adjoint_lhs=True)
        yield RelationInstance(f"idem[{a}]", "idem", [(one, (p, p))], [(one, (p,))])
    a, b = np.triu_indices(self.K, 1)
    for x, y in zip(np.r_[a, b].tolist(), np.r_[b, a].tolist()):
        yield RelationInstance(f"orth[{x},{y}]", "orth", [(one, (gens[x], gens[y]))], [])
    yield RelationInstance("sum", "sum", [(one, (p,)) for p in gens], [(one, ())])


def symbol_adjoint(sym):
    if sym[0] == "u":
        return sym
    if sym[0] == "q":
        _, s, r, i, j, k, l = sym
        return ("q", s, r, j, i, l, k)
    raise ValueError(f"unknown symbol kind {sym[0]!r}")


def symbolic(sub):
    """A ``Substitution`` as the map symbol -> (phase, symbol), read off its
    arrays."""
    number = {g: n for n, g in enumerate(sub.generators)}

    def call(sym):
        n = number[sym]
        e = int(sub.exp[n]) % sub.L
        return (root_of_unity(sub.L, e) if e else Cyclotomic.one(),
                sub.generators[int(sub.target[n])])

    return call


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


def substitution_preserves_relations(spec, sub, presentation) -> dict:
    """The image of every relation instance is again a relation instance of
    the same family, up to a unit scalar (canonical re-indexing check), and
    the substitution commutes with the formal adjoint."""
    relations_ = list(relations(presentation))
    image = symbolic(sub)
    order = 1
    for n in spec.sizes:
        order = order * n // math.gcd(order, n)
    by_family: dict = {}
    for rel in relations_:
        if rel.adjoint_lhs:
            continue
        key = _expression_key(rel.lhs + [(-c, w) for c, w in rel.rhs], order)
        by_family.setdefault(rel.family, {})[key] = rel.rid
    checked = 0
    for rel in relations_:
        if rel.adjoint_lhs:
            continue
        mapped = []
        for coeff, word in rel.lhs + [(-c, w) for c, w in rel.rhs]:
            scalar = Cyclotomic.one()
            new_word = []
            for sym in word:
                ph, new_sym = image(sym)
                scalar = scalar * ph
                new_word.append(new_sym)
            c = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.rational(coeff)
            mapped.append((c * scalar, tuple(new_word)))
        key = _expression_key(mapped, order)
        if key != () and key not in by_family[rel.family]:
            return {"passed": False, "failing_relation": rel.rid}
        checked += 1
    # adjoint compatibility: sub(sym*) = (conj(phase), sub(sym)*)
    for sym in presentation.generators:
        ph, img = image(sym)
        ph2, img2 = image(symbol_adjoint(sym))
        if img2 != symbol_adjoint(img) or ph2 != ph.conjugate():
            return {"passed": False, "failing_relation": f"adjoint compatibility at {sym}"}
        checked += 1
    return {"passed": True, "instances_checked": checked}
