"""The dict form of algebra elements, the reference the element stacks of
``qautcert.algebra`` are checked against: an element is a sparse dict
{basis index: Cyclotomic} without zeros, or an iterable of (index,
coefficient) pairs, and every product adds one ``Fraction`` at a time.
``as_dicts`` and ``as_stack`` convert between the two forms.  The exact splitter
``central_idempotents_cutting_all`` cuts every idempotent by every cut, as
``algebra._central_idempotents`` does on stacks."""

from fractions import Fraction

import numpy as np

from qautcert.algebra import _nth_root, monomial_forms
from qautcert.arith import Cyclotomic, Terms, root_of_unity


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


def sparse_vector(vec) -> dict:
    """The nonzero coordinates of a dense vector, as {k: Cyclotomic}."""
    out = {}
    for i, a in enumerate(vec):
        a = Cyclotomic._coerce(a)
        if not a.is_zero():
            out[i] = a
    return out


def sparse_eq(a: dict, b: dict) -> bool:
    zero = Cyclotomic.zero()
    return all(a.get(k, zero) == b.get(k, zero) for k in set(a) | set(b))


def product(A, i, j) -> tuple:
    """b_i b_j as a tuple of (k, c) pairs: empty, or one pair."""
    k = A.k.item(i, j)
    return () if k < 0 else ((k, A.scalars[A.s.item(i, j)]),)


def star(A, i) -> tuple:
    """b_i* as a tuple of one (k, c) pair."""
    return ((A.star_k.item(i), A.scalars[A.star_s.item(i)]),)


def mul_sparse(A, u, v) -> dict:
    out: dict = {}
    for i, a in u:
        for j, b in v:
            terms = product(A, i, j)
            if terms:
                accumulate(out, a * b, terms)
    return out


def invol_sparse(A, terms) -> dict:
    out: dict = {}
    for i, a in terms:
        accumulate(out, a.conjugate(), star(A, i))
    return out


def z_vector(cp, g) -> dict:
    """The distinguished unitary z_g = 1_A z_g of a crossed product."""
    return {cp.index[(i, g)]: a for i, a in enumerate(cp.base.unit) if not a.is_zero()}


def embed(cp, vec: dict) -> dict:
    """A -> A rtimes Lambda, b -> b z_e."""
    e = cp.group.identity
    return {cp.index[(i, e)]: a for i, a in vec.items()}


def as_dicts(x: Terms) -> list:
    """The rows of an exact stack as dicts."""
    out = [{} for _ in range(x.rows)]
    zeta = [root_of_unity(x.order, e) for e in range(x.order)]
    for r, k, e, m in zip(x.row.tolist(), x.col.tolist(), (x.exp % x.order).tolist(),
                          x.num.tolist()):
        accumulate(out[r], Cyclotomic.rational(Fraction(m, x.den)), ((k, zeta[e]),))
    return out


def as_stack(elements, dim: int) -> Terms:
    """The stack whose rows are the dicts ``elements``, each coefficient in
    the power basis of the lcm of their orders."""
    order = np.lcm.reduce([1] + [c.order for x in elements for c in x.values()])
    terms = [(r, k, t, q) for r, x in enumerate(elements) for k, c in x.items()
             for t, q in enumerate(c.promoted(int(order)).coeffs) if q]
    den = np.lcm.reduce([1] + [q.denominator for *_, q in terms])
    row, col, exp = (np.array([t[a] for t in terms], dtype=np.int64) for a in range(3))
    num = np.array([int(q * den) for *_, q in terms], dtype=object)
    num = num.astype(np.int64) if np.abs(num).max(initial=0) < 2**62 else num
    return Terms(len(elements), dim, int(order), int(den), row, col, exp, num)


def power_cycle(A, c: dict):
    """(lam, [c, c^2, ..., c^n]) for the least n <= dim with
    c^(n+1) = lam c and lam != 0, or None."""
    k, a = next(iter(c.items()))
    powers = [c]
    for _ in range(A.dim):
        nxt = mul_sparse(A, powers[-1].items(), c.items())
        lam = nxt[k] / a if k in nxt else None
        if lam is not None and sparse_eq(nxt, {i: lam * x for i, x in c.items()}):
            return lam, powers
        powers.append(nxt)
    return None


def central_idempotents_cutting_all(A, cen) -> list:
    """The minimal central idempotents from the center rows ``cen`` (dicts):
    every idempotent is multiplied by every cut of every center row, until
    there are as many as the center has dimensions; each e^2 = e and their
    sum is the unit."""
    unit = sparse_vector(A.unit)
    idems = [unit]
    for c in cen:
        if len(idems) == len(cen):
            break
        lam, powers = power_cycle(A, c)
        n = len(powers)
        L, (form,) = monomial_forms([lam])
        r = _nth_root(form[0], n)
        cuts = [dict(unit)]
        accumulate(cuts[0], -lam.inverse(), powers[-1].items())
        for j in range(n):
            mu_inv = root_of_unity(n * L, -(form[1] + j * L)) / Cyclotomic.rational(r)
            proj: dict = {}
            w = Cyclotomic.rational(Fraction(1, n))
            for ck in powers:
                w = w * mu_inv
                accumulate(proj, w, ck.items())
            cuts.append(proj)
        idems = [f for g in idems for f in
                 (mul_sparse(A, g.items(), cut.items()) for cut in cuts) if f]
    total: dict = {}
    for e in idems:
        assert sparse_eq(mul_sparse(A, e.items(), e.items()), e)
        accumulate(total, Cyclotomic.one(), e.items())
    assert sparse_eq(total, unit)
    return idems
