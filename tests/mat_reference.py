"""Exact-matrix references for the index tables of ``qautcert.pauli``,
``qautcert.cocycle`` and ``qautcert.qaut``: the Pauli and Weyl operators as
products of dense ``Mat``s and Kronecker placements, a phase permutation's
matrix, the unitary-error-basis, depolarization and explicit Weyl
isomorphism checks by dense products, the entangled projections bracketed
into M_d x M_d, the PVM check by dense products and the projections of
``uet_pvm`` built from them, the z-unitaries of the covariance suite,
their monomial read back, the alpha/beta substitutions as closures on
symbols, and Ad of a phase-permutation matrix as a monomial map."""

import itertools
from fractions import Fraction

import numpy as np

from qautcert.algebra import MonomialMap, monomial_forms
from qautcert.arith import Cyclotomic, Mat, echelon, root_of_unity
from qautcert.formal import qsym, usym
from qautcert.pauli import BlockEmbedding, NotPVM, SlotMismatch, UebReport, WrongCount, table_terms
from qautcert.relations import SnPresentation


def pauli_x(n):
    w = root_of_unity(n, 1)
    return Mat.exact([[w ** i if i == j else 0 for j in range(n)] for i in range(n)])


def pauli_z(n):
    return Mat.exact([[1 if i == (j + 1) % n else 0 for j in range(n)] for i in range(n)])


def weyl_products(n):
    """[X^i Z^j at i n + j] as products of ``pauli_x`` and ``pauli_z``."""
    x, z = pauli_x(n), pauli_z(n)
    xs, zs = [Mat.identity(n)], [Mat.identity(n)]
    for _ in range(n - 1):
        xs.append(xs[-1] @ x)
        zs.append(zs[-1] @ z)
    return [xs[i] @ zs[j] for i in range(n) for j in range(n)]


def mat(U):
    """The exact matrix of one phase permutation, read through ``table_terms``."""
    n = len(U.perm)
    return table_terms(n, (U.L, Fraction(1), U.perm, np.arange(n), U.exp)).dense()


def is_unitary_error_basis(family, n=None):
    """Unitarity of each exact matrix, then the normalized trace of every
    product T_a* T_b against delta_ab, pair by pair."""
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
                return UebReport(False, abs(val.to_complex() - expect), f"trace pairing ({a},{b})")
    return UebReport(True, 0.0)


def depolarization_units(family):
    """sum_a u_a* E_pq u_a = n delta_pq 1 for every matrix unit E_pq of M_n,
    by dense products in order (p, q), the first failure named by its unit."""
    n = family[0].rows
    for p in range(n):
        for q in range(n):
            x = matrix_unit(n, p, q)
            acc = Mat.zeros(n, n)
            for u in family:
                acc = acc + (u.adjoint() @ x @ u)
            target = Mat.identity(n).scale(x.trace() * n)
            if not acc.equals(target):
                return UebReport(False, acc.residual(target), f"depolarization n={n} unit ({p},{q})")
    return UebReport(True, 0.0)


def explicit_weyl_isomorphism(sigma, c):
    """e_g -> c_g X^i Z^j, g = (i, j), checked product by product and star by
    star with dense matrices, in the order g, its products over h, its star."""
    n = sigma.group.factors[0]
    T = weyl_products(n)

    def t(g):
        return T[g[0] * n + g[1]]

    products_checked = star_checked = 0
    for g in sigma.group.elements():
        for h in sigma.group.elements():
            gh = sigma.group.add(g, h)
            if not (t(g).scale(c[g]) @ t(h).scale(c[h])).equals(
                    t(gh).scale(c[gh] * sigma.value(g, h))):
                return {"verified": False, "failed_at": [list(g), list(h)]}
            products_checked += 1
        ginv = sigma.group.neg(g)
        if not t(g).scale(c[g]).adjoint().equals(
                t(ginv).scale(c[ginv] * sigma.value(ginv, g).conjugate())):
            return {"verified": False, "failed_at": ["star", list(g)]}
        star_checked += 1
    return {"verified": True, "products_checked": products_checked, "star_checked": star_checked,
            "coboundary": {str(k): repr(v) for k, v in sorted(c.items())}}


def entangled_projection(n, i, j):
    """(1/n) sum_{a,b} w^{i(a-b)} E_{a+j,b+j} x E_{a,b}, entry by entry."""
    w = root_of_unity(n, 1)
    entries = [[Cyclotomic.zero() for _ in range(n * n)] for _ in range(n * n)]
    for a in range(n):
        for b in range(n):
            entries[((a + j) % n) * n + a][((b + j) % n) * n + b] = (
                (w ** ((i * (a - b)) % n)) * Fraction(1, n))
    return Mat.exact(entries)


def paren(emb, r, T):
    """T in the r-th slot of M_{n_1} x ... x M_{n_m} = M_d, identities in
    the others, as Kronecker products."""
    if T.rows != emb._size(r) or T.cols != T.rows:
        raise SlotMismatch(f"operator size {T.rows} does not fit block {r}")
    out = None
    for t, n in enumerate(emb.spec.sizes, start=1):
        factor = T if t == r else Mat.identity(n)
        out = factor if out is None else out.kron(factor)
    return out


def matrix_unit(n, i, j):
    return Mat.exact([[1 if (a, b) == (i % n, j % n) else 0 for b in range(n)] for a in range(n)])


def paren_unit(emb, s, i, j):
    """E^(s)_{i,j} embedded in M_d."""
    return paren(emb, s, matrix_unit(emb.spec.sizes[s - 1], i, j))


def rearrange(emb, interleaved):
    """Conjugate an interleaved-layout operator into the M_d x M_d layout."""
    from_paired = np.argsort(emb._to_paired)
    return interleaved.select(from_paired, from_paired)


def rearrange_inverse(emb, paired):
    return paired.select(emb._to_paired, emb._to_paired)


def bracket(emb, s, T2):
    """The doubled-slot operator T2 of M_{n_s} x M_{n_s}, identities on the
    other doubled slots, rearranged into M_d x M_d."""
    sizes = emb.spec.sizes
    ns = sizes[s - 1]
    if T2.rows != ns * ns or T2.cols != ns * ns:
        raise SlotMismatch(f"doubled operator size {T2.rows} does not fit block {s}")
    out = None
    for t, n in enumerate(sizes, start=1):
        factor = T2 if t == s else Mat.identity(n * n)
        out = factor if out is None else out.kron(factor)
    return rearrange(emb, out)


def bracket_phi(emb, s, i, j):
    n = emb.spec.sizes[s - 1]
    return bracket(emb, s, entangled_projection(n, i % n, j % n))


def pvm_check(projections):
    """The PVM check by dense products: each member a projection, then each
    pair a < b orthogonal, then the sum the identity; raises NotPVM as
    ``qautcert.pauli.pvm_check`` does."""
    if not projections:
        raise NotPVM("empty family")
    size = projections[0].rows
    for idx, p in enumerate(projections):
        if p.rows != size or p.cols != size:
            raise NotPVM(f"member {idx} has mismatched shape")
        if not ((p @ p).equals(p) and p.adjoint().equals(p)):
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


def block_diag_unit(spec, s, i, j):
    """E_((s,i),(s,j)) in M_D."""
    offset = sum(spec.sizes[: s - 1])
    return matrix_unit(spec.D, offset + i, offset + j)


def uet_projections(spec):
    """The projections P_(s,a,b) = sum over i, j of
    E_((s,i),(s,j)) x [(X^a Z^b)* E_ij X^a Z^b / n_s]_s in M_D x M_d, in
    the order of ``uet_pvm``, by dense products."""
    emb = BlockEmbedding(spec)
    out = []
    for s, ns in enumerate(spec.sizes, start=1):
        products = weyl_products(ns)
        for a in range(ns):
            for b in range(ns):
                U = products[a * ns + b]
                P = Mat.zeros(spec.D * spec.d, spec.D * spec.d)
                for i in range(ns):
                    for j in range(ns):
                        inner = (U.adjoint() @ matrix_unit(ns, i, j) @ U).scale(Fraction(1, ns))
                        P = P + block_diag_unit(spec, s, i, j).kron(paren(emb, s, inner))
                out.append(P)
    return out


def rank(m):
    """The rank of an exact matrix, by ``echelon`` of its sparse rows."""
    rows = {}
    for (i, j), c in m.sparse_entries().items():
        rows.setdefault(i, {})[j] = c
    return len(echelon(rows.values())[0])


def monomial_entries(U):
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


def phase_permutation(U):
    """(L, perm, exp) with U = sum over c of zeta_L^exp[c] E_(perm[c], c)."""
    form = monomial_entries(U)
    if (form is None or form[1] != 1
            or not np.array_equal(np.sort(form[2]), np.arange(U.rows))
            or not np.array_equal(np.sort(form[3]), np.arange(U.cols))):
        raise ValueError("not a phase-permutation")
    L, _, row, col, exp = form
    perm, phase = np.empty_like(row), np.empty_like(exp)
    perm[col], phase[col] = row, exp
    return L, perm, phase


def z_images(spec):
    """{(idx, t): z_idx,t} as Kronecker products of dense matrices."""
    emb = BlockEmbedding(spec)
    ident = Mat.identity(spec.d)
    out = {}
    for t, n in enumerate(spec.sizes, start=1):
        x, z = pauli_x(n), pauli_z(n)
        out[(1, t)] = paren(emb, t, x).kron(ident)
        out[(2, t)] = paren(emb, t, z).kron(ident)
        out[(3, t)] = ident.kron(paren(emb, t, x))
        out[(4, t)] = ident.kron(paren(emb, t, z))
    return out


def z_words(spec):
    """The d^2 words x_1^a_1 z_1^b_1 ... x_m^a_m z_m^b_m of M_d as products."""
    emb = BlockEmbedding(spec)
    paulis = {(t, "x"): paren(emb, t, pauli_x(n)) for t, n in enumerate(spec.sizes, start=1)}
    paulis.update({(t, "z"): paren(emb, t, pauli_z(n)) for t, n in enumerate(spec.sizes, start=1)})
    words = []
    for exps in itertools.product(*[range(n) for n in spec.sizes for _ in (0, 1)]):
        word = Mat.identity(spec.d)
        for t, which in enumerate("xz" * spec.m):
            for _ in range(exps[t]):
                word = word @ paulis[(t // 2 + 1, which)]
        words.append(word)
    return words


def alpha_closure(spec, idx, t):
    """The four order-n_t automorphism families on q-generators, as a
    function sym -> (phase, sym)."""
    nt = spec.sizes[t - 1]
    w = root_of_unity(nt, 1) if nt > 1 else Cyclotomic.one()
    powers = [w ** e for e in range(nt)]

    def fn(sym):
        kind, s, r, i, j, k, l = sym
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

    return fn


def beta_closure(spec, idx, t):
    """The four order-n_t shifts on u-generators, x+1, y-1, v+1, w-1."""
    nt = spec.sizes[t - 1]

    def fn(sym):
        kind, s, x, y, r, v, w = sym
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

    return fn


def theta_ad_mat(spec, r, U):
    """Ad(U) on block r of B for a phase-permutation matrix U, with the
    scalars u_i conj(u_j), u_c = U[perm[c], c], as ``Mat.entry`` gives them."""
    perm = phase_permutation(U)[1].tolist()
    u = [U.entry(p, c) for c, p in enumerate(perm)]
    index = {p: x for x, p in enumerate(SnPresentation(spec).points)}
    one = Cyclotomic.one()
    return MonomialMap([index[(r, perm[i], perm[j]) if rr == r else (rr, i, j)] for rr, i, j in index],
                       [u[i] * u[j].conjugate() if rr == r else one for rr, i, j in index])
