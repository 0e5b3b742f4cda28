"""Exact-matrix references for the index tables of ``qautcert.pauli``,
``qautcert.cocycle`` and ``qautcert.qaut``: the Pauli and Weyl operators as
products of dense ``Mat``s and Kronecker placements, a phase permutation's
matrix, the unitary-error-basis, depolarization and explicit Weyl
isomorphism checks by dense products, the entangled projections bracketed
into M_d x M_d, the PVM check by dense products and the projections of
``uet_pvm`` built from them, the z-unitaries of the covariance suite,
their monomial read back, the alpha/beta substitutions as closures on
symbols, and Ad of a phase-permutation matrix as a monomial map.  Also
the exact sparse Gaussian elimination ``echelon`` over rows
{column: Cyclotomic}, the ranks and kernels read off it, and the center of a
``StructAlgebra`` as the reduced echelon rows of the kernel of its
commutator system (``reference_center``), and m m* for any Gram matrix,
through its inverse (``reference_delta_form``).  Generator values given as
a dict of ``Mat``s or complex arrays are stacked into the ``Terms`` that
``GeneratorAssignment`` and ``FormalTensor.substitute`` take
(``assignment``, ``substitute``) and read back off them (``values_of``)."""

import itertools
from fractions import Fraction

import numpy as np

from qautcert.algebra import MonomialMap, NotDeltaForm, NotFaithful, monomial_forms
from qautcert.arith import Cyclotomic, Mat, Terms, root_of_unity
from qautcert.formal import qsym, usym
from qautcert.pauli import BlockEmbedding, NotPVM, SlotMismatch, UebReport, WrongCount, table_terms
from qautcert.relations import GeneratorAssignment, SnPresentation

from builders import add, negative
from sparse_reference import accumulate, mul_sparse, sparse_eq, star


def terms_of(m) -> Terms:
    """The nonzero terms of an exact ``Mat``, exp a power-basis index, or
    of a complex array."""
    if isinstance(m, Mat):
        return Terms(m.rows, m.cols, m.order, m.den, *m.terms())
    row, col = np.nonzero(m)
    return Terms(*np.shape(m), 1, 1, row, col, np.zeros(len(row), dtype=np.int64),
                 np.asarray(m[row, col], dtype=np.complex128))


def stacked(values: dict, symbols) -> Terms:
    """The values of ``symbols``, all exact ``Mat``s or all complex arrays,
    stacked in order as one ``Terms``."""
    ordered = [values[s] for s in symbols]
    if isinstance(ordered[0], Mat):
        return terms_of(Mat.vstack(ordered))
    return terms_of(np.concatenate(ordered).astype(np.complex128, copy=False))


def assignment(presentation, values: dict, cases=None) -> GeneratorAssignment:
    """The assignment of {generator: value}."""
    return GeneratorAssignment(presentation, stacked(values, presentation.generators), cases)


def values_of(asg) -> dict:
    """{generator: value} of an assignment, its blocks read off the stack."""
    n, stack = asg.size, asg.stack.dense()
    return {g: stack.select(range(t * n, t * n + n), range(n)) if asg.exact
            else stack[t * n:t * n + n] for t, g in enumerate(asg.presentation.generators)}


def substitute(ft, values: dict):
    """``ft.substitute`` at {symbol: value}."""
    return ft.substitute(stacked(values, ft.symbols))


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
            gh = add(sigma.group, g, h)
            if not (t(g).scale(c[g]) @ t(h).scale(c[h])).equals(
                    t(gh).scale(c[gh] * sigma.value(g, h))):
                return {"verified": False, "failed_at": [list(g), list(h)]}
            products_checked += 1
        ginv = negative(sigma.group, g)
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


# -- exact sparse linear algebra: vectors and rows are {index: Cyclotomic} ----

def echelon(rows):
    """Gauss-Jordan elimination of sparse rows {column: Cyclotomic}.

    Each row in turn is reduced by the pivot rows found before it; what is
    left, if anything, becomes a pivot row at its smallest column, scaled to
    1 there, and that column is cleared from the earlier pivot rows.
    Returns ``(rref, leads)``: ``rref`` maps each pivot column to its row of
    the reduced row echelon form (1 at the pivot, 0 at every other pivot
    column), and ``leads[i]`` is the (column, entry) at which input row i
    became a pivot, before scaling, or None when it depended on the rows
    before it.
    """
    rref: dict = {}
    leads: list = []
    for row in rows:
        cur = {k: c for k, c in row.items() if not c.is_zero()}
        # pivot rows are zero at each other's pivots: one pass clears them all
        for p in [p for p in cur if p in rref]:
            accumulate(cur, -cur[p], rref[p].items())
        if not cur:
            leads.append(None)
            continue
        lead = min(cur)
        leads.append((lead, cur[lead]))
        inv = cur[lead].inverse()
        new = {k: c * inv for k, c in cur.items()}
        for other in rref.values():
            if lead in other:
                accumulate(other, -other[lead], new.items())
        rref[lead] = new
    return rref, leads


def kernel(rows, ncols: int) -> list:
    """Basis of the right kernel of sparse rows, one vector per free column
    in ascending order, read off the reduced row echelon form."""
    rref, _ = echelon(rows)
    one = Cyclotomic.one()
    basis = []
    for f in range(ncols):
        if f not in rref:
            vec = {f: one}
            vec.update((p, -row[f]) for p, row in rref.items() if f in row)
            basis.append(vec)
    return basis


def reference_center(A):
    """The reduced echelon rows of the center of A, in the order the
    elimination makes them pivots: the kernel of the commutator system
    [x, b_i] = 0, whose row (i, k) holds the b_k-coefficients of
    x b_i - b_i x, reduced once more."""
    one = Cyclotomic.one()
    rows: dict = {}
    for a, b in np.argwhere(A.k >= 0).tolist():
        k, c = A.k.item(a, b), A.scalars[A.s.item(a, b)]
        accumulate(rows.setdefault((b, k), {}), c, ((a, one),))
        accumulate(rows.setdefault((a, k), {}), -c, ((b, one),))
    return list(echelon(kernel(rows.values(), A.dim))[0].values())


def positive_definite_inverse(gram):
    """Inverse of a Hermitian matrix given as sparse rows, raising
    NotFaithful unless it is positive definite.  One in-order elimination of
    [G | I]: its k-th pivot is the ratio of the k-th and (k-1)-th leading
    minors, so Sylvester's criterion reads off the pivots.  The minors must
    come out rational."""
    n = len(gram)
    zero = Cyclotomic.zero()
    for i, row in enumerate(gram):
        for j, c in row.items():
            if c.conjugate() != gram[j].get(i, zero):
                raise NotFaithful("Gram matrix is not Hermitian")
    one = Cyclotomic.one()
    rref, leads = echelon({**row, n + i: one} for i, row in enumerate(gram))
    for k, lead in enumerate(leads):
        if lead is None or lead[0] != k:  # minor_k = 0
            raise NotFaithful("Gram matrix singular or not positive definite")
        if not lead[1].is_rational():
            raise NotFaithful("Gram minors are not totally real")
        if lead[1].as_fraction() <= 0:
            raise NotFaithful("Gram matrix singular or not positive definite")
    return [{j - n: c for j, c in rref[i].items() if j >= n} for i in range(n)]


def reference_delta_form(A, psi=None):
    """The reference for ``algebra.delta_form_check``, for any Gram matrix
    G = (psi(b_i* b_j)): m m* = M (G^-1 x G^-1) M^dagger G with M the
    multiplication matrix M[l, (i, j)] = c^l_ij, the Kronecker inverse
    folded through the structure constants.  Returns c with m m* = c id."""
    psi = psi if psi is not None else A.trace
    n = A.dim
    one, zero = Cyclotomic.one(), Cyclotomic.zero()
    gram = []  # gram[i][j] = psi(b_i* b_j), as sparse rows
    for i in range(n):
        row = {}
        for j in range(n):
            val = zero
            for k, a in mul_sparse(A, star(A, i), ((j, one),)).items():
                val = val + a * psi[k]
            if not val.is_zero():
                row[j] = val
        gram.append(row)
    ginv = positive_definite_inverse(gram)
    comp = [{} for _ in range(n)]
    rows, cols = np.nonzero(A.k >= 0)
    products = list(zip(rows.tolist(), cols.tolist(), A.k[rows, cols].tolist(),
                        [A.scalars[t] for t in A.s[rows, cols].tolist()]))
    for i, j, l, c1 in products:
        for p, q, k2, c2 in products:
            if p in ginv[i] and q in ginv[j]:
                accumulate(comp[l], c1 * ginv[i][p] * ginv[j][q], ((k2, c2.conjugate()),))
    c = None
    for l, row in enumerate(comp):
        out: dict = {}
        for k2, a in row.items():
            accumulate(out, a, gram[k2].items())
        c = out.get(0, zero) if c is None else c
        if not sparse_eq(out, {l: c}):
            raise NotDeltaForm("m m* is not a scalar multiple of the identity")
    return c
