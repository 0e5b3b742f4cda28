"""The finite-dimensional machinery connecting the generator presentations
of the quantum automorphism algebra of a multimatrix algebra and of the
quantum permutation algebra (``relations``, whose names this module
re-exports): classical points, the block-diagonal PVM representation, the
generator homomorphisms pi and rho, the order-n_t automorphism families on
both sides, and the covariance and trace-constant certificates.

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

import itertools
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .algebra import BlockSpec, MonomialMap, multimatrix
from .arith import Cyclotomic, Terms, _root_table, _starts, accumulate
from .formal import FormalTensor
from .pauli import BlockEmbedding, NotPVM, PhasePermutation, _off_delta, pvm_check, weyl_basis
from .relations import (GeneratorAssignment, IncompleteAssignment, QautPresentation,
                        RelationReport, SnPresentation, _numbering, _product_words, _qaut_plans,
                        battery_groups, check_relations)

__all__ = [
    "QautPresentation",
    "SnPresentation",
    "GeneratorAssignment",
    "RelationReport",
    "check_relations",
    "battery_groups",
    "permutation_assignment",
    "block_preserving_permutations",
    "arbitrary_permutations",
    "direct_sum_assignment",
    "classical_assignment_aut",
    "theta_ad_unitary",
    "theta_block_swap",
    "classical_theta_battery",
    "uet_pvm",
    "pi_map",
    "rho_map",
    "rho_forms_agree",
    "rearranged_Q_check",
    "alpha",
    "beta",
    "covariance_check",
    "haar_compat_check",
    "strict_word_check",
    "IncompleteAssignment",
    "NotAutomorphismB",
    "NotTracePreserving",
    "IndexOutOfRange",
]


class NotAutomorphismB(ValueError):
    pass


class NotTracePreserving(ValueError):
    pass


class IndexOutOfRange(ValueError):
    pass


# ---------------------------------------------------------------------------
# classical points

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


def direct_sum_assignment(spec: BlockSpec, perms: list, cases=None) -> GeneratorAssignment:
    """The direct sum of classical points: u_(P),(Q) is the diagonal matrix
    with the indicator of each permutation on its own summand.  A genuinely
    matrix-valued magic unitary, its stack the ``Terms`` of the ones.
    ``cases[a]`` is the case of summand a (``GeneratorAssignment.cases``);
    one case when omitted."""
    pres = SnPresentation(spec)
    pts = pres.points
    N, k = len(pts), len(perms)
    number = {p: x for x, p in enumerate(pts)}
    # summand a of u_(perm_a(Q)),(Q), generator number perm_a(Q) N + Q
    image = np.array([[number[perm[q]] for q in pts] for perm in perms], dtype=np.int64)
    a, q = np.indices((k, N)).reshape(2, -1)
    rows = (image[a, q] * N + q) * k + a
    return GeneratorAssignment(pres, Terms(N * N * k, k, 1, 1, rows, a, np.zeros_like(a),
                                           np.ones_like(a)), cases)


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


def theta_ad_unitary(spec: BlockSpec, r: int, U: PhasePermutation) -> MonomialMap:
    """Ad(U) on block r, identity on the others, for a phase permutation U
    of M_(n_r): U E_ij U* = zeta_L^(exp[i] - exp[j]) E_(perm[i], perm[j]).
    The scalars of block r are written at U's order L, so the assignment
    ``classical_assignment_aut`` builds keeps that order."""
    n = spec.sizes[r - 1]
    if U.perm.shape != (n,):
        raise IndexOutOfRange(f"unitary size {U.perm.shape[-1]} does not match block {r}")
    first = _numbering(spec.sizes).point_first[r - 1]
    i, j = np.divmod(np.arange(n * n), n)
    k, exp = np.arange(spec.N), np.zeros(spec.N, dtype=np.int64)
    k[first:first + n * n] = first + U.perm[i] * n + U.perm[j]
    exp[first:first + n * n] = U.exp[i] - U.exp[j]
    return MonomialMap.of_roots(k, U.L, exp)


def theta_block_swap(spec: BlockSpec, r1: int, r2: int) -> MonomialMap:
    if spec.sizes[r1 - 1] != spec.sizes[r2 - 1]:
        raise IndexOutOfRange("can only swap blocks of equal size")
    num = _numbering(spec.sizes)
    r, i, j = num.points  # E^(r)_(i,j) is basis element point_number(r, i, j)
    swapped = np.select([r == r1 - 1, r == r2 - 1], [r2 - 1, r1 - 1], r)
    return MonomialMap(num.point_number(swapped, i, j))


def classical_assignment_aut(spec: BlockSpec, thetas: list) -> GeneratorAssignment:
    """The scalar q-assignments of verified unital *-automorphisms of B that
    preserve the Plancherel trace, given as monomial maps, as one direct
    sum with theta number a its own case and summand:
    q_(s,r,i,j,k,l) at a is the scalar of theta_a(E^(s)_ij) when its
    target is E^(r)_kl, and 0 otherwise.  The thetas are verified in order
    against one ``multimatrix(spec)``; the stack is the ``Terms`` of their
    scalars in the power basis, read off their ``k`` and ``exp`` arrays at
    the lcm of the scalars' orders, the order ``Mat.exact`` would give the
    values.  A verified theta's scalars are roots of unity: c_ij c_ji = 1
    and c_ji = conj(c_ij)."""
    algebra = multimatrix(spec)
    for theta in thetas:
        failure = algebra.automorphism_failure(theta)
        if failure == "trace-preserving":
            raise NotTracePreserving("theta does not preserve the Plancherel trace")
        if failure:
            raise NotAutomorphismB(f"theta is not {failure}")
    K, num = len(thetas), _numbering(spec.sizes)
    # theta_a sends E^(s)_ij, basis element (s, i, j), to a multiple of the
    # one t = theta_a.k at (r, k, l): the value of q_(s,r,i,j,k,l) at a
    s, i, j = num.points
    M = math.lcm(*(c.order for theta in thetas for c in theta.scalars))
    L = math.lcm(2, M)
    rows = np.concatenate([num.q_number(s, s[t], i, j, i[t], j[t]) * K + a
                           for a, t in enumerate(theta.k for theta in thetas)])
    exp = np.concatenate([theta.exp * (L // theta.L) for theta in thetas])
    sign = np.ones_like(exp)
    if L != M:  # M odd: zeta_2M = -zeta_M^((M + 1) / 2)
        sign, exp = np.where(exp % 2, -1, 1), exp * ((M + 1) // 2)
    # each scalar as its terms in the power basis, as Mat.terms reads a value
    power = _root_table(M)[exp % M]
    x, t = np.nonzero(power)
    return GeneratorAssignment(QautPresentation(spec), Terms(
        num.q.shape[1] * K, K, M, 1, rows[x], np.repeat(np.arange(K), spec.N)[x], t,
        sign[x] * power[x, t]), np.arange(K))


def classical_theta_battery(spec: BlockSpec, count: int, seed: int):
    """At least ``count`` verified automorphisms: Ad of every Weyl element
    per block, one swap per equal-size block pair, then seeded Ad's of
    permutation and diagonal-phase unitaries.  Each unitary is a phase
    permutation at the order its exact matrix has: X^i Z^j at n, or at 1
    for i = 0, a permutation at 1 and a diagonal of n-th roots at n."""
    rng = random.Random(seed)
    battery = []
    for r, n in enumerate(spec.sizes, start=1):
        weyl = weyl_basis(n)
        for i in range(n):
            for j in range(n):
                U = weyl.at(i * n + j)
                battery.append(("ad_weyl", r, i, j,
                                theta_ad_unitary(spec, r, U if i else U._replace(L=1))))
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
            U = PhasePermutation(1, np.array(p), np.zeros(n, dtype=np.int64))
        else:
            exps = [rng.randrange(n) for _ in range(n)]
            detail = tuple(exps)
            U = PhasePermutation(n, np.arange(n), np.array(exps))
        battery.append((kind, r, detail, None, theta_ad_unitary(spec, r, U)))
    return battery


# ---------------------------------------------------------------------------
# the PVM representation in B x M_d

def _uet_projections(spec: BlockSpec, s: int) -> list:
    """The n_s^2 projections P_(s,a,b) of block s, at a n_s + b, as the
    ``Terms`` of (D d) x (D d) matrices: P = sum over i, j < n_s of
    E_((s,i),(s,j)) x [U* E_ij U / n_s]_s with U = X^a Z^b.  With c the
    permutation of U^-1, U* E_ij U = zeta^(exp[c_j] - exp[c_i]) E_(c_i,c_j),
    and slot s of M_d holds E_(c_i,c_j) at the positions of
    ``_unit_positions``."""
    d, ns = spec.d, spec.sizes[s - 1]
    inv = weyl_basis(ns).adjoint()  # perm c, exp[i] = -(U's exp)[c_i]
    stride, base = _unit_positions(spec, s)
    i, j = np.divmod(np.arange(ns * ns), ns)
    offset = sum(spec.sizes[:s - 1])
    row = (offset + i[:, None]) * d + base + inv.perm[:, i, None] * stride
    col = (offset + j[:, None]) * d + base + inv.perm[:, j, None] * stride
    exp = np.broadcast_to((inv.exp[:, i] - inv.exp[:, j])[..., None] % ns, row.shape)
    size = spec.D * d
    return [Terms(size, size, ns, ns, row[k].ravel(), col[k].ravel(), exp[k].ravel(),
                  np.ones(row[k].size, dtype=np.int64)) for k in range(ns * ns)]


def uet_pvm(spec: BlockSpec) -> dict:
    """The N projections P_(s,a,b) in B x M_d built from the Weyl bases as
    terms (``_uet_projections``), with all five verification conditions,
    exact: projection, mutual orthogonality and completeness
    (``pvm_check``), partial trace, and Plancherel value 1/N.  The rank of
    each P is read as its trace: a projection's eigenvalues are 0 and 1, so
    once P is verified a projection its trace counts the eigenvalues 1."""
    d = spec.d
    projections = [P for s in range(1, spec.m + 1) for P in _uet_projections(spec, s)]
    cert = {"partition": list(spec.sizes), "N": spec.N, "d": d,
            "backend": "exact", "outcomes": len(projections)}
    try:
        pvm_check(projections)
    except NotPVM as exc:
        cert.update(passed=False, failure=str(exc))
        return cert
    ranks = []
    for label, P in zip(SnPresentation(spec).points, projections):
        # partial trace over the B leg, block s: n_s sum_i block (s,i),(s,i)
        s = label[0]
        ns = spec.sizes[s - 1]
        offset = sum(spec.sizes[:s - 1])
        leg = P.row // d
        on = (leg == P.col // d) & (leg >= offset) & (leg < offset + ns)
        pt = Terms(d, d, P.order, P.den, P.row[on] % d, P.col[on] % d, P.exp[on], P.num[on] * ns)
        key, coef = pt.coefficients()  # the identity: den times 1 at each (i, i)
        if not (np.array_equal(key, np.arange(d) * (d + 1))
                and (coef == pt.den * _root_table(pt.order)[0]).all()):
            cert.update(passed=False, failure=f"partial trace of P{label}")
            return cert
        if _psi_tr(spec, P) != Fraction(1, spec.N):
            cert.update(passed=False, failure=f"(psi x tr)(P{label}) != 1/N")
            return cert
        ranks.append(int(_trace(P).as_fraction()))
        if ranks[-1] != d // ns:
            cert.update(passed=False,
                        failure=f"rank of P{label} is {ranks[-1]}, expected {d // ns}")
            return cert
    cert.update(passed=True, worst_residual=0.0, ranks=ranks)
    return cert


def _trace(P: Terms, weight=1, den: int = 1) -> Cyclotomic:
    """The sum of the diagonal terms of P, each times weight[its row] (an
    integer array, or one integer), over ``den``."""
    on = P.row == P.col
    num = np.broadcast_to(weight, P.row.shape)[on] * P.num[on]
    coeffs = num @ _root_table(P.order)[P.exp[on] % P.order]
    return Cyclotomic(P.order, [Fraction(int(c), P.den * den) for c in coeffs])


def _psi_tr(spec: BlockSpec, P: Terms) -> Cyclotomic:
    """(psi x tr) of an element of B x M_d presented in M_D x M_d: weight
    n_t / (N d) on the diagonal of the rows whose B index is in block t."""
    return _trace(P, np.repeat(spec.sizes, spec.sizes)[P.row // spec.d], spec.N * spec.d)


# ---------------------------------------------------------------------------
# the homomorphisms pi and rho

def _unit_positions(spec: BlockSpec, s: int):
    """(stride, base): E^(s)_(a,b), embedded in M_d, has its ones at
    (base + a*stride, base + b*stride), elementwise over base."""
    stride = math.prod(spec.sizes[s:])
    idx = np.arange(spec.d)
    return stride, idx[(idx // stride) % spec.sizes[s - 1] == 0]


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


def _stacked_images(spec: BlockSpec, of_rho: bool) -> FormalTensor:
    """The images of pi (q-generators) or rho (u-generators) as one stack,
    in generator order, scattered from the phase table into preallocated
    arrays: the image of a generator of the block pair (s, r) holds its
    n_s n_r d^2 table rows, over the other side's indices and the rest, in
    order."""
    sizes, N, size = spec.sizes, spec.N, spec.d ** 2
    num = _numbering(sizes)
    # the blocks s and r of every image; its prefactor is 1/n_s for rho, 1/n_r for pi
    bs, br = (np.repeat(num.points[0], N), np.tile(num.points[0], N)) if of_rho else num.q[:2]
    counts = num.n[bs] * num.n[br] * size
    start = np.cumsum(counts) - counts
    sym, row, col, exp = (np.empty(int(counts.sum()), dtype=np.int64) for _ in range(4))
    for s, r, L, trow, tcol, texp in _phase_table(spec):
        ns, nr = sizes[s - 1], sizes[r - 1]
        # the numbers of q^(s,r)_(i,j),(k,l) over (i, j, k, l) and of
        # u_(s,x,y),(r,v,w) over (x, y, v, w)
        q = num.q_first[s - 1, r - 1] + np.arange(ns * ns * nr * nr).reshape(ns, ns, nr, nr)
        u = num.u_numbers(s - 1, r - 1).reshape(ns, ns, nr, nr)
        source, target = (u, q) if of_rho else (q, u)
        if of_rho:  # the table over (x, y, v, w, i, j, k, l, rest), conjugated
            trow, tcol, texp = (a.transpose(4, 5, 6, 7, 0, 1, 2, 3, 8)
                                for a in (trow, tcol, -texp % L))
        # each row's position: its image's start, plus its place in the image
        at = (start[source][..., None] + np.arange(target.size * trow.shape[-1])
              ).reshape(trow.shape)
        sym[at] = target[..., None]
        row[at] = trow + (source * size).reshape(source.shape + (1,) * 5)
        col[at], exp[at] = tcol, texp
    prefactor = [Fraction(1, n) for n in sizes]
    return FormalTensor(size, math.lcm(*sizes),
                        tuple(prefactor[b] for b in (bs if of_rho else br).tolist()),
                        (QautPresentation if of_rho else SnPresentation)(spec).generators,
                        sym, row, col, exp)


def pi_map(spec: BlockSpec) -> FormalTensor:
    """pi on the q-generators: their images, in ``QautPresentation``
    order, as one stack of formal tensors over M_d x M_d in the
    u-generators."""
    return _stacked_images(spec, of_rho=False)


def rho_map(spec: BlockSpec) -> FormalTensor:
    """rho on the u-generators: their images, in ``SnPresentation`` order,
    as one stack of formal tensors over M_d x M_d in the q-generators."""
    return _stacked_images(spec, of_rho=True)


_CHUNK_ROWS = 1 << 14  # rows of a table that one comparison of cov or rho_forms_agree takes


def rho_forms_agree(spec: BlockSpec, rho: FormalTensor) -> bool:
    """Whether every rho(u_(s,x,y),(r,v,w)) of the stack ``rho`` equals its
    conjugated form

        (T^[s]_(x,-y) x T^[r]_(v,-w))(Q^(s,r)/n_s)(T^[s]_(x,-y) x T^[r]_(v,-w))*,

    Q^(s,r) = sum E^(s)_(i,j) x E^(r)_(k,l) x q^(s,r)_(i,j),(k,l).  Q is
    read off the positions of the ones of the d x d matrix units and each
    factor T^[t]_(a,-b) off ``weyl_basis`` placed in slot t, independently
    of the phase table that ``rho`` comes from.  Kronecker
    products are index arithmetic, Ad(A x B) E_(a d + a', b d + b') =
    Ad(A) E_(a,b) x Ad(B) E_(a',b'), so per block pair the n_s^2 n_r^2
    conjugations of Q are one gather, compared with their images
    (``FormalTensor.take``) by one ``FormalTensor.differing``, in chunks of
    about ``_CHUNK_ROWS`` rows."""
    emb, d, qs = BlockEmbedding(spec), spec.d, QautPresentation(spec).generators
    num = _numbering(spec.sizes)
    units, weyl = {}, {}
    for t, n in enumerate(spec.sizes, start=1):
        # (row, col) of the ones of E^(t)_(i,j), over (i, j)
        stride, base = _unit_positions(spec, t)
        i, j = np.divmod(np.arange(n * n), n)
        units[t] = (base + (i * stride)[:, None], base + (j * stride)[:, None])
        # T^[t]_(a,-b) = sum over c of zeta_L^exp[c] E_(perm[c], c), over (a, b) = (i, j)
        weyl[t] = emb.paren_table(t, weyl_basis(n).at(i * n + -j % n))
    for s, ns in enumerate(spec.sizes, start=1):
        for r, nr in enumerate(spec.sizes, start=1):
            us = num.u_numbers(s - 1, r - 1).ravel()  # over (x, y, v, w)
            # Q's rows over (i, j) x (k, l) x (a one of E^(s)_(i,j)) x (a one of E^(r)_(k,l))
            ij, kl, a, b = np.indices((ns * ns, nr * nr, d // ns, d // nr)).reshape(4, -1)
            (rows_s, cols_s), (rows_r, cols_r) = units[s], units[r]
            rs, cs, rr, cr = rows_s[ij, a], cols_s[ij, a], rows_r[kl, b], cols_r[kl, b]
            (Ls, perm_s, exp_s), (Lr, perm_r, exp_r) = weyl[s], weyl[r]
            L = math.lcm(Ls, Lr)
            # Ad(A x B) of Q for the conjugations c = (A = T^[s]_(x,-y)) x (B = T^[r]_(v,-w))
            # of a chunk, over (c, row of Q)
            step = max(1, _CHUNK_ROWS // len(rs))
            for lo in range(0, len(us), step):
                c = np.arange(lo, min(lo + step, len(us)))[:, None]
                A, B = c // (nr * nr), c % (nr * nr)
                forms = FormalTensor(
                    d * d, L, (Fraction(1, ns),) * len(c), qs,
                    np.tile(num.q_first[s - 1, r - 1] + ij * nr * nr + kl, len(c)),
                    (perm_s[A, rs] * d + perm_r[B, rr] + d * d * (c - lo)).ravel(),
                    (perm_s[A, cs] * d + perm_r[B, cr]).ravel(),
                    ((exp_s[A, rs] - exp_s[A, cs]) * (L // Ls)
                     + (exp_r[B, rr] - exp_r[B, cr]) * (L // Lr)).ravel())
                if forms.differing(rho.take(us[lo:lo + len(c)])).any():
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
    the Kronecker product of the entangled projections' tables
    (``BlockEmbedding.phi_table``).  The
    u-symbols of the pair (s, r) occur in pi(q^(s,r)) only, so each block
    pair is one comparison of two tables with one image per u
    (``_shuffle_failure``); a failure names the first u in order."""
    sizes, N, m = spec.sizes, spec.N, spec.m
    pi = pi_map(spec)
    num = _numbering(sizes)
    emb = BlockEmbedding(spec)
    phi = {(t, a, b): emb.phi_table(t + 1, -a, b)  # phi^[t]_(-a,b), blocks from 0
           for t, n in enumerate(sizes) for a in range(n) for b in range(n)}
    # the block pair of each u_(P),(Q), blocks from 0, and its number there over
    # (x, y, v, w); an id per prefactor
    P, Q = np.divmod(np.arange(N * N), N)
    bs, br = num.points[0][P], num.points[0][Q]
    pair, number = bs * m + br, (P - num.point_first[bs]) * num.n[br] ** 2 + Q - num.point_first[br]
    prefactors, pid = np.unique(np.array(pi.prefactors, dtype=object), return_inverse=True)
    for p in range(m * m):
        failed = _shuffle_failure(spec, pi, *divmod(p, m), pair, number, pid, prefactors, phi)
        if failed is not None:
            return {"passed": False, "failed_word": str(SnPresentation(spec).generators[failed]),
                    "partition": list(sizes)}
    return {"passed": True, "partition": list(sizes), "d": spec.d,
            "words_checked": N * N, "shuffle": "(1,2,3,4)->(1,3)(2,4)",
            "rhs_constant": "n_s", "worst_residual": 0.0}


def _shuffle_failure(spec: BlockSpec, pi: FormalTensor, s: int, r: int, pair: np.ndarray,
                     number: np.ndarray, pid: np.ndarray, prefactors: np.ndarray, phi: dict):
    """The generator number of the first u_(s,x,y),(r,v,w), blocks from 0,
    at which the shuffle identity fails, or None.  u-generator g is of the
    block pair pair[g] = s m + r and its number there over (x, y, v, w) is
    number[g]; image b of the stack ``pi`` has the prefactor
    prefactors[pid[b]].  Both sides are one table with one image per u, its
    rows the outer sums of a vector over one factor's rows and one over the
    other's."""
    d = spec.d
    d2 = d * d
    size = d2 * d2
    num, ns, nr = _numbering(spec.sizes), spec.sizes[s], spec.sizes[r]
    # left: per image, its legs' rows (row, col) and its rows of this pair (u, row, col, exp);
    # each u must be reached, by images of one prefactor
    rows = np.flatnonzero(pair[pi.sym] == s * spec.m + r)
    u, image = number[pi.sym[rows]], pi.row[rows] // pi.size
    least, most = np.full(ns * ns * nr * nr, len(prefactors)), np.full(ns * ns * nr * nr, -1)
    np.minimum.at(least, u, pid[image])
    np.maximum.at(most, u, pid[image])
    factors = []
    starts = _starts(image)
    for a, b in zip(starts.tolist(), [*starts[1:].tolist(), len(rows)]):
        s_, r_, i, j, k, l = num.q[:, image[a]].tolist()
        (stride_s, base_s), (stride_r, base_r) = (_unit_positions(spec, s_ + 1),
                                                  _unit_positions(spec, r_ + 1))
        legs_row = ((base_s + i * stride_s)[:, None] * d + base_r + k * stride_r).ravel()
        legs_col = ((base_s + j * stride_s)[:, None] * d + base_r + l * stride_r).ravel()
        mine = rows[a:b]
        factors.append(((_spread(legs_row, d) * d,
                         _spread(pi.row[mine] % pi.size, d) + u[a:b] * size),
                        (_spread(legs_col, d) * d, _spread(pi.col[mine], d)),
                        (np.zeros(len(legs_row), dtype=np.int64), pi.exp[mine])))
    del rows, u, image  # the sums below hold these rows again, times the legs
    bad = least != most
    lhs = FormalTensor(size, pi.order, [0 if b else prefactors[m]
                                        for b, m in zip(bad.tolist(), least.tolist())],
                       ("u",), *_outer_sums(factors))
    # right: every nonzero of phi^[s]_(-x,y) times every one of phi^[r]_(-v,w)
    sides = []
    for t in (s, r):
        n = spec.sizes[t]
        forms = [phi[t, a, b] for a in range(n) for b in range(n)]
        L = math.lcm(*(f[0] for f in forms))
        sides.append((L, [f[1] for f in forms],
                      np.concatenate([np.full(len(f[2]), m) for m, f in enumerate(forms)]),
                      *(np.concatenate([f[c] for f in forms]) for c in (2, 3)),
                      np.concatenate([f[4] * (L // f[0]) for f in forms])))
    (Ls, qs, owner_s, row_s, col_s, exp_s), (Lr, qr, owner_r, row_r, col_r, exp_r) = sides
    L = math.lcm(Ls, Lr)
    rhs = FormalTensor(size, L, [ns * a * b for a in qs for b in qr], ("u",),
                       *_outer_sums([((owner_s * len(qr) * size + row_s * d2,
                                       owner_r * size + row_r),
                                      (col_s * d2, col_r),
                                      (exp_s * (L // Ls), exp_r * (L // Lr)))]))
    bad |= lhs.differing(rhs)
    return int(num.u_numbers(s, r).ravel()[np.argmax(bad)]) if bad.any() else None


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

@dataclass(eq=False)
class Substitution:
    """Index substitution on generator symbols: generator number n of
    ``generators`` goes to zeta_L^exp[n] times generator number target[n]."""

    generators: tuple
    L: int
    target: np.ndarray
    exp: np.ndarray


def alpha(spec: BlockSpec, idx: int, t: int) -> Substitution:
    """The four order-n_t automorphism families on q-generators:
    1: phase w^(i-j) on block s = t;  2: (i,j) -> (i+1,j+1) on s = t;
    3: phase w^(k-l) on block r = t;  4: (k,l) -> (k+1,l+1) on r = t."""
    if not (1 <= t <= spec.m) or idx not in (1, 2, 3, 4):
        raise IndexOutOfRange(f"alpha_{idx},{t}")
    nt, num = spec.sizes[t - 1], _numbering(spec.sizes)
    # the index columns of every generator q^(s,r)_(i,j),(k,l), blocks from 0
    s, r, i, j, k, l = num.q
    exp = np.zeros_like(s)
    if idx == 1:
        exp = np.where(s == t - 1, (i - j) % nt, 0)
    elif idx == 3:
        exp = np.where(r == t - 1, (k - l) % nt, 0)
    elif idx == 2:
        i, j = (np.where(s == t - 1, (a + 1) % nt, a) for a in (i, j))
    else:
        k, l = (np.where(r == t - 1, (a + 1) % nt, a) for a in (k, l))
    return Substitution(QautPresentation(spec).generators, nt, num.q_number(s, r, i, j, k, l),
                        exp)


def beta(spec: BlockSpec, idx: int, t: int) -> Substitution:
    """The four order-n_t shifts on u-generators: x+1 (s=t), y-1 (s=t),
    v+1 (r=t), w-1 (r=t), for idx 1..4 respectively.

    The index targets are the well-typed ones compatible with conjugation by
    the Pauli images of the crossed-product unitaries; the signs are +1 on
    the x/v legs and -1 on the y/w legs.
    """
    if not (1 <= t <= spec.m) or idx not in (1, 2, 3, 4):
        raise IndexOutOfRange(f"beta_{idx},{t}")
    nt, N, num = spec.sizes[t - 1], spec.N, _numbering(spec.sizes)
    # the points (s, x, y), blocks from 0; u_(P),(Q) is generator number
    # P N + Q, and moved[P] is the number of P's image
    s, x, y = num.points
    if idx in (1, 3):
        x = np.where(s == t - 1, (x + 1) % nt, x)
    else:
        y = np.where(s == t - 1, (y - 1) % nt, y)
    moved = num.point_number(s, x, y)
    P, Q = np.divmod(np.arange(N * N), N)
    target = moved[P] * N + Q if idx in (1, 2) else P * N + moved[Q]
    return Substitution(SnPresentation(spec).generators, nt, target,
                        np.zeros(N * N, dtype=np.int64))


# ---------------------------------------------------------------------------
# covariance suite

def _z_tables(spec: BlockSpec) -> dict:
    """{(idx, t): z_idx,t}, the Pauli images in M_d x M_d as phase
    permutations: x_t x 1, z_t x 1, 1 x x_t and 1 x z_t for idx 1..4, x_t
    and z_t the Pauli X and Z of M_(n_t) in slot t of M_d."""
    emb, one = BlockEmbedding(spec), PhasePermutation.identity(spec.d)
    out = {}
    for t, n in enumerate(spec.sizes, start=1):
        weyl = weyl_basis(n)
        x, z = (emb.paren_table(t, weyl.at(k)) for k in ((1 % n) * n, 1 % n))
        out[(1, t)], out[(2, t)] = x.kron(one), z.kron(one)
        out[(3, t)], out[(4, t)] = one.kron(x), one.kron(z)
    return out


def _conjugated(ft: FormalTensor, U: PhasePermutation) -> FormalTensor:
    """Ad(U) of every image of the stack ft: U E_(a,b) U* =
    zeta_L^(exp[a] - exp[b]) E_(perm[a], perm[b])."""
    L, perm, exp = U
    order = math.lcm(ft.order, L)
    row = ft.row % ft.size
    return replace(ft, order=order, row=ft.row - row + perm[row], col=perm[ft.col],
                   exp=ft.exp * (order // ft.order) + (exp[row] - exp[ft.col]) * (order // L))


def _first_not_intertwined(stack: FormalTensor, sub: Substitution, U: PhasePermutation):
    """(g, compared): the first generator g, in ``sub.generators`` order,
    at which c image(g') != Ad(U)(image(g)) for sub(g) = (c, g'), or None,
    and the number of generators compared before it, or all of them;
    image(g) is image n of ``stack`` for g = generators[n].  Both sides are
    formed for chunks of whole images of about ``_CHUNK_ROWS`` rows and
    compared with one ``FormalTensor.differing`` per chunk: the left side
    takes the images g' (``FormalTensor.take``) and adds c's phase, the
    right side conjugates the chunk's own images."""
    target, shift, L = sub.target, sub.exp, sub.L
    order = math.lcm(stack.order, L)
    # the first row of each image, and past the last: its rows follow those before it
    first = np.searchsorted(stack.row, np.arange(len(stack.prefactors) + 1) * stack.size)
    cuts = np.searchsorted(first[1:len(target) + 1],
                           np.arange(_CHUNK_ROWS, first[len(target)], _CHUNK_ROWS))
    bounds = sorted({0, len(target), *cuts.tolist()})
    for lo, hi in zip(bounds, bounds[1:]):
        lhs = stack.take(target[lo:hi])
        lhs = replace(lhs, order=order, exp=lhs.exp * (order // stack.order) + np.repeat(
            shift[lo:hi], np.diff(first)[target[lo:hi]]) * (order // L))
        own = slice(first[lo], first[hi])
        rhs = replace(stack, prefactors=stack.prefactors[lo:hi], sym=stack.sym[own],
                      row=stack.row[own] - lo * stack.size, col=stack.col[own], exp=stack.exp[own])
        bad = lhs.differing(_conjugated(rhs, U))
        if bad.any():
            return sub.generators[lo + int(np.argmax(bad))], lo
    return None, len(target)


def covariance_check(spec: BlockSpec) -> dict:
    """Items (a)-(e): the alpha/beta families are implemented by conjugation
    with the Pauli images of the crossed-product unitaries, the phase tables
    of the extended actions hold, and the z-words L x R span all of
    M_d x M_d.  The z-images are phase permutations (``_z_tables``), and
    (c) compares their products entry by entry.  For (a)/(b) and (d), each
    of the 8m substitutions is checked on every generator at once against
    the stack of pi's or rho's images (``_first_not_intertwined``), and the
    cases count the generators compared; a failure names the first
    generator in ``generators`` order.  For (e), span{L x R} = span(words) x
    span(words), so ``e_span_rank`` is r^2, r the rank of the d^2 words of
    M_d, read off their trace pairing."""
    d = spec.d
    z = _z_tables(spec)
    cert = {"partition": list(spec.sizes), "d": d}
    # (a)/(b): pi intertwines alpha_i,t with Ad(z_i,t)
    pi, cases = pi_map(spec), 0
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sym, compared = _first_not_intertwined(pi, alpha(spec, idx, t), z[(idx, t)])
            if sym is not None:
                cert.update(passed=False, failure=f"alpha{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                return cert
            cases += compared
    cert["a_b_alpha_cases"] = cases
    del pi
    # (c): phase tables and group relations of the z-images
    failure, checks = _z_relation_failure(spec, z)
    if failure is not None:
        cert.update(passed=False, failure=failure)
        return cert
    cert["c_z_relation_checks"] = checks
    # (d): rho intertwines beta_i,t with Ad(z_i,t)
    rho, cases = rho_map(spec), 0
    for idx in (1, 2, 3, 4):
        for t in range(1, spec.m + 1):
            sym, compared = _first_not_intertwined(rho, beta(spec, idx, t), z[(idx, t)])
            if sym is not None:
                cert.update(passed=False, failure=f"beta{idx},{t} vs Ad(z{idx},{t}) at {sym}")
                return cert
            cases += compared
    cert["d_beta_cases"] = cases
    # (e): span{L x R} = span(words) x span(words), so the z-words span
    # M_d x M_d exactly when the d^2 words span M_d: rank r^2 = d^4.  r is the
    # number of lines the words span, when a word of each (the first) is
    # orthogonal to the others, Tr(w_a* w_b) = d delta_ab
    L, perm, exp = words = _z_words(spec)
    first = np.sort(np.unique(np.hstack([perm, (exp - exp[:, :1]) % L]), axis=0,
                              return_index=True)[1])
    off = _off_delta(words.at(first).pairing(words.at(first)), d)
    if off is not None:
        cert.update(passed=False, failure="z-words %d and %d are neither orthogonal nor "
                    "proportional" % tuple(first[list(off)].tolist()))
        return cert
    r = len(first)
    cert.update(e_span_rank=r * r, e_expected=d ** 4, passed=r * r == d ** 4, worst_residual=0.0)
    return cert


def _z_relation_failure(spec: BlockSpec, z: dict):
    """(failure, checks) of item (c) on the z-images ``z``: unitarity,
    z^n = 1, the commutations and the conjugation phases, in order, each
    a comparison of products of phase permutations entry by entry; the
    first failure, or None, and the number of checks passed.  The adjoint
    of a z-image is taken as its inverse, which it is for a unitary one; a
    z-image that is not unitary fails its own check, though a conjugation
    by it may be reached first."""
    checks = 0
    ident = PhasePermutation.identity(spec.d ** 2)
    for t in range(1, spec.m + 1):
        nt = spec.sizes[t - 1]
        for idx in (1, 2, 3, 4):
            zi = z[(idx, t)]
            if not zi.is_unitary():
                return f"z{idx},{t} not unitary", checks
            power = ident
            for _ in range(nt):
                power = power.compose(zi)
            if not power.equals(ident):
                return f"z{idx},{t}^n != 1", checks
            checks += 2
        for tau in range(1, spec.m + 1):
            for (a, b) in [(1, 3), (1, 1), (3, 3), (2, 4), (2, 2), (4, 4)]:
                za, zb = z[(a, t)], z[(b, tau)]
                if not za.compose(zb).equals(zb.compose(za)):
                    return f"[z{a},{t}, z{b},{tau}] != 0", checks
                checks += 1
            for (conjugator, target, phase_applies) in [
                    (2, 1, True), (2, 3, False), (4, 3, True), (4, 1, False)]:
                zc, zt = z[(conjugator, tau)], z[(target, t)]
                conj = zc.compose(zt).compose(zc.adjoint())
                w_tau = spec.sizes[tau - 1]
                if phase_applies and tau == t and w_tau > 1:
                    expected = zt.scaled(w_tau, w_tau - 1)
                else:
                    expected = zt
                if not conj.equals(expected):
                    return f"Ad(z{conjugator},{tau})(z{target},{t}) phase", checks
                checks += 1
    return None, checks


def _z_words(spec: BlockSpec) -> PhasePermutation:
    """The d^2 words x_1^a_1 z_1^b_1 ... x_m^a_m z_m^b_m of M_d, over all
    exponents a_t, b_t < n_t in lexicographic order of (a_1, b_1, ...,
    a_m, b_m): word (a, b) is the Kronecker product of the X^a_t Z^b_t."""
    L, perm, exp = 1, np.zeros((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    for n in spec.sizes:
        weyl = weyl_basis(n)
        # every word so far times every X^a Z^b of the next slot
        words = PhasePermutation(L, perm[:, None], exp[:, None]).kron(
            PhasePermutation(n, weyl.perm[None], weyl.exp[None]))
        L, perm, exp = words.L, *(a.reshape(len(perm) * n * n, -1) for a in words[1:])
    return PhasePermutation(L, perm, exp)


# ---------------------------------------------------------------------------
# trace constants

def haar_compat_check(spec: BlockSpec) -> dict:
    """Substitute the flat value 1/N for every u-generator inside pi(q), in
    one ``substitute_terms`` of the stack of pi's images, and record the
    scalar each value is a multiple of the identity by, read off the
    terms; compare against both candidate generator traces n_s/N and n_r/N
    without asserting either as ground truth.  A substitution that is not
    a scalar multiple of the identity, two diagonal generators of one class
    (s, r) with different constants, and an off-diagonal generator with a
    nonzero constant each fail the fragment."""
    N, gens = spec.N, QautPresentation(spec).generators
    one = np.ones(N * N, dtype=np.int64)
    flat = Terms(len(one), 1, 1, N, np.arange(len(one)), 0 * one, 0 * one, one)
    terms = pi_map(spec).substitute_terms(flat)
    # the power-basis coefficients of every nonzero entry, at its position
    # (generator, row, col), in position order
    n = terms.cols
    key, coef = terms.coefficients()
    gen, row, col = key // (n * n), key // n % n, key % n
    # c times the identity: no entry off the diagonal, and n equal diagonal
    # entries or none
    start = np.searchsorted(gen, np.arange(len(gens) + 1))
    count = np.diff(start)
    uneven = (row != col) | (coef != coef[start[gen]]).any(axis=1)
    scalar = (np.bincount(gen[uneven], minlength=len(gens)) == 0) & ((count == 0) | (count == n))

    def failed(failure: str, **extra) -> dict:
        return {"partition": list(spec.sizes), **extra, "passed": False,
                "worst_residual": 0.0, "failure": failure}

    classes = {}
    for t, (s, r, i, j, k, l) in enumerate(_numbering(spec.sizes).q.T.tolist()):
        if not scalar[t]:
            return failed(f"substitution for {gens[t]} is not scalar", all_scalar=False)
        scal = (Cyclotomic(terms.order, [Fraction(int(x), terms.den) for x in coef[start[t]]])
                if count[t] else Cyclotomic.zero())
        if i == j and k == l:
            prev = classes.setdefault((s + 1, r + 1), scal)
            if prev != scal:
                return failed(f"inconsistent constants in class ({s + 1},{r + 1})")
        elif not scal.is_zero():
            return failed(f"off-diagonal generator {gens[t]} has nonzero constant")
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

def strict_word_check(spec: BlockSpec) -> dict:
    """Local-rewrite verification of pi-images of the quadratic relations
    r1 and r2, their words read off their index plans (``_product_words``):
    u-words collapse by idempotency and row/column annihilation.  Returns
    'verified' per family when all irreducible coefficients cancel and
    'inconclusive' otherwise; no failure is ever concluded from this mode.

    The expansion is quadratic in the N^2-term images, so partitions with
    N > 5 are skipped rather than ground through."""
    if spec.N > 5:
        return {"partition": list(spec.sizes),
                "families": {f: "skipped_desk_scale" for f in ("r1", "r2")},
                "note": "word-level expansion skipped for N > 5"}

    def reduce_pair(a, b):
        """The word u_a u_b after the rewrites, or None when they annihilate it."""
        if a == b:
            return (a,)
        if a[1:4] == b[1:4] or a[4:7] == b[4:7]:
            return None
        return (a, b)

    stack = pi_map(spec)
    pi = [stack.take([t]).sparse() for t in range(len(stack.prefactors))]
    by_row = [{} for _ in pi]
    for t, image in enumerate(pi):
        for (u, row, col), c in image.items():
            by_row[t].setdefault(row, []).append((u, col, c))
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
    for family, plan in zip(("r1", "r2"), _qaut_plans(spec.sizes)):
        status = "verified"
        for terms in _product_words(plan, range(len(pi))):
            acc: dict = {}
            for coeff, word in terms:
                accumulate(acc, coeff, entries(word))
            if acc:
                status = "inconclusive"
                break
        results[family] = status
    return {"partition": list(spec.sizes), "families": results,
            "note": "local rewrites only; 'inconclusive' is not a failure"}
