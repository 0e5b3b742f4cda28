import copy
import functools
import itertools
import math
import operator
import re

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qautcert.algebra import BlockSpec, StructAlgebra, _scalar_products, recognize_blocks
from qautcert.arith import Cyclotomic, root_of_unity
from qautcert.cocycle import (
    CocycleError,
    FinAbGroup,
    GradedAlgebra,
    GradingMismatch,
    GroupCocycle,
    base_cocycle,
    fourier_function_algebra,
    gamma_group,
    normalize_inverse_pairing,
    product_cocycle,
    spec_cocycle,
    twist_left,
    verify_twist_theorem,
)
from qautcert.cocycle import _explicit_weyl_isomorphism, _weyl_coboundary

from builders import (
    add,
    cocycle_table,
    group_algebra,
    inverse_cocycle,
    negative,
    pairing_nondegenerate,
    serialize,
    trivial_cocycle,
)
from mat_reference import explicit_weyl_isomorphism
from sparse_reference import product


def test_pairing_nondegenerate():
    G = FinAbGroup((2, 3))
    assert pairing_nondegenerate(G)
    assert G.pairing((1, 2), (1, 1)) == root_of_unity(2, 1) * root_of_unity(3, 2)


def test_base_cocycle_values():
    w2 = base_cocycle(2)
    assert w2.value((1, 0), (0, 1)) == Cyclotomic.rational(-1)
    assert w2.value((0, 1), (1, 0)).is_one()
    assert base_cocycle(3).value((1, 0), (0, 1)) == root_of_unity(3, 1)


def test_cocycle_identity_verified_on_construction():
    # on Z_3 the normalized table with a single -1 fails the triple identity
    G = FinAbGroup((3,))
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[1, 1] = 1  # sigma((1,), (1,)) = zeta_2 = -1
    with pytest.raises(CocycleError):
        GroupCocycle(G, bad, 2)


def test_cocycle_identity_checked_on_every_triple_at_order_81():
    # one value of the (3,3) cocycle on (Z_3)^4 times zeta_3 breaks a few
    # hundred of the 531441 triples
    sigma = spec_cocycle(BlockSpec((3, 3)))
    pos = sigma.group.position_map()
    E = sigma.E.copy()
    assert sigma.L % 3 == 0
    E[pos[(0, 0, 0, 1)], pos[(1, 1, 1, 1)]] += sigma.L // 3  # the value times zeta_3
    with pytest.raises(CocycleError, match=re.escape(
            "cocycle identity fails at ((0, 0, 0, 1),(0, 0, 0, 1),(1, 1, 1, 0))")):
        GroupCocycle(sigma.group, E, sigma.L)


def test_unnormalized_table_rejected():
    G = FinAbGroup((2,))
    bad = np.zeros((2, 2), dtype=np.int64)
    bad[0, 1] = 1  # sigma((0,), (1,)) = zeta_2 = -1
    with pytest.raises(CocycleError):
        GroupCocycle(G, bad, 2)


def test_normalization_trivializes_inverse_pairing():
    for n in (2, 3, 4):
        om = normalize_inverse_pairing(base_cocycle(n))
        assert om.inverse_pairing_trivial()
        om.verify()  # still a cocycle, exhaustively


def test_normalization_of_trivial_cocycle_is_identity():
    triv = trivial_cocycle(FinAbGroup((2, 2)))
    out = normalize_inverse_pairing(triv)
    assert all(v.is_one() for v in cocycle_table(out).values())
    assert all(v.is_one() for v in out.psi.values())


def test_normalized_cocycle_is_cohomologous_via_recorded_psi():
    for n in (2, 3):
        base = base_cocycle(n)
        om = normalize_inverse_pairing(base)
        G = om.group
        for g in G.elements():
            for h in G.elements():
                quotient = om.value(g, h) / base.value(g, h)
                coboundary = om.psi[g] * om.psi[h] / om.psi[add(G, g, h)]
                assert quotient == coboundary


def test_product_cocycle_2_1():
    parts = [normalize_inverse_pairing(base_cocycle(2)),
             normalize_inverse_pairing(base_cocycle(1))]
    prod = product_cocycle(parts)
    assert prod.group.order == 4
    assert prod.inverse_pairing_trivial()
    # all values are fourth roots of unity
    for v in cocycle_table(prod).values():
        assert (v ** 4).is_one()


def test_product_cocycle_single_part_is_identity_operation():
    om = normalize_inverse_pairing(base_cocycle(2))
    prod = product_cocycle([om])
    assert cocycle_table(prod) == cocycle_table(om)


def test_product_cocycle_2_2_exhaustive():
    prod = spec_cocycle(BlockSpec((2, 2)))
    assert prod.group.order == 16
    prod.verify()  # 16^3 triples, exact


def test_twist_by_trivial_cocycle_is_identity():
    graded = fourier_function_algebra(BlockSpec((2,)))
    triv = trivial_cocycle(graded.group)
    twisted, record = twist_left(graded, triv)
    assert record["involution_scalars_all_one"]
    A = graded.algebra
    assert all(product(twisted, i, j) == product(A, i, j)
               for i in range(A.dim) for j in range(A.dim))


def test_twist_group_algebra_of_z2z2_gives_m2():
    graded = group_algebra(FinAbGroup((2, 2)))
    om = normalize_inverse_pairing(base_cocycle(2))
    twisted, _ = twist_left(graded, om)
    from qautcert.algebra import center

    assert center(twisted).rows == 1
    assert recognize_blocks(twisted).sizes == (2,)


def test_twist_function_algebra_spec2_gives_m2():
    graded = fourier_function_algebra(BlockSpec((2,)))
    twisted, _ = twist_left(graded, spec_cocycle(BlockSpec((2,))))
    assert recognize_blocks(twisted).sizes == (2,)


def test_twist_then_inverse_twist_restores_structure_constants():
    graded = fourier_function_algebra(BlockSpec((2, 1)))
    sigma = spec_cocycle(BlockSpec((2, 1)))
    twisted, _ = twist_left(graded, sigma)
    back, _ = twist_left(GradedAlgebra(twisted, graded.group, graded.degrees),
                         inverse_cocycle(sigma))
    A = graded.algebra
    for i in range(A.dim):
        for j in range(A.dim):
            assert product(back, i, j) == product(A, i, j)


def test_grading_mismatch_rejected():
    graded = fourier_function_algebra(BlockSpec((2,)))
    wrong = normalize_inverse_pairing(base_cocycle(3))
    with pytest.raises(GradingMismatch):
        twist_left(graded, wrong)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_explicit_weyl_isomorphism_is_the_dense_reference(n):
    """Every coboundary scalar, times -1 and times zeta_n, fails at the
    reference's first failing product or star; unperturbed, both verify."""
    # the base cocycle is not normalized: there sigma(-g, g) enters the stars
    for sigma in (base_cocycle(n), spec_cocycle(BlockSpec((n,)))):
        c = _weyl_coboundary(sigma)
        cert = _explicit_weyl_isomorphism(sigma, c)
        assert cert["verified"] and cert == explicit_weyl_isomorphism(sigma, c)
        assert (cert["products_checked"], cert["star_checked"]) == (n ** 4, n ** 2)
    for g in c:
        for factor in (-1, root_of_unity(max(n, 3), 1)):
            bent = {**c, g: c[g] * factor}
            cert = _explicit_weyl_isomorphism(sigma, bent)
            assert not cert["verified"] and cert == explicit_weyl_isomorphism(sigma, bent), (g, factor)
    # one sigma(-g, g) advanced: the star of g fails, or first the product
    # (-g, g) when -g comes first, as it always does for n <= 2, where -g = g
    neg, seen = sigma.group.negation(), set()
    for a in range(len(c)):
        bent = copy.copy(sigma)
        bent.E, bent.W = sigma.E.copy(), np.full_like(sigma.E, sigma.L)
        bent.E[neg[a], a] = (bent.E[neg[a], a] + 1) % sigma.L
        cert = _explicit_weyl_isomorphism(bent, c)
        assert not cert["verified"] and cert == explicit_weyl_isomorphism(bent, c), a
        seen.add(cert["failed_at"][0] == "star")
    assert seen == ({False, True} if n > 2 else {False})


def test_twist_theorem_examples():
    cert = verify_twist_theorem(BlockSpec((2,)))
    assert cert["passed"] and cert["recognized_blocks"] == [2]
    assert cert["explicit_isomorphism"]["verified"]
    cert = verify_twist_theorem(BlockSpec((1, 1, 1, 1)))
    assert cert["passed"] and cert["recognized_blocks"] == [1, 1, 1, 1]
    cert = verify_twist_theorem(BlockSpec((2, 2)))
    assert cert["passed"] and cert["recognized_blocks"] == [2, 2]


def test_twist_theorem_all_partitions_up_to_10():
    def partitions(limit):
        out = set()

        def rec(prefix, remaining, max_part):
            if prefix:
                out.add(tuple(sorted(prefix)))
            for n in range(max_part, 0, -1):
                if n * n <= remaining:
                    rec(prefix + [n], remaining - n * n, n)

        rec([], limit, 3)
        return out

    for sizes in sorted(partitions(10)):
        cert = verify_twist_theorem(BlockSpec(sizes))
        assert cert["passed"], (sizes, cert)
        assert cert["recognized_blocks"] == sorted(sizes)


def test_twist_theorem_float_backend():
    from qautcert.cli import SuiteConfig, run

    frags = [run(SuiteConfig(partition=(2, 2), backend=backend,
                             suites=("twist",)))["suites"]["twist"]
             for backend in ("exact", "float")]
    assert frags[0]["passed"] and frags[0]["backend"] == "exact"
    assert frags[1] == frags[0]


def test_gamma_group_factors():
    G = gamma_group(BlockSpec((2, 3)))
    assert G.factors == (2, 2, 3, 3)
    assert G.order == 36


# -- reference: cocycles as dicts of Cyclotomic values ---------------------------

def reference_base(n):
    G = FinAbGroup((n, n))
    return G, {(g, h): root_of_unity(n, g[0] * h[1]) if n > 1 else Cyclotomic.one()
               for g in G.elements() for h in G.elements()}


def reference_normalize(G, table):
    """``normalize_inverse_pairing`` on a dict table: psi(h) = zeta_2M^-k for
    sigma(h, h^-1) = zeta_M^k, k found by search, on the first element of
    each pair {h, h^-1}; returns the table and psi."""
    psi = {G.identity: Cyclotomic.one()}
    for g in sorted(G.elements()):
        if g not in psi:
            val = table[(g, negative(G, g))]
            k = next(k for k in range(val.order) if val == root_of_unity(val.order, k))
            psi[g] = root_of_unity(2 * val.order, -k)
            psi.setdefault(negative(G, g), psi[g])
    els = G.elements()
    return {(g, h): table[(g, h)] * psi[g] * psi[h] / psi[add(G, g, h)]
            for g in els for h in els}, psi


def reference_product(parts):
    """``product_cocycle`` on (group, table, psi) parts: every value is the
    product of the parts' values, from Cyclotomic.one()."""
    G = FinAbGroup(tuple(f for p, _, _ in parts for f in p.factors))
    cuts = list(itertools.accumulate([len(p.factors) for p, _, _ in parts], initial=0))

    def split(g):
        return [g[a:b] for a, b in zip(cuts, cuts[1:])]

    def product(values):
        return functools.reduce(operator.mul, values, Cyclotomic.one())

    els = G.elements()
    table = {(g, h): product(t[(x, y)] for (_, t, _), x, y in zip(parts, split(g), split(h)))
             for g in els for h in els}
    psi = {g: product(q[x] for (_, _, q), x in zip(parts, split(g))) for g in els}
    return G, table, psi


def reference_spec_cocycle(sizes):
    return reference_product([(G, *reference_normalize(G, t)) for G, t in map(reference_base, sizes)])


def reference_twist_left(graded, table):
    """``twist_left`` reading the dict table; returns the twisted algebra and
    the involution scalars."""
    A, G = graded.algebra, graded.group
    els, deg = G.elements(), graded.positions()
    values = [table[(g, h)] for g in els for h in els]
    products, s = _scalar_products(A.scalars, A.s, values, deg[:, None] * len(els) + deg)
    scalars = [table[(negative(G, d), d)].conjugate() for d in graded.degrees]
    stars, star_s = _scalar_products(A.scalars, A.star_s, scalars, np.arange(A.dim))
    return StructAlgebra(A.dim, A.labels, k=A.k, s=s, scalars=products + stars,
                         star_k=A.star_k, star_s=star_s + len(products),
                         unit=A.unit, trace=A.trace), scalars


def written(values):
    """Each value as the (order, coefficients) it is written with, which its
    repr and its complex value follow."""
    if isinstance(values, dict):
        return {key: written(v) for key, v in values.items()}
    return values.order, values.coeffs


REFERENCE_SIZES = [(2,), (3,), (2, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("sizes", REFERENCE_SIZES)
def test_spec_cocycle_is_written_as_the_dict_reference(sizes):
    G, table, psi = reference_spec_cocycle(sizes)
    sigma = spec_cocycle(BlockSpec(sizes))
    assert sigma.group == G
    assert written(cocycle_table(sigma)) == written(table)
    assert written(sigma.psi) == written(psi)
    for n in sizes:
        om = normalize_inverse_pairing(base_cocycle(n))
        table, psi = reference_normalize(*reference_base(n))
        assert written(cocycle_table(om)) == written(table) and written(om.psi) == written(psi)


@pytest.mark.parametrize("sizes", REFERENCE_SIZES)
def test_twist_left_is_written_as_the_dict_reference(sizes):
    graded = fourier_function_algebra(BlockSpec(sizes))
    ref, ref_scalars = reference_twist_left(graded, reference_spec_cocycle(sizes)[1])
    twisted, record = twist_left(graded, spec_cocycle(BlockSpec(sizes)))
    assert serialize(twisted) == serialize(ref)
    assert [written(c) for c in record["involution_scalars"]] == [written(c) for c in ref_scalars]


def lexicographic_cocycle_failure(sigma_group, E, L):
    """The message of the cocycle check that scans every triple one g at a
    time, or None: the check Light's test replaces."""
    els, add = sigma_group.elements(), sigma_group.addition_table()
    bad = (E[0] != 0) | (E[:, 0] != 0)
    if bad.any():
        return f"cocycle not normalized at {els[np.argmax(bad)]}"
    for g in range(len(els)):
        bad = (E[g][:, None] + E[add[g]] - E - E[g][add]) % L != 0
        if bad.any():
            h, k = np.argwhere(bad)[0].tolist()
            return f"cocycle identity fails at ({els[g]},{els[h]},{els[k]})"
    return None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (3, 3)]), st.data())
def test_cocycle_check_agrees_with_the_lexicographic_scan(sizes, data):
    sigma = spec_cocycle(BlockSpec(sizes))
    G, E = sigma.group.order, sigma.E.copy()
    a, b = (data.draw(st.integers(0, G - 1)) for _ in range(2))
    E[a, b] = (E[a, b] + data.draw(st.integers(1, sigma.L - 1))) % sigma.L
    expected = lexicographic_cocycle_failure(sigma.group, E, sigma.L)
    try:
        GroupCocycle(sigma.group, E, sigma.L)
        got = None
    except CocycleError as exc:
        got = str(exc)
    assert got == expected


def test_cocycle_check_passes_products_of_many_factors():
    # the unit vectors of the factors generate; a group of one element has none
    for factors in [(), (1,), (1, 3), (2, 1, 2)]:
        GroupCocycle(FinAbGroup(factors), np.zeros((math.prod(factors),) * 2), 1)
    sigma = product_cocycle([base_cocycle(2), base_cocycle(3), trivial_cocycle(FinAbGroup((1, 2)))])
    assert lexicographic_cocycle_failure(sigma.group, sigma.E, sigma.L) is None


@pytest.mark.parametrize("factors", [(2,) * 10, (3, 4, 2), (1,)])
def test_negation_is_the_zero_of_each_addition_table_row(factors):
    G = FinAbGroup(factors)
    expected = np.argmin(G.addition_table(), axis=1)  # the one b with g_a + g_b = 0
    assert np.array_equal(G.negation(), expected)
