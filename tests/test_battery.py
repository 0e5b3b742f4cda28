"""The homs batteries checked as direct sums of their cases, against the
loop that checks one case at a time."""

from fractions import Fraction

import numpy as np
import pytest

import qautcert.cli as cli
import qautcert.relations as relations
from qautcert.algebra import BlockSpec, MonomialMap
from qautcert.arith import Cyclotomic, Mat, root_of_unity
from qautcert.cli import SuiteConfig, ft_to_float, run
from qautcert.qaut import (
    GeneratorAssignment,
    IncompleteAssignment,
    QautPresentation,
    RelationReport,
    SnPresentation,
    battery_groups,
    block_preserving_permutations,
    check_relations,
    classical_assignment_aut,
    classical_theta_battery,
    direct_sum_assignment,
    image_stack,
    permutation_assignment,
    pi_map,
    theta_ad_unitary,
)

STANDARD = [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1)]


def reference_homs(cfg):
    """The homs suite checking each battery case on its own: one
    substitution and one check_relations per case.  It reads the batteries
    and maps through ``cli``, so that a test's patches reach both."""
    spec = cfg.spec
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    perms = cli.block_preserving_permutations(spec, 20, seed=cfg.seed)
    tagged = [("block", p) for p in perms]
    tagged += [("any", p) for p in cli.arbitrary_permutations(spec, 3, seed=cfg.seed)]
    worst = 0.0

    def battery_failure(presentation, images, cases, key, record):
        nonlocal worst
        if cfg.backend == "float":
            images = ft_to_float(images)
        for label, line, assignment in cases:
            subst = GeneratorAssignment(presentation, images.substitute_terms(assignment.stack))
            rep = check_relations(subst, cfg.tol)
            worst = max(worst, rep.worst_residual)
            record.append(line)
            if not rep.ok:
                return {"passed": False, "failure": f"{label}: {rep.failing}",
                        "worst_residual": worst, key: record}
        return None

    def pi_cases():
        for mode, perm in tagged:
            yield ("pi battery",
                   f"{mode}:" + ",".join(f"{k}->{v}" for k, v in sorted(perm.items())),
                   permutation_assignment(spec, perm))
        yield ("pi direct sum", "direct_sum:first-two-block-preserving",
               direct_sum_assignment(spec, perms[:2]))

    battery_record = []
    failure = battery_failure(qpres, image_stack(cli.pi_map(spec), qpres, upres), pi_cases(),
                              "pi_battery", battery_record)
    if failure:
        return failure
    rho = cli.rho_map(spec)
    if not cli.rho_forms_agree(spec, rho):
        return {"passed": False, "failure": "rho displayed forms disagree",
                "worst_residual": worst}
    battery = cli.classical_theta_battery(spec, 10, seed=cfg.seed)
    theta_cases = (("rho battery", str(entry[:-1]), classical_assignment_aut(spec, [entry[-1]]))
                   for entry in battery)
    theta_record = []
    failure = battery_failure(upres, image_stack(rho, upres, qpres), theta_cases,
                              "theta_battery", theta_record)
    if failure:
        return failure
    return {"passed": True, "worst_residual": worst,
            "pi_permutations": len(perms), "rho_automorphisms": len(battery),
            "rho_forms_agree": True,
            "pi_battery": battery_record, "theta_battery": theta_record}


def homs_fragments(monkeypatch, partition, backend):
    """(grouped, reference) homs fragments, each from ``cli.run``."""
    cfg = SuiteConfig(partition=partition, backend=backend, suites=("homs",))
    grouped = run(cfg)["suites"]["homs"]
    monkeypatch.setitem(cli._SUITES, "homs", reference_homs)
    reference = run(cfg)["suites"]["homs"]
    monkeypatch.setitem(cli._SUITES, "homs", cli._suite_homs)
    return grouped, reference


def assert_same_fragment(grouped, reference, backend):
    if backend == "float" and "worst_residual" in reference:
        # a float entry may sum its terms in another order
        assert grouped.pop("worst_residual") == pytest.approx(reference.pop("worst_residual"),
                                                              rel=0, abs=1e-15)
    assert grouped == reference


def counted_checks(monkeypatch):
    """The number of cases of each assignment ``cli`` checks, in order."""
    sizes = []

    def counting(asg, tol=1e-9):
        sizes.append(int(asg.cases.max()) + 1)
        return check_relations(asg, tol)

    monkeypatch.setattr(cli, "check_relations", counting)
    return sizes


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("partition", STANDARD)
@pytest.mark.parametrize("limit", [0, 1500])
def test_grouped_batteries_give_the_per_case_fragment(partition, backend, limit, monkeypatch):
    monkeypatch.setattr(relations, "_GROUP_TERMS", limit)
    checks = counted_checks(monkeypatch)
    grouped, reference = homs_fragments(monkeypatch, partition, backend)
    assert grouped["passed"] and reference["passed"]
    assert_same_fragment(grouped, reference, backend)
    # the groups hold the 24 pi and 10 theta cases
    assert sum(checks) == 34
    assert len(checks) == 34 if limit == 0 else len(checks) < 34


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_failing_case_inside_a_later_group(backend, monkeypatch):
    spec = BlockSpec((2, 1))
    real = cli.block_preserving_permutations
    pts = SnPresentation(spec).points

    def with_a_bad_point(spec, count, seed):
        perms = real(spec, count, seed)
        perms[7] = {**perms[7], pts[1]: perms[7][pts[0]]}  # not injective
        return perms

    monkeypatch.setattr(cli, "block_preserving_permutations", with_a_bad_point)
    # every pi case of (2, 1) substitutes 68 terms: groups of 3 cases
    monkeypatch.setattr(relations, "_GROUP_TERMS", 210)
    checks = counted_checks(monkeypatch)
    grouped, reference = homs_fragments(monkeypatch, (2, 1), backend)
    assert not grouped["passed"]
    assert grouped["failure"].startswith("pi battery: ")
    assert len(grouped["pi_battery"]) == 8
    assert checks[:3] == [3, 3, 3]  # the third group holds case 7
    assert_same_fragment(grouped, reference, backend)


@pytest.mark.parametrize("bad, scalars", [("multiplicative", [1, -1, 1, 1]),
                                          ("*-compatible", [1, Fraction(1, 2), 2, 1])])
def test_a_theta_that_fails_verification_mid_battery(bad, scalars, monkeypatch):
    spec = BlockSpec((2,))
    real = cli.classical_theta_battery
    theta = MonomialMap(range(4), scalars)

    def with_a_bad_theta(spec, count, seed):
        battery = real(spec, count, seed)
        battery[5] = (*battery[5][:-1], theta)
        return battery

    monkeypatch.setattr(cli, "classical_theta_battery", with_a_bad_theta)
    # every theta case of (2,) substitutes 64 terms: the sixth is in the
    # second group of 3
    monkeypatch.setattr(relations, "_GROUP_TERMS", 200)
    grouped, reference = homs_fragments(monkeypatch, (2,), "exact")
    assert grouped == reference
    assert grouped["error"] == f"NotAutomorphismB: theta is not {bad}"


def test_the_report_names_the_first_failing_case():
    spec = BlockSpec((2, 1))
    perms = block_preserving_permutations(spec, 3, seed=2)
    pts = SnPresentation(spec).points
    bad = {**perms[1], pts[1]: perms[1][pts[0]]}
    points = [perms[0], bad, perms[2], bad]
    rep = check_relations(direct_sum_assignment(spec, points, [0, 1, 1, 2]))
    alone = check_relations(direct_sum_assignment(spec, [bad, perms[2]]))
    first = check_relations(direct_sum_assignment(spec, points[:1]))
    assert not rep.ok and rep.failing_case == 1
    assert rep.failing == alone.failing
    assert rep.checked == first.checked + alone.checked
    assert rep.worst_residual == max(first.worst_residual, alone.worst_residual)
    assert (alone.failing_case, first.failing_case) == (0, None)
    whole = check_relations(direct_sum_assignment(spec, perms, [0, 1, 2]))
    assert whole == RelationReport(True, 0.0, None, 3 * first.checked)


def test_values_across_cases_are_refused():
    spec = BlockSpec((2,))
    perms = block_preserving_permutations(spec, 2, seed=1)
    dsum = direct_sum_assignment(spec, perms)
    stack = dsum.stack.dense()
    assert check_relations(GeneratorAssignment(dsum.presentation, stack, [0, 1])).ok
    stack = stack.to_float()
    stack[0, 1] = 1.0  # an entry of generator 0 between summands 0 and 1
    with pytest.raises(IncompleteAssignment, match="block-diagonal"):
        check_relations(GeneratorAssignment(dsum.presentation, stack, [0, 1]))
    with pytest.raises(IncompleteAssignment, match="case numbers"):
        GeneratorAssignment(dsum.presentation, stack, [0, 1, 2])


@pytest.mark.parametrize("limit", [0, 100, 300, 10**6])
def test_groups_are_consecutive_cases_within_the_limit(limit, monkeypatch):
    monkeypatch.setattr(relations, "_GROUP_TERMS", limit)
    spec = BlockSpec((2, 1))
    qpres, upres = QautPresentation(spec), SnPresentation(spec)
    images = image_stack(pi_map(spec), qpres, upres)
    perms = block_preserving_permutations(spec, 6, seed=3)
    cases = [0, 1, 1, 2, 3, 3, 3, 4]
    asg = direct_sum_assignment(spec, perms + perms[:2], cases)
    seen = []
    for first, group in battery_groups(images, qpres, asg):
        n = int(group.cases.max()) + 1
        assert first == len(seen) and group.presentation is qpres
        assert n == 1 or len(group.terms.row) <= limit
        seen += range(first, first + n)
        # each case of the group is its cases' points, substituted
        for c in range(n):
            points = [p for p, x in zip(perms + perms[:2], cases) if x == first + c]
            want = GeneratorAssignment(qpres, images.substitute_terms(
                direct_sum_assignment(spec, points).stack))
            mine = np.flatnonzero(group.cases == c)
            block = [t * group.size + i for t in range(len(qpres.generators)) for i in mine]
            got = group.stack.dense().select(block, mine)
            assert got.equals(want.stack.dense())
    assert seen == list(range(5))


@pytest.mark.parametrize("sizes", [(2,), (3,), (2, 1), (2, 2)])
def test_theta_batteries_are_direct_sums_of_their_points(sizes):
    spec = BlockSpec(sizes)
    thetas = [entry[-1] for entry in classical_theta_battery(spec, 10, seed=5)]
    asg = classical_assignment_aut(spec, thetas)
    assert asg.size == len(thetas) and list(asg.cases) == list(range(len(thetas)))
    G = len(asg.presentation.generators)
    stack = asg.stack.dense()
    for a, theta in enumerate(thetas):
        alone = classical_assignment_aut(spec, [theta]).stack.dense()
        summand = stack.select([t * len(thetas) + a for t in range(G)], [a])
        assert summand.equals(alone)
        off = stack.select([t * len(thetas) + a for t in range(G)],
                               [b for b in range(len(thetas)) if b != a])
        assert off.is_zero()


@pytest.mark.parametrize("sizes, diagonal", [
    ((2,), [1, -1]),                                      # -1 at order 1
    ((3,), [root_of_unity(3, 1), -1, 1]),                 # -zeta_3 = zeta_6^5, order 3
    ((2, 1), [root_of_unity(4, 1), root_of_unity(4, 2)]),
])
def test_theta_values_are_their_scalars(sizes, diagonal):
    spec = BlockSpec(sizes)
    n = spec.sizes[0]
    U = Mat.exact([[diagonal[a] if a == b else 0 for b in range(n)] for a in range(n)])
    theta = theta_ad_unitary(spec, 1, U)
    values = classical_assignment_aut(spec, [theta]).values
    index = {p: x for x, p in enumerate(SnPresentation(spec).points)}
    for sym, value in values.items():
        _, s, r, i, j, k, l = sym
        src = index[(s, i, j)]
        want = theta.scalars[src] if theta.k[src] == index[(r, k, l)] else Cyclotomic.zero()
        assert value.entry(0, 0) == want, sym
