"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its stated tolerance and time budget."""

import json
import time

import pytest

from qautcert.algebra import BlockSpec, MonomialMap, multimatrix
from qautcert.arith import Cyclotomic, Mat
from qautcert.cli import SuiteConfig, certificate_json, run
from qautcert.cocycle import FinAbGroup, fourier_function_algebra, spec_cocycle, verify_twist_theorem
from qautcert.crossed import (
    GroupAction,
    conjugation_lemma_check,
    inner_action,
    takesaki_takai_check,
    translation_action,
)
from qautcert.pauli import depolarization_check, is_unitary_error_basis, weyl_basis
from qautcert.qaut import (
    GeneratorAssignment,
    QautPresentation,
    SnPresentation,
    block_preserving_permutations,
    check_relations,
    classical_assignment_aut,
    classical_theta_battery,
    covariance_check,
    haar_compat_check,
    permutation_assignment,
    pi_map,
    rearranged_Q_check,
    rho_forms_agree,
    rho_map,
    uet_pvm,
)


def report(num, ok, detail=""):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.perf_counter()

    @property
    def elapsed(self):
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, f"over budget: {self.elapsed:.1f}s"


def test_criterion_1_ueb_suite():
    budget = Budget(5.0)
    for n in range(1, 7):
        wb = weyl_basis(n)
        rep = is_unitary_error_basis(wb.family, n)
        assert rep.ok and rep.worst_residual == 0.0, n
        for a in range(n):
            for b in range(n):
                unit = Mat.exact([[1 if (p, q) == (a, b) else 0 for q in range(n)]
                                  for p in range(n)])
                drep = depolarization_check(wb.family, unit)
                assert drep.ok and drep.worst_residual == 0.0, (n, a, b)
    budget.check()
    report(1, True, f"weyl 1..6 exact, zero residual, {budget.elapsed:.1f}s")


def test_criterion_2_twist_theorem():
    budget = Budget(60.0)
    for sizes in [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1)]:
        cert = verify_twist_theorem(BlockSpec(sizes))
        assert cert["passed"], (sizes, cert)
        assert cert["recognized_blocks"] == sorted(sizes)
    twist = [run(SuiteConfig(partition=(2, 2), backend=backend,
                             suites=("twist",)))["suites"]["twist"]
             for backend in ("exact", "float")]
    assert twist[1] == twist[0]
    budget.check()
    report(2, True, f"blocks recognized for all five partitions, {budget.elapsed:.1f}s")


def test_criterion_3_conjugation_lemma():
    budget = Budget(60.0)
    for sizes in [(2,), (3,), (2, 2)]:  # (Z_2)^2, (Z_3)^2, (Z_2)^2 x (Z_2)^2
        spec = BlockSpec(sizes)
        cert = conjugation_lemma_check(fourier_function_algebra(spec), spec_cocycle(spec))
        assert cert["passed"] and cert["worst_residual"] == 0.0, sizes
    budget.check()
    report(3, True, f"exact coefficient equality, zero residual, {budget.elapsed:.1f}s")


def test_criterion_4_takesaki_takai():
    budget = Budget(60.0)
    one = Cyclotomic.one()
    acts = []
    C1 = multimatrix(BlockSpec((1,)))
    acts.append(GroupAction(FinAbGroup((2,)), C1, {(0,): MonomialMap([0]), (1,): MonomialMap([0])}))
    acts.append(translation_action(BlockSpec((2,)))[0])
    M2 = multimatrix(BlockSpec((2,)))
    acts.append(inner_action(FinAbGroup((2,)), M2,
                             [one, Cyclotomic.zero(), Cyclotomic.zero(),
                              Cyclotomic.rational(-1)]))
    expected = [[2], [4, 4, 4, 4], [4]]
    for act, blocks in zip(acts, expected):
        out = takesaki_takai_check(act)
        assert out["passed"], out
        assert out["double_crossed_blocks"] == blocks
        assert out["tensor_oracle_blocks"] == blocks
    budget.check()
    report(4, True, f"three instances match the tensor oracle, {budget.elapsed:.1f}s")


def test_criterion_5_pvm_representation():
    budget = Budget(30.0)
    for sizes in [(2,), (3,), (2, 1), (2, 2), (2, 1, 1)]:
        cert = uet_pvm(BlockSpec(sizes))
        assert cert["passed"], (sizes, cert)
        assert cert["outcomes"] == BlockSpec(sizes).N
        assert cert["worst_residual"] == 0.0
    budget.check()
    report(5, True, f"all five PVM conditions exact for N <= 13, {budget.elapsed:.1f}s")


def test_criterion_6_homomorphism_batteries():
    budget = Budget(120.0)
    for sizes in [(2,), (2, 1), (3,)]:
        spec = BlockSpec(sizes)
        pi = pi_map(spec)
        qpres = QautPresentation(spec)
        perms = block_preserving_permutations(spec, 20, seed=42)
        assert len(perms) >= 20
        for perm in perms:
            uasg = permutation_assignment(spec, perm)
            qvals = {sym: ft.substitute(uasg.values) for sym, ft in pi.items()}
            rep = check_relations(GeneratorAssignment(qpres, qvals))
            assert rep.ok and rep.worst_residual == 0.0, (sizes, rep.failing)
        rho = rho_map(spec)
        assert rho_forms_agree(spec, rho)
        upres = SnPresentation(spec)
        battery = classical_theta_battery(spec, 10, seed=42)
        assert len(battery) >= 10
        assert any(entry[0] == "ad_weyl" for entry in battery)
        for entry in battery:
            qasg = classical_assignment_aut(spec, [entry[-1]])
            uvals = {sym: ft.substitute(qasg.values) for sym, ft in rho.items()}
            rep = check_relations(GeneratorAssignment(upres, uvals))
            assert rep.ok and rep.worst_residual == 0.0, (sizes, entry[0])
    budget.check()
    report(6, True, f"20 permutations and 10 automorphisms per partition, "
                    f"{budget.elapsed:.1f}s")


def test_criterion_7_shuffle_identity():
    budget = Budget(30.0)
    for sizes in [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1)]:  # all d <= 4
        cert = rearranged_Q_check(BlockSpec(sizes))
        assert cert["passed"] and cert["worst_residual"] == 0.0, sizes
    budget.check()
    report(7, True, f"exact equality for every d <= 4 partition, {budget.elapsed:.1f}s")


def test_criterion_8_covariance_suite():
    budget = Budget(120.0)
    for sizes in [(2,), (2, 1), (2, 2), (3,)]:
        spec = BlockSpec(sizes)
        cert = covariance_check(spec)
        assert cert["passed"], (sizes, cert)
        assert cert["e_span_rank"] == spec.d ** 4
    budget.check()
    report(8, True, f"items (a)-(d) exact and rank d^4, {budget.elapsed:.1f}s")


def test_criterion_9_haar_constants():
    budget = Budget(60.0)
    for sizes in [(2,), (2, 1)]:
        cert = haar_compat_check(BlockSpec(sizes))
        assert cert["passed"], sizes  # scalar outputs on every class
        for rec in cert["records"]:
            assert rec["matches"], rec  # which candidate matches is recorded
        assert cert["agreement"]
    budget.check()
    report(9, True, "scalar constants recorded; substitution matches n_s/N "
                    "(both candidates when n_s = n_r)")


def test_criterion_10_determinism():
    cfg = SuiteConfig(partition=(2,), seed=42)
    a = run(cfg)
    b = run(cfg)
    a.pop("timings")
    b.pop("timings")
    ok = certificate_json(a) == certificate_json(b)
    report(10, ok, "byte-identical non-timing certificate sections")
