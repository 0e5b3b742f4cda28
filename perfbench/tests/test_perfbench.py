"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import certcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_jobs(workload):
    assert workloads.jobs(workload, 42) == workloads.jobs(workload, 42)
    other = workloads.jobs(workload, 7)
    assert [j.seed for j in other] == [7] * len(other)
    assert [(j.partition, j.suites) for j in other] == \
        [(j.partition, j.suites) for j in workloads.jobs(workload, 42)]
    for job in other:
        assert job.config().seed == 7


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workloads.jobs("no-such-workload", 42)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_suite_names_match_cli():
    from qautcert.cli import SUITE_NAMES

    assert run.SUITE_NAMES == SUITE_NAMES


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_references_match_themselves(workload):
    for job in workloads.jobs(workload, workloads.DEFAULT_SEED):
        ref = certcheck.load_ref(workload, job.job_id)
        assert certcheck.failed_suites(ref, [(ref, True), (ref, False)]) == set()


def test_flipped_passed_is_rejected():
    ref = certcheck.load_ref("exact-qaut", "2-2")
    cert = copy.deepcopy(ref)
    cert["suites"]["homs"]["passed"] = False
    assert certcheck.failed_suites(cert, [(ref, False)]) == {"homs"}
    # the flip is caught by the reference comparison alone, too
    assert certcheck.mismatched_suites(cert, ref) == {"homs"}


def test_float_residual_within_tol_accepted_above_rejected():
    ref = certcheck.load_ref("float-qaut", "3")
    tol = ref["config"]["tol"]
    cert = copy.deepcopy(ref)
    cert["suites"]["cov"]["worst_residual"] = tol / 2
    assert certcheck.mismatched_suites(cert, ref, float_tolerant=True) == set()
    # tolerance applies only against the reference, not between runs
    assert certcheck.mismatched_suites(cert, ref, float_tolerant=False) == {"cov"}
    cert["suites"]["cov"]["worst_residual"] = 2 * tol
    assert certcheck.mismatched_suites(cert, ref, float_tolerant=True) == {"cov"}


def test_exact_residual_change_rejected():
    ref = certcheck.load_ref("exact-qaut", "3")
    cert = copy.deepcopy(ref)
    cert["suites"]["cov"]["worst_residual"] = 1e-12
    assert certcheck.mismatched_suites(cert, ref, float_tolerant=True) == {"cov"}


def test_change_outside_suites_fails_every_suite():
    ref = certcheck.load_ref("float-qaut", "3")
    cert = copy.deepcopy(ref)
    cert["conventions"]["pauli"] = "tampered"
    assert certcheck.failed_suites(cert, [(ref, True)]) == set(ref["suites"])


def test_traced_self_times_add_up_to_wall():
    job = workloads.Job((1, 1, 1, 1), "exact", ("homs", "cov", "tt", "pvm"), 42)
    tracer = spans.Tracer()
    result = worker.run_pass([job], tracer)
    layers = tracer.metrics()
    assert result["certs"][job.job_id]["summary"]["passed"]
    total = sum(layers[f"{m}.self_s"] for m in spans.MODULES)
    assert total == pytest.approx(result["wall_s"], rel=0.02, abs=0.005)
    assert set(layers) == set(spans.layer_metric_names())
    assert layers["qaut.check_relations.calls"] > 0
    assert layers["qaut.relations_checked"] >= layers["qaut.check_relations.calls"]
    assert layers["arith.mat_matmul.calls"] > 0


def test_tracer_restores_originals():
    from qautcert import cli, qaut
    from qautcert.arith import Mat

    before = (cli.check_relations, qaut.check_relations, cli.run, Mat.__dict__["__matmul__"])
    with spans.Tracer().installed():
        assert cli.check_relations is not before[0]
        assert cli.check_relations is qaut.check_relations
    assert (cli.check_relations, qaut.check_relations, cli.run,
            Mat.__dict__["__matmul__"]) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-struct",
         "--seed", "42", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
