"""Every job of the benchmark's workloads still produces the certificate its
reference pins, so that a change which breaks a reference fails here.
``tests/golden/`` does not pin float ``homs`` at (2,2) or float (3,).

The benchmark's modules are loaded by file path, as ``test_bench_hooks``
loads its tracer."""

import importlib.util
import os
import sys

import pytest

from qautcert import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where ``dataclass`` looks up the module's names
    spec.loader.exec_module(module)
    return module


workloads, certcheck = load("workloads"), load("certcheck")


@pytest.mark.parametrize("workload", ["exact-qaut", "float-qaut", "exact-struct"])
def test_workload_certificates_match_their_references(workload):
    for job in workloads.jobs(workload, workloads.DEFAULT_SEED):
        cert = cli.run(job.config())
        want = [(certcheck.load_ref(workload, job.job_id), True)]
        assert certcheck.failed_suites(cert, want) == set(), (workload, job.job_id)
