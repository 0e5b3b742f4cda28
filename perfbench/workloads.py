"""Workload definitions: each workload is a fixed list of certificate jobs.

A job is one ``qautcert.cli.run(SuiteConfig(...))`` call, the unit a user
runs as one ``qautcert run`` process.  The benchmark seed is passed through
as ``SuiteConfig.seed``; it changes the ``homs`` permutation and theta
batteries and the sampled ``tt``/``twist`` checks, never the job list.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 42

_QAUT_JOBS = (((3,), ("cov", "shuffle", "haar")), ((2, 2), ("homs",)))
_STRUCT_SUITES = ("tt", "twist", "conj", "ueb", "pvm")

# workload -> (backend, ((partition, suites), ...), why it was chosen)
WORKLOADS = {
    "exact-qaut": (
        "exact", _QAUT_JOBS,
        "exact Mat kernel and formal/qaut evaluation at their heaviest, at "
        "cyclotomic order 3 (3,) and orders 1-2 (2,2) in one run"),
    "float-qaut": (
        "float", _QAUT_JOBS,
        "same jobs on the float backend: exact build, then Mat.to_float and "
        "cli.ft_to_float conversion"),
    "exact-struct": (
        "exact", (((2,), _STRUCT_SUITES), ((2, 2), _STRUCT_SUITES)),
        "StructAlgebra axiom checks, crossed products and cocycles in "
        "Fraction arithmetic; bypasses the Mat kernel and formal/qaut"),
}


@dataclass(frozen=True)
class Job:
    partition: tuple[int, ...]
    backend: str
    suites: tuple[str, ...]
    seed: int

    @property
    def job_id(self) -> str:
        return "-".join(str(n) for n in self.partition)

    def config(self):
        from qautcert.cli import SuiteConfig

        return SuiteConfig(partition=self.partition, backend=self.backend,
                           suites=self.suites, seed=self.seed)


def jobs(workload: str, seed: int) -> list[Job]:
    """The workload's jobs, in the order one client runs them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    backend, entries, _ = WORKLOADS[workload]
    return [Job(tuple(p), backend, tuple(s), seed) for p, s in entries]
