"""Correctness check of benchmark certificates.

A certificate fragment (one suite of one job) counts as failed when the
suite did not pass, crashed, or does not match the expected certificate.
Matching is ``qautcert.cli.diff``: it must be empty, except that a float
certificate compared with ``float_tolerant=True`` may differ from its
reference in residual values, provided each such value stays within the
certificate's ``tol``.
"""

from __future__ import annotations

import json
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"


def non_timing(cert: dict) -> dict:
    return {k: v for k, v in cert.items() if k != "timings"}


def ref_path(workload: str, job_id: str) -> Path:
    return REFS_DIR / workload / f"{job_id}.json"


def load_ref(workload: str, job_id: str) -> dict:
    with open(ref_path(workload, job_id)) as fh:
        return json.load(fh)


def _residual_within(line: str, tol: float) -> bool:
    """Whether a diff line is a residual value that differs within ``tol``."""
    path, _, change = line.partition(": ")
    if "residual" not in path.rsplit(".", 1)[-1]:
        return False
    _, sep, new = change.partition(" != ")
    try:
        value = float(new)
    except ValueError:
        return False
    return bool(sep) and 0.0 <= value <= tol


def mismatched_suites(cert: dict, expected: dict, float_tolerant: bool = False) -> set[str]:
    """Suites of ``cert`` whose content differs from ``expected``.

    A difference outside the ``suites`` section affects every suite."""
    from qautcert.cli import VersionMismatch, diff

    tolerant = float_tolerant and cert["config"]["backend"] == "float"
    tol = cert["config"]["tol"]
    everything = set(cert["suites"]) | set(expected["suites"])
    try:
        delta = diff(expected, cert)
    except VersionMismatch:
        return everything
    bad: set[str] = set()
    for line in delta.splitlines():
        if tolerant and _residual_within(line, tol):
            continue
        path = line.partition(": ")[0]
        if path.startswith("suites."):
            bad.add(path.split(".")[1].split("[")[0])
        else:
            return everything
    return bad


def failed_suites(cert: dict, expected: list[tuple[dict, bool]]) -> set[str]:
    """Suites of ``cert`` that failed, crashed, or mismatch any expectation.

    ``expected`` holds ``(certificate, float_tolerant)`` pairs."""
    failed = {name for name, frag in cert["suites"].items() if not frag.get("passed")}
    for want, tolerant in expected:
        failed |= mismatched_suites(cert, want, tolerant)
    return failed
