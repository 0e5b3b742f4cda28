"""Regenerate the reference certificates in ``refs/`` at the default seed.

    python3 perfbench/make_refs.py [workload ...]

Run this only when a change is meant to alter certificates, and say so in
the change.  Each reference is the certificate without its timings.
"""

from __future__ import annotations

import json
import sys

from run import Deadline, run_worker  # also puts perfbench/ on sys.path
import certcheck
import workloads


def main(argv: list[str]) -> int:
    for workload in argv or list(workloads.WORKLOADS):
        result = run_worker(workload, workloads.DEFAULT_SEED, False, Deadline(600.0))
        for job_id, cert in result["certs"].items():
            path = certcheck.ref_path(workload, job_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(certcheck.non_timing(cert), sort_keys=True,
                                       indent=1) + "\n")
            print(f"wrote {path} (passed: {cert['summary']['passed']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
