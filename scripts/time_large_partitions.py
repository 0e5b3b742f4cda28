#!/usr/bin/env python3
"""Time each suite at the largest partitions, one suite per process.

Runs every suite at exact (4,) and (2,2,2,2) and float (3,3) and (4,2), and
exact ``homs`` also at (3,3), (4,2) and (6,) (N = 18, 20 and 36, beyond the
exact cap), one subprocess per (partition, suite), with ``force=True`` so
the desk-scale cap admits it, under a timeout and a 3 GB address-space limit.
Prints, for each run, the wall and CPU time of the suite and the process's
peak resident memory (``ru_maxrss``).

Exits 1 when a budgeted run fails, times out or exceeds its wall or memory
budget.  The other runs are reported, not gated, until they have budgets of
their own.

    PYTHONPATH=src python scripts/time_large_partitions.py
"""

import json
import resource
import subprocess
import sys
import time

PARTITIONS = [("exact", (4,)), ("exact", (2, 2, 2, 2)), ("float", (3, 3)), ("float", (4, 2))]
# partitions where only exact homs runs, reported
HOMS_PARTITIONS = [("exact", (3, 3)), ("exact", (4, 2)), ("exact", (6,))]
# (backend, partition, suite) -> seconds
BUDGETS = {("exact", (2, 2, 2, 2), "conj"): 0.5, ("exact", (2, 2, 2, 2), "twist"): 1.0,
           ("exact", (4,), "homs"): 10.0, ("exact", (2, 2, 2, 2), "homs"): 20.0,
           ("exact", (4,), "cov"): 0.12, ("exact", (2, 2, 2, 2), "cov"): 1.9,
           ("exact", (4,), "shuffle"): 0.08, ("exact", (2, 2, 2, 2), "shuffle"): 1.7}
# (backend, partition, suite) -> peak resident MB (ru_maxrss of the run's process)
MEMORY_BUDGETS = {("exact", (2, 2, 2, 2), "shuffle"): 170.0,
                  ("exact", (4,), "homs"): 52.0, ("exact", (2, 2, 2, 2), "homs"): 66.0,
                  ("exact", (2, 2, 2, 2), "haar"): 85.0}
TIMEOUT_S = 300.0  # per run; a run that takes longer is reported as failed
ADDRESS_SPACE = 3 << 30  # bytes a run may map; past it, it fails


def child(backend: str, partition: str, suite: str) -> None:
    """Run one suite in this process and print its measurements as JSON."""
    from qautcert.cli import SuiteConfig, run

    cfg = SuiteConfig(partition=tuple(int(n) for n in partition.split(",")),
                      backend=backend, suites=(suite,), force=True)
    t0, c0 = time.perf_counter(), time.process_time()
    frag = run(cfg)["suites"][suite]
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "passed": bool(frag.get("passed")),
                      "error": frag.get("error"),
                      "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def measure(backend, partition, suite):
    """The child's measurements, or {"error": ...} when it timed out or crashed."""
    cmd = [sys.executable, __file__, "--child", backend, ",".join(map(str, partition)), suite]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=lambda: resource.setrlimit(
                                  resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)))
    except subprocess.TimeoutExpired:
        return {"passed": False, "error": f"timeout after {TIMEOUT_S:g} s"}
    if proc.returncode != 0:
        return {"passed": False, "error": (proc.stderr.strip().splitlines() or ["crashed"])[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:5])
        return 0
    from qautcert.cli import SUITE_NAMES

    failed = 0
    print(f"{'backend':7s} {'partition':12s} {'suite':8s} {'wall_s':>8s} {'cpu_s':>8s} "
          f"{'rss_mb':>8s} {'budget':>7s} {'mb_cap':>7s}  result")
    runs = [(b, p, suite) for b, p in PARTITIONS for suite in SUITE_NAMES]
    for backend, partition, suite in runs + [(b, p, "homs") for b, p in HOMS_PARTITIONS]:
        m = measure(backend, partition, suite)
        budget = BUDGETS.get((backend, partition, suite))
        cap = MEMORY_BUDGETS.get((backend, partition, suite))
        ok = (m["passed"] and (budget is None or m["wall_s"] <= budget)
              and (cap is None or m["maxrss_mb"] <= cap))
        if (budget is not None or cap is not None) and not ok:
            failed += 1
        result = ("ok" if ok else "OVER BUDGET" if m["passed"] else f"FAIL {m['error']}")
        print(f"{backend:7s} {str(partition):12s} {suite:8s} "
              + " ".join(f"{m[k]:8.2f}" if k in m else f"{'-':>8s}"
                         for k in ("wall_s", "cpu_s", "maxrss_mb"))
              + f" {budget if budget is not None else '-':>7} {cap if cap is not None else '-':>7}"
              + f"  {result}", flush=True)
    print(f"\n{failed} budgeted run(s) failed or over budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
