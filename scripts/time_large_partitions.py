#!/usr/bin/env python3
"""Time each suite at the largest partitions, one suite per process.

Runs every suite at exact (4,) and (2,2,2,2) and float (3,3) and (4,2),
exact ``homs`` also at (3,3), (4,2) and (6,) (N = 18, 20 and 36, beyond the
exact cap), exact ``tt`` at (3,2) and (2,2,2,1) (double crossed products of
dimension 117 and 208), and float ``ueb``, ``pvm``, ``twist`` and ``cov``
at (2,2,2,2,2) (N = 20, d = 32), one subprocess per (partition, suite), with
``force=True`` so the
desk-scale cap admits it, under a timeout and a 3 GB address-space limit.
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
# (backend, partition, suite) runs beyond the PARTITIONS sweep
EXTRA_RUNS = [("exact", (3, 3), "homs"), ("exact", (4, 2), "homs"), ("exact", (6,), "homs"),
              ("exact", (3, 2), "tt"), ("exact", (2, 2, 2, 1), "tt"),
              ("float", (2, 2, 2, 2, 2), "ueb"), ("float", (2, 2, 2, 2, 2), "pvm"),
              ("float", (2, 2, 2, 2, 2), "twist"), ("float", (2, 2, 2, 2, 2), "cov")]
# (backend, partition, suite) -> seconds.  The cov and shuffle budgets are
# about 1.5x the median of three child runs on a 2-core x86_64 host, written
# beside them; cov and shuffle build no dense matrix since their z-images,
# words and entangled projections became index tables
BUDGETS = {("exact", (2, 2, 2, 2), "conj"): 0.5, ("exact", (2, 2, 2, 2), "twist"): 1.0,
           ("exact", (4,), "homs"): 10.0, ("exact", (2, 2, 2, 2), "homs"): 20.0,
           ("exact", (4,), "cov"): 0.12, ("exact", (2, 2, 2, 2), "cov"): 0.85,  # 0.556 s
           ("exact", (4,), "shuffle"): 0.035,  # 0.022 s
           ("exact", (2, 2, 2, 2), "shuffle"): 1.7,
           ("float", (3, 3), "cov"): 0.4, ("float", (3, 3), "shuffle"): 0.24,  # 0.261, 0.156 s
           ("float", (4, 2), "cov"): 0.55, ("float", (4, 2), "shuffle"): 0.22}  # 0.363, 0.141 s
# ueb, pvm and twist decide their identities on index tables and terms.
# Each budget is 1.5x the median of three child runs, given here, but at
# least WALL_FLOOR_S: scheduler jitter on a shared host alone can exceed
# 1.5x of a few milliseconds.  At float (2,2,2,2,2), 0.29 of twist's 0.37 s
# are GroupCocycle.verify, Light's test on the cocycles spec_cocycle builds
# (ten generators of the 1024-element product)
WALL_FLOOR_S = 0.05
BUDGETS.update({key: round(max(1.5 * median_s, WALL_FLOOR_S), 4) for key, median_s in {
    ("exact", (4,), "ueb"): 0.0022, ("exact", (4,), "pvm"): 0.0033,
    ("exact", (2, 2, 2, 2), "ueb"): 0.0044, ("exact", (2, 2, 2, 2), "pvm"): 0.0033,
    ("float", (3, 3), "ueb"): 0.0031, ("float", (3, 3), "pvm"): 0.0039,
    ("float", (4, 2), "ueb"): 0.0043, ("float", (4, 2), "pvm"): 0.0043,
    ("float", (2, 2, 2, 2, 2), "ueb"): 0.0124, ("float", (2, 2, 2, 2, 2), "pvm"): 0.0043,
    ("exact", (4,), "twist"): 0.0062, ("float", (3, 3), "twist"): 0.0099,
    ("float", (4, 2), "twist"): 0.0085, ("float", (2, 2, 2, 2, 2), "twist"): 0.366,
}.items()})
# (backend, partition, suite) -> peak resident MB (ru_maxrss of the run's process)
MEMORY_BUDGETS = {("exact", (2, 2, 2, 2), "shuffle"): 170.0,
                  ("exact", (4,), "homs"): 52.0, ("exact", (2, 2, 2, 2), "homs"): 66.0,
                  ("exact", (2, 2, 2, 2), "haar"): 85.0}
# ueb and pvm: about 1.5x the median peak of the same runs (34.6-35.6 MB)
MEMORY_BUDGETS.update({(b, p, suite): 52.0 for b, p, suite in BUDGETS if suite in ("ueb", "pvm")})
MEMORY_BUDGETS[("float", (4, 2), "ueb")] = 54.0  # 35.6 MB
# twist: 1.5x the median peak of the same runs, given here
MEMORY_BUDGETS.update({key: round(1.5 * median_mb, 1) for key, median_mb in {
    ("exact", (4,), "twist"): 36.3, ("exact", (2, 2, 2, 2), "twist"): 46.7,
    ("float", (3, 3), "twist"): 36.2, ("float", (4, 2), "twist"): 36.3,
    ("float", (2, 2, 2, 2, 2), "twist"): 136.5}.items()})
# exact homs beyond the cap, tt where it passes beyond the standard
# partitions and float cov at d = 32: wall and memory budgets by the same
# rule, from the median seconds and peak MB of three child runs, given
# here.  tt at the PARTITIONS sweep still fails and has no budget
for key, (median_s, median_mb) in {
        ("exact", (3, 3), "homs"): (1.4189, 59.9), ("exact", (4, 2), "homs"): (3.2076, 65.6),
        ("exact", (6,), "homs"): (22.6728, 177.1),
        ("exact", (3, 2), "tt"): (0.1911, 62.9), ("exact", (2, 2, 2, 1), "tt"): (0.8086, 182.1),
        # cov's item (e) pairs the d^2 = 1024 z-words by a join of d^4 entries
        ("float", (2, 2, 2, 2, 2), "cov"): (3.1480, 136.5),
}.items():
    BUDGETS[key] = round(max(1.5 * median_s, WALL_FLOOR_S), 4)
    MEMORY_BUDGETS[key] = round(1.5 * median_mb, 1)
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
    for backend, partition, suite in runs + EXTRA_RUNS:
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
