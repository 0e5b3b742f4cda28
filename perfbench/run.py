"""qautcert certificate benchmark.

    python3 perfbench/run.py --workload exact-qaut --seed 42 --seconds 10 --trace 0

Closed loop, one client: each pass runs the workload's certificate jobs one
after another through ``qautcert.cli.run`` in a fresh interpreter
(``worker.py``), so lazily filled tables are paid inside the timed work as a
user pays them.  Passes repeat until ``--seconds`` have passed, so a pass
longer than that makes a run of one pass.  ``setup_s`` is the
median of several fresh interpreters that only import ``qautcert.cli`` and
validate the first ``SuiteConfig``.

A shared host's speed drifts: the 2-core reference host alternates over
minutes between two speeds about 1.5x apart.  So the times are scaled to a
reference speed: each pass and each
set-up process times a fixed sample of work alongside its own (see
``worker.speed_sample``), and its time is multiplied by
``REF_SAMPLE_S / sample time``.  The unscaled times are printed too.

Every pass is checked: each suite must pass, and each certificate must match
the reference in ``refs/`` (default seed) and the certificates the first run
with this workload and seed left in ``out/``.  With ``--trace 1`` one more
pass runs under the span tracer and the per-layer metrics are reported.

Progress goes to stderr; the report, then one JSON result line, to stdout.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
RUN_BUDGET_S = 170.0
SETUP_RUNS = 5
# a round figure for speed_sample's time on the 2-core x86_64 reference
# host (3-6 ms); a scaled time is the time the work takes on a host where
# the sample takes this long
REF_SAMPLE_S = 0.004

sys.path.insert(0, str(HERE))

import certcheck  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402

# name -> unit, in report order
END_TO_END = {"cert_s": "s", "cert_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SUITE_NAMES = ("ueb", "twist", "conj", "tt", "pvm", "homs", "shuffle", "cov", "haar")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.layer_metric_names():
        if name.endswith(".calls") or name in ("arith.mat_promotions", "qaut.relations_checked"):
            units[name] = "count"
        elif name == "arith.mat_object_share":
            units[name] = "frac"
        elif name == "qaut.relations_per_s":
            units[name] = "1/s"
        else:
            units[name] = "s"
    for suite in SUITE_NAMES:
        units[f"cli.suite_s.{suite}"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its time budget")
        return left


def worker_cmd(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def measure_setup(workload: str, seed: int, deadline: Deadline) -> tuple[float, float]:
    """Seconds from interpreter start to a validated first ``SuiteConfig``,
    and the set-up process's speed sample time."""
    t0 = time.perf_counter()
    with subprocess.Popen(worker_cmd(workload, seed, "--setup"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            sample = proc.stdout.readline()
            proc.wait(timeout=deadline.left())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return elapsed, float(sample)


def run_worker(workload: str, seed: int, trace: bool, deadline: Deadline) -> dict:
    extra = ("--trace",) if trace else ()
    done = subprocess.run(worker_cmd(workload, seed, *extra), cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=deadline.left())
    return json.loads(done.stdout)


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info(numpy_version: str) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine(),
            "git_sha": git_sha(ROOT), "src_lines": src_lines}


def stored_certs(workload: str, seed: int) -> dict | None:
    """Certificates an earlier run of this workload and seed produced."""
    path = OUT_DIR / f"{workload}-seed{seed}.json"
    if not path.exists():
        return None
    with open(path) as fh:
        return json.load(fh)


def store_certs(workload: str, seed: int, certs: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}.json"
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w") as fh:
        json.dump({k: certcheck.non_timing(c) for k, c in certs.items()}, fh,
                  sort_keys=True)
    os.replace(tmp, path)


def check_passes(workload: str, seed: int, passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over every suite fragment of every pass."""
    worker.import_cli()
    stored = stored_certs(workload, seed)
    baseline = stored or passes[0]["certs"]
    attempted = failed = 0
    notes = []
    for n, p in enumerate(passes, start=1):
        for job_id, cert in p["certs"].items():
            expected = [(baseline[job_id], False)]
            if seed == workloads.DEFAULT_SEED:
                expected.append((certcheck.load_ref(workload, job_id), True))
            bad = certcheck.failed_suites(cert, expected)
            attempted += len(cert["suites"])
            failed += len(bad)
            if bad:
                notes.append(f"pass {n} job {job_id}: failed {sorted(bad)}")
    if stored is None and failed == 0:
        store_certs(workload, seed, passes[0]["certs"])
    return attempted, failed, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qautcert certificate benchmark")
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = Deadline(RUN_BUDGET_S)

    setup = [measure_setup(args.workload, args.seed, deadline) for _ in range(SETUP_RUNS)]
    passes = []
    t0 = time.monotonic()
    while not passes or time.monotonic() - t0 < args.seconds:
        passes.append(run_worker(args.workload, args.seed, False, deadline))
        print(f"pass {len(passes)}: {passes[-1]['wall_s']:.3f} s, speed sample "
              f"{1000 * passes[-1]['sample_s']:.3f} ms", file=sys.stderr)
    traced = run_worker(args.workload, args.seed, True, deadline) if args.trace else None
    checked = passes + ([traced] if traced else [])
    attempted, failed, notes = check_passes(args.workload, args.seed, checked)

    e2e = {
        "cert_s": statistics.median(q["work_s"] * REF_SAMPLE_S / q["sample_s"] for q in passes),
        "cert_cpu_s": statistics.median(
            q["work_cpu_s"] * REF_SAMPLE_S / q["sample_s"] for q in passes),
        "setup_s": statistics.median(t * REF_SAMPLE_S / sample for t, sample in setup),
        "peak_rss_mb": statistics.median(q["peak_rss_mb"] for q in passes),
    }
    unscaled = {
        "wall_s": statistics.median(q["work_s"] for q in passes),
        "cpu_s": statistics.median(q["work_cpu_s"] for q in passes),
        "setup_s": statistics.median(t for t, _ in setup),
        "sample_ms": 1000 * statistics.median(q["sample_s"] for q in passes),
    }
    if traced:
        values = dict(traced["layers"])
        for suite in SUITE_NAMES:
            values[f"cli.suite_s.{suite}"] = sum(
                c["timings"].get(suite, 0.0) for c in traced["certs"].values())
        values["trace.overhead_frac"] = (
            traced["work_s"] * REF_SAMPLE_S / traced["sample_s"] / e2e["cert_s"] - 1)
        units = per_layer_units()
    else:
        values, units = e2e, END_TO_END

    print("host " + json.dumps(host_info(passes[0]["numpy"]), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es)"
          + (", 1 traced pass" if traced else ""))
    for job_id, cert in passes[0]["certs"].items():
        print(f"  job {job_id}: suite seconds {json.dumps(cert['timings'])}")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    print("  unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in unscaled.items())
          + f" ({sum(q['samples'] for q in passes)} speed samples)")
    print(f"  suite_fail_frac = {failed}/{attempted} suite fragments")
    for note in notes:
        print(f"  {note}")
    if traced:
        for name, unit in units.items():
            print(f"  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
