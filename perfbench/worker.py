"""One benchmark pass in a fresh interpreter, as ``qautcert run`` is one
process per certificate run.

    python3 perfbench/worker.py --workload exact-qaut --seed 42 [--trace]
    python3 perfbench/worker.py --setup --workload exact-qaut --seed 42

A pass runs the workload's jobs one after another through
``qautcert.cli.run`` and prints one JSON object: wall and CPU seconds of the
jobs, peak resident memory, the certificates and, with ``--trace``, the
per-layer metrics.  With ``--setup`` it only imports ``qautcert.cli``,
validates the first job's ``SuiteConfig`` and prints ``ready``.

The host's speed is measured with the work: an untraced pass runs
``speed_sample`` every ``SAMPLE_PERIOD_S`` seconds from a timer signal, on
the same thread as the jobs; a traced pass runs it just before and after
the jobs, and a set-up process after ``ready``.
The sample's time is reported with the pass and taken out of the jobs'
times; ``run.py`` scales the times by it.

qautcert is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def import_cli():
    """Import ``qautcert.cli`` from the checkout, refusing any other copy."""
    from qautcert import cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"qautcert imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


SAMPLE_PERIOD_S = 0.25
BURST_SAMPLES = 20
_SAMPLE_MATRIX = numpy.array([[i * j + 1 for j in range(9)] for i in range(9)], dtype=object)


def speed_sample() -> None:
    """A few milliseconds of fixed work in the primitives the workloads
    spend their time in: ``Fraction`` arithmetic with dict updates, as in
    ``algebra``, and object-dtype integer matrix products, as in ``arith``.
    It is the benchmark's own code, so a change to ``src/`` leaves it as is.
    """
    x = Fraction(0)
    acc = {}
    for i in range(1, 700):
        x += Fraction(i % 89 + 1, i % 97 + 1)
        acc[i % 64] = acc.get(i % 64, 0) + i
    for _ in range(30):
        _SAMPLE_MATRIX @ _SAMPLE_MATRIX + _SAMPLE_MATRIX


class SpeedSampler:
    """Times ``speed_sample`` every ``SAMPLE_PERIOD_S`` seconds of wall time."""

    def __init__(self):
        self.wall = []
        self.cpu = []

    def sample(self, signum=None, frame=None) -> None:
        c0 = time.process_time()
        t0 = time.perf_counter()
        speed_sample()
        self.wall.append(time.perf_counter() - t0)
        self.cpu.append(time.process_time() - c0)

    def burst(self, n: int) -> None:
        """Take ``n`` samples in a row."""
        speed_sample()  # the first call pays one-off costs; not counted
        for _ in range(n):
            self.sample()

    @contextmanager
    def installed(self):
        """Sample every ``SAMPLE_PERIOD_S`` seconds while inside."""
        speed_sample()
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_pass(jobs, tracer=None) -> dict:
    """Run ``jobs`` in order and time them, with the host's speed sampled
    throughout, or, under ``tracer``, whose spans must not hold samples,
    just before and after."""
    cli = import_cli()
    certs = {}
    sampler = SpeedSampler()
    if tracer is not None:
        sampler.burst(BURST_SAMPLES)
    with tracer.installed() if tracer is not None else sampler.installed():
        c0 = time.process_time()
        t0 = time.perf_counter()
        for job in jobs:
            certs[job.job_id] = cli.run(job.config())
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
    inside = (sum(sampler.wall), sum(sampler.cpu)) if tracer is None else (0.0, 0.0)
    if tracer is not None or not sampler.wall:
        sampler.burst(BURST_SAMPLES)
    return {"wall_s": wall, "cpu_s": cpu, "certs": certs,
            "work_s": wall - inside[0], "work_cpu_s": cpu - inside[1],
            "samples": len(sampler.wall), "sample_s": sum(sampler.wall) / len(sampler.wall)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup", action="store_true")
    args = p.parse_args(argv)
    jobs = workloads.jobs(args.workload, args.seed)
    if args.setup:
        import_cli()
        jobs[0].config()
        print("ready", flush=True)
        sampler = SpeedSampler()
        sampler.burst(BURST_SAMPLES)
        print(sum(sampler.wall) / len(sampler.wall), flush=True)
        return 0
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    result = run_pass(jobs, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["numpy"] = numpy.__version__
    result["layers"] = tracer.metrics() if tracer is not None else None
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
