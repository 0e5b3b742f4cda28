#!/usr/bin/env python3
"""Run every suite over the standard desk-scale partitions and write one
certificate per partition next to a combined summary table."""

import argparse
import os
import sys
import time

from qautcert.cli import SuiteConfig, certificate_json, certificate_markdown, run

PARTITIONS = [(2,), (3,), (2, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="certs")
    ap.add_argument("--backend", default="exact", choices=["exact", "float"])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    rows = []
    failed = 0
    for partition in PARTITIONS:
        tag = "_".join(str(n) for n in partition)
        cfg = SuiteConfig(partition=partition, backend=args.backend, seed=args.seed)
        t0 = time.perf_counter()
        cert = run(cfg)
        dt = time.perf_counter() - t0
        path = os.path.join(args.outdir, f"cert_{tag}_{args.backend}.json")
        with open(path, "w") as fh:
            fh.write(certificate_json(cert))
        with open(path.replace(".json", ".md"), "w") as fh:
            fh.write(certificate_markdown(cert))
        ok = cert["summary"]["passed"]
        failed += 0 if ok else 1
        rows.append((partition, ok, dt, path))
        print(f"{str(partition):14s} {'PASS' if ok else 'FAIL'}  {dt:6.1f}s  {path}")
    print(f"\n{len(rows) - failed}/{len(rows)} partitions passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
