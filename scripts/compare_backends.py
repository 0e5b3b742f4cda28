#!/usr/bin/env python3
"""Run one partition under both scalar backends and show the structural
certificate delta (expected: the config's backend tag and the homs fragment,
the one suite that computes in floats).

Exits 1 when either certificate fails, or when a fragment of a suite that is
the same computation on both backends (ueb, twist, pvm, conj, cov, shuffle,
haar, tt) differs between them."""

import argparse
import sys

from qautcert.cli import SuiteConfig, diff, run

EXACT_ON_BOTH = ("ueb", "twist", "pvm", "conj", "cov", "shuffle", "haar", "tt")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--partition", default="2,1")
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    partition = tuple(int(x) for x in args.partition.split(","))
    exact = run(SuiteConfig(partition=partition, backend="exact", seed=args.seed))
    floated = run(SuiteConfig(partition=partition, backend="float",
                              tol=args.tol, seed=args.seed))
    print("worst residuals on the float backend:")
    for name, frag in sorted(floated["suites"].items()):
        print(f"  {name:8s} passed={frag.get('passed')} "
              f"residual={frag.get('worst_residual')}")
    delta = diff(exact, floated)
    print("\nstructural deltas (exact vs float):")
    print(delta or "  none")
    moved = [name for name in EXACT_ON_BOTH
             if exact["suites"].get(name) != floated["suites"].get(name)]
    if moved:
        print(f"\nfragments that must not depend on the backend differ: {', '.join(moved)}")
    both = exact["summary"]["passed"] and floated["summary"]["passed"]
    return 0 if both and not moved else 1


if __name__ == "__main__":
    sys.exit(main())
