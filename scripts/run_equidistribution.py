#!/usr/bin/env python3
"""Equidistribution discrepancy series on the octagon surface.

Runs the horocyclic, hypercyclic (two field strengths), and geodesic
flows from a seeded initial vector and prints the discrepancy of the
standard 12-observable family at increasing orbit lengths.  Beside each
row it prints the steps/s of `sample_orbit` for that flow, timed on one
extra orbit of the longest length.

Usage: python3 scripts/run_equidistribution.py [--lengths 1e2,1e3,1e4]
"""

import argparse
import time

from hyperlab.ergodic import equidistribution_series, sample_orbit, seeded_unit_vector


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lengths", default="1e2,1e3,1e4")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    lengths = [float(t) for t in args.lengths.split(",")]
    v0 = seeded_unit_vector(args.seed)

    for kind, B in (("horocyclic", 0.0), ("hypercyclic", 0.5),
                    ("hypercyclic", 5.0), ("geodesic", 0.0)):
        rows = equidistribution_series(kind, v0, lengths, B=B)
        start = time.perf_counter()
        steps = len(sample_orbit(v0, kind, max(lengths), B=B).xs) - 1
        rate = steps / (time.perf_counter() - start)
        tag = f"{kind}" + (f" B={B}" if kind == "hypercyclic" else "")
        for length, disc in rows:
            print(f"{tag:20s} length={length:10.0f}  discrepancy={disc:.5f}"
                  f"  steps/s={rate:.3g}")


if __name__ == "__main__":
    main()
