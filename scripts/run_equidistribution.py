#!/usr/bin/env python3
"""Equidistribution discrepancy series on the octagon surface.

Runs the horocyclic, hypercyclic (two field strengths), and geodesic
flows from a seeded initial vector and prints the discrepancy of the
standard 12-observable family at increasing orbit lengths.  Beside each
row it prints series_ms, the time of the series (area means warmed first;
the series streams its orbit a block at a time and holds none), orbit_ms
and steps/s, the time and steps per second of one `sample_orbit` call of
the longest length, and peak_mb, the tracemalloc peak in MiB of one more
series call, taken after the timed calls.  Under tracemalloc the float
loop of orbit pass 1 runs about 60 times slower, so the traced call
replays pass 1 from the timed orbit's restarts (unpickled inside the
trace, so their bytes still count) and the default run takes a few
seconds.

Usage: python3 scripts/run_equidistribution.py [--lengths 1e2,1e3,1e4]
"""

import argparse
import pickle
import time
import tracemalloc

from hyperlab import ergodic
from hyperlab.ergodic import (equidistribution_series, octagon_area_means, sample_orbit,
                              seeded_unit_vector)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--lengths", default="1e2,1e3,1e4")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    lengths = [float(t) for t in args.lengths.split(",")]
    v0 = seeded_unit_vector(args.seed)
    octagon_area_means()  # the quadrature runs once; series_ms leaves it out
    restarts, recorded = ergodic._restarts, []

    def record(*args):
        recorded.append(restarts(*args))
        return recorded[-1]

    for kind, B in (("horocyclic", 0.0), ("hypercyclic", 0.5),
                    ("hypercyclic", 5.0), ("geodesic", 0.0)):
        start = time.perf_counter()
        rows = equidistribution_series(kind, v0, lengths, B=B)
        series_s = time.perf_counter() - start
        ergodic._restarts = record
        start = time.perf_counter()
        steps = len(sample_orbit(v0, kind, max(lengths), B=B).xs) - 1
        orbit_s = time.perf_counter() - start
        blob = pickle.dumps(recorded.pop())
        ergodic._restarts = lambda *args: pickle.loads(blob)
        tracemalloc.start()
        try:
            equidistribution_series(kind, v0, lengths, B=B)
            peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            ergodic._restarts = restarts
        tag = f"{kind}" + (f" B={B}" if kind == "hypercyclic" else "")
        for length, disc in rows:
            print(f"{tag:20s} length={length:10.0f}  discrepancy={disc:.5f}"
                  f"  series_ms={series_s * 1e3:.1f}  orbit_ms={orbit_s * 1e3:.1f}"
                  f"  peak_mb={peak_mb:.1f}  steps/s={steps / orbit_s:.3g}")


if __name__ == "__main__":
    main()
