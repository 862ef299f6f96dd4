#!/usr/bin/env python3
"""Generate the scaled Whittaker ascension waves and their peak table.

Runs `hyperlab whittaker`, which writes one CSV per ascension degree
(whittaker_tau{tau}.csv: y, |W|/normalization) and whittaker_peaks.json,
then prints from that table the peak abscissae/ordinates and consecutive
shifts against 1/a, the per-degree shift at tau = 0 of the turning point
y_t = (tau + sqrt(tau^2 + s1^2 + 1/4))/a.
A degree with no peak in [1, 3] is skipped.

Usage: python3 scripts/run_whittaker_figure.py [--out OUTDIR] [--s1 50]
       [--a 25] [--tau-max 2]
"""

import argparse
import json
import sys
from pathlib import Path

from hyperlab.cli import main as hyperlab


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out_whittaker")
    ap.add_argument("--s1", type=float, default=50.0)
    ap.add_argument("--a", type=float, default=25.0)
    ap.add_argument("--tau-max", type=int, default=2)
    args = ap.parse_args()
    code = hyperlab(["whittaker", "--out", args.out, "--s1", str(args.s1),
                     "--a", str(args.a), "--tau-max", str(args.tau_max)])
    if code:
        sys.exit(code)

    peaks = json.loads((Path(args.out) / "whittaker_peaks.json").read_text())["peaks"]
    by_tau = {r["tau"]: r for r in peaks}
    for tau in range(args.tau_max + 1):
        if tau in by_tau:
            print(f"tau={tau}  peak at y={by_tau[tau]['abscissa']:.6f}  "
                  f"value={by_tau[tau]['ordinate']:.6e}")
        else:
            print(f"tau={tau}  no peak in [1, 3]")
    for r0, r1 in zip(peaks, peaks[1:]):
        print(f"shift tau {r0['tau']}->{r1['tau']}: {r1['abscissa'] - r0['abscissa']:.4f}"
              f"  (1/a = {1/args.a:.4f})")


if __name__ == "__main__":
    main()
