#!/usr/bin/env python3
"""Generate the scaled Whittaker ascension waves and their peak table.

Writes one CSV per ascension degree (y, |W|/normalization) plus a peak
summary, and prints the peak abscissae/ordinates and consecutive shifts
against 1/a, the per-degree shift at tau = 0 of the turning point
y_t = (tau + sqrt(tau^2 + s1^2 + 1/4))/a.
A degree with no peak in [1, 3] is skipped.

Usage: python3 scripts/run_whittaker_figure.py [--out OUTDIR] [--s1 50]
       [--a 25] [--tau-max 2]
"""

import argparse
from pathlib import Path

import numpy as np

from hyperlab.waves import (WhittakerParams, _sweep_peaks, _whittaker_sweep,
                            ascension_norm)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out_whittaker")
    ap.add_argument("--s1", type=float, default=50.0)
    ap.add_argument("--a", type=float, default=25.0)
    ap.add_argument("--tau-max", type=int, default=2)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # one sweep per degree on the peak scan; the CSV grid reads its dense output
    ys, scan = np.linspace(1.0, 3.0, 801), np.linspace(1.0, 3.0, 2000)
    rows = []
    for tau in range(args.tau_max + 1):
        p = WhittakerParams(tau=tau, s1=args.s1, a=args.a)
        states, dense = _whittaker_sweep(p, scan)
        norm = ascension_norm(tau, args.s1)
        np.savetxt(out / f"wave_tau{tau}.csv",
                   np.column_stack([ys, np.abs(dense(ys)[0]) / norm]), delimiter=",",
                   header="y,abs_w_scaled", comments="")
        peaks = [(y, v / norm) for y, v in _sweep_peaks(p, scan, states, dense)]
        if not peaks:
            print(f"tau={tau}  no peak in [1, 3]")
            continue
        y_pk, v_pk = max(peaks, key=lambda q: q[1])
        rows.append((tau, y_pk, v_pk))
        print(f"tau={tau}  peak at y={y_pk:.6f}  value={v_pk:.6e}")
    for (t0, y0, _), (t1, y1, _) in zip(rows, rows[1:]):
        print(f"shift tau {t0}->{t1}: {y1 - y0:.4f}  (1/a = {1/args.a:.4f})")
    np.savetxt(out / "peaks.csv", np.array(rows).reshape(-1, 3), delimiter=",",
               header="tau,abscissa,ordinate", comments="")


if __name__ == "__main__":
    main()
