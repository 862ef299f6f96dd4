#!/usr/bin/env python3
"""Cost and accuracy of the packet wave kernel `solve_waves` as s grows.

For each s, solves 5 waves (|m/s| <= 1/2, both WKB branches, B1 = 0.5) on
8192 points over [-1.2, 1.2] and prints the median time per wave over 5
repeats.  For s up to --oracle-max the
error against a DOP853 solve of the same equation at tolerance 1e-13 (one
solve per side, all waves batched) is printed too: the larger of the
relative max errors of values and derivatives over the waves.  The kernel's
panels are sized by phase, so its cost grows with s; the printout measures
that growth.

Then, for each s1 at a = 25, the Whittaker sweep `_whittaker_sweep` (degree 0,
5 points across the turning point y = s1/a): median ms per sweep over 5
repeats, its panel count (Riccati + linear collocation panels, refinement
re-solves included) and the max relative error against `mpmath.whitw` at 30
digits.  The Riccati panels, geometric in y, cross the forbidden zone from the
seed at y0 ~ 2 s1^2/a, so their count grows only like log(s1); the linear
panels cover the turning point and the scan, so the cost is about flat in s1.

Usage: python3 scripts/run_wave_scaling.py [--s 25,100,400,1600,6400]
       [--oracle-max 1600] [--whittaker-s1 25,50,100,200,400]
"""

import argparse
import math
import time

import mpmath
import numpy as np
from scipy.integrate import solve_ivp

from hyperlab import waves
from hyperlab.waves import branch_ic, solve_waves


def dop853(B1, mts, s, w0, dw0, grid, tol=1e-13):
    """phi'' = -s^2 Q phi stepped from beta = 0 to each side of the grid."""
    K, tau = len(mts), B1 * s
    qa, qb = -2 * s * s * B1 * mts, s * s * (mts * mts - B1 * B1)

    def rhs(beta, y):
        c = math.cos(beta)
        return np.concatenate((y[K:], (qa * math.tan(beta) + qb - s * s / (c * c)) * y[:K]))

    values = np.empty((K, len(grid)), dtype=complex)
    derivs = np.empty((K, len(grid)), dtype=complex)
    for sel in (grid >= 0, grid < 0):
        pos = np.flatnonzero(sel)[np.argsort(np.abs(grid[sel]))]
        sol = solve_ivp(rhs, (0.0, grid[pos][-1]), np.r_[w0, dw0 - 1j * tau * w0],
                        method="DOP853", rtol=tol, atol=tol, t_eval=grid[pos])
        carrier = np.exp(1j * tau * grid[pos])
        values[:, pos] = carrier * sol.y[:K]
        derivs[:, pos] = carrier * (sol.y[K:] + 1j * tau * sol.y[:K])
    return values, derivs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--s", default="25,100,400,1600,6400")
    ap.add_argument("--oracle-max", type=float, default=1600.0)
    ap.add_argument("--whittaker-s1", default="25,50,100,200,400")
    args = ap.parse_args()

    B1, mts = 0.5, np.array([-0.5, -0.2, 0.1, 0.3, 0.5])
    branches = ["I", "II", "I", "II", "I"]
    grid = np.linspace(-1.2, 1.2, 8192)
    print(f"{'s':>7} {'ms/wave':>9} {'err vs DOP853':>14}")
    for _ in range(5):  # warm up: the first solves of a process run slow
        solve_waves(B1, mts, 100.0, 1.0, 1j, grid)
    for s in (float(v) for v in args.s.split(",")):
        w0 = np.ones(len(mts), dtype=complex)
        dw0 = np.array([branch_ic(B1, mt, s, b)[1] for mt, b in zip(mts, branches)])
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            values, derivs = solve_waves(B1, mts, s, w0, dw0, grid)
            times.append(time.perf_counter() - t0)
        per_wave = 1e3 * float(np.median(times)) / len(mts)
        err = "-"
        if s <= args.oracle_max:
            ref_v, ref_d = dop853(B1, mts, s, w0, dw0, grid)
            err = max(float(np.max(np.abs(got - ref).max(axis=1) / np.abs(ref).max(axis=1)))
                      for got, ref in ((values, ref_v), (derivs, ref_d)))
            err = f"{err:.1e}"
        print(f"{s:7g} {per_wave:9.2f} {err:>14}")
    whittaker_rows([float(v) for v in args.whittaker_s1.split(",")])


def whittaker_rows(s1s, a=25.0):
    """Time, panel count and mpmath.whitw error of one Whittaker sweep per s1."""
    panels, riccati, collocate = [0, 0], waves._riccati, waves._collocate

    def counted_riccati(q, half):
        panels[0] += len(q)
        return riccati(q, half)

    def counted_collocate(F, half):
        panels[1] += F.size // 32
        return collocate(F, half)

    print(f"{'s1':>7} {'ms/sweep':>9} {'panels':>7} {'err vs whitw':>13}")
    for s1 in s1s:
        p = waves.WhittakerParams(0, s1, a)
        ys = s1 / a * np.linspace(0.75, 1.25, 5)
        times = []
        for _ in range(6):  # the first is a warm-up
            t0 = time.perf_counter()
            got = waves.whittaker_W(p, ys)
            times.append(time.perf_counter() - t0)
        panels[:] = 0, 0
        waves._riccati, waves._collocate = counted_riccati, counted_collocate
        try:
            waves.whittaker_W(p, ys)
        finally:
            waves._riccati, waves._collocate = riccati, collocate
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.re(mpmath.whitw(0, 1j * s1, 2 * a * y))) for y in ys])
        err = np.max(np.abs(got - ref) / np.abs(ref))
        print(f"{s1:7g} {1e3 * np.median(times[1:]):9.1f} {'%d+%d' % tuple(panels):>7} {err:13.1e}")


if __name__ == "__main__":
    main()
