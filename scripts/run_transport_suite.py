#!/usr/bin/env python3
"""Convergence study of the modulus-transport identity and packet forms.

Part 1: for several spectral parameters s, compare |omega(Phi(beta))|
against |w0(beta)| * exp(f3 + normalization shift) and print the max
relative error (expected to decay faster than 1/s).

Part 2: quadratic-form comparison across the magnetic map for a
geodesic-concentrated packet (slow at large s; bound with --s-max); each
row is one `measure_transport_check` call, timed (ms=) with its two forms.

Part 3: the energy-shell check of acceptance criterion 8 on the K = 20
packet at eta0: the off-shell/psi == 1 ratio, the time of the first symbol
on the packet (its waves solved and transformed) and of a further symbol
(one sum over the cached spectrum).

Usage: python3 scripts/run_transport_suite.py [--B 0.5] [--s-max 200]
"""

import argparse
import math
import time

import numpy as np

from hyperlab import quantize as qz
from hyperlab.base import reached_degree
from hyperlab import transport as tr
from hyperlab import waves as W


def modulus_errors(B, mtilde, s_list):
    grid = np.linspace(-1.0, 1.0, 81)
    errs = {}
    for s in s_list:
        _, B1 = reached_degree(B, s)
        table = tr.PhaseTable(B=B1, mtilde=mtilde)
        pts = table.Phi(grid)
        # one solve: the ascended wave at Phi(beta), the base wave w0 at beta
        _, closed, _, w0 = W.ascend(mtilde * s, s, B, np.r_[pts, grid])
        f3s = table.f3(grid, pts)
        pred = np.abs(w0.values[len(grid):]) * np.exp(f3s + tr.wave_norm_shift(B1, mtilde))
        errs[s] = float(np.max(np.abs(np.abs(closed[:len(grid)]) / pred - 1.0)))
    return errs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--B", type=float, default=0.5)
    ap.add_argument("--eta0", type=float, default=0.2)
    ap.add_argument("--s-max", type=float, default=200.0)
    args = ap.parse_args()

    print("# modulus transport |omega(Phi)| vs |w0| e^{f3}")
    s_list = [s for s in (50.0, 100.0, 200.0, 400.0) if s <= args.s_max]
    for mt in (0.0, 0.2, 0.4):
        errs = modulus_errors(args.B, mt, s_list)
        line = "  ".join(f"s={s:.0f}: {e:.3e}" for s, e in errs.items())
        print(f"mtilde={mt}:  {line}")

    print("# packet quadratic forms across the magnetic map")
    obs = qz.Observable(eta0=args.eta0, eps=0.2)
    for s in s_list:
        t0 = time.perf_counter()
        (r,) = qz.measure_transport_check([s], args.B, obs, K=20, l=2 * math.pi)
        ms = 1e3 * (time.perf_counter() - t0)
        print(f"s={r['s']:.0f}  lhs={r['lhs_re']:.6e}  "
              f"rhs={r['rhs_re']:.6e}  rel_diff={r['rel_diff']:.3e}  ms={ms:.1f}")

    print("# energy shell off/ref, ms for the first and each further symbol")
    for s in s_list:
        u = qz.geodesic_packet(s, args.eta0, 20, 2 * math.pi)
        t0 = time.perf_counter()
        ref = qz.energy_shell_test(u, s, 0.0, np.ones_like)
        t1 = time.perf_counter()
        off = qz.energy_shell_test(u, s, 0.0, lambda xi: qz.bump(xi / 0.8))
        t2 = time.perf_counter()
        print(f"s={s:.0f}  off/ref={abs(off) / abs(ref):.3e}  "
              f"first={1e3 * (t1 - t0):.2f} ms  further={1e3 * (t2 - t1):.2f} ms")


if __name__ == "__main__":
    main()
