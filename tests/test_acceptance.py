"""End-to-end acceptance gates for the laboratory.

Each test is one release criterion, run at stated tolerances:

 1. Peak table of the scaled Whittaker ascension (abscissae, ordinates,
    peak shift comparable to 1/s), under 30 s.
 2. Whittaker contiguous relation, relative residual < 1e-8.
 3. Monochromaticity: normalized raising is c1 * branch-I wave with
    log-log decay slope <= -1.8 in s; branch-II leakage likewise.
 4. Modulus transport through the phase diffeomorphism, error < 10/s at
    s = 200 and halving at s = 400.
 5. Numeric magnetic Hamiltonian flow vs closed-form orbits, 1e-6.
 6. Transported geodesics have constant geodesic curvature B/sqrt(B^2+1)
    and speed sqrt(B^2+1); equidistant-curve consistency.
 7. Packet quadratic forms match across the magnetic map, trend in s.
 8. Energy-shell concentration of packets, before and after ascension.
 9. Horocycle/hypercycle equidistribution trends on the octagon.
10. Randomized property suites are present, derandomized, and sized.
"""

import math
import time

import numpy as np
import pytest

import hyperlab.waves as W
from hyperlab import quantize as qz
from hyperlab import transport as tr
from hyperlab.ergodic import (equidistribution_series, octagon_area_means,
                              seeded_unit_vector, tb_shift_check)
from hyperlab.geometry import (HPoint, TangentVec, flow_hamiltonian,
                               hyperbolic_distance, hypercyclic_flow, phi_B,
                               phi_B_inv, scale, transport_T_B)

L = 2 * math.pi


def test_criterion_1_whittaker_peak_table():
    t0 = time.monotonic()
    targets = [(0, 1.884, 2.488e-34), (1, 1.922, 2.499e-34),
               (2, 1.962, 2.510e-34)]
    abscissae = []
    for tau, y_t, v_t in targets:
        p = W.WhittakerParams(tau, 50.0, 25.0)
        peaks = W.whittaker_peaks(p, (1.80, 2.05), n_scan=400,
                                  normalized=True)
        y_pk, v_pk = max(peaks, key=lambda q: q[1])
        assert y_pk == pytest.approx(y_t, abs=2e-3)
        assert v_pk == pytest.approx(v_t, rel=1e-2)
        abscissae.append(y_pk)
    shifts = np.diff(abscissae)
    assert np.all(np.abs(shifts - 0.04) < 0.005)  # comparable to 1/s1 = 0.02
    assert time.monotonic() - t0 < 30.0


def test_criterion_2_contiguous_relation():
    ys = np.linspace(1.0, 3.0, 41)
    for s1 in (25.0, 50.0):
        for tau in (0, 1, 2):
            p0 = W.WhittakerParams(tau, s1, 0.5)
            p1 = W.WhittakerParams(tau + 1, s1, 0.5)
            w0 = W.whittaker_W(p0, ys)
            dw0 = W.whittaker_deriv(p0, ys)
            w1 = W.whittaker_W(p1, ys)
            resid = np.abs(dw0 - ((0.5 - tau / ys) * w0 - w1 / ys))
            assert np.max(resid) / np.max(np.abs(w0)) < 1e-8


def test_criterion_3_monochromaticity_slopes():
    t0 = time.monotonic()
    grid = np.linspace(-1.0, 1.0, 201)
    B1, mt = 0.3, 0.2
    resids, cIIs = [], []
    ss = [50.0, 100.0, 200.0, 400.0]
    for s in ss:
        w = W.solve_wave(B1, mt, s, "I", grid)
        r = W.apply_raising(mt * s, B1 * s, grid, w.values, w.derivs, s=s)
        wup = W.solve_wave(B1 + 1 / s, mt, s, "I", grid)
        resids.append(np.max(np.abs(r - W.c1(B1, mt, s) * wup.values))
                      / np.max(np.abs(r)))
        i0 = len(grid) // 2
        tau = B1 * s
        norm = np.sqrt(s * s + tau * (tau + 1))
        ddw0 = (2j * tau * w.derivs[i0]
                + (tau * tau - s * s * W.Q(B1, mt, 0.0)) * w.values[i0])
        r0 = tau * w.values[i0] + 1j * (mt * s * w.values[i0] + w.derivs[i0])
        dr0 = (tau * w.derivs[i0] - (mt * s * w.values[i0] + w.derivs[i0])
               + 1j * (mt * s * w.derivs[i0] + ddw0))
        _, cII = W.decompose_I_II(r0 / norm, dr0 / norm, B1 + 1 / s, mt, s)
        cIIs.append(abs(cII))
    assert np.polyfit(np.log(ss), np.log(resids), 1)[0] <= -1.8
    assert np.polyfit(np.log(ss), np.log(cIIs), 1)[0] <= -1.8
    assert time.monotonic() - t0 < 120.0


def test_criterion_4_modulus_transport():
    B = 0.5
    grid = np.linspace(-1.0, 1.0, 81)
    for mt in (0.0, 0.2, 0.4):
        errs = {}
        for s in (200.0, 400.0):
            B1 = math.floor(B * s) / s
            table = tr.PhaseTable(B1, mt)
            pts = np.array([table.Phi(b) for b in grid])
            _, closed, _, _ = W.ascend(mt * s, s, B, pts)
            w0 = W.solve_wave(0.0, mt, s, "I", grid)
            f3s = np.array([table.f3(b) for b in grid])
            shift = tr.wave_norm_shift(B1, mt)
            pred = np.abs(w0.values) * np.exp(f3s + shift)
            errs[s] = np.max(np.abs(np.abs(closed) / pred - 1.0))
        assert errs[200.0] < 10.0 / 200.0
        assert errs[400.0] < 0.5 * errs[200.0]


def test_criterion_5_hamiltonian_conjugacy():
    z0 = HPoint(0.3, 1.2)
    for B in (0.0, 0.5, 1.0, 2.0):
        level = math.sqrt(B * B + 1.0)
        v0 = scale(TangentVec(z0, 0.6 * z0.y, 0.8 * z0.y), level)
        p0 = phi_B_inv(v0, B)
        for t in np.linspace(0.0, 5.0, 11):
            closed = hypercyclic_flow(v0, B, float(t))
            numeric = phi_B(flow_hamiltonian(p0, B, float(t)), B)
            assert hyperbolic_distance(closed.base, numeric.base) < 1e-6
            assert abs(closed.vx - numeric.vx) < 1e-6 * level * closed.base.y
            assert abs(closed.vy - numeric.vy) < 1e-6 * level * closed.base.y


def test_criterion_6_transport_geometry():
    v0 = TangentVec(HPoint(0.2, 1.1), 0.6 * 1.1, 0.8 * 1.1)
    h = 2e-4
    for B in (0.0, 0.5, 1.0, 2.0):
        vB = transport_T_B(v0, B)
        level = math.sqrt(B * B + 1.0)
        for t in np.linspace(0.2, 4.8, 9):
            vm = hypercyclic_flow(vB, B, t - h)
            vp = hypercyclic_flow(vB, B, t + h)
            vc = hypercyclic_flow(vB, B, t)
            psi_m = math.atan2(vm.vy, vm.vx)
            psi_p = np.unwrap([psi_m, math.atan2(vp.vy, vp.vx)])[1]
            dpsi = (psi_p - psi_m) / (2 * h)
            dx = (vp.base.x - vm.base.x) / (2 * h)
            kappa = abs(dpsi + dx / vc.base.y) / vc.speed()
            assert abs(kappa - B / level) < 1e-6
            assert abs(vc.speed() - level) < 1e-9
        assert tb_shift_check(v0, B, 5.0) < 1e-6


@pytest.mark.slow
def test_criterion_7_measure_transport_trend():
    t0 = time.monotonic()
    obs = qz.Observable(eta0=0.2, eps=0.2)
    rows = qz.measure_transport_check([100.0, 200.0, 400.0], 0.5, obs,
                                      K=20, l=L)
    diffs = [r["rel_diff"] for r in rows]
    assert diffs[0] >= diffs[1] >= diffs[2]
    assert diffs[2] < 0.1
    assert time.monotonic() - t0 < 900.0


@pytest.mark.slow
def test_criterion_8_energy_shell_concentration():
    off_by_s = {}
    for s in (200.0, 400.0):
        u = qz.geodesic_packet(s, 0.2, 20, L)
        ref = abs(qz.energy_shell_test(u, s, 0.0,
                                       lambda xi: np.ones_like(xi)))
        off = abs(qz.energy_shell_test(u, s, 0.0,
                                       lambda xi: qz._bump_arr(xi / 0.8)))
        assert off < 0.05 * ref
        off_by_s[s] = off
    assert off_by_s[400.0] < 0.5 * off_by_s[200.0]

    # ascended packet at tau/s = 8: the rescaled energy shell {H_1 = 1/2}
    # sits at transported frequency 2 (and 0) for every beta
    s = 25.0
    u_b = qz.ascend_coeffs(qz.geodesic_packet(s, 0.2, 7, L), s, 8.0)
    hp = 1.0 / 200.0
    ref = abs(qz.energy_shell_test(u_b, s, 8.0,
                                   lambda xi: np.ones_like(xi), h_param=hp))
    on = abs(qz.energy_shell_test(
        u_b, s, 8.0,
        lambda xi: qz._bump_arr((xi - 2.0) / 1.2) + qz._bump_arr(xi / 1.2),
        h_param=hp))
    off = abs(qz.energy_shell_test(
        u_b, s, 8.0, lambda xi: qz._bump_arr((xi - 1.0) / 0.5), h_param=hp))
    assert on > 0.95 * ref
    assert off < 0.05 * ref


@pytest.mark.slow
def test_criterion_9_equidistribution_trends():
    v0 = seeded_unit_vector(7)
    rows = equidistribution_series("horocyclic", v0, [1e2, 1e3, 1e4])
    discs = [d for _, d in rows]
    assert discs[0] >= discs[1] >= discs[2]
    assert discs[2] < 0.05
    d5 = equidistribution_series("hypercyclic", v0, [1e3], B=5.0)[0][1]
    d05 = equidistribution_series("hypercyclic", v0, [1e3], B=0.5)[0][1]
    assert d5 < d05


def test_criterion_10_property_suites_fixed_and_sized():
    from hypothesis import settings
    assert settings().derandomize is True
    assert settings().max_examples == 1000
    import importlib.util
    import inspect
    from pathlib import Path
    here = Path(__file__).parent
    n_property = 0
    for name in ("test_geometry", "test_groups", "test_quantize",
                 "test_transport", "test_waves"):
        spec = importlib.util.spec_from_file_location(
            f"_prop_{name}", here / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        for _, fn in inspect.getmembers(mod, inspect.isfunction):
            if hasattr(fn, "hypothesis"):
                n_property += 1
    assert n_property >= 20
