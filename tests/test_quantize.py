"""Tests for cylinder quantization, packets, and measure transport."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import quantize as qz
from hyperlab import transport as tr
from hyperlab.waves import WaveCoeffs, c1, solve_wave

L = 2 * math.pi


# --- bump profile ---


def test_bump_plateau_and_support():
    assert qz.bump(0.0) == 1.0
    assert qz.bump(0.25) == 1.0
    assert qz.bump(-0.2) == 1.0
    assert qz.bump(0.5) == 0.0
    assert qz.bump(0.6) == 0.0
    assert 0.0 < qz.bump(0.35) < 1.0


@settings(deadline=None)
@given(t=st.floats(-2, 2, allow_nan=False))
def test_bump_symmetric_and_bounded(t):
    v = qz.bump(t)
    assert 0.0 <= v <= 1.0
    assert v == qz.bump(-t)


def test_bump_monotone_shoulder():
    xs = np.linspace(0.25, 0.5, 40)
    vs = [qz.bump(x) for x in xs]
    assert all(a >= b for a, b in zip(vs, vs[1:]))


def test_bump_maps_arrays_to_arrays_and_scalars_to_floats():
    ts = np.array([[-0.6, -0.3, 0.0], [0.26, 0.4, 0.5]])
    out = qz.bump(ts)
    assert out.shape == ts.shape
    assert out.tolist() == [[qz.bump(float(t)) for t in row] for row in ts]
    assert type(qz.bump(0.3)) is float
    assert qz._bump_arr is qz.bump


@pytest.mark.parametrize("kw", [{"eta0": math.nan}, {"eta0": 0.2, "beta0": math.inf},
                                {"eta0": 0.2, "sigma0": -math.inf},
                                {"eta0": 0.2, "eps": math.nan},
                                {"eta0": 0.2, "eps": 0.0}, {"eta0": 0.2, "eps": -0.2}])
def test_observable_rejects_non_finite_or_non_positive_width(kw):
    with pytest.raises(ValueError):
        qz.Observable(**kw)


def test_observable_profiles():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    # phi1 plateau around eta0, support of width eps
    assert obs.phi1(0.2) == 1.0
    assert obs.phi1(0.31) == 0.0
    # phi4 step
    assert obs.phi4(-0.5) == 0.0
    assert obs.phi4(0.0) == 0.0
    assert obs.phi4(0.3) == 1.0
    # phi5 covers supp phi1, vanishes outside (-1/2, 1/2)
    assert obs.phi5(0.25) == 1.0
    assert obs.phi5(0.51) == 0.0
    # sigma transform at zero frequency is the integral of phi3
    assert obs.sigma_ft(0.0).real == pytest.approx(0.15, abs=1e-10)
    assert obs.sigma_ft(0.0).imag == 0.0


# --- pair forms ---


def test_q_mm_eta_cutoff_gives_zero():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    s = 100.0
    grid = np.linspace(-0.1, 0.1, 201)
    w = solve_wave(0.0, 0.45, s, "I", grid, 1e-10)
    # m/s = 0.45 lies outside supp phi1 = [0.1, 0.3]
    assert qz.q_mm(45.0, 45.0, obs, s, grid, w.values, w.values) == 0.0


def test_q_mm_diagonal_factorizes():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    s, m = 100.0, 20.0
    grid = np.linspace(-0.1, 0.1, 401)
    w = solve_wave(0.0, m / s, s, "I", grid, 1e-10)
    got = qz.q_mm(m, m, obs, s, grid, w.values, w.values)
    beta_int = qz._simpson(obs.phi2(grid) * np.abs(w.values) ** 2,
                           grid[1] - grid[0])
    expect = 1.0 * obs.sigma_ft(0.0) * beta_int
    assert got == pytest.approx(expect, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_quad_form_single_frequency_reduces_to_q_mm():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    s, m = 100.0, 20.0
    coeffs = WaveCoeffs(l=L, entries={m: (1.0, 0.0)})
    full = qz.quad_form(coeffs, obs, 0.0, s)
    grid = np.linspace(*obs.beta_support(), 801)
    w = solve_wave(0.0, m / s, s, "I", grid, 1e-10)
    assert full == pytest.approx(
        qz.q_mm(m, m, obs, s, grid, w.values, w.values), rel=1e-10)


def test_quad_form_empty_window():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    coeffs = WaveCoeffs(l=L, entries={})
    assert qz.quad_form(coeffs, obs, 0.0, 100.0) == 0.0


def test_quad_form_real_observable_hermitian():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    rng = np.random.default_rng(9)
    s = 100.0
    ms = [18.0, 19.0, 20.0, 21.0, 22.0]
    entries = {m: (complex(rng.normal(), rng.normal()), 0.0) for m in ms}
    coeffs = WaveCoeffs(l=L, entries=entries)
    val = qz.quad_form(coeffs, obs, 0.0, s)
    assert abs(val.imag) < 1e-8 * coeffs.norm_sq()


def test_quad_form_faraway_pairs_small():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    diffs = []
    for s in (100.0, 200.0):
        u = qz.geodesic_packet(s, 0.2, 10, L)
        windowed = qz.quad_form(u, obs, 0.0, s)
        full = qz.quad_form(u, obs, 0.0, s, freq_window=1e9)
        diffs.append(abs(full - windowed) / abs(full))
    for d, s in zip(diffs, (100.0, 200.0)):
        assert d < 2.0 * s ** -0.125
    # widening the window to 2 s^{1/8} changes less than the full gap
    s = 100.0
    u = qz.geodesic_packet(s, 0.2, 10, L)
    w1 = qz.quad_form(u, obs, 0.0, s)
    w2 = qz.quad_form(u, obs, 0.0, s, freq_window=2 * s ** 0.125)
    assert abs(w2 - w1) <= abs(
        qz.quad_form(u, obs, 0.0, s, freq_window=1e9) - w1) + 1e-12


def _quad_form_by_pairs(coeffs, obs, B, s, n_grid):
    """quad_form as a double loop with one single-wave solve per (m, m')."""
    grid = np.linspace(*obs.beta_support(), n_grid)
    B1 = math.floor(B * s) / s
    total = 0j
    for m, (am, _) in coeffs.entries.items():
        mt = m / s
        pts, weight, f4v = grid, obs.phi2(grid), np.zeros_like(grid)
        if B1 > 0:
            table = tr.PhaseTable(B=B1, mtilde=mt)
            pts, f4v = table.Phi(grid), table.f4(grid)
            weight = weight * np.exp(-2.0 * (table.f3(grid)
                                             + tr.wave_norm_shift(B1, mt)))
        wm = solve_wave(B1, mt, s, "I", pts, 1e-10).values
        for mp, (amp, _) in coeffs.entries.items():
            if abs(mp - m) > qz.default_window(s):
                continue
            wmp = solve_wave(B1, mp / s, s, "I", pts, 1e-10).values
            integrand = weight * wm * np.conj(wmp) * np.exp(1j * (m - mp) * f4v)
            total += (am * np.conj(amp) * qz.bump(mt * 0.999)
                      * qz.bump(mp / s * 0.999)
                      * qz.bump((mt - obs.eta0) / obs.eps) * obs.sigma_ft(m - mp)
                      * qz._simpson(integrand, grid[1] - grid[0]))
    return total


@pytest.mark.parametrize("B", [0.0, 0.5])
def test_quad_form_matches_pairwise_single_solves(B):
    s = 50.0
    obs = qz.Observable(eta0=0.2, eps=0.2)
    u = qz.ascend_coeffs(qz.geodesic_packet(s, 0.2, 6, L), s, B)
    ref = _quad_form_by_pairs(u, obs, B, s, 41)
    assert abs(qz.quad_form(u, obs, B, s, n_grid=41) - ref) <= 1e-8 * abs(ref)


@pytest.mark.parametrize("n_grid", [1, 2, 40])
def test_quad_form_rejects_bad_grid_before_solving(monkeypatch, n_grid):
    # the Simpson rule needs an odd sample count of at least 3
    monkeypatch.setattr(qz, "solve_waves", None)
    obs = qz.Observable(eta0=0.2, eps=0.2)
    with pytest.raises(ValueError, match="n_grid"):
        qz.quad_form(qz.geodesic_packet(50.0, 0.2, 3, L), obs, 0.0, 50.0, n_grid=n_grid)


@pytest.mark.parametrize("B", [np.nan, np.inf, -0.5])
def test_quad_form_rejects_bad_field(B):
    obs = qz.Observable(eta0=0.2, eps=0.2)
    with pytest.raises(ValueError):
        qz.quad_form(qz.geodesic_packet(50.0, 0.2, 3, L), obs, B, 50.0)


# --- packets ---


def test_packet_single_harmonic():
    u = qz.geodesic_packet(100.0, 0.2, 1, L)
    assert list(u.entries.keys()) == [20.0]
    assert u.entries[20.0][0] == 1.0


def test_packet_normalization_and_lattice():
    u = qz.geodesic_packet(250.0, 0.2, 20, L)
    assert u.norm_sq() == pytest.approx(1.0, abs=1e-12)
    for m in u.entries:
        assert m == pytest.approx(round(m * L / (2 * math.pi))
                                  * 2 * math.pi / L, abs=1e-9)
    assert len(u.entries) == 20


def test_packet_rejects_bad_input():
    for s, eta0, K, l in [(100.0, 0.7, 5, L), (100.0, 0.2, 0, L), (math.inf, 0.2, 5, L),
                          (math.nan, 0.2, 5, L), (100.0, 0.2, 5, math.inf)]:
        with pytest.raises(ValueError, match="need"):
            qz.geodesic_packet(s, eta0, K, l)


def test_position_density_rejects_non_finite_s():
    u = qz.geodesic_packet(100.0, 0.2, 3, L)
    with pytest.raises(ValueError):  # RuntimeWarnings are errors in this suite
        qz.packet_position_density(u, math.inf, np.zeros(3), np.zeros(2))


@pytest.mark.slow
def test_packet_concentrates_on_limit_geodesic():
    s, K = 400.0, 20
    u = qz.geodesic_packet(s, 0.2, K, L)
    betas = np.linspace(-1.0, 1.0, 161)
    sigmas = np.linspace(0, L, 256, endpoint=False)
    dens = qz.packet_position_density(u, s, betas, sigmas)
    sigma_ref = sigmas[np.argmax(dens[np.argmin(np.abs(betas))])]
    bc = np.linspace(-1.3, 1.3, 400)
    sc = qz.limit_geodesic_sigma(0.2, sigma_ref, bc)
    cx, cy = np.exp(sc) * np.sin(bc), np.exp(sc) * np.cos(bc)
    mass_in = mass_tot = 0.0
    for i, b in enumerate(betas):
        for j, sg in enumerate(sigmas):
            w = dens[i, j]
            mass_tot += w
            best = min(
                np.min(np.arccosh(
                    1 + ((math.exp(sg + d) * math.sin(b) - cx) ** 2
                         + (math.exp(sg + d) * math.cos(b) - cy) ** 2)
                    / (2 * math.exp(sg + d) * math.cos(b) * cy)))
                for d in (-L, 0.0, L))
            if best < 0.2:
                mass_in += w
    assert mass_in / mass_tot > 0.8


# --- coefficient ascension ---


@pytest.mark.parametrize("eta0", [0.2, -0.45, 0.9])
def test_limit_geodesic_sigma_matches_mpmath_quad(eta0):
    mpmath = pytest.importorskip("mpmath")
    betas = np.array([0.0, 0.3, -0.8, 1.3, -1.55, math.pi / 2 - 1e-6])
    got = qz.limit_geodesic_sigma(eta0, 0.7, betas)
    with mpmath.workdps(30):
        for b, val in zip(betas, got):
            ref = 0.7 + mpmath.quad(
                lambda x: eta0 / mpmath.sqrt(mpmath.sec(x) ** 2 - eta0 ** 2), [0, b])
            assert abs(val - float(ref)) <= 1e-12 * abs(float(ref))


@pytest.mark.parametrize("eta0, sigma_ref, betas", [
    (1.2, 0.0, [0.3]), (-1.0, 0.0, [0.3]), (math.nan, 0.0, [0.3]),
    (0.2, math.inf, [0.3]), (0.2, 0.0, [2.0]), (0.2, 0.0, [0.1, -math.pi / 2]),
    (0.2, 0.0, [math.nan]),
])
def test_limit_geodesic_sigma_rejects_bad_input(eta0, sigma_ref, betas):
    # eta0 = 1.2 used to give nan and beta = 2 a number
    with pytest.raises(ValueError):
        qz.limit_geodesic_sigma(eta0, sigma_ref, np.array(betas))


def test_ascend_coeffs_zero_steps_identity():
    u = qz.geodesic_packet(100.0, 0.2, 5, L)
    assert qz.ascend_coeffs(u, 100.0, 0.005) is u


def test_ascend_coeffs_modulus_matches_b7():
    s, B = 400.0, 0.5
    u = qz.geodesic_packet(s, 0.2, 5, L)
    uB = qz.ascend_coeffs(u, s, B)
    for m in u.entries:
        ratio = abs(uB.entries[m][0]) / abs(u.entries[m][0])
        assert ratio == pytest.approx(math.exp(tr.b7(B, m / s)),
                                      abs=10.0 / s)


def test_ascend_coeffs_matches_exact_chain():
    from hyperlab.waves import ascend

    s, B, m = 100.0, 0.5, 20.0
    grid = np.linspace(-0.4, 0.4, 81)
    u = WaveCoeffs(l=L, entries={m: (1.0, 0.0)})
    uB = qz.ascend_coeffs(u, s, B)
    wB = solve_wave(math.floor(B * s) / s, m / s, s, "I", grid, 1e-11)
    approx = uB.entries[m][0] * wB.values
    exact, _, _ = ascend(m, s, B, grid, tol=1e-11)
    rel = np.max(np.abs(approx - exact.values)) / np.max(np.abs(exact.values))
    assert rel < 10.0 / s


def test_ascend_coeffs_matches_loop_product():
    s, B = 25.0, 8.0
    u = qz.geodesic_packet(s, 0.2, 4, L)
    uB = qz.ascend_coeffs(u, s, B)
    for m, (a, _) in u.entries.items():
        prod = 1.0 + 0j
        for tau in range(int(math.floor(B * s))):
            prod *= c1(tau / s, m / s, s)
        assert abs(uB.entries[m][0] - a * prod) <= 1e-12 * abs(a * prod)


@pytest.mark.parametrize("s, B", [(100.0, -1.0), (100.0, np.nan),
                                  (100.0, np.inf), (0.0, 0.5), (np.nan, 0.5)])
def test_ascend_coeffs_rejects_bad_input(s, B):
    with pytest.raises(ValueError):
        qz.ascend_coeffs(WaveCoeffs(l=L, entries={20.0: (1.0, 0.0)}), s, B)
    with pytest.raises(ValueError):
        qz.ascend_coeffs(WaveCoeffs(l=L, entries={np.nan: (1.0, 0.0)}), 100.0, 0.5)


def test_ascend_coeffs_rejects_mixed_branches():
    u = WaveCoeffs(l=L, entries={20.0: (1.0, 0.5)})
    with pytest.raises(ValueError):
        qz.ascend_coeffs(u, 100.0, 0.5)


# --- measure transport ---


def test_measure_transport_zero_field_exact():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    rows = qz.measure_transport_check([100.0], 0.0, obs, K=5)
    assert rows[0]["rel_diff"] == 0.0


def test_a1_inverts_to_a0():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    B = 0.5
    rng = np.random.default_rng(2)
    for _ in range(5):
        beta = rng.uniform(-0.09, 0.09)
        sigma = rng.uniform(-0.09, 0.09)
        eta = rng.uniform(0.12, 0.28)
        table = tr.PhaseTable(B=B, mtilde=eta)
        bp = table.Phi(beta)
        a1 = qz.a1_density(obs, B, bp, sigma + table.f4(beta), eta)
        h = 1e-6
        dphi = (table.Phi(beta + h) - table.Phi(beta - h)) / (2 * h)
        a0 = (float(obs.phi1(eta)) * float(obs.phi2(beta))
              * float(obs.phi3(sigma)))
        assert a1 * dphi * math.exp(2 * table.f3(beta)) == pytest.approx(
            a0, abs=1e-8)


# --- energy shell ---


def test_energy_shell_zero_observable():
    u = qz.geodesic_packet(100.0, 0.2, 3, L)
    val = qz.energy_shell_test(u, 100.0, 0.0, lambda xi: np.zeros_like(xi))
    assert val == 0.0


def test_energy_shell_off_shell_small():
    u = qz.geodesic_packet(100.0, 0.2, 5, L)
    ref = qz.energy_shell_test(u, 100.0, 0.0, lambda xi: np.ones_like(xi))
    off = qz.energy_shell_test(u, 100.0, 0.0,
                               lambda xi: qz._bump_arr(xi / 0.8))
    assert abs(off) < 1e-8 * abs(ref)


@pytest.mark.parametrize("s, B1, K, h_param", [(100.0, 0.0, 5, None),
                                               (25.0, 8.0, 3, 1.0 / 200.0)])
def test_energy_shell_packet_is_sum_of_single_frequencies(s, B1, K, h_param):
    # the batched solve of the whole packet against one solve per frequency
    u = qz.geodesic_packet(s, 0.2, K, L)
    if B1 > 0:
        u = qz.ascend_coeffs(u, s, B1)
    profile = lambda xi: qz._bump_arr((xi - 1.0) / 2.0)  # noqa: E731
    whole = qz.energy_shell_test(u, s, B1, profile, h_param=h_param)
    parts = sum(qz.energy_shell_test(WaveCoeffs(l=L, entries={m: e}), s, B1,
                                     profile, h_param=h_param)
                for m, e in u.entries.items())
    assert abs(whole - parts) <= 1e-8 * abs(parts)


def _direct_shell(coeffs, s, B1, profile, h_param=None, beta_cut=2.4, n=8192,
                  tol=1e-10):
    """Frozen direct form: per wave, FFT, multiply, inverse FFT, inner product."""
    if h_param is None:
        h_param = 1.0 / s
    grid = np.linspace(-beta_cut / 2, beta_cut / 2, n, endpoint=False)
    h = grid[1] - grid[0]
    taper = qz.bump(grid / beta_cut)
    ms, alpha = qz._packet(coeffs)
    waves = qz._branch_I(B1, ms / s, s, grid, tol)
    mult = np.asarray(profile(2 * math.pi * np.fft.fftfreq(n, d=h) * h_param),
                      dtype=complex)
    forms = np.empty(len(ms), dtype=complex)
    for k, w in enumerate(waves):
        u = w * taper
        v = np.fft.ifft(mult * np.fft.fft(u))
        forms[k] = np.sum(taper * v * np.conj(u)) * h
    return complex(np.sum(np.abs(alpha) ** 2 * coeffs.l * forms))


@pytest.mark.parametrize("s, B1, K, h_param, on, offs", [
    # the two packet-shell configs, then the first packet of criterion 8;
    # `on` symbols are compared with themselves, `offs` with psi == 1
    (100.0, 0.0, 6, None, [lambda xi: qz.bump((xi - 1.0) / 2.0) * np.exp(1j * xi)],
     [lambda xi: qz.bump(xi / 0.8)]),
    (25.0, 8.0, 2, 1.0 / 200.0, [], [lambda xi: qz.bump((xi - 1.0) / 0.5)]),
    (200.0, 0.0, 20, None, [lambda xi: qz.bump(xi / 8.0)],
     [lambda xi: qz.bump(xi / 0.8)])])
def test_energy_shell_matches_the_direct_fft_loop(s, B1, K, h_param, on, offs):
    u = qz.geodesic_packet(s, 0.2, K, L)
    if B1 > 0:
        u = qz.ascend_coeffs(u, s, B1)
    ref = _direct_shell(u, s, B1, np.ones_like, h_param)
    for profile in [np.ones_like] + on:
        want = _direct_shell(u, s, B1, profile, h_param)
        got = qz.energy_shell_test(u, s, B1, profile, h_param=h_param)
        assert abs(got - want) <= 1e-12 * abs(want)
    for profile in offs:
        want = _direct_shell(u, s, B1, profile, h_param)
        got = qz.energy_shell_test(u, s, B1, profile, h_param=h_param)
        assert abs(got - want) <= 1e-15 * abs(ref)


def test_energy_shell_solves_each_packet_once(monkeypatch):
    solve, solves = qz.solve_waves, []

    def counting(*args, **kw):
        solves.append(1)
        return solve(*args, **kw)

    monkeypatch.setattr(qz, "solve_waves", counting)
    qz._shell_spectrum.cache_clear()
    u = qz.geodesic_packet(100.0, 0.2, 3, L)
    qz.energy_shell_test(u, 100.0, 0.0, np.ones_like)
    qz.energy_shell_test(u, 100.0, 0.0, lambda xi: qz.bump(xi / 0.8))
    qz.energy_shell_test(u, 100.0, 0.0, np.ones_like, h_param=0.02)
    assert len(solves) == 1
    # a different alpha, l, B1, s or tol: a fresh solve each
    doubled = WaveCoeffs(l=L, entries={m: (2 * a, b) for m, (a, b) in u.entries.items()})
    for coeffs, s, B1, kw in [(doubled, 100.0, 0.0, {}),
                              (WaveCoeffs(l=1.0, entries=u.entries), 100.0, 0.0, {}),
                              (u, 100.0, 0.5, {}), (u, 120.0, 0.0, {}),
                              (u, 100.0, 0.0, {"tol": 1e-9})]:
        before = len(solves)
        qz.energy_shell_test(coeffs, s, B1, np.ones_like, **kw)
        assert len(solves) == before + 1


def test_energy_shell_spectrum_is_read_only():
    u = qz.geodesic_packet(100.0, 0.2, 2, L)
    qz.energy_shell_test(u, 100.0, 0.0, np.ones_like, n=256)
    ms, alpha = qz._packet(u)
    spec = qz._shell_spectrum(tuple(ms.tolist()),
                              tuple((np.abs(alpha) ** 2 * L).tolist()),
                              100.0, 0.0, 2.4, 256, 1e-10)
    assert qz._shell_spectrum.cache_info().hits >= 1
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


def test_energy_shell_first_call_memory():
    # a solve and FFT loop per call peaked at 3.16 MiB here
    qz.energy_shell_test(qz.geodesic_packet(100.0, 0.3, 6, L), 100.0, 0.0, np.ones_like)
    qz._shell_spectrum.cache_clear()
    u = qz.geodesic_packet(100.0, 0.2, 6, L)
    tracemalloc.start()
    try:
        qz.energy_shell_test(u, 100.0, 0.0, np.ones_like)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2**20


@pytest.mark.parametrize("s, kw", [
    (100.0, {"beta_cut": -2.4}), (100.0, {"beta_cut": 0.0}),
    (100.0, {"beta_cut": math.pi}), (100.0, {"beta_cut": math.nan}),
    (100.0, {"n": 0}), (100.0, {"n": 1}),
    (100.0, {"h_param": math.nan}), (100.0, {"h_param": 0.0}),
    (100.0, {"h_param": -0.01}), (100.0, {"h_param": math.inf}),
    (100.0, {"xi_profile": lambda xi: np.full_like(xi, math.nan)}),
    (100.0, {"xi_profile": lambda xi: 1.0}),
    (100.0, {"xi_profile": lambda xi: np.ones(len(xi) - 1)}),
    (math.inf, {}), (0.0, {}), (100.0, {"B1": -1.0}), (100.0, {"B1": math.nan})])
def test_energy_shell_rejects_bad_input_before_solving(monkeypatch, s, kw):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input checks")

    monkeypatch.setattr(qz, "solve_waves", no_solve)
    qz._shell_spectrum.cache_clear()
    kw = {"B1": 0.0, "xi_profile": np.ones_like, **kw}
    with pytest.raises(ValueError):  # RuntimeWarnings are errors in this suite
        qz.energy_shell_test(qz.geodesic_packet(100.0, 0.2, 2, L), s, **kw)
