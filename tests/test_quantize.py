"""Tests for cylinder quantization, packets, and measure transport."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import quantize as qz
from hyperlab import transport as tr
from hyperlab.quantize import WaveCoeffs
from hyperlab.waves import c1, solve_wave

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


@pytest.mark.parametrize("kw", [{"eta0": math.nan}, {"eta0": 0.2, "sigma0": -math.inf},
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
    # sigma transform at zero frequency is the integral of phi3
    assert obs.sigma_ft(0.0).real == pytest.approx(0.15, abs=1e-10)
    assert obs.sigma_ft(0.0).imag == 0.0


def test_observable_equality_ignores_the_transform_cache():
    obs, other = qz.Observable(0.2), qz.Observable(0.2)
    obs.sigma_ft(3.0)
    assert obs == other
    assert obs != qz.Observable(0.2, eps=0.1)


def test_sigma_ft_on_an_array_matches_the_scalar_calls():
    obs = qz.Observable(eta0=0.2, sigma0=0.3, eps=0.2)
    # differences within quad_form's window, which share one 8-panel rule
    ks = np.array([[-2.0, -1.0, 0.0], [0.5, 1.0, 2.0]])
    got = obs.sigma_ft(ks)
    assert got.shape == ks.shape
    want = np.array([[obs.sigma_ft(k) for k in row] for row in ks])
    assert np.max(np.abs(got - want)) <= 1e-15
    assert obs.sigma_ft(0.0).imag == 0.0
    # |k| = 9.5 adds a ninth panel for the whole array: the rules differ by
    # their own error, 5e-15 at k = 0
    wide = obs.sigma_ft(np.array([0.0, 9.5]))
    assert np.max(np.abs(wide - [obs.sigma_ft(0.0), obs.sigma_ft(9.5)])) <= 1e-14


# --- packet boundary ---


@pytest.mark.parametrize("l, ms, alpha", [
    (-1.0, [20.0], [1.0]), (0.0, [20.0], [1.0]), (math.nan, [20.0], [1.0]),
    (math.inf, [20.0], [1.0]),
    (L, [20.0, 21.0], [1.0, math.nan]), (L, [20.0], [complex(1.0, math.inf)]),
    (L, [math.nan], [1.0]), (L, [20.0, math.inf], [1.0, 1.0]),
    (L, [21.0, 20.0], [1.0, 1.0]), (L, [20.0, 20.0], [1.0, 1.0]),
    (L, [20.0, 21.0], [1.0]), (L, [[20.0, 21.0]], [[1.0, 1.0]]), (L, 20.0, 1.0)],
    ids=["l-negative", "l-zero", "l-nan", "l-inf", "alpha-nan", "alpha-inf", "ms-nan",
         "ms-inf", "ms-unsorted", "ms-duplicate", "shape-mismatch", "ms-2d", "ms-0d"])
def test_wave_coeffs_rejects_bad_packets(l, ms, alpha):
    # l = -1 gave an energy-shell "form" of -1.447, a NaN alpha a NaN form
    with pytest.raises(ValueError, match="need"):
        WaveCoeffs(l, ms, alpha)


def test_wave_coeffs_are_read_only_copies():
    ms, alpha = np.array([20.0, 21.0]), np.array([1.0, 0.5])
    u = WaveCoeffs(L, ms, alpha)
    ms[0], alpha[0] = 0.0, 0.0
    assert u.ms.tolist() == [20.0, 21.0] and u.alpha.tolist() == [1.0, 0.5]
    with pytest.raises(ValueError):
        u.alpha[0] = 2.0


def test_entries_pin_the_dict_read_by_perfbench():
    u = qz.ascend_coeffs(qz.geodesic_packet(25.0, 0.2, 2, L), 25.0, 8.0)
    assert u.entries == {m: (a, 0j) for m, a in zip(u.ms, u.alpha)}
    assert list(u.entries) == sorted(u.entries)


@pytest.mark.parametrize("call", [
    lambda: solve_wave(0.0, 1.0, 100.0, "I", np.linspace(-0.1, 0.1, 5)),
    lambda: solve_wave(0.0, 1.5, 100.0, "I", np.linspace(-0.1, 0.1, 5)),
    lambda: qz.branch_ic(math.nan, 0.2, 100.0, "I"),
    lambda: qz.energy_shell_test(WaveCoeffs(L, [150.0], [1.0]), 100.0, 0.0, np.ones_like),
    lambda: qz.packet_position_density(WaveCoeffs(L, [150.0], [1.0]), 100.0,
                                       np.zeros(3), np.zeros(2))],
    ids=["solve-mtilde-1", "solve-mtilde-1.5", "nan-B1", "shell-m-1.5s", "density-m-1.5s"])
def test_branch_ic_rejects_forbidden_or_non_finite_data(call):
    # Q(B1, mtilde, 0) <= 0 used to raise RuntimeWarnings from the WKB arithmetic
    with pytest.raises(ValueError, match="need"):
        call()


# --- quadratic forms ---


def test_quad_form_eta_cutoff_gives_zero():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    # m/s = 0.45 lies outside supp phi1 = [0.1, 0.3]
    assert qz.quad_form(WaveCoeffs(L, [45.0], [1.0]), obs, 0.0, 100.0, n_grid=201) == 0.0


def test_quad_form_single_frequency_factorizes():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    s, m = 100.0, 20.0
    grid = np.linspace(-0.1, 0.1, 401)
    w = qz._branch_I(0.0, np.array([m / s]), s, grid)[0]
    got = qz.quad_form(WaveCoeffs(L, [m], [1.0]), obs, 0.0, s, n_grid=401)
    beta_int = qz._simpson(obs.phi2(grid) * np.abs(w) ** 2, grid[1] - grid[0])
    expect = 1.0 * obs.sigma_ft(0.0) * beta_int
    assert got == pytest.approx(expect, rel=1e-12)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_quad_form_single_frequency_matches_single_wave_solve():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    s, m = 100.0, 20.0
    full = qz.quad_form(WaveCoeffs(L, [m], [1.0]), obs, 0.0, s)
    grid = np.linspace(*obs.beta_support(), 801)
    w = solve_wave(0.0, m / s, s, "I", grid)
    assert full == pytest.approx(obs.sigma_ft(0.0) * qz._simpson(
        obs.phi2(grid) * w.values * np.conj(w.values), grid[1] - grid[0]), rel=1e-10)


def test_quad_form_empty_window():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    coeffs = WaveCoeffs(L, [], [])
    assert qz.quad_form(coeffs, obs, 0.0, 100.0) == 0.0


def test_quad_form_real_observable_hermitian():
    obs = qz.Observable(eta0=0.2, eps=0.2)
    rng = np.random.default_rng(9)
    s = 100.0
    ms = [18.0, 19.0, 20.0, 21.0, 22.0]
    coeffs = WaveCoeffs(L, ms, [complex(rng.normal(), rng.normal()) for _ in ms])
    val = qz.quad_form(coeffs, obs, 0.0, s)
    assert abs(val.imag) < 1e-8 * np.sum(np.abs(coeffs.alpha) ** 2)


def _quad_form_in_window(monkeypatch, window, *args):
    """quad_form with the frequency window fixed at window."""
    with monkeypatch.context() as m:
        m.setattr(qz, "default_window", lambda s: window)
        return qz.quad_form(*args)


def test_quad_form_faraway_pairs_small(monkeypatch):
    obs = qz.Observable(eta0=0.2, eps=0.2)
    diffs = []
    for s in (100.0, 200.0):
        u = qz.geodesic_packet(s, 0.2, 10, L)
        windowed = qz.quad_form(u, obs, 0.0, s)
        full = _quad_form_in_window(monkeypatch, 1e9, u, obs, 0.0, s)
        diffs.append(abs(full - windowed) / abs(full))
    for d, s in zip(diffs, (100.0, 200.0)):
        assert d < 2.0 * s ** -0.125
    # widening the window to 2 s^{1/8} changes less than the full gap
    s = 100.0
    u = qz.geodesic_packet(s, 0.2, 10, L)
    w1 = qz.quad_form(u, obs, 0.0, s)
    w2 = _quad_form_in_window(monkeypatch, 2 * s ** 0.125, u, obs, 0.0, s)
    assert abs(w2 - w1) <= abs(
        _quad_form_in_window(monkeypatch, 1e9, u, obs, 0.0, s) - w1) + 1e-12


def _quad_form_by_pairs(coeffs, obs, B, s, n_grid):
    """quad_form as a double loop with one single-wave solve per (m, m')."""
    grid = np.linspace(*obs.beta_support(), n_grid)
    B1 = math.floor(B * s) / s
    total = 0j
    for m, am in zip(coeffs.ms, coeffs.alpha):
        mt = m / s
        pts, weight, f4v = grid, obs.phi2(grid), np.zeros_like(grid)
        if B1 > 0:
            table = tr.PhaseTable(B=B1, mtilde=mt)
            pts, f4v = table.Phi(grid), table.f4(grid)
            weight = weight * np.exp(-2.0 * (table.f3(grid)
                                             + tr.wave_norm_shift(B1, mt)))
        wm = solve_wave(B1, mt, s, "I", pts).values
        for mp, amp in zip(coeffs.ms, coeffs.alpha):
            if abs(mp - m) > qz.default_window(s):
                continue
            wmp = solve_wave(B1, mp / s, s, "I", pts).values
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


@pytest.mark.parametrize("B", [0.0, 0.5])
def test_quad_form_solves_every_wave_in_one_call(monkeypatch, B):
    # all 20 waves on the union of the row grids, at any field
    solve, calls = qz.solve_waves, []
    monkeypatch.setattr(qz, "solve_waves",
                        lambda *a, **kw: calls.append(len(a[1])) or solve(*a, **kw))
    s = 200.0
    u = qz.geodesic_packet(s, 0.2, 20, L)
    assert qz.quad_form(u, qz.Observable(eta0=0.2, eps=0.2), B, s, n_grid=41) != 0
    assert calls == [20]


@pytest.mark.parametrize("B", [0.0, 0.5])
def test_quad_form_builds_one_phase_table(monkeypatch, B):
    # one table over the column of row frequencies, at any field: no loop over rows
    init, tables = tr.PhaseTable.__post_init__, []
    monkeypatch.setattr(tr.PhaseTable, "__post_init__",
                        lambda self: tables.append(self) or init(self))
    s = 200.0
    u = qz.geodesic_packet(s, 0.2, 20, L)
    assert qz.quad_form(u, qz.Observable(eta0=0.2, eps=0.2), B, s, n_grid=41) != 0
    assert len(tables) == 1 and np.shape(tables[0].mtilde) == (20, 1)


# B = 0 forms (lhs) of criterion 7 and of the transport-forms benchmark rows
# (eta0 = 0.2, K = 20) as float.hex, real and imaginary part: at B = 0 the
# phase layer is the identity, bit for bit, whatever shape its table has
_ZERO_FIELD_LHS = {
    (100.0, 801): ("0x1.9dc94c3dd6be3p-5", "0x1.662d92d1c0770p-69"),
    (200.0, 801): ("0x1.0ad1970ad137bp-4", "0x1.8448f01ee5170p-67"),
    (400.0, 801): ("0x1.afde5cc5b8385p-4", "0x1.0ee19af38b323p-67"),
    (25.0, 41): ("0x1.8d231e04d7642p-7", "0x1.8ef4a11dd3bbap-66"),
    (50.0, 41): ("0x1.a137a86208a3cp-6", "-0x1.1b651caa176e6p-64"),
}


@pytest.mark.parametrize("s, n_grid", list(_ZERO_FIELD_LHS))
def test_zero_field_forms_are_pinned_bit_for_bit(s, n_grid):
    obs = qz.Observable(eta0=0.2, eps=0.2)
    (row,) = qz.measure_transport_check([s], 0.5, obs, K=20, l=L, n_grid=n_grid)
    assert (row["lhs_re"].hex(), row["lhs_im"].hex()) == _ZERO_FIELD_LHS[s, n_grid]


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
    assert u.ms.tolist() == [20.0]
    assert u.alpha.tolist() == [1.0]


def test_packet_normalization_and_lattice():
    u = qz.geodesic_packet(250.0, 0.2, 20, L)
    assert np.sum(np.abs(u.alpha) ** 2) == pytest.approx(1.0, abs=1e-12)
    for m in u.ms:
        assert m == pytest.approx(round(m * L / (2 * math.pi))
                                  * 2 * math.pi / L, abs=1e-9)
    assert len(u.ms) == 20


def test_packet_rejects_bad_input():
    # s = 0 used to give frequencies near -1, 0 and 1, s = -100 a packet centred at -20
    for s, eta0, K, l in [(100.0, 0.7, 5, L), (100.0, 0.2, 0, L), (math.inf, 0.2, 5, L),
                          (math.nan, 0.2, 5, L), (100.0, 0.2, 5, math.inf),
                          (0.0, 0.2, 3, L), (-100.0, 0.2, 3, L)]:
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
    assert uB.ms.tolist() == u.ms.tolist()
    for m, a, aB in zip(u.ms, u.alpha, uB.alpha):
        ratio = abs(aB) / abs(a)
        assert ratio == pytest.approx(math.exp(tr.b7(B, m / s)),
                                      abs=10.0 / s)


def test_ascend_coeffs_matches_exact_chain():
    from hyperlab.waves import ascend

    s, B, m = 100.0, 0.5, 20.0
    grid = np.linspace(-0.4, 0.4, 81)
    u = WaveCoeffs(L, [m], [1.0])
    uB = qz.ascend_coeffs(u, s, B)
    wB = solve_wave(math.floor(B * s) / s, m / s, s, "I", grid)
    approx = uB.alpha[0] * wB.values
    exact, _, _, _ = ascend(m, s, B, grid)
    rel = np.max(np.abs(approx - exact.values)) / np.max(np.abs(exact.values))
    assert rel < 10.0 / s


def test_ascend_coeffs_matches_loop_product():
    s, B = 25.0, 8.0
    u = qz.geodesic_packet(s, 0.2, 4, L)
    uB = qz.ascend_coeffs(u, s, B)
    assert uB.ms.tolist() == u.ms.tolist()
    for m, a, aB in zip(u.ms, u.alpha, uB.alpha):
        prod = 1.0 + 0j
        for tau in range(int(math.floor(B * s))):
            prod *= c1(tau / s, m / s, s)
        assert abs(aB - a * prod) <= 1e-12 * abs(a * prod)


@pytest.mark.parametrize("s, B", [(100.0, -1.0), (100.0, np.nan),
                                  (100.0, np.inf), (0.0, 0.5), (np.nan, 0.5)])
def test_ascend_coeffs_rejects_bad_input(s, B):
    with pytest.raises(ValueError):
        qz.ascend_coeffs(WaveCoeffs(L, [20.0], [1.0]), s, B)


@pytest.mark.parametrize("m", [60.0, -60.0, 150.0])
def test_ascend_coeffs_rejects_a_frequency_past_half_s(m):
    # m = 60 at s = 100 ascended to 0.748+0.540j; m = 150 took the root of a negative D
    with pytest.raises(ValueError, match="s/2"):
        qz.ascend_coeffs(WaveCoeffs(L, sorted([20.0, m]), [1.0, 1.0]), 100.0, 0.5)
    assert np.isfinite(qz.ascend_coeffs(WaveCoeffs(L, [50.0], [1.0]), 100.0, 0.5).alpha).all()


def test_measure_transport_ascends_only_the_frequencies_the_form_keeps():
    # at s = 25 the 20-frequency packet reaches m = 14 > s/2, which quad_form rejects
    obs = qz.Observable(eta0=0.2, eps=0.2)
    u0 = qz.geodesic_packet(25.0, 0.2, 20, L)
    assert u0.ms.max() > 12.5
    with pytest.raises(ValueError, match="s/2"):
        qz.quad_form(u0, obs, 0.0, 25.0, n_grid=101)
    keep = np.abs(u0.ms) <= 12.5
    u0 = WaveCoeffs(L, u0.ms[keep], u0.alpha[keep])
    (row,) = qz.measure_transport_check([25.0], 0.5, obs, K=20, l=L, n_grid=101)
    assert complex(row["lhs_re"], row["lhs_im"]) == qz.quad_form(u0, obs, 0.0, 25.0, n_grid=101)
    assert math.isfinite(row["rel_diff"])


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
    parts = sum(qz.energy_shell_test(WaveCoeffs(L, [m], [a]), s, B1,
                                     profile, h_param=h_param)
                for m, a in zip(u.ms, u.alpha))
    assert abs(whole - parts) <= 1e-8 * abs(parts)


def _direct_shell(coeffs, s, B1, profile, h_param=None, beta_cut=2.4, n=8192):
    """Frozen direct form: per wave, FFT, multiply, inverse FFT, inner product."""
    if h_param is None:
        h_param = 1.0 / s
    grid = np.linspace(-beta_cut / 2, beta_cut / 2, n, endpoint=False)
    h = grid[1] - grid[0]
    taper = qz.bump(grid / beta_cut)
    ms, alpha = coeffs.ms, coeffs.alpha
    waves = qz._branch_I(B1, ms / s, s, grid)
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
    # a different alpha, l, B1 or s: a fresh solve each
    for coeffs, s, B1 in [(WaveCoeffs(L, u.ms, 2 * u.alpha), 100.0, 0.0),
                          (WaveCoeffs(1.0, u.ms, u.alpha), 100.0, 0.0),
                          (u, 100.0, 0.5), (u, 120.0, 0.0)]:
        before = len(solves)
        qz.energy_shell_test(coeffs, s, B1, np.ones_like)
        assert len(solves) == before + 1


def test_energy_shell_spectrum_is_read_only():
    u = qz.geodesic_packet(100.0, 0.2, 2, L)
    qz.energy_shell_test(u, 100.0, 0.0, np.ones_like)
    spec = qz._shell_spectrum(tuple(u.ms.tolist()),
                              tuple((np.abs(u.alpha) ** 2 * L).tolist()), 100.0, 0.0)
    assert qz._shell_spectrum.cache_info().hits >= 1
    assert not spec.flags.writeable
    with pytest.raises(ValueError):
        spec[0] = 0.0


def test_energy_shell_first_call_memory():
    # 2.14 MiB with one system per wave and its mirror and the node states of every
    # panel; 3.22 MiB when both rows were solved apart
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


def test_wide_field_form_memory():
    # the s = 400, K = 20, B = 0.5 form at n_grid 801 peaks at 10.57 MiB; an evaluation
    # block holding its whole union grid (about 16,000 points) peaked at 35.0 MiB
    u, obs = qz.geodesic_packet(400.0, 0.2, 20, L), qz.Observable(eta0=0.2)
    qz.quad_form(u, obs, 0.5, 400.0)
    tracemalloc.start()
    try:
        qz.quad_form(u, obs, 0.5, 400.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20


_BAD_SHELL_INPUT = [
    (100.0, {"h_param": math.nan}), (100.0, {"h_param": 0.0}),
    (100.0, {"h_param": -0.01}), (100.0, {"h_param": math.inf}),
    (100.0, {"xi_profile": lambda xi: np.full_like(xi, math.nan)}),
    (100.0, {"xi_profile": lambda xi: 1.0}),
    (100.0, {"xi_profile": lambda xi: np.ones(len(xi) - 1)}),
    (math.inf, {}), (0.0, {}), (100.0, {"B1": -1.0}), (100.0, {"B1": math.nan})]


# numbered from 6: cases 0-5 rejected the beta_cut and n arguments, now fixed
@pytest.mark.parametrize("s, kw", _BAD_SHELL_INPUT,
                         ids=[f"{s}-kw{i}" for i, (s, _) in enumerate(_BAD_SHELL_INPUT, 6)])
def test_energy_shell_rejects_bad_input_before_solving(monkeypatch, s, kw):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the input checks")

    monkeypatch.setattr(qz, "solve_waves", no_solve)
    qz._shell_spectrum.cache_clear()
    kw = {"B1": 0.0, "xi_profile": np.ones_like, **kw}
    with pytest.raises(ValueError):  # RuntimeWarnings are errors in this suite
        qz.energy_shell_test(qz.geodesic_packet(100.0, 0.2, 2, L), s, **kw)
