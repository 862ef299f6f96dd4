"""Tests for the phase-transport module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import transport as tr
from hyperlab.geometry import HPoint, hyperbolic_distance
from hyperlab.waves import Q, c1, solve_wave

GRID = np.linspace(-1.0, 1.0, 41)


def _halfplane(beta, sigma):
    return HPoint(math.exp(sigma) * math.sin(beta),
                  math.exp(sigma) * math.cos(beta))


# --- travel-time phase P ---


def test_phase_P_at_zero():
    for B1, m in [(0.0, 0.0), (1.5, 0.3), (2.0, -0.5)]:
        assert tr.phase_P(B1, m, 0.0) == 0.0


def test_phase_P_closed_form_free_case():
    # at B1 = m = 0 the integrand is 1/cos, with antiderivative
    # ln tan(beta/2 + pi/4)
    for beta in [-1.55, -1.4, -0.7, 0.0, 0.3, 1.4, 1.55]:
        exact = math.log(math.tan(beta / 2 + math.pi / 4))
        assert tr.phase_P(0.0, 0.0, beta) == pytest.approx(exact, abs=1e-11)


@settings(max_examples=200, deadline=None)
@given(
    B1=st.floats(0.0, 3.0),
    m=st.floats(-0.5, 0.5),
    b1=st.floats(-1.5, 1.5),
    b2=st.floats(-1.5, 1.5),
)
def test_phase_P_strictly_increasing(B1, m, b1, b2):
    lo, hi = sorted((b1, b2))
    if hi - lo < 1e-9:
        return
    assert tr.phase_P(B1, m, hi) > tr.phase_P(B1, m, lo)


_EDGE = math.pi / 2 - 1e-6


@pytest.mark.parametrize("B1, m", [(0.0, 0.2), (0.5, 0.2), (1.0, -0.3),
                                   (3.0, 0.45), (0.0, 0.0), (0.0, 1e-9), (1e-9, 0.3),
                                   (1e-9, -0.99), (40.0, 0.45), (40.0, -0.99),
                                   (0.5, 0.99), (2.0, -0.75)])
def test_phase_P_array_matches_mpmath_quad(B1, m):
    # the closed form against a 30-digit quadrature across the PhaseTable
    # window |m| < 1, out to beta = +-(pi/2 - 1e-6), in one call
    mpmath = pytest.importorskip("mpmath")
    betas = [0.0] + [sg * b for b in (0.3, 0.8, 1.2, 1.55, 1.5707, _EDGE)
                     for sg in (1, -1)]
    got = tr.phase_P(B1, m, np.array(betas))
    with mpmath.workdps(30):
        def sqrtQ(b):
            return mpmath.sqrt(2 * B1 * m * mpmath.tan(b) - m * m
                               + mpmath.sec(b) ** 2 + B1 * B1)

        for b, val in zip(betas, got):
            ref = B1 * mpmath.mpf(b) + mpmath.quad(sqrtQ, [0, b])
            assert abs(val - float(ref)) <= 1e-12 * abs(float(ref))


@pytest.mark.parametrize("B, m", [(0.5, 0.2), (2.0, -0.4), (1e-9, 0.3),
                                  (40.0, 0.45), (0.3, -0.99)])
def test_dPhi_dm_numerator_matches_mpmath_quad(B, m):
    mpmath = pytest.importorskip("mpmath")
    betas = np.array([0.0, 0.4, -0.9, 1.3, -1.5, _EDGE, -_EDGE])
    phis = betas[::-1] * 0.9  # any angles: the numerator takes beta and Phi apart
    got = tr._dPhi_dm_numerator(B, m, betas, phis)
    with mpmath.workdps(30):
        def dsqrtQ(B1):
            return lambda x: ((B1 * mpmath.tan(x) - m)
                              / mpmath.sqrt(2 * B1 * m * mpmath.tan(x) - m * m
                                            + mpmath.sec(x) ** 2 + B1 * B1))

        for b, ph, val in zip(betas, phis, got):
            ref = (mpmath.quad(dsqrtQ(0), [0, b]) - mpmath.quad(dsqrtQ(B), [0, ph])
                   - tr.db4_deta(B, m))
            assert abs(val - float(ref)) <= 1e-12 * abs(float(ref))


@pytest.mark.parametrize("B1, m, beta", [
    (math.nan, 0.2, 0.3), (math.inf, 0.2, 0.3), (0.5, math.nan, 0.3),
    (0.5, 1.5, 1.3), (0.5, 1.0, 0.3), (0.5, -1.0, 0.3),
])
def test_phase_P_rejects_non_finite_or_out_of_window_input(B1, m, beta):
    # these used to return a number, nan or inf instead of failing
    with pytest.raises(ValueError):
        tr.phase_P(B1, m, beta)


def test_phase_P_reproducible():
    v1 = tr.phase_P(1.3, 0.25, 1.2)
    v2 = tr.phase_P(1.3, 0.25, 1.2)
    assert v1 == v2


# --- WKB waves (phase s*P) ---


def test_wkb_at_zero_and_modulus():
    assert tr.wkb_eval(0.3, 0.2, 100.0, "I", 0.0) == pytest.approx(1.0)
    b = 0.8
    v = tr.wkb_eval(0.3, 0.2, 100.0, "I", b)
    assert abs(v) == pytest.approx((Q(0.3, 0.2, 0) / Q(0.3, 0.2, b)) ** 0.25)


def test_wkb_agrees_with_solver():
    s = 200.0
    w = solve_wave(0.2, 0.1, s, "I", GRID)
    wk = tr.wkb_eval(0.2, 0.1, s, "I", GRID)
    assert np.max(np.abs(w.values - wk) / np.abs(wk)) < 5 / s


def test_modulus_matches_wkb_and_improves():
    errs = {}
    for s in (100.0, 200.0):
        w = solve_wave(0.3, 0.2, s, "I", GRID)
        wk = tr.wkb_eval(0.3, 0.2, s, "I", GRID)
        errs[s] = np.max(np.abs(np.abs(w.values) - np.abs(wk)) / np.abs(wk))
    assert errs[100.0] < 30 / 100.0
    assert errs[200.0] < errs[100.0]


# --- offsets b1, b4, b3, b7 ---


def test_b1_b4_vanish_at_zero_frequency():
    for B in [0.3, 1.0, 2.5]:
        assert tr.b1(B, 0.0) == 0.0
        assert tr.b4(B, 0.0) == 0.0
    assert tr.b4(0.0, 0.4) == 0.0


def test_b4_eta_derivative_closed_form():
    h = 1e-6
    for B, eta in [(0.5, 0.2), (2.0, 0.4), (1.0, -0.3), (3.0, 0.45),
                   (40.0, 0.3), (1e4, -0.45)]:
        fd = (tr.b4(B, eta + h) - tr.b4(B, eta - h)) / (2 * h)
        assert fd == pytest.approx(tr.db4_deta(B, eta), abs=1e-8)


@pytest.mark.parametrize("B", [0.1, 1.0, 7.5, 40.0])
@pytest.mark.parametrize("m", [-0.5, -0.2, 0.3, 0.5])
def test_b4_b7_closed_forms_match_mpmath_quad(B, m):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        r4 = mpmath.quad(lambda b: -mpmath.atan(m / mpmath.sqrt(b * b - m * m + 1)),
                         [0, B])
        r7 = mpmath.quad(lambda b: -b / (2 * (b * b - m * m + 1)), [0, B])
    assert abs(tr.b4(B, m) - float(r4)) <= 1e-14 * abs(float(r4))
    assert abs(tr.b7(B, m) - float(r7)) <= 1e-14 * abs(float(r7))
    # b3 = -B2 / (2 D) is the integrand of b7
    assert tr.b3(B, m) == pytest.approx(-B / (2 * (B * B - m * m + 1)), rel=1e-14)


def test_phase_table_at_huge_field():
    # closed-form offsets: no panel count grows with B
    table = tr.PhaseTable(B=1e10, mtilde=0.2)
    assert math.isfinite(table.b4_val) and math.isfinite(table.b7_val)


def test_b3_matches_raising_constant_log():
    # b3 is the 1/s coefficient of ln|c1|; Richardson in s removes the
    # next-order term so the closed form is pinned to ~1e-9
    s = 1e6
    for B, m in [(0.5, 0.2), (1.5, 0.4), (2.0, 0.0), (0.3, -0.45)]:
        g1 = math.log(abs(c1(B, m, s))) * s
        g2 = math.log(abs(c1(B, m, 2 * s))) * 2 * s
        assert 2 * g2 - g1 == pytest.approx(tr.b3(B, m), abs=1e-9)


def test_b7_accumulates_b3():
    h = 1e-6
    for B, m in [(0.8, 0.3), (2.0, -0.2)]:
        fd = (tr.b7(B + h, m) - tr.b7(B - h, m)) / (2 * h)
        assert fd == pytest.approx(tr.b3(B, m), abs=1e-8)


# --- the reparametrization Phi ---


def test_Phi_identity_at_zero_field():
    for m, b in [(0.0, 0.7), (0.4, -1.2), (-0.5, 1.5)]:
        assert tr.PhaseTable(0.0, m).Phi(b) == b
        assert tr.PhaseTable(0.0, m).Phi_inv(b) == b


def test_Phi_defining_residual_and_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        B = rng.uniform(0.0, 3.0)
        m = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-1.55, 1.55)
        ph = tr.PhaseTable(B, m).Phi(b)
        resid = tr.phase_P(B, m, ph) - tr.phase_P(0.0, m, b) + tr.b4(B, m)
        assert abs(resid) < 1e-10
        assert tr.PhaseTable(B, m).Phi_inv(ph) == pytest.approx(b, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    B=st.floats(0.05, 3.0),
    m=st.floats(-0.5, 0.5),
    b=st.floats(-1.4, 1.4),
)
def test_Phi_monotone_and_chain_rule(B, m, b):
    h = 1e-6
    table = tr.PhaseTable(B, m)
    d = (table.Phi(b + h) - table.Phi(b - h)) / (2 * h)
    assert d > 0
    ph = table.Phi(b)
    dinv = (table.Phi_inv(ph + h) - table.Phi_inv(ph - h)) / (2 * h)
    assert d * dinv == pytest.approx(1.0, abs=1e-7)
    assert table.dPhi_dbeta(b) == pytest.approx(d, abs=1e-7)


@pytest.mark.parametrize("B, m", [(0.5, 0.2), (1.7, -0.45), (3.0, 0.1)])
def test_Phi_array_newton_residual_on_grid(B, m):
    table = tr.PhaseTable(B=B, mtilde=m)
    grid = np.linspace(-1.55, 1.55, 801)
    ph = table.Phi(grid)
    resid = tr.phase_P(B, m, ph) - tr.phase_P(0.0, m, grid) + table.b4_val
    assert ph.shape == grid.shape
    assert np.max(np.abs(resid)) < 1e-11
    assert np.all(np.diff(ph) > 0)


def test_phase_table_arrays_match_pointwise_calls():
    table = tr.PhaseTable(B=0.5, mtilde=0.2)
    grid = np.linspace(-1.5, 1.5, 41)
    ph = table.Phi(grid)
    assert np.allclose(ph, [table.Phi(b) for b in grid], rtol=0, atol=1e-14)
    assert np.allclose(table.Phi_inv(grid), [table.Phi_inv(b) for b in grid],
                       rtol=0, atol=1e-14)
    assert np.allclose(table.f3(grid, ph), [table.f3(b) for b in grid],
                       rtol=0, atol=1e-14)
    assert np.allclose(table.f4(grid, ph), [table.f4(b) for b in grid],
                       rtol=0, atol=1e-14)


# --- eta-derivative of Phi ---


def test_dPhi_dm_zero_field():
    assert tr.PhaseTable(0.0, 0.3).dPhi_dm(0.8) == 0.0


def test_dPhi_dm_matches_finite_differences():
    h = 1e-5
    for B, m, b in [(0.5, 0.2, 0.8), (2.0, 0.0, 1.2), (1.0, -0.3, -0.5),
                    (0.7, 0.4, 1.5), (1.5, 0.0, -1.3)]:
        fd = (tr.PhaseTable(B, m + h).Phi(b) - tr.PhaseTable(B, m - h).Phi(b)) / (2 * h)
        assert tr.PhaseTable(B, m).dPhi_dm(b) == pytest.approx(fd, abs=1e-6)


# --- corrections f3, f4 ---


def test_f3_f4_vanish_at_zero_field():
    assert tr.PhaseTable(0.0, 0.3).f3(0.9) == 0.0
    assert tr.PhaseTable(0.0, 0.3).f4(0.9) == 0.0


@pytest.mark.parametrize("m", [-0.45, -0.2, 0.0, 0.2, 0.35])
def test_phase_table_is_the_identity_at_zero_field_bit_for_bit(m):
    # quad_form runs B = 0 through the same tables as B > 0; its B = 0 form
    # equals the plain form against a0 only because of this
    table = tr.PhaseTable(0.0, m)
    grid = np.linspace(-1.55, 1.55, 801)
    ph = table.Phi(grid)
    assert np.array_equal(ph, grid) and np.array_equal(table.Phi_inv(grid), grid)
    assert np.all(table.f3(grid, ph) == 0.0) and np.all(table.f4(grid, ph) == 0.0)
    assert tr.wave_norm_shift(0.0, m) == 0.0


@pytest.mark.parametrize("mtilde", [0.3, np.array([[-0.2], [0.0], [0.45]])])
def test_zero_field_f3_f4_are_zeros_without_J(monkeypatch, mtilde):
    # the identity table skips the logarithms: exact zeros of the broadcast shape
    def fail(*args):
        raise AssertionError("_J called at B = 0")

    monkeypatch.setattr(tr, "_J", fail)
    table = tr.PhaseTable(0.0, mtilde)
    shape = np.broadcast_shapes(np.shape(mtilde), GRID.shape)
    for vals in (table.f3(GRID), table.f4(GRID, GRID), table.dPhi_dm(GRID)):
        assert vals.shape == shape and np.all(vals == 0.0)
    assert np.all(table.f3(0.9) == 0.0) and np.all(table.f4(0.9) == 0.0)


@pytest.mark.parametrize("B1", [0.0, 0.02, 0.5, 8.0])
def test_array_table_matches_per_row_scalar_tables(B1):
    # a column of rows as quad_form builds it: mtilde = 0 (where P_0 meets the
    # R(i) = 0 case of _J), negative values and |mtilde| near 1/2
    rows = np.array([-0.4999, -0.3, -0.01, 0.0, 0.05, 0.2, 0.4999])
    grid = np.linspace(-1.4, 1.4, 29)
    table = tr.PhaseTable(B1, rows[:, None])
    ph = table.Phi(grid)

    def maps(t, ph):
        return {"Phi": ph, "Phi_inv": t.Phi_inv(grid), "dPhi_dbeta": t.dPhi_dbeta(grid, ph),
                "dPhi_dm": t.dPhi_dm(grid, ph), "f3": t.f3(grid, ph), "f4": t.f4(grid, ph),
                "shift": tr.wave_norm_shift(B1, t.mtilde) + 0 * grid}

    shape = (rows.size, grid.size)  # Phi and Phi_inv return the grid itself at B = 0
    arrays = {name: np.broadcast_to(vals, shape)
              for name, vals in maps(table, np.broadcast_to(ph, shape)).items()}
    for k, mt in enumerate(rows):
        row = tr.PhaseTable(B1, mt)
        assert table.b4_val[k, 0] == row.b4_val and table.b7_val[k, 0] == row.b7_val
        for name, vals in maps(row, row.Phi(grid)).items():
            assert np.max(np.abs(arrays[name][k] - vals)) <= 1e-15, name


@pytest.mark.parametrize("fn", [tr.b4, tr.b7, tr.db4_deta, tr.wave_norm_shift])
@pytest.mark.parametrize("B, eta", [
    (math.nan, 0.2), (math.inf, 0.2), (-0.5, 0.2), (0.5, math.nan), (0.5, math.inf),
    (0.5, 1.0), (0.5, -1.0), (0.5, 1.5), (0.5, np.array([0.2, 1.0])),
    (np.array([0.5, math.nan]), 0.2),
])
def test_offsets_reject_non_finite_negative_or_out_of_window_input(fn, B, eta):
    # these used to return nan or die in a math domain or zero division error
    with pytest.raises(ValueError):
        fn(B, eta)


def test_f4_vanishes_linearly_at_boundary():
    ratios = []
    for k in range(4, 13):
        b = math.pi / 2 - 2.0 ** -k
        ratios.append(abs(tr.PhaseTable(1.0, 0.3).f4(b)) / (math.pi / 2 - b))
    assert max(ratios) < 20.0


def test_dPhi_dm_numerator_bounded_at_boundary():
    # the numerator of the quotient formula is O(pi/2 - beta)
    for B, eta in [(0.5, 0.2), (2.0, -0.4)]:
        ratios = []
        for k in range(4, 13):
            b = math.pi / 2 - 2.0 ** -k
            ph = tr.PhaseTable(B, eta).Phi(b)
            num = tr._dPhi_dm_numerator(B, eta, b, ph)
            ratios.append(abs(num) / (math.pi / 2 - b))
        # ratio tends to a finite parameter-dependent constant
        assert max(ratios) < 250.0
        assert ratios[-1] == pytest.approx(ratios[-2], rel=0.02)


def test_modulus_transport_of_ascended_wave():
    # |omega_{B,m,s}(Phi(beta))| = |w0(beta)| e^{f3} up to O(1/s)
    from hyperlab.waves import ascend

    B, mt = 0.5, 0.2
    betas = np.array([0.2, 0.6, 1.0, 1.3])
    const = math.exp(tr.wave_norm_shift(B, mt))
    errs = {}
    for s in (100.0, 200.0):
        table = tr.PhaseTable(B, mt)
        phis = np.array([table.Phi(b) for b in betas])
        wave, _, _, _ = ascend(mt * s, s, B, phis)
        w0 = solve_wave(0.0, mt, s, "I", betas)
        ratio = np.abs(wave.values) / (
            np.abs(w0.values) * const
            * np.exp([table.f3(b) for b in betas]))
        errs[s] = float(np.max(np.abs(ratio - 1.0)))
    assert errs[100.0] < 10.0 / 100.0
    assert errs[200.0] < 0.65 * errs[100.0]


# --- boundary map G and density A ---


def test_G_identity_and_unit_density_at_zero_field():
    pt = (0.5, 1.0, 0.2)
    assert tr.G_map(0.0, pt) == pt
    assert tr.A_density(0.0, pt) == 1.0


def test_G_preserves_eta_and_A_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        B = rng.uniform(0.0, 1.6)
        eta = rng.uniform(-0.45, 0.45)
        if B * abs(eta) >= math.sqrt(1 - eta * eta):
            continue
        pt = (rng.uniform(-1.5, 1.5), rng.uniform(-2, 2), eta)
        out = tr.G_map(B, pt)
        assert out[2] == eta
        assert tr.A_density(B, out) > 0


def test_G_rejects_inadmissible_eta():
    with pytest.raises(ValueError):
        tr.G_map(0.5, (0.1, 0.0, 0.6))
    with pytest.raises(ValueError):
        tr.G_map(4.0, (0.1, 0.0, 0.45))
    with pytest.raises(ValueError):
        tr.A_density(0.5, (0.1, 0.0, 0.6))


@pytest.mark.parametrize("B, point", [
    (0.5, (0.1, 0.0, math.nan)),
    (0.5, (math.nan, 0.0, 0.2)),
    (0.5, (0.1, math.inf, 0.2)),
    (-0.5, (0.1, 0.0, 0.2)),
    (math.nan, (0.1, 0.0, 0.2)),
    (math.inf, (0.1, 0.0, 0.2)),
])
def test_G_and_A_reject_non_finite_or_negative_input(B, point):
    with pytest.raises(ValueError):
        tr.G_map(B, point)
    with pytest.raises(ValueError):
        tr.A_density(B, point)


@pytest.mark.parametrize("B, m", [(0.5, math.nan), (0.5, math.inf),
                                  (math.nan, 0.2), (-0.5, 0.2),
                                  (math.inf, 0.2), (0.5, 1.0)])
def test_phase_table_rejects_non_finite_or_negative_input(B, m):
    with pytest.raises(ValueError):
        tr.PhaseTable(B=B, mtilde=m)


def test_Phi_rejects_non_finite_angle():
    table = tr.PhaseTable(B=0.5, mtilde=0.2)
    with pytest.raises(ValueError):
        table.Phi(math.nan)
    with pytest.raises(ValueError):
        table.Phi(np.array([0.1, math.inf]))


def test_G_moves_base_points_boundedly():
    # the hyperbolic displacement of the base point stays bounded as the
    # angle approaches the boundary
    B, eta, sigma = 1.0, 0.3, 0.4
    dists = []
    for k in range(2, 13):
        beta = math.pi / 2 - 2.0 ** -k
        bp, sp, _ = tr.G_map(B, (beta, sigma, eta))
        dists.append(hyperbolic_distance(_halfplane(beta, sigma),
                                         _halfplane(bp, sp)))
    assert max(dists) < 10.0


# --- PhaseTable cache ---


def test_phase_table_matches_functions():
    # the offsets against the module functions; f3 and f4 with a precomputed
    # phi against their own Phi solve
    t = tr.PhaseTable(B=0.8, mtilde=0.25)
    assert t.b4_val == pytest.approx(tr.b4(0.8, 0.25), abs=1e-12)
    assert t.b7_val == pytest.approx(tr.b7(0.8, 0.25), abs=1e-12)
    for b in [-1.2, 0.3, 1.45]:
        ph = t.Phi(b)
        assert t.Phi_inv(ph) == pytest.approx(b, abs=1e-10)
        assert t.f3(b, ph) == pytest.approx(t.f3(b), abs=1e-10)
        assert t.f4(b, ph) == pytest.approx(t.f4(b), abs=1e-10)
