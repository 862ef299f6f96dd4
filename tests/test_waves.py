import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from hyperlab import transport as tr
from hyperlab import waves as W

finite = dict(allow_nan=False, allow_infinity=False)
B1s = st.floats(min_value=0, max_value=2, **finite)
mts = st.floats(min_value=-0.5, max_value=0.5, **finite)
betas = st.floats(min_value=-1.3, max_value=1.3, **finite)

GRID = np.linspace(-1.0, 1.0, 41)


# --- effective potential ---

@given(B1s, mts)
@settings(deadline=None)
def test_Q_at_zero(B1, mt):
    assert W.Q(B1, mt, 0.0) == pytest.approx(B1 * B1 - mt * mt + 1)
    assert W.Q_prime(B1, mt, 0.0) == pytest.approx(2 * B1 * mt)


@given(betas)
@settings(deadline=None)
def test_Q_flat_case(beta):
    assert W.Q(0, 0, beta) == pytest.approx(1 / np.cos(beta) ** 2)


@given(B1s, mts, betas)
@settings(deadline=None)
def test_Q_prime_is_derivative(B1, mt, beta):
    h = 1e-6
    fd = (W.Q(B1, mt, beta + h) - W.Q(B1, mt, beta - h)) / (2 * h)
    assert W.Q_prime(B1, mt, beta) == pytest.approx(fd, rel=1e-6, abs=1e-6)


@given(B1s, mts, betas)
@settings(deadline=None)
def test_Q_positive_in_range(B1, mt, beta):
    assert W.Q(B1, mt, beta) > 0


# --- wave solver ---

def test_wave_value_at_zero():
    w = W.solve_wave(0.3, 0.2, 50.0, "I", GRID)
    assert w.values[GRID == 0][0] == 1.0 + 0j


def test_branch_I_derivative_at_zero():
    B1, mt, s = 0.4, 0.3, 80.0
    D = B1 * B1 - mt * mt + 1
    _, d = W.branch_ic(B1, mt, s, "I")
    assert d == pytest.approx(1j * B1 * s + 1j * s * np.sqrt(D) - B1 * mt / (2 * D))


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        W.solve_wave(0.3, 0.7, 50.0, "I", GRID)
    with pytest.raises(ValueError):
        W.solve_wave(0.3, 0.2, 50.0, "I", [1.6])
    with pytest.raises(ValueError):
        W.solve_wave_ic(0.3, 0.2, 50.0, 1.0, np.nan, GRID)


@pytest.mark.parametrize("B1, mt, s, grid", [
    (0.0, np.nan, 50.0, GRID), (np.inf, 0.2, 50.0, GRID),
    (np.nan, 0.2, 50.0, GRID), (-0.5, 0.2, 50.0, GRID),
    (0.3, 0.2, np.nan, GRID), (0.3, 0.2, 0.0, GRID), (0.3, 0.2, -50.0, GRID),
    (0.3, 0.2, 50.0, [0.1, np.nan]), (0.3, 0.2, 50.0, [-np.inf])])
def test_kernel_rejects_non_finite_or_out_of_range_input(B1, mt, s, grid):
    # solve_wave(0, nan, ...) used to die inside scipy with a message about y0
    with pytest.raises(ValueError):
        W.solve_wave(B1, mt, s, "I", grid)
    with pytest.raises(ValueError):
        W.solve_waves([0.1, B1], [0.1, mt], s, 1.0, 0.5j, grid)


def _w_form_reference(B1, mt, s, w0, dw0, grid, tol=1e-13):
    """The separated equation for w itself, one wave per solve."""
    tau = B1 * s

    def rhs(beta, y):
        return [y[1], 2j * tau * y[1] + (tau * tau - s * s * W.Q(B1, mt, beta)) * y[0]]

    values = np.empty(len(grid), dtype=complex)
    derivs = np.empty(len(grid), dtype=complex)
    for sel in (grid >= 0, grid < 0):
        pos = np.flatnonzero(sel)[np.argsort(np.abs(grid[sel]))]
        sol = solve_ivp(rhs, (0.0, grid[pos][-1]), [w0, dw0], method="DOP853",
                        rtol=tol, atol=tol, t_eval=grid[pos])
        values[pos], derivs[pos] = sol.y
    return values, derivs


@pytest.mark.parametrize("s, B1", [(25.0, 8.0), (100.0, 0.5), (400.0, 0.0)])
def test_batched_kernel_matches_tight_reference(s, B1, monkeypatch):
    # one solve of three waves, mixed frequencies, both branches, at the
    # tolerance 1e-10; each wave against its own w-form solve at 1e-13
    monkeypatch.setattr(W, "_COLLOCATION_TOL", 1e-10)
    mts, branches = [-0.3, 0.05, 0.45], ["I", "II", "I"]
    ics = [W.branch_ic(B1, mt, s, b) for mt, b in zip(mts, branches)]
    values, derivs = W.solve_waves(B1, mts, s, [c[0] for c in ics],
                                   [c[1] for c in ics], GRID)
    assert values.shape == derivs.shape == (3, len(GRID))
    for k, (mt, (w0, dw0)) in enumerate(zip(mts, ics)):
        ref_v, ref_d = _w_form_reference(B1, mt, s, w0, dw0, GRID)
        assert np.max(np.abs(values[k] - ref_v)) / np.max(np.abs(ref_v)) <= 1e-8
        assert np.max(np.abs(derivs[k] - ref_d)) / np.max(np.abs(ref_d)) <= 1e-8


def _phi_form_reference(B1, mts, s, w0, dw0, grid, tol=1e-13):
    """All waves of one B1 in one DOP853 solve per side, in phi-form."""
    K, tau = len(mts), B1 * s
    qa, qb = -2 * s * s * B1 * np.asarray(mts), s * s * (np.square(mts) - B1 * B1)

    def rhs(beta, y):
        c = math.cos(beta)
        return np.concatenate((y[K:], (qa * math.tan(beta) + qb - s * s / (c * c)) * y[:K]))

    values = np.empty((K, len(grid)), dtype=complex)
    derivs = np.empty((K, len(grid)), dtype=complex)
    for sel in (grid >= 0, grid < 0):
        pos = np.flatnonzero(sel)[np.argsort(np.abs(grid[sel]))]
        if not len(pos):
            continue
        sol = solve_ivp(rhs, (0.0, grid[pos][-1]), np.r_[w0, dw0 - 1j * tau * w0],
                        method="DOP853", rtol=tol, atol=tol, t_eval=grid[pos])
        carrier = np.exp(1j * tau * grid[pos])
        values[:, pos] = carrier * sol.y[:K]
        derivs[:, pos] = carrier * (sol.y[K:] + 1j * tau * sol.y[:K])
    return values, derivs


@pytest.mark.parametrize("B1", [0.0, 0.5, 8.0])
@pytest.mark.parametrize("s", [25.0, 100.0, pytest.param(400.0, marks=pytest.mark.slow)])
def test_collocation_kernel_within_1e9_of_dop853_oracle(s, B1, monkeypatch):
    # both branches, |mtilde| up to 1/2, grid out to beta = +-1.56, at tolerance 1e-10
    monkeypatch.setattr(W, "_COLLOCATION_TOL", 1e-10)
    mts = np.array([-0.5, -0.2, 0.3, 0.5])
    grid = np.linspace(-1.56, 1.56, 41)
    dI, dII = W.branch_ic(B1, mts, s, "I")[1], W.branch_ic(B1, mts, s, "II")[1]
    w0, dw0 = np.ones(4, dtype=complex), np.where([True, False, True, False], dI, dII)
    values, derivs = W.solve_waves(B1, mts, s, w0, dw0, grid)
    ref_v, ref_d = _phi_form_reference(B1, mts, s, w0, dw0, grid)
    for got, ref in ((values, ref_v), (derivs, ref_d)):
        err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
        assert np.all(err <= 1e-9)


def test_kernel_with_no_waves_returns_empty_arrays():
    values, derivs = W.solve_waves([], [], 50.0, [], [], GRID)
    assert values.shape == derivs.shape == (0, len(GRID))


@pytest.mark.parametrize("grid", [np.linspace(0.1, 1.2, 23), np.linspace(-1.2, -0.1, 23),
                                  np.array([0.7])])
def test_kernel_on_one_side_only(grid):
    B1, mts, s = 0.5, np.array([-0.4, 0.25]), 80.0
    w0, dw0 = np.ones(2, dtype=complex), W.branch_ic(B1, mts, s, "I")[1]
    values, derivs = W.solve_waves(B1, mts, s, w0, dw0, grid)
    ref_v, ref_d = _phi_form_reference(B1, mts, s, w0, dw0, grid)
    assert np.max(np.abs(values - ref_v)) <= 1e-9 * np.max(np.abs(ref_v))
    assert np.max(np.abs(derivs - ref_d)) <= 1e-9 * np.max(np.abs(ref_d))


def test_kernel_returns_initial_data_exactly_at_zero():
    grid = np.array([0.3, 0.0, -0.5, 0.0])
    w0, dw0 = np.array([1.0 + 0.5j, -2.0j]), np.array([3.0 - 1.0j, 0.25 + 7.0j])
    values, derivs = W.solve_waves([0.2, 1.5], [0.1, -0.3], 60.0, w0, dw0, grid)
    assert np.array_equal(values[:, grid == 0], np.repeat(w0[:, None], 2, axis=1))
    assert np.array_equal(derivs[:, grid == 0], np.repeat(dw0[:, None], 2, axis=1))
    only_zero, _ = W.solve_waves(0.2, 0.1, 60.0, w0[0], dw0[0], [0.0])
    assert only_zero[0, 0] == w0[0]


def test_kernel_refines_panels_to_meet_tol(monkeypatch):
    # panels of 80 radians leave the trailing coefficients above tol: the
    # kernel halves them until the check passes, and stays accurate
    B1, mt, s = 0.5, 0.3, 100.0
    grid = np.linspace(-1.5, 1.5, 61)
    w0, dw0 = W.branch_ic(B1, mt, s, "I")
    ref_v, _ = _phi_form_reference(B1, [mt], s, w0, dw0, grid)
    panels = []
    fundamental = W._fundamental
    monkeypatch.setattr(W, "_fundamental",
                        lambda *a: panels.append(len(a[-1]) - 1) or fundamental(*a))
    monkeypatch.setattr(W, "_PANEL_PHASE", 80.0)
    monkeypatch.setattr(W, "_COLLOCATION_TOL", 1e-10)
    values, _ = W.solve_waves(B1, mt, s, w0, dw0, grid)
    assert len(panels) > 1 and panels == sorted(panels)
    assert np.max(np.abs(values - ref_v)) <= 1e-9 * np.max(np.abs(ref_v))


def test_kernel_raises_when_tol_is_out_of_reach(monkeypatch):
    rounds = []
    collocate = W._collocate
    monkeypatch.setattr(W, "_collocate", lambda *a: rounds.append(1) or collocate(*a))
    monkeypatch.setattr(W, "_COLLOCATION_TOL", 1e-19)
    with pytest.raises(RuntimeError, match="tol"):
        W.solve_waves(0.5, 0.3, 100.0, 1.0, 1j, GRID)
    assert len(rounds) <= 2  # the first solve and at most one refinement


def test_kernel_chunking_changes_no_bit(monkeypatch):
    values, derivs = W.solve_waves(0.4, [0.1, -0.2, 0.5], 100.0, 1.0, [2j, -3j, 1j], GRID)
    monkeypatch.setattr(W, "_CHUNK", 7)
    chunked, dchunked = W.solve_waves(0.4, [0.1, -0.2, 0.5], 100.0, 1.0, [2j, -3j, 1j], GRID)
    assert np.array_equal(chunked, values) and np.array_equal(dchunked, derivs)


def _peak_bytes(f):
    """tracemalloc peak of a second call of f (the first fills caches)."""
    f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_is_bounded():
    # one 32 x 32 matrix per wave and panel held at once took 25.8 MiB at this size
    mts, grid = np.linspace(-0.5, 0.5, 20), np.linspace(-1.2, 1.2, 801)
    assert _peak_bytes(lambda: W.solve_waves(0.0, mts, 400.0, 1.0, 1j, grid)) <= 12.9 * 2**20


def test_kernel_without_derivatives_gives_the_same_values():
    values, derivs = W.solve_waves(0.4, [0.1, -0.2], 60.0, 1.0, [2j, -3j], GRID)
    only, none = W.solve_waves(0.4, [0.1, -0.2], 60.0, 1.0, [2j, -3j], GRID,
                               derivs=False)
    assert none is None
    assert np.array_equal(only, values)


def _masked_bary(t):
    """Barycentric rows with the exact-node mask formed on every row."""
    d = t - W._NODES
    hit = d == 0
    M = W._BARY / np.where(hit, 1.0, d)
    return np.where(hit.any(axis=1, keepdims=True), hit, M / M.sum(axis=1, keepdims=True))


def test_bary_is_one_hot_on_the_nodes_and_the_masked_formula_elsewhere():
    # the nodes, +-1, one ulp either side of each node, random points and NaN, in one call
    nodes = W._NODES
    t = np.r_[np.random.default_rng(11).uniform(-1.0, 1.0, 400), -1.0, 1.0, nodes,
              np.clip(np.nextafter(nodes, 2.0), -1.0, 1.0),
              np.clip(np.nextafter(nodes, -2.0), -1.0, 1.0), np.nan][:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no division by zero may escape
        M = W._bary(t)
    assert np.array_equal(W._bary(nodes[:, None]), np.eye(32))
    assert np.array_equal(M, _masked_bary(t), equal_nan=True)
    assert np.isnan(M[-1]).all()


def _chunk_loop_solve_waves(B1, mtilde, s, w0, dw0, grid, derivs=True):
    """`solve_waves` with the masked rows and a carrier formed on every chunk."""
    B1, mtilde, w0, dw0 = (np.atleast_1d(v) for v in np.broadcast_arrays(
        np.asarray(B1, float), np.asarray(mtilde, float), np.asarray(w0, complex),
        np.asarray(dw0, complex)))
    K, tau, x = len(B1), B1 * s, np.abs(grid)
    values = np.empty((K, len(grid)), dtype=complex)
    dvals = np.empty((K, len(grid)), dtype=complex) if derivs else None
    values[:, grid == 0] = w0[:, None]
    if derivs:
        dvals[:, grid == 0] = dw0[:, None]
    Bm, mm, dphi0 = np.r_[B1, B1], np.r_[mtilde, -mtilde], dw0 - 1j * tau * w0
    state = np.stack((np.r_[w0, w0], np.r_[dphi0, -dphi0]), axis=-1)
    qa, qb = -2 * s * s * Bm * mm, s * s * (mm * mm - Bm * Bm)
    edges, U, dU = W._refined(lambda e: W._fundamental(qa, qb, s, e),
                              W._panel_edges(Bm, mm, s, x.max()))
    order = np.argsort(x, kind="stable")
    bounds = np.searchsorted(x[order], edges, side="right")
    for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        phi, dphi = (np.einsum("wnj,wj->nw", F[:, p], state, order="C") for F in (U, dU))
        state = np.stack((phi[-1], dphi[-1]), axis=-1)
        for lo in range(bounds[p], bounds[p + 1], 256):
            idx = order[lo:min(lo + 256, bounds[p + 1])]
            M = _masked_bary((2 * x[idx, None] - a - b) / (b - a))
            neg, carrier = grid[idx] < 0, np.exp(np.multiply.outer(1j * tau, grid[idx]))
            v = (M @ phi.view(float)).view(complex).T.reshape(2, K, -1)
            values[:, idx] = v = carrier * np.where(neg, v[1], v[0])
            if derivs:
                d = (M @ dphi.view(float)).view(complex).T.reshape(2, K, -1)
                dvals[:, idx] = carrier * np.where(neg, -d[1], d[0]) + 1j * tau[:, None] * v
    return values, dvals, edges


@pytest.mark.parametrize("B1", [0.0, [0.0, 0.4, 0.0]])
@pytest.mark.parametrize("derivs", [True, False])
def test_kernel_equals_the_masked_chunk_loop_bit_for_bit(B1, derivs):
    # tau = 0 skips the carrier; beta = 0, both signs, every panel edge and midpoint
    mts, s = np.array([0.1, -0.3, 0.45]), 60.0
    w0, dw0 = np.array([1.0, 0.5 - 1j, 2j]), np.array([3j, -1.0 + 0.5j, 0.25])
    grid = np.r_[np.linspace(-1.2, 1.2, 301), 0.0]
    edges = _chunk_loop_solve_waves(B1, mts, s, w0, dw0, grid)[2]
    inner = np.r_[edges[1:-1], 0.5 * (edges[1:] + edges[:-1])]
    grid = np.r_[grid, inner, -inner]
    *ref, ref_edges = _chunk_loop_solve_waves(B1, mts, s, w0, dw0, grid, derivs)
    got = W.solve_waves(B1, mts, s, w0, dw0, grid, derivs)
    assert np.array_equal(ref_edges, edges)
    assert np.array_equal(got[0], ref[0])
    assert (got[1] is ref[1] is None) if not derivs else np.array_equal(got[1], ref[1])


def test_ode_residual_small():
    B1, mt, s = 0.3, 0.2, 100.0
    w = W.solve_wave(B1, mt, s, "I", GRID)
    sd = W.second_deriv_from_ode(w)
    Dw = W.apply_D_tau(mt * s, B1 * s, GRID, w.values, w.derivs, sd)
    resid = np.max(np.abs(Dw - s * s * w.values)) / np.max(np.abs(w.values)) / s**2
    assert resid < 1e-8


def test_wronskian_constant():
    B1, mt, s = 0.5, 0.1, 60.0
    tau = B1 * s
    wI = W.solve_wave(B1, mt, s, "I", GRID)
    wII = W.solve_wave(B1, mt, s, "II", GRID)
    # in phi = w e^{-i tau beta} variables the equation has no first-order
    # term, so the phi-Wronskian is constant
    phiI = wI.values * np.exp(-1j * tau * GRID)
    phiII = wII.values * np.exp(-1j * tau * GRID)
    dphiI = (wI.derivs - 1j * tau * wI.values) * np.exp(-1j * tau * GRID)
    dphiII = (wII.derivs - 1j * tau * wII.values) * np.exp(-1j * tau * GRID)
    wr = phiI * dphiII - phiII * dphiI
    assert np.max(np.abs(wr - wr[0])) / np.abs(wr[0]) < 1e-7


# --- raising / lowering / eigenoperator ---

def test_raising_on_zero():
    out = W.apply_raising(3.0, 2.0, GRID, np.zeros_like(GRID, dtype=complex),
                          np.zeros_like(GRID, dtype=complex))
    assert np.all(out == 0)


def test_raised_wave_is_next_degree_eigenwave():
    B1, mt, s = 0.3, 0.2, 100.0
    tau, m = B1 * s, mt * s
    w = W.solve_wave(B1, mt, s, "I", GRID)
    r0, dr0 = _raised_ic(w)
    raised = W.solve_wave_ic(B1 + 1 / s, mt, s, r0, dr0, GRID)
    direct = W.apply_raising(m, tau, GRID, w.values, w.derivs)
    assert np.max(np.abs(raised.values - direct)) / np.max(np.abs(direct)) < 1e-6


def _raised_ic(w):
    tau, m, s = w.tau, w.mtilde * w.s, w.s
    w0 = w.values[w.grid == 0][0]
    dw0 = w.derivs[w.grid == 0][0]
    ddw0 = 2j * tau * dw0 + (tau * tau - s * s * W.Q(w.B1, w.mtilde, 0.0)) * w0
    r0 = tau * w0 + 1j * (m * w0 + dw0)
    dr0 = tau * dw0 - (m * w0 + dw0) + 1j * (m * dw0 + ddw0)
    return r0, dr0


def test_D_tau_on_constant():
    vals = np.ones_like(GRID, dtype=complex)
    out = W.apply_D_tau(0.0, 0.0, GRID, vals, np.zeros_like(vals),
                        np.zeros_like(vals))
    assert np.max(np.abs(out)) == 0


def _five_point_first(f: np.ndarray, h: float) -> np.ndarray:
    out = np.gradient(f, h, edge_order=2)
    out[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
    return out


def _five_point_second(f: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(f)
    out[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2] + 16 * f[3:-1] - f[4:]) / (12 * h * h)
    out[:2] = out[2]
    out[-2:] = out[-3]
    return out


def test_intertwining_on_smooth_test_function():
    # K_tau D^tau = D^{tau+1} K_tau on a generic smooth separated function
    # step 1e-3: fine enough for the 4th-order stencils, coarse enough that
    # the eps/h^3 roundoff in the chained derivatives stays below 1e-6
    grid = np.linspace(-0.5, 0.5, 1001)
    h = grid[1] - grid[0]
    m, tau = 2.0, 3.0
    u = np.exp(np.sin(2 * grid)) * np.exp(1j * np.cos(3 * grid))
    du = _five_point_first(u, h)
    ddu = _five_point_second(u, h)
    Du = W.apply_D_tau(m, tau, grid, u, du, ddu)
    dDu = _five_point_first(Du, h)
    KDu = W.apply_raising(m, tau, grid, Du, dDu)
    Ku = W.apply_raising(m, tau, grid, u, du)
    dKu = _five_point_first(Ku, h)
    ddKu = _five_point_second(Ku, h)
    DKu = W.apply_D_tau(m, tau + 1, grid, Ku, dKu, ddKu)
    inner = slice(20, -20)
    resid = np.max(np.abs((KDu - DKu)[inner])) / np.max(np.abs(u))
    assert resid < 1e-6


def test_lowering_recovers_original_direction():
    B1, mt, s = 0.2, 0.1, 100.0
    tau, m = B1 * s, mt * s
    w = W.solve_wave(B1, mt, s, "I", GRID)
    r0, dr0 = _raised_ic(w)
    norm_up = np.sqrt(s * s + tau * (tau + 1))
    raised = W.solve_wave_ic(B1 + 1 / s, mt, s, r0 / norm_up, dr0 / norm_up, GRID)
    low = W.apply_lowering(m, tau + 1, GRID, raised.values, raised.derivs, s=s)
    ratio = low / w.values
    spread = np.max(np.abs(ratio - ratio.mean()))
    assert spread < 1e-6 * abs(ratio.mean())


# --- transfer coefficients ---

def test_c1_closed_form_m0():
    for B1 in (0.0, 0.5, 1.5):
        s = 120.0
        assert W.c1(B1, 0.0, s) == pytest.approx(-(1 - B1 / (2 * s * (1 + B1 * B1))))


@given(B1s, mts)
@settings(deadline=None)
def test_c1_main_term_unit_modulus(B1, mt):
    main = W.c1(B1, mt, 1e12)
    assert abs(main) == pytest.approx(1.0, abs=1e-9)


def test_c1_transfer_decay():
    resids, cIIs = [], []
    ss = [50.0, 100.0, 200.0, 400.0]
    for s in ss:
        B1, mt = 0.3, 0.2
        w = W.solve_wave(B1, mt, s, "I", GRID)
        r = W.apply_raising(mt * s, B1 * s, GRID, w.values, w.derivs, s=s)
        wup = W.solve_wave(B1 + 1 / s, mt, s, "I", GRID)
        resids.append(np.max(np.abs(r - W.c1(B1, mt, s) * wup.values)) / np.max(np.abs(r)))
        r0, dr0 = _raised_ic(w)
        norm = np.sqrt(s * s + (B1 * s) * (B1 * s + 1))
        _, cII = W.decompose_I_II(r0 / norm, dr0 / norm, B1 + 1 / s, mt, s)
        cIIs.append(abs(cII))
    slope = np.polyfit(np.log(ss), np.log(resids), 1)[0]
    assert slope <= -1.8
    slope2 = np.polyfit(np.log(ss), np.log(cIIs), 1)[0]
    assert slope2 <= -1.8


# --- branch decomposition ---

@pytest.mark.parametrize("label", ["x", "i", "ii", "", "foo"])
def test_branch_labels_other_than_I_or_II_rejected(label):
    # any label but "I" used to select branch II
    for call in (lambda: W.branch_ic(0.5, 0.2, 100.0, label),
                 lambda: W.solve_wave(0.5, 0.2, 100.0, label, GRID),
                 lambda: tr.wkb_eval(0.5, 0.2, 100.0, label, GRID)):
        with pytest.raises(ValueError, match="branch"):
            call()


def test_decompose_pure_branches():
    B1, mt, s = 0.3, 0.25, 70.0
    for branch, expect in (("I", (1, 0)), ("II", (0, 1))):
        v0, d0 = W.branch_ic(B1, mt, s, branch)
        cI, cII = W.decompose_I_II(v0, d0, B1, mt, s)
        assert cI == pytest.approx(expect[0], abs=1e-12)
        assert cII == pytest.approx(expect[1], abs=1e-12)


@given(st.floats(-2, 2, **finite), st.floats(-2, 2, **finite),
       st.floats(-2, 2, **finite), st.floats(-2, 2, **finite))
@settings(deadline=None)
def test_decompose_linearity(ar, ai, br, bi):
    B1, mt, s = 0.2, 0.1, 90.0
    a, b = complex(ar, ai), complex(br, bi)
    u0, du0 = W.branch_ic(B1, mt, s, "I")
    v0, dv0 = W.branch_ic(B1, mt, s, "II")
    mix = W.decompose_I_II(a * u0 + b * v0, a * du0 + b * dv0, B1, mt, s)
    assert mix[0] == pytest.approx(a, abs=1e-10)
    assert mix[1] == pytest.approx(b, abs=1e-10)


# --- ascension ---

def test_ascend_below_one_step_is_identity():
    s = 50.0
    exact, closed, prod, base = W.ascend(10.0, s, 0.01, GRID)
    assert prod == 1.0 + 0j
    assert np.allclose(exact.values, W.solve_wave(0.0, 10.0 / s, s, "I", GRID).values)
    assert np.max(np.abs(base.values - exact.values)) <= 1e-12  # the same data, one solve


def test_ascend_waves_match_separate_solves():
    # the exact, closed-form and base waves come from one three-wave solve;
    # they must equal the separate single-wave solves of the same data
    s, B, m = 100.0, 0.3, 15.0
    mt, n = m / s, int(np.floor(B * s))
    exact, closed, prod, base = W.ascend(m, s, B, GRID)
    w0, dw0 = W.branch_ic(0.0, mt, s, "I")
    chain = W.CylWave(0.0, mt, s, "I", np.array([0.0]), np.array([w0]),
                      np.array([dw0]))
    ref_prod = 1.0 + 0j
    for tau in range(n):
        r0, dr0 = _raised_ic(chain)
        norm = np.sqrt(s * s + tau * (tau + 1))
        chain = W.CylWave((tau + 1) / s, mt, s, "-", np.array([0.0]),
                          np.array([r0 / norm]), np.array([dr0 / norm]))
        ref_prod *= W.c1(tau / s, mt, s)
    ref = W.solve_wave_ic(n / s, mt, s, chain.values[0], chain.derivs[0], GRID)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(exact.values - ref.values)) / scale <= 1e-8
    assert (np.max(np.abs(exact.derivs - ref.derivs))
            / np.max(np.abs(ref.derivs)) <= 1e-8)
    assert abs(prod - ref_prod) <= 1e-12 * abs(ref_prod)
    branch_I = W.solve_wave(n / s, mt, s, "I", GRID).values * ref_prod
    assert np.max(np.abs(closed - branch_I)) / scale <= 1e-8
    ref_base = W.solve_wave(0.0, mt, s, "I", GRID)
    assert (base.B1, base.branch) == (0.0, "I")
    assert np.max(np.abs(base.values - ref_base.values)) <= 1e-8 * np.max(np.abs(ref_base.values))
    assert np.max(np.abs(base.derivs - ref_base.derivs)) <= 1e-8 * np.max(np.abs(ref_base.derivs))


@pytest.mark.parametrize("m, s, B", [(20.0, 100.0, -1.0), (20.0, 100.0, np.nan),
                                     (20.0, 100.0, np.inf), (20.0, 0.0, 0.5),
                                     (20.0, np.nan, 0.5), (np.nan, 100.0, 0.5)])
def test_ascend_rejects_bad_input(m, s, B):
    with pytest.raises(ValueError):
        W.ascend(m, s, B, GRID)


def test_ascend_exact_vs_closed_form():
    s, B = 200.0, 0.5
    m = 0.2 * s
    exact, closed, prod, _ = W.ascend(m, s, B, GRID)
    sup = np.max(np.abs(exact.values - closed)) / np.max(np.abs(exact.values))
    assert sup < 10 / s


# --- Whittaker waves ---

def test_whittaker_reality_and_ode_residual():
    from scipy.integrate import solve_ivp

    p = W.WhittakerParams(0, 25.0, 0.5)
    ys = np.linspace(1.0, 3.0, 7)
    vals = W.whittaker_W(p, ys)
    assert np.all(np.isreal(vals))
    # self-consistency: re-integrating the equation from the computed state
    # at 1.5 must land on the computed state at 1.4
    st = W._whittaker_sweep(p, np.array([1.4, 1.5]))[0]

    def rhs(y, u):
        w, dw = u
        return [dw, (p.a**2 - 2 * p.tau * p.a / y - (p.s1**2 + 0.25) / y**2) * w]

    sol = solve_ivp(rhs, (1.5, 1.4), st[1], method="DOP853", rtol=1e-12, atol=1e-300)
    assert np.max(np.abs(sol.y[:, -1] - st[0])) < 1e-9 * np.max(np.abs(st[0]))


@pytest.mark.parametrize("tau", [np.nan, np.inf, -1, 2.5])
def test_whittaker_params_reject_a_degree_that_is_not_a_nonnegative_integer(tau):
    # nan died in the sweep's arange, inf warned first, and 2.5 ran
    with pytest.raises(ValueError, match="tau"):
        W.WhittakerParams(tau, 25.0, 0.5)


def test_ascension_norm_rejects_a_negative_degree():
    # ascension_norm(-1, 50) used to return the empty product 1.0, and 2.5 the
    # degree-3 product (np.arange(2.5) has three entries); WhittakerParams rejects both
    for tau in (-1, 2.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            W.ascension_norm(tau, 50.0)


def test_whittaker_params_accept_numpy_integer_degrees():
    ys = np.array([1.5, 2.0])
    assert np.array_equal(W.whittaker_W(W.WhittakerParams(np.int64(2), 50.0, 25.0), ys),
                          W.whittaker_W(W.WhittakerParams(2, 50.0, 25.0), ys))


def test_whittaker_rejects_bad_y():
    p = W.WhittakerParams(0, 25.0, 0.5)
    with pytest.raises(ValueError):
        W.whittaker_W(p, -1.0)
    with pytest.raises(ValueError):
        W.whittaker_W(p, 1e9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_whittaker_rejects_non_finite_input(bad):
    with pytest.raises(ValueError):
        W.WhittakerParams(0, bad, 0.5)
    with pytest.raises(ValueError):
        W.WhittakerParams(0, 25.0, bad)
    p = W.WhittakerParams(0, 25.0, 0.5)
    with pytest.raises(ValueError):
        W.whittaker_W(p, np.array([1.0, bad]))
    with pytest.raises(ValueError):
        W.whittaker_deriv(p, bad)
    with pytest.raises(ValueError):
        W.whittaker_peaks(p, (1.0, bad), n_scan=20)


@pytest.mark.parametrize("tau, s1, a", [(0, 50.0, 25.0), (2, 50.0, 25.0),
                                        (0, 10.0, 0.5), (20, 5.0, 2.0),
                                        (0, 100.0, 25.0), (0, 50.0, 0.5)])
def test_whittaker_matches_mpmath_whitw(tau, s1, a):
    # W(y) = W_{tau, i s1}(2 a y); points on both sides of the switch point
    # (near y = 4 at s1 = 100, a = 25).  At tau = 20 the seed must sit beyond
    # tau^2 for its series to converge.
    mpmath = pytest.importorskip("mpmath")
    p = W.WhittakerParams(tau, s1, a)
    ys = np.array([3.5, 3.9, 4.2, 4.6, 5.0] if s1 == 100 else [1.5, 1.9, 2.2, 2.5, 3.0])
    got = W.whittaker_W(p, ys)
    with mpmath.workdps(30):
        ref = [float(mpmath.re(mpmath.whitw(tau, 1j * s1, 2 * a * y))) for y in ys]
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10


def _whitw(tau, s1, a, ys):
    """W and dW/dy at 30 digits: W(y) = W_{tau, i s1}(2 a y), and
    dW/dx = (1/2 - tau/x) W - W_{tau+1}(x)/x (DLMF 13.15.23)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        w = [mpmath.re(mpmath.whitw(tau, 1j * s1, 2 * a * y)) for y in ys]
        w1 = [mpmath.re(mpmath.whitw(tau + 1, 1j * s1, 2 * a * y)) for y in ys]
        dw = [2 * a * ((0.5 - tau / (2 * a * y)) * v - v1 / (2 * a * y))
              for y, v, v1 in zip(ys, w, w1)]
        return np.array(w, dtype=float), np.array(dw, dtype=float)


@pytest.mark.parametrize("s1", [200.0, 400.0])
def test_whittaker_matches_mpmath_whitw_at_large_s1(s1):
    # the Riccati leg crosses the forbidden zone from y0 = 2 s1^2/a in about
    # 25 panels; the far-zone linear march missed this bound by 50-100x
    p = W.WhittakerParams(0, s1, 25.0)
    ys = s1 / 25.0 * np.linspace(0.8, 1.2, 5)
    ref = _whitw(0, s1, 25.0, ys)[0]
    assert np.max(np.abs(W.whittaker_W(p, ys) - ref) / np.abs(ref)) <= 1e-11


def test_whittaker_forbidden_zone_points_are_served_by_collocation_panels(monkeypatch):
    # at (0, 25, 0.5) the Riccati panels could reach down to y = 526; the leg stops
    # above y = 1000 and the collocation panels carry W and W' through the points
    p, ys = W.WhittakerParams(0, 25.0, 0.5), np.array([600.0, 800.0, 1000.0])
    edges, refined = [], W._refined

    def recorded(solve, e):
        out = refined(solve, e)
        edges.append(out[0])
        return out

    monkeypatch.setattr(W, "_refined", recorded)
    (w, dw), (ref_w, ref_dw) = W._whittaker_sweep(p, ys)[0].T, _whitw(0, 25.0, 0.5, ys)
    assert min(map(min, edges)) <= ys.min() and ys.max() < max(map(max, edges))
    assert np.max(np.abs(w - ref_w) / np.abs(ref_w)) <= 1e-11
    assert np.max(np.abs(dw - ref_dw) / np.abs(ref_dw)) <= 1e-11


def _sweep_panels(monkeypatch, p, ys):
    """(Riccati panels, linear panels incl. refinement re-solves) of one sweep."""
    panels, riccati, collocate = [0, 0], W._riccati, W._collocate

    def counted_riccati(q, half):
        panels[0] += len(q)
        return riccati(q, half)

    def counted_collocate(F, half):
        panels[1] += F.size // 32
        return collocate(F, half)

    with monkeypatch.context() as m:
        m.setattr(W, "_riccati", counted_riccati)
        m.setattr(W, "_collocate", counted_collocate)
        W._whittaker_sweep(p, ys)
    return panels


def test_whittaker_sweep_cost_is_flat_in_s1(monkeypatch):
    # the far-zone linear march took 248 panels at s1 = 25 and about 64000 at 400
    counts = {s1: _sweep_panels(monkeypatch, W.WhittakerParams(0, s1, 25.0),
                                s1 / 25.0 * np.linspace(0.8, 1.2, 5))
              for s1 in (25.0, 400.0)}
    assert sum(counts[400.0]) <= 2 * sum(counts[25.0])
    assert counts[400.0][0] <= 30  # Riccati panels grow like log(s1)


def test_whittaker_sweep_without_riccati_panels_is_the_seeded_linear_leg(monkeypatch):
    # at (0, 5, 2) the seed sits at y0 = 30, too near the turning point for the
    # Riccati iteration: no panel converges and the linear leg starts at the seed
    p, ys = W.WhittakerParams(0, 5.0, 2.0), np.linspace(1.5, 3.0, 7)
    residuals, riccati = [], W._riccati
    monkeypatch.setattr(W, "_riccati", lambda q, h: residuals.append(riccati(q, h)[1])
                        or riccati(q, h))
    got = W._whittaker_sweep(p, ys)[0]
    assert len(residuals[0]) and np.all(residuals[0] > W._RICCATI_TOL)
    monkeypatch.setattr(W, "_RICCATI_TOL", -1.0)  # no panel can be used
    assert np.array_equal(W._whittaker_sweep(p, ys)[0], got)
    # forced at (0, 50, 25), the seeded leg marches the whole forbidden zone and
    # still meets the oracle bound the linear sweep was held to
    p, ys = W.WhittakerParams(0, 50.0, 25.0), np.array([1.5, 1.9, 2.2, 2.5, 3.0])
    assert _sweep_panels(monkeypatch, p, ys)[1] > 900
    ref = _whitw(0, 50.0, 25.0, ys)[0]
    assert np.max(np.abs(W.whittaker_W(p, ys) - ref) / np.abs(ref)) <= 1e-10


def test_whittaker_peaks_are_roots_of_the_dense_derivative():
    # Newton's method on W' (with W'' = q W) lands where the dense W' vanishes
    for tau in (0, 1, 2):
        p = W.WhittakerParams(tau, 50.0, 25.0)
        ys = np.linspace(1.80, 2.05, 400)
        states, dense = W._whittaker_sweep(p, ys)
        peaks = W._sweep_peaks(p, ys, states, dense)
        assert peaks
        for y_pk, v_pk in peaks:
            w, dw = dense(y_pk)[:, 0]
            assert abs(dw) <= 1e-12 * abs(w) * np.sqrt(abs(W._q(p, y_pk)))
            assert v_pk == abs(w)


def test_whittaker_contiguous_relation():
    ys = np.linspace(1.0, 3.0, 21)
    for s1 in (25.0, 50.0):
        for tau in (0, 1, 2):
            p0 = W.WhittakerParams(tau, s1, 0.5)
            p1 = W.WhittakerParams(tau + 1, s1, 0.5)
            w0 = W.whittaker_W(p0, ys)
            dw0 = W.whittaker_deriv(p0, ys)
            w1 = W.whittaker_W(p1, ys)
            resid = np.abs(dw0 - ((0.5 - tau / ys) * w0 - w1 / ys))
            assert np.max(resid) / np.max(np.abs(w0)) < 1e-8


def test_whittaker_peak_table():
    targets = [(0, 1.884, 2.488e-34), (1, 1.922, 2.499e-34), (2, 1.962, 2.510e-34)]
    for tau, y_t, v_t in targets:
        p = W.WhittakerParams(tau, 50.0, 25.0)
        peaks = W.whittaker_peaks(p, (1.80, 2.05), n_scan=400, normalized=True)
        y_pk, v_pk = max(peaks, key=lambda q: q[1])
        assert y_pk == pytest.approx(y_t, abs=2e-3)
        assert v_pk == pytest.approx(v_t, rel=1e-2)


def test_whittaker_no_peak_outside_transition():
    p = W.WhittakerParams(0, 25.0, 0.5)
    assert W.whittaker_peaks(p, (120.0, 125.0), n_scan=50) == []


def test_whittaker_peaks_rejects_a_bad_range_before_scanning():
    p = W.WhittakerParams(0, 25.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may come first
        for y_range, n_scan in [((1.0, np.inf), 20), ((1.0, -np.inf), 20),
                                ((np.nan, 2.0), 20), ((0.0, 2.0), 20),
                                ((2.0, 1.0), 20), ((1.0, 1.0), 20), ((1.0, 2.0), 2)]:
            with pytest.raises(ValueError):
                W.whittaker_peaks(p, y_range, n_scan=n_scan)


def test_whittaker_sweep_takes_no_ode_steps(monkeypatch):
    monkeypatch.setattr(W, "solve_ivp", None)
    p = W.WhittakerParams(1, 50.0, 25.0)
    assert W.whittaker_peaks(p, (1.80, 2.05), n_scan=100)


def test_whittaker_sweep_checks_tol(monkeypatch):
    # the sweep's fixed tolerance, set out of reach, stops it within one refinement
    p, ys = W.WhittakerParams(0, 50.0, 25.0), np.linspace(1.8, 2.05, 50)
    rounds = []
    collocate = W._collocate
    monkeypatch.setattr(W, "_collocate", lambda *a: rounds.append(1) or collocate(*a))
    monkeypatch.setattr(W, "_COLLOCATION_TOL", 1e-19)
    with pytest.raises(RuntimeError, match="tol"):
        W._whittaker_sweep(p, ys)
    assert len(rounds) <= 2  # the first solve and at most one refinement


def test_whittaker_peaks_memory_is_streamed():
    # no panel between y0 = 201 and the scan may keep its 32 x 32 system or
    # its node values
    p = W.WhittakerParams(0, 50.0, 25.0)
    assert _peak_bytes(lambda: W.whittaker_peaks(p, (1.80, 2.05), n_scan=400)) < 2**20
