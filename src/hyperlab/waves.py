"""Cylindrical eigenwaves and Whittaker waves.

On the hyperbolic cylinder (coordinates beta, sigma) a wave of angular
frequency m and degree tau = B1*s separates as e^{i m sigma} w(beta),
where phi = w e^{-i tau beta} solves the oscillator equation
phi'' + s^2 Q(beta) phi = 0 with the effective potential

    Q_{B1,mt}(beta) = 2 B1 mt tan(beta) - mt^2 + 1/cos^2(beta) + B1^2,

mt = m/s.  The two WKB branches w^I / w^II are fixed by unit value at
beta = 0 and first-derivative data matching the WKB phases.
`solve_waves` solves for phi rather than w, so the e^{i tau beta} carrier
stays out of the numerics, and solves the K waves of a packet (each with its
own B1, mt and initial data) without stepping: Chebyshev collocation on
panels of equal phase, both sides of beta = 0 and all waves in one batched
linear solve.  `solve_wave` and `solve_wave_ic` are its K = 1 cases.
The raising operator sends a degree-tau wave to a degree-(tau+1) wave of
the same eigenvalue; iterating [Bs] normalized raisings ("ascension")
keeps the wave on the w^I branch up to O(1/s^2) per step, with
per-step transfer coefficient given by the closed form `c1`.

The radial picture on the half-plane gives the Whittaker-type waves:
`whittaker_W` computes the recessive solution of w'' + (-a^2 + 2 tau a / y
+ (s1^2 + 1/4)/y^2) w = 0, normalized as e^{-a y} (2 a y)^tau at +infinity,
at the scales (near 1e-34) of peak motion under ascension: one inward pass
from the large-argument series, by a batched Riccati solve for W'/W across
the forbidden zone (panels geometric in y, so the cost is about flat in s1),
then by the same panel collocation, carrying a log factor.  `whittaker_peaks`
finds peaks as roots of the interpolated W' by Newton's method.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp  # noqa: F401, traced by perfbench

from .base import (Q, Q_prime, branch_sign, check_angle, check_band, check_degree,
                   check_field, check_scale, reached_degree)
from .base import gauss_quad  # noqa: F401, traced by perfbench


@dataclass(frozen=True)
class CylWave:
    """Sampled separated wave w on a beta grid, with derivative samples."""

    B1: float
    mtilde: float
    s: float
    branch: str  # 'I' or 'II'
    grid: np.ndarray
    values: np.ndarray
    derivs: np.ndarray

    @property
    def tau(self) -> float:
        return self.B1 * self.s


@dataclass(frozen=True)
class WhittakerParams:
    tau: int
    s1: float
    a: float

    def __post_init__(self):
        check_degree(self.tau)
        if not (np.isfinite(self.s1) and np.isfinite(self.a)):
            raise ValueError("s1 and a must be finite")
        if not self.a > 0:
            raise ValueError("frequency a must be positive")


def branch_ic(B1, mtilde, s: float, branch: str):
    """Initial data (w(0), w'(0)) pinning the WKB branch at beta = 0; the WKB
    phases need finite input and Q(B1, mtilde, 0) > 0, checked before any arithmetic."""
    if not (np.all(np.isfinite(B1)) and np.all(np.isfinite(mtilde)) and np.isfinite(s)):
        raise ValueError(f"need finite B1, mtilde and s, got B1={B1}, mtilde={mtilde}, s={s}")
    q0 = Q(B1, mtilde, 0.0)
    if not np.all(q0 > 0):
        raise ValueError(f"need Q(B1, mtilde, 0) > 0, got B1={B1}, mtilde={mtilde}")
    qp0 = Q_prime(B1, mtilde, 0.0)
    tau = B1 * s
    sign = branch_sign(branch)
    return 1.0 + 0j, 1j * tau + sign * 1j * s * np.sqrt(q0) - qp0 / (4 * q0)


# 32 second-kind Chebyshev nodes cos(theta) on [-1, 1] (ascending), their
# barycentric weights, differentiation matrix, the map (a discrete cosine
# transform) from node values to Chebyshev coefficients and its last two rows,
# and the Clenshaw-Curtis weights (the integral of the interpolant over [-1, 1])
_THETA = np.pi * np.arange(31, -1, -1) / 31
_NODES = np.cos(_THETA)
_BARY = np.where(np.arange(32) % 2, -1.0, 1.0) / np.r_[2.0, np.ones(30), 2.0]
_DIFF = np.outer(1 / _BARY, _BARY) / (_NODES[:, None] - _NODES + np.eye(32))
_DIFF -= np.diag(_DIFF.sum(axis=1))
_COEF = (np.cos(np.outer(np.arange(32), _THETA)) * np.abs(_BARY)
         / np.r_[31.0, np.full(30, 15.5), 31.0][:, None])
_TAIL = _COEF[-2:]
_CLENSHAW_CURTIS = np.polynomial.chebyshev.chebval(
    1.0, np.polynomial.chebyshev.chebint(_COEF, lbnd=-1))
_PANEL_PHASE = 10.0  # radians of the fastest wave per panel
_WHITTAKER_STEP = 5.0  # e-folds or radians of W per panel; 10 misses the whitw oracle
_RICCATI_RATIO = 1.3  # outer/inner edge of a Riccati panel
_RICCATI_TOL = 1e-13  # residual a Riccati panel must reach to be used
_COLLOCATION_TOL = 1e-12  # trailing Chebyshev coefficients of every collocated panel
_CHUNK = 256  # systems per batched linear solve


def _panel_edges(B1, mtilde, s: float, L: float) -> np.ndarray:
    """Edges on [0, L] at equal steps of the fastest wave's phase int s sqrt(Q).

    In g = asinh(tan beta) the rate sqrt(Q) cos(beta) is bounded.  s is floored
    at 10 so that panels near pi/2 stay a fraction of their distance to it.
    """
    g = np.linspace(0.0, np.arcsinh(np.tan(L)), 257)
    b = np.arctan(np.sinh(g))
    rate = max(s, 10.0) * np.cos(b) * np.sqrt(np.max(Q(B1[:, None], mtilde[:, None], b), axis=0))
    phase = _cumtrapz(rate, g)
    steps = np.linspace(0.0, phase[-1], 1 + int(np.ceil(phase[-1] / _PANEL_PHASE)))
    edges = np.arctan(np.sinh(np.interp(steps, phase, g)))
    edges[0], edges[-1] = 0.0, L
    return edges


def _cumtrapz(y, x):
    """scipy's cumulative_trapezoid(y, x, initial=0), bit for bit."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _nodes(edges):
    """Half-widths (P, 1), < 0 for descending edges, and nodes (P, 32) of P panels."""
    half = 0.5 * np.diff(edges)[:, None]
    return half, 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _NODES


def _fundamental(qa, qb, s: float, edges):
    """`_collocate` for phi'' = (qa tan + qb - s^2 / cos^2) phi: W waves, P panels."""
    half, beta = _nodes(edges)
    return _collocate(qa[:, None, None] * np.tan(beta) + qb[:, None, None]
                      - (s / np.cos(beta)) ** 2, half)


def _collocate(F, half):
    """U (..., 32, 2) and U' for u'' = F u from (u, u') = (1, 0), (0, 1) at each panel's
    first edge; F at the nodes of panels of half-width half (< 0 downward).  Solving
    _CHUNK at a time bounds memory, and changes no bit: LAPACK solves each alone."""
    shape, out = F.shape + (2,), np.empty((2, F.size // 32, 32, 2))
    F, half = F.reshape(-1, 32), np.broadcast_to(half, shape[:-2] + (1,)).reshape(-1, 1)
    for i in range(0, len(F), _CHUNK):
        f, h = F[i:i + _CHUNK], half[i:i + _CHUNK]
        A = np.broadcast_to(_DIFF @ _DIFF, f.shape + (32,)).copy()
        A[..., range(32), range(32)] -= h ** 2 * f
        A[..., 0, :], A[..., -1, :] = np.eye(32)[0], _DIFF[0]  # value and slope at the first edge
        u = np.linalg.solve(A, np.broadcast_to(np.eye(32)[:, [0, -1]], f.shape + (2,)))
        u[..., 1] *= h
        out[:, i:i + _CHUNK] = u, (_DIFF @ u) / h[..., None]
    return out.reshape((2,) + shape)


def _refined(solve, edges):
    """(edges, U, dU) for (U, dU) = solve(edges) of shape (W, P, 32, 2), with panels halved
    while their last two Chebyshev coefficients exceed _COLLOCATION_TOL relative to U;
    RuntimeError once halving stops helping (round-off)."""
    worst = np.inf
    while True:
        U, dU = solve(edges)
        tail = (np.abs(_TAIL @ U) / np.abs(U).max(axis=-2, keepdims=True)).max(axis=(0, 2, 3))
        if np.all(tail <= _COLLOCATION_TOL):
            return edges, U, dU
        if not tail.max() < 0.1 * worst:
            raise RuntimeError(f"tol={_COLLOCATION_TOL} out of reach: "
                               f"trailing coefficients {tail.max():.1e}")
        worst, bad = tail.max(), np.flatnonzero(tail > _COLLOCATION_TOL)
        edges = np.insert(edges, bad + 1, 0.5 * (edges[bad] + edges[bad + 1]))


def _bary(t):
    """Barycentric interpolation (n, 32) from the nodes to t (n, 1) in [-1, 1]; only a
    row whose weight sum is not finite (t on a node) is masked, to its exact one-hot row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        M = _BARY / (t - _NODES)
        total = M.sum(axis=1, keepdims=True)
        M /= total
    bad = np.flatnonzero(~np.isfinite(total[:, 0]))
    if len(bad):
        hit = t[bad] == _NODES
        M[bad] = np.where(hit.any(axis=1, keepdims=True), hit, M[bad])
    return M


def solve_waves(B1, mtilde, s: float, w0, dw0, grid, derivs: bool = True):
    """K waves in one solve: values and beta-derivatives, each of shape (K, n).

    B1, mtilde, w0 and dw0 broadcast to K entries, one wave each.  For
    phi = w e^{-i tau beta}, phi'' = -s^2 Q phi is collocated at 32 Chebyshev
    nodes per panel.  The side beta < 0 is mirrored (mtilde -> -mtilde,
    phi'(0) -> -phi'(0)), so both sides are one batch of 2K waves on
    [0, max|grid|], cut into panels of 10 radians of the fastest wave's phase.
    Batched linear solves give two fundamental solutions per panel and wave;
    chaining their 2x2 transfer matrices from beta = 0 fixes phi, which is
    interpolated on each point's panel (`_bary`) and multiplied by the carrier
    e^{i tau beta} only when some tau != 0.  `_refined` holds every panel to
    _COLLOCATION_TOL.
    With derivs=False the derivatives are not formed (None is returned).
    """
    B1, mtilde, w0, dw0 = (np.atleast_1d(v) for v in np.broadcast_arrays(
        np.asarray(B1, float), np.asarray(mtilde, float), np.asarray(w0, complex),
        np.asarray(dw0, complex)))
    grid = np.asarray(grid, dtype=float)
    check_field(B1)
    check_scale(s)
    check_band(mtilde)
    check_angle(grid)
    if not np.all(np.isfinite(w0) & np.isfinite(dw0)):
        raise ValueError("need finite initial data")
    K, tau = len(B1), B1 * s
    values = np.empty((K, len(grid)), dtype=complex)
    dvals = np.empty((K, len(grid)), dtype=complex) if derivs else None
    at0 = grid == 0
    values[:, at0] = w0[:, None]
    if derivs:
        dvals[:, at0] = dw0[:, None]
    x = np.abs(grid)
    if not (K and x.any()):
        return values, dvals
    # rows K..2K-1 are the side beta < 0, mirrored
    Bm, mm, dphi0 = np.r_[B1, B1], np.r_[mtilde, -mtilde], dw0 - 1j * tau * w0
    state = np.stack((np.r_[w0, w0], np.r_[dphi0, -dphi0]), axis=-1)
    qa, qb = -2 * s * s * Bm * mm, s * s * (mm * mm - Bm * Bm)
    edges = _panel_edges(Bm, mm, s, x.max())
    edges, U, dU = _refined(lambda e: _fundamental(qa, qb, s, e), edges)
    order, spin = np.argsort(x, kind="stable"), tau.any()
    bounds = np.searchsorted(x[order], edges, side="right")
    for p, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        # phi and phi' at the nodes, (32, 2K); the next panel starts where this one ends
        phi, dphi = (np.einsum("wnj,wj->nw", F[:, p], state, order="C") for F in (U, dU))
        state = np.stack((phi[-1], dphi[-1]), axis=-1)
        # barycentric interpolation on the panel, exact at the nodes, by real
        # products of at most 256 points: larger or complex ones go to threaded
        # BLAS, which stalls for milliseconds when the other cores are busy
        for lo in range(bounds[p], bounds[p + 1], 256):
            idx = order[lo:min(lo + 256, bounds[p + 1])]
            M = _bary((2 * x[idx, None] - a - b) / (b - a))
            neg, v = grid[idx] < 0, (M @ phi.view(float)).view(complex).T.reshape(2, K, -1)
            v = np.where(neg, v[1], v[0])
            if spin:  # w = e^{i tau beta} phi; the carrier is 1 when every tau is 0
                carrier = np.exp(np.multiply.outer(1j * tau, grid[idx]))
                v = carrier * v
            values[:, idx] = v
            if derivs:  # w' = e^{i tau beta} (phi' + i tau phi), phi' mirrored for beta < 0
                d = (M @ dphi.view(float)).view(complex).T.reshape(2, K, -1)
                d = np.where(neg, -d[1], d[0])
                dvals[:, idx] = carrier * d + 1j * tau[:, None] * v if spin else d
    return values, dvals


def solve_wave(B1: float, mtilde: float, s: float, branch: str, grid) -> CylWave:
    """Solve the separated wave equation for the given WKB branch on a grid."""
    w0, dw0 = branch_ic(B1, mtilde, s, branch)
    return solve_wave_ic(B1, mtilde, s, w0, dw0, grid, branch)


def solve_wave_ic(B1: float, mtilde: float, s: float, w0: complex, dw0: complex,
                  grid, branch: str = "-") -> CylWave:
    """Same equation, arbitrary initial data at beta = 0 (branch unset)."""
    values, derivs = solve_waves(B1, mtilde, s, w0, dw0, grid)
    return CylWave(B1, mtilde, s, branch, np.asarray(grid, dtype=float),
                   values[0], derivs[0])


# --- raising / eigen operators (separated form, sigma factor dropped) ---


def apply_raising(m: float, tau: float, grid, values, derivs, s: float | None = None):
    """K_tau on e^{i m sigma} w: tau*w + i cos(beta) e^{i beta} (m*w + w').

    With s given, divides by the normalization sqrt(s^2 + tau(tau+1)).
    """
    grid = np.asarray(grid, dtype=float)
    phase = np.cos(grid) * np.exp(1j * grid)
    out = tau * np.asarray(values) + 1j * phase * (m * np.asarray(values) + np.asarray(derivs))
    if s is not None:
        out = out / np.sqrt(s * s + tau * (tau + 1))
    return out


def apply_lowering(m: float, tau: float, grid, values, derivs, s: float | None = None):
    """Lowering operator: conjugation of the raising at (-m, -tau).

    With s given, divides by sqrt(s^2 + tau(tau-1)) (the normalization
    of the raising that maps degree tau-1 up to tau).
    """
    out = np.conj(apply_raising(-m, -tau, grid, np.conj(values), np.conj(derivs)))
    if s is not None:
        out = out / np.sqrt(s * s + tau * (tau - 1))
    return out


def apply_D_tau(m: float, tau: float, grid, values, derivs, second_derivs):
    """Separated eigenoperator: -cos^2 w'' + 2 i tau cos^2 w' + (m^2 cos^2 - 2 tau m sin cos) w,
    from samples of w, w' and w'' on the grid (`second_deriv_from_ode` gives w'')."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values)
    c, sn = np.cos(grid), np.sin(grid)
    return (-c * c * np.asarray(second_derivs) + 2j * tau * c * c * np.asarray(derivs)
            + (m * m * c * c - 2 * tau * m * sn * c) * values)


def second_deriv_from_ode(wave: CylWave):
    """w'' on the wave's grid via its own differential equation."""
    tau = wave.tau
    return (2j * tau * wave.derivs
            + (tau * tau - wave.s**2 * Q(wave.B1, wave.mtilde, wave.grid)) * wave.values)


# --- transfer coefficients ---


def c1(B1: float, mtilde: float, s: float) -> complex:
    """Two-term transfer coefficient of a normalized raising on the w^I branch.

    Equals the value and first beta-derivative data of the raised wave
    at beta = 0 divided by the branch-I data at the next degree; the
    two-term form below reproduces the numerical transfer to O(1/s^2).
    """
    D = B1 * B1 - mtilde * mtilde + 1.0
    rD = np.sqrt(D)
    main = (1j * mtilde - rD) / np.sqrt(1 + B1 * B1)
    corr = ((rD - 1j * mtilde) * B1 / (2 * (1 + B1 * B1))
            - 1j * mtilde * B1 / (2 * D)) / np.sqrt(1 + B1 * B1)
    return main + corr / s


def decompose_I_II(value_at_0: complex, deriv_at_0: complex,
                   B1: float, mtilde: float, s: float) -> tuple[complex, complex]:
    """Coefficients in the w^I/w^II basis from data at beta = 0."""
    _, d1 = branch_ic(B1, mtilde, s, "I")
    _, d2 = branch_ic(B1, mtilde, s, "II")
    det = d2 - d1  # = -2 i s sqrt(Q(0))
    if abs(det) < 1e-12:
        raise ValueError("degenerate branch system (Q(0) <= 0?)")
    cI = (value_at_0 * d2 - deriv_at_0) / det
    cII = (deriv_at_0 - value_at_0 * d1) / det
    return cI, cII


# --- ascension ---


def ascend(m: float, s: float, B: float, grid):
    """Iterate [Bs] normalized raisings on the branch-I wave of frequency m.

    The chain keeps only (w(0), w'(0)) per degree: the raised value and
    derivative at beta = 0 follow from the current data and the ODE, and
    the raised wave is recovered by solving at the next degree, so no
    sampling error accumulates.  Returns the exact chain wave on the
    grid, the closed-form approximation (final branch-I wave times the
    accumulated c1 product), the product itself, and the degree-0
    branch-I wave the chain starts from.  The three waves come from one
    solve; the base wave's potential lies below the others', so it does
    not move the panel edges.
    """
    n, B1 = reached_degree(B, s)
    mtilde = m / s
    check_band(mtilde)
    base_ic = branch_ic(0.0, mtilde, s, "I")
    w0, dw0 = base_ic
    for tau in range(n):
        norm = np.sqrt(s * s + tau * (tau + 1))
        ddw0 = 2j * tau * dw0 + (tau * tau - s * s * Q(tau / s, mtilde, 0.0)) * w0
        r0 = tau * w0 + 1j * (m * w0 + dw0)
        # (i cos(b) e^{ib})' at 0 is -1
        dr0 = tau * dw0 - (m * w0 + dw0) + 1j * (m * dw0 + ddw0)
        w0, dw0 = r0 / norm, dr0 / norm
    prod = complex(np.prod(c1(np.arange(n) / s, mtilde, s)))
    _, dI = branch_ic(B1, mtilde, s, "I")
    values, derivs = solve_waves([B1, B1, 0.0], mtilde, s, [w0, 1.0, base_ic[0]],
                                 [dw0, dI, base_ic[1]], grid)
    grid = np.asarray(grid, dtype=float)
    exact = CylWave(B1, mtilde, s, "-" if n else "I", grid, values[0], derivs[0])
    base = CylWave(0.0, mtilde, s, "I", grid, values[2], derivs[2])
    return exact, values[1] * prod, prod, base


# --- Whittaker waves ---


def _q(p: WhittakerParams, y):
    """Coefficient of the radial equation w'' = q(y) w."""
    return p.a * p.a - 2 * p.tau * p.a / y - (p.s1 * p.s1 + 0.25) / (y * y)


def _asymptotic_seed(p: WhittakerParams, x0: float) -> tuple[float, float, float]:
    """Sign of W, log|S| and W'/W at large argument x0 (derivatives in x).

    W(x) = e^{-x/2} x^kappa S(x), with the series S (DLMF 13.19.3) cut
    before its smallest term once it starts to diverge.
    """
    S, Sp, term = 1.0, 0.0, 1.0
    for k in range(1, 300):
        term *= (-p.s1 * p.s1 - (p.tau - k + 0.5) ** 2) / (k * x0)
        if abs(term) < 1e-18 * abs(S) or abs(term) > abs(S):
            break
        S += term
        Sp -= k * term / x0
    return np.sign(S), np.log(abs(S)), -0.5 + p.tau / x0 + Sp / S


def _riccati(q, half):
    """Non-oscillatory solution u ~ -sqrt(q) of u' + u^2 = q on P panels at once: q
    (P, 32) at the nodes, half-widths half (P, 1).  Defect correction (Agocs and
    Barnett) u <- u - (u' + u^2 - q)/(2u) from u = -sqrt(q) - q'/(4q), 12 rounds;
    returns each panel's best iterate and its residual max|u' + u^2 - q| / max|q|.
    The iteration is asymptotic: it stalls unless sqrt(q) x panel length is large."""
    u = -np.sqrt(q) - (q @ _DIFF.T) / (4 * half * q)
    best, res = u, np.full(len(q), np.inf)
    for _ in range(12):
        R = (u @ _DIFF.T) / half + u * u - q
        r = np.abs(R).max(axis=1) / np.abs(q).max(axis=1)
        better = r < res
        best, res = np.where(better[:, None], u, best), np.where(better, r, res)
        u = u - R / (2 * u)
    return best, res


def _whittaker_sweep(p: WhittakerParams, ys):
    """One inward pass of W'' = q W from the asymptotic seed at y0 down to min ys.
    Returns (W, W') at ys, one row per point, and dense(y) -> (W, W') on the
    collocation panels that meet [min ys, max ys].

    Riccati leg: `_riccati` for u = W'/W on geometric panels from y0 towards the
    turning point, wholly above max ys; those above the first that misses
    _RICCATI_TOL are used, down to y_h (y0 if none), and log W(y_h) = -a y_h +
    tau ln(2 a y_h) + ln S(x0) - int_{y_h}^{y0} (u + a - tau/y) dy by Clenshaw-Curtis,
    whose small integrand avoids the O(s1^2) cancellation of seed and action.
    Linear leg: from y_h down to min ys, `_collocate` on panels of _WHITTAKER_STEP
    e-folds or radians (int (sqrt|q| + 1/y) dy), each held to _COLLOCATION_TOL,
    chained with a log factor; dense interpolates their scaled W and W'."""
    # the series terms shrink from the first once x0 >> s1^2 + tau^2
    x0 = max(120.0, 4.0 * (p.s1 * p.s1 + p.tau * p.tau + 0.25) + 40.0)
    ys, y0 = np.asarray(ys, dtype=float), x0 / (2 * p.a)
    if not np.all(np.isfinite(ys) & (ys > 0) & (ys < y0)):
        raise ValueError(f"need finite 0 < y < {y0} (the seed)")
    lo, hi = ys.min(), ys.max()
    sign, lnS, dlog0 = _asymptotic_seed(p, x0)
    y_t = (p.tau + np.sqrt(p.tau ** 2 + p.s1 ** 2 + 0.25)) / p.a
    e = y0 / _RICCATI_RATIO ** np.arange(np.ceil(np.log(y0 / y_t) / np.log(_RICCATI_RATIO)))
    e = e[e > hi]  # so the linear leg covers [lo, hi]
    half, y = _nodes(e)
    u, res = _riccati(_q(p, y), half)
    n = int(np.argmax(np.r_[res, np.inf] > _RICCATI_TOL))  # panels used
    y_h = e[n]
    logfac = (-p.a * y_h + p.tau * np.log(2 * p.a * y_h) + lnS
              + np.sum(half[:n, 0] * ((u[:n] + p.a - p.tau / y[:n]) @ _CLENSHAW_CURTIS)))
    w, dw = sign, sign * np.r_[2 * p.a * dlog0, u[:, -1]][n]  # W'/W at y_h

    def solve(e):
        half, y = _nodes(e)
        return _collocate(_q(p, y)[None], half)

    g = np.geomspace(lo, y_h, 4097)
    steps = _cumtrapz(np.sqrt(np.abs(_q(p, g))) + 1 / g, g)
    n_lin = 1 + int(np.ceil(steps[-1] / _WHITTAKER_STEP))
    edges = np.interp(np.linspace(steps[-1], 0.0, n_lin), steps, g)  # exactly y_h down to lo
    kept = []
    for i in range(0, len(edges) - 1, 64):  # 64 panels at a time: a sweep stays under 1 MiB
        e, (U,), (dU,) = _refined(solve, edges[i:i + 65])
        for k, ((u0, u1), (d0, d1)) in enumerate(np.stack((U[:, -1], dU[:, -1]), 1).tolist()):
            if e[k + 1] <= hi:
                kept.append((e[k], e[k + 1], U[k] @ (w, dw), dU[k] @ (w, dw), logfac))
            w, dw = u0 * w + u1 * dw, d0 * w + d1 * dw
            mag = max(abs(w), abs(dw))
            w, dw, logfac = w / mag, dw / mag, logfac + np.log(mag)
    top, bottom, F1, F2, lf = map(np.array, zip(*kept[::-1]))  # upward

    def dense(y):
        y = np.atleast_1d(y)
        k = np.clip(np.searchsorted(bottom, y, side="right") - 1, 0, len(bottom) - 1)
        M = _bary(((2 * y - top[k] - bottom[k]) / (bottom[k] - top[k]))[:, None])
        return np.stack(((M * F1[k]).sum(axis=1), (M * F2[k]).sum(axis=1))) * np.exp(lf[k])

    return dense(ys).T, dense


def whittaker_W(p: WhittakerParams, ys):
    """Recessive radial wave, normalized e^{-a y} (2 a y)^tau at +infinity."""
    vals = _whittaker_sweep(p, np.atleast_1d(ys))[0][:, 0]
    return vals if np.ndim(ys) else float(vals[0])


def whittaker_deriv(p: WhittakerParams, ys):
    """dW/dy by the same inward scheme (second state component)."""
    vals = _whittaker_sweep(p, np.atleast_1d(ys))[0][:, 1]
    return vals if np.ndim(ys) else float(vals[0])


def ascension_norm(tau: int, s1: float) -> float:
    """Product of raising normalizations from degree 0 up to tau."""
    check_degree(tau)
    return float(np.prod(np.sqrt(s1 * s1 + 0.25 + np.arange(tau) * np.arange(1, tau + 1))))


def whittaker_peaks(p: WhittakerParams, y_range: tuple[float, float],
                    n_scan: int = 2000, normalized: bool = False):
    """Local maxima (abscissa, ordinate) of |W| over a y-interval, from one
    inward pass scanned at n_scan points.  With `normalized`, ordinates are
    divided by the ascension normalization for degree p.tau."""
    if not (0 < y_range[0] < y_range[1] < np.inf and n_scan >= 3):
        raise ValueError(f"need finite 0 < lo < hi and n_scan >= 3, got {y_range}, {n_scan}")
    ys = np.linspace(*y_range, n_scan)
    norm = ascension_norm(p.tau, p.s1) if normalized else 1.0
    return [(y, v / norm) for y, v in _sweep_peaks(p, ys, *_whittaker_sweep(p, ys))]


def _sweep_peaks(p: WhittakerParams, ys, states, dense):
    """(abscissa, |W|) at each local maximum of |W| on the scan ys of a sweep,
    refined to the root of W' on the dense output by Newton (W'' = q W) clipped
    to the bracket of its scan neighbours."""
    vals = np.abs(states[:, 0])
    peaks = []
    for i in np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1:
        lo, hi = ys[i - 1], ys[i + 1]
        y_pk, dw = ys[i], dense((lo, hi))[1]
        if dw[0] * dw[1] < 0:
            for _ in range(50):
                (w,), (dw,) = dense(y_pk)
                y_pk, y_old = min(max(y_pk - dw / (_q(p, y_pk) * w), lo), hi), y_pk
                if abs(y_pk - y_old) <= 1e-12:
                    break
        peaks.append((y_pk, abs(dense(y_pk)[0, 0])))
    return peaks
