"""Quantization on the hyperbolic cylinder.

Separable observables built from a single plateau bump, branch-I packets
as arrays over frequencies, their windowed quadratic forms, geodesic
packets, ascension of packet coefficients, the measure-transport
comparison, and energy-shell localization checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import transport as tr
from .base import bump, check_field, gauss_quad  # perfbench traces quantize.gauss_quad
# solve_wave is re-exported: code that wraps quantize.solve_wave finds it here
from .waves import branch_ic, c1, solve_wave, solve_waves  # noqa: F401

_bump_arr = bump  # the array bump under its former name, called by perfbench


@dataclass(frozen=True, eq=False)
class WaveCoeffs:
    """Branch-I packet sum_m alpha_m e^{i m sigma} w^I_m(beta), m in 2*pi*Z/l.

    ms and alpha are read-only 1-D arrays of one shape; ms is finite and
    strictly increasing, alpha finite.  Only branch I is carried: geodesic
    packets and their ascension stay on it up to O(1/s^2) per step.
    """

    l: float
    ms: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        ms, alpha = np.array(self.ms, dtype=float), np.array(self.alpha, dtype=complex)
        if not (0 < self.l < math.inf and ms.ndim == 1 and alpha.shape == ms.shape
                and np.all(np.isfinite(ms)) and np.all(np.diff(ms) > 0)
                and np.all(np.isfinite(alpha))):
            raise ValueError("need finite l > 0, finite strictly increasing 1-D ms and finite "
                             f"alpha of its shape, got l={self.l}, ms={ms}, alpha={alpha}")
        for name, arr in (("ms", ms), ("alpha", alpha)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def entries(self) -> dict:
        """{m: (alpha_m, 0j)} in increasing m; read only by perfbench/workloads.py."""
        return {m: (a, 0j) for m, a in zip(self.ms.tolist(), self.alpha.tolist())}


@dataclass(frozen=True)
class Observable:
    """Separable symbol phi1(eta) phi2(beta) phi3(sigma) with xi cutoff."""

    eta0: float
    beta0: float = 0.0
    sigma0: float = 0.0
    eps: float = 0.2

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.eta0, self.beta0, self.sigma0)))
                and 0 < self.eps < math.inf):
            raise ValueError(f"need finite eta0, beta0, sigma0 and eps > 0, got eps={self.eps}")

    def phi1(self, eta):
        return bump((np.asarray(eta) - self.eta0) / self.eps)

    def phi2(self, beta):
        return bump((np.asarray(beta) - self.beta0) / self.eps)

    def phi3(self, sigma):
        return bump((np.asarray(sigma) - self.sigma0) / self.eps)

    def beta_support(self) -> tuple[float, float]:
        return (self.beta0 - self.eps / 2, self.beta0 + self.eps / 2)

    def sigma_ft(self, k):
        """int phi3(sigma) e^{ik sigma} at each k: one quadrature, panels for the largest |k|."""
        k = np.asarray(k, dtype=float)
        return gauss_quad(lambda s_: self.phi3(s_) * np.exp(1j * k[..., None, None] * s_),
                          self.sigma0 - self.eps / 2, self.sigma0 + self.eps / 2,
                          max(8, int(np.max(np.abs(k), initial=0.0) * self.eps) + 8))


def _branch_I(B1: float, mts, s: float, grid) -> np.ndarray:
    """Branch-I wave values of every frequency in mts, one row each."""
    return solve_waves(B1, mts, s, *branch_ic(B1, mts, s, "I"), grid, derivs=False)[0]


def _simpson(vals: np.ndarray, h: float):
    """Composite Simpson rule along the last axis."""
    n = vals.shape[-1]
    if n % 2 == 0:
        raise ValueError("need odd sample count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.sum(w * vals, axis=-1) * h / 3.0


def _check_band(coeffs: WaveCoeffs, s: float) -> None:
    """Every frequency must satisfy |m| <= s/2, the band of the forms and the ascension."""
    if np.any(np.abs(coeffs.ms) > s / 2):
        raise ValueError(f"need |m| <= s/2 = {s / 2} for every frequency, "
                         f"got max |m| = {np.max(np.abs(coeffs.ms))}")


def default_window(s: float) -> float:
    return s ** 0.125


def quad_form(coeffs: WaveCoeffs, obs: Observable, B: float, s: float,
              n_grid: int = 801) -> complex:
    """Double sum over pairs (m, m') of the packet's frequencies, |m - m'| at
    most `default_window(s)`, of alpha_m conj(alpha_m') phi1(m/s) FT[phi3](m-m')
    int phi2(b) w_m conj(w_m').

    The waves are taken at degree [Bs] and weighted by the transported
    symbol a1, with the beta' integral pulled back through Phi so that
    both sides live on the same beta grid.  One `PhaseTable` holds the
    column of row frequencies m/s, m in supp phi1: one call each gives
    Phi, f3 and f4 as (rows, n_grid) arrays, Phi's rows being the row
    grids in beta'.  At B = 0 the table is the identity (f3 = f4 = 0), so
    this is the plain form against a0.  Every wave is solved in one call
    on the union of the row grids, and the windowed pairs are arrays of
    shape (pairs, n_grid).
    """
    check_field(B, s)
    if not (n_grid >= 3 and n_grid % 2 == 1):  # the Simpson rule needs an odd count
        raise ValueError(f"need an odd n_grid >= 3, got {n_grid}")
    _check_band(coeffs, s)
    grid = np.linspace(*obs.beta_support(), n_grid)
    ms, alpha = coeffs.ms, coeffs.alpha
    mts = ms / s
    p1 = obs.phi1(mts)
    p5 = bump(mts * 0.999)
    B1 = math.floor(B * s) / s
    diff = ms[:, None] - ms
    window = (np.abs(diff) <= default_window(s)) & (p1 != 0)[:, None]
    rows = np.flatnonzero(window.any(axis=1))
    if not rows.size:
        return 0j
    r, J = np.nonzero(window[rows])  # pair k is (row r[k], frequency J[k])
    I = rows[r]
    # one transform of each distinct windowed difference
    ks, inv = np.unique(diff[I, J], return_inverse=True)
    ft = obs.sigma_ft(ks)[inv]
    table = tr.PhaseTable(B=B1, mtilde=mts[rows, None])
    pts = np.broadcast_to(table.Phi(grid), (rows.size, n_grid))  # Phi is grid itself at B = 0
    f3 = table.f3(grid, pts) + tr.wave_norm_shift(B1, table.mtilde)
    f4 = table.f4(grid, pts)
    union, at = np.unique(pts, return_inverse=True)
    waves = _branch_I(B1, mts, s, union)
    at = at.reshape(pts.shape)[r]  # each pair's row grid in the union
    weight = obs.phi2(grid) * np.exp(-2.0 * f3[r] + 1j * (ms[I] - ms[J])[:, None] * f4[r])
    beta_int = _simpson(weight * waves[I[:, None], at] * np.conj(waves[J[:, None], at]),
                        grid[1] - grid[0])
    pairs = np.zeros(diff.shape, dtype=complex)  # summed as (K, K): the order sets the last bits
    pairs[I, J] = (alpha[I] * np.conj(alpha[J]) * p5[I] * p5[J]
                   * p1[I] * ft * beta_int)
    return complex(np.sum(pairs))


def geodesic_packet(s: float, eta0: float, K: int, l: float) -> WaveCoeffs:
    """Equal-weight packet on the K lattice frequencies nearest eta0*s."""
    check_field(0.0, s)
    if not (abs(eta0) < 0.5 and K >= 1 and 0 < l < math.inf):
        raise ValueError(f"need |eta0| < 1/2, K >= 1 and finite l > 0, "
                         f"got eta0={eta0}, K={K}, l={l}")
    step = 2 * math.pi / l
    k0 = round(eta0 * s / step)
    cand = [step * (k0 + j) for j in range(-K - 1, K + 2)]
    cand.sort(key=lambda mu: (abs(mu - eta0 * s), mu))
    ms = sorted(cand[:K])
    return WaveCoeffs(l, ms, np.full(K, 1.0 / math.sqrt(K)))


def ascend_coeffs(coeffs: WaveCoeffs, s: float, B: float) -> WaveCoeffs:
    """Multiply each alpha_m by the product of transfer coefficients; every
    frequency must satisfy |m| <= s/2, as in `quad_form`."""
    check_field(B, s)
    _check_band(coeffs, s)
    n = int(math.floor(B * s))
    if n < 1:
        return coeffs
    ms = coeffs.ms
    return WaveCoeffs(coeffs.l, ms,
                      coeffs.alpha * np.prod(c1(np.arange(n) / s, ms[:, None] / s, s), axis=1))


def measure_transport_check(s_list, B: float, obs: Observable, K: int = 20,
                            l: float = 2 * math.pi, n_grid: int = 801) -> list[dict]:
    """Compare the form of the packet at obs.eta0 against a0 with the ascended form against a1."""
    rows = []
    for s in s_list:
        u0 = geodesic_packet(s, obs.eta0, K, l)
        keep = np.abs(u0.ms) <= s / 2  # the band of the forms (K = 20 at s = 25 has more)
        u0 = WaveCoeffs(l, u0.ms[keep], u0.alpha[keep])
        lhs = quad_form(u0, obs, 0.0, s, n_grid=n_grid)
        uB = ascend_coeffs(u0, s, B)
        rhs = quad_form(uB, obs, B, s, n_grid=n_grid)
        denom = abs(lhs) if lhs != 0 else 1.0
        rows.append({
            "s": s, "b_field": B, "eta0": obs.eta0, "eps": obs.eps,
            "lhs_re": lhs.real, "lhs_im": lhs.imag,
            "rhs_re": rhs.real, "rhs_im": rhs.imag,
            "rel_diff": abs(lhs - rhs) / denom,
        })
    return rows


def a1_density(obs: Observable, B: float, beta_p: float, sigma: float,
               eta: float) -> float:
    """Transported symbol a1 at a phase-space point (beta', sigma, eta)."""
    table = tr.PhaseTable(B=B, mtilde=eta)
    pre = table.Phi_inv(beta_p)
    dinv = 1.0 / table.dPhi_dbeta(pre, beta_p)
    return (dinv * float(obs.phi1(eta)) * float(obs.phi2(pre))
            * float(obs.phi3(sigma - table.f4(pre, beta_p)))
            * math.exp(-2.0 * table.f3(pre, beta_p)))


# the periodic beta grid of energy_shell_test: n points on [-beta_cut/2, beta_cut/2)
_SHELL_CUT, _SHELL_N = 2.4, 8192
_SHELL_GRID = np.linspace(-_SHELL_CUT / 2, _SHELL_CUT / 2, _SHELL_N, endpoint=False)
_SHELL_STEP = _SHELL_GRID[1] - _SHELL_GRID[0]


@functools.lru_cache(maxsize=1)  # callers evaluate their symbols packet by packet
def _shell_spectrum(ms: tuple, weights: tuple, s: float, B1: float) -> np.ndarray:
    """Read-only cross spectrum sum_w weight_w fft(u_w) conj(fft(a_beta u_w)) / n.

    u_w = w taper for the branch-I wave w of each frequency in ms, and
    a_beta = taper = bump(beta / beta_cut).  The waves are solved once and
    transformed one at a time, so memory stays O(n) beyond the solve.
    """
    taper = bump(_SHELL_GRID / _SHELL_CUT)
    waves = _branch_I(B1, np.array(ms) / s, s, _SHELL_GRID)
    spec = np.zeros(_SHELL_N, dtype=complex)
    for weight, w in zip(weights, waves):
        u = w * taper
        spec += weight * np.fft.fft(u) * np.conj(np.fft.fft(taper * u))
    spec /= _SHELL_N
    spec.flags.writeable = False
    return spec


def energy_shell_test(coeffs: WaveCoeffs, s: float, B1: float,
                      xi_profile, h_param: float | None = None) -> complex:
    """Diagonal quadratic form of a symbol a_beta(beta) psi(xi).

    The xi multiplier psi(h_param k) acts per frequency k of an FFT in beta
    at semiclassical parameter h_param (default 1/s), on n = 8192 points
    of [-beta_cut/2, beta_cut/2), beta_cut = 2.4; a_beta is the inner
    plateau bump(beta / beta_cut).  By Parseval the form is
    sum_k psi(h_param k) S_k h for the packet's cross spectrum S
    (`_shell_spectrum`), which is cached, so further symbols on the same
    packet cost one O(n) sum.  Symbols supported away from the energy
    shell should produce small values relative to psi == 1.
    """
    check_field(B1, s)
    if h_param is None:
        h_param = 1.0 / s
    if not 0 < h_param < math.inf:
        raise ValueError(f"need finite h_param > 0, got h_param={h_param}")
    mult = np.asarray(xi_profile(2 * math.pi * np.fft.fftfreq(_SHELL_N, d=_SHELL_STEP)
                                 * h_param), dtype=complex)
    if mult.shape != (_SHELL_N,) or not np.all(np.isfinite(mult)):
        raise ValueError(f"xi_profile must return {_SHELL_N} finite values")
    spec = _shell_spectrum(tuple(coeffs.ms.tolist()),
                           tuple((np.abs(coeffs.alpha) ** 2 * coeffs.l).tolist()), s, B1)
    return complex(np.sum(mult * spec) * _SHELL_STEP)


def packet_position_density(coeffs: WaveCoeffs, s: float,
                            betas: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """|u(beta, sigma)|^2 for u = sum alpha_m e^{im sigma} w_m(beta)."""
    check_field(0.0, s)  # before ms / s divides by it
    waves = coeffs.alpha[:, None] * _branch_I(0.0, coeffs.ms / s, s, betas)
    return np.abs(waves.T @ np.exp(1j * np.outer(coeffs.ms, sigmas))) ** 2


def limit_geodesic_sigma(eta0: float, sigma_ref: float,
                         betas: np.ndarray) -> np.ndarray:
    """sigma(beta) along the unit-energy orbit with conserved eta = eta0.

    On the shell xi^2 + eta^2 = 1/cos^2(beta), the orbit satisfies
    dsigma/dbeta = eta0 / sqrt(1/cos^2 - eta0^2), whose integral is
    asinh(eta0 sin(beta) / sqrt(1 - eta0^2)); sigma_ref pins the value at
    beta = 0.
    """
    betas = np.asarray(betas, dtype=float)
    if not (math.isfinite(eta0) and abs(eta0) < 1.0 and math.isfinite(sigma_ref)
            and np.all(np.abs(betas) < np.pi / 2)):
        raise ValueError("need finite |eta0| < 1, finite sigma_ref and |beta| < pi/2")
    return sigma_ref + np.arcsinh(eta0 * np.sin(betas) / math.sqrt(1.0 - eta0 * eta0))
