"""Quantization on the hyperbolic cylinder.

Separable observables built from a single plateau bump, the frequency
quadratic forms q_{m,m'}, windowed assembly into full quadratic forms,
geodesic-concentrated wave packets, ascension of packet coefficients,
the measure-transport comparison, and energy-shell localization checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import transport as tr
from .base import bump, check_field, gauss_quad  # perfbench traces quantize.gauss_quad
# solve_wave is re-exported: code that wraps quantize.solve_wave finds it here
from .waves import WaveCoeffs, branch_ic, c1, solve_wave, solve_waves  # noqa: F401

_bump_arr = bump  # the array bump under its former name, called by perfbench


@dataclass
class Observable:
    """Separable symbol phi1(eta) phi2(beta) phi3(sigma) with xi cutoff."""

    eta0: float
    beta0: float = 0.0
    sigma0: float = 0.0
    eps: float = 0.2
    _ft_cache: dict = field(default_factory=dict, repr=False)

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

    def phi4(self, xi):
        """Smooth step vanishing for xi <= 0, identically 1 for xi >= 1/4."""
        return bump(np.maximum(0.5 - np.asarray(xi, dtype=float), 0.0))

    def phi5(self, eta):
        """Wider plateau, 1 on supp phi1, supported in (-1/2, 1/2)."""
        scaled = bump((np.asarray(eta) - self.eta0) / (2 * self.eps))
        return scaled * bump(np.asarray(eta) * 0.999)

    def beta_support(self) -> tuple[float, float]:
        return (self.beta0 - self.eps / 2, self.beta0 + self.eps / 2)

    def sigma_ft(self, k: float) -> complex:
        """Fourier transform of phi3 at frequency k: int phi3 e^{ik sigma}."""
        key = round(k, 12)
        if key not in self._ft_cache:
            self._ft_cache[key] = complex(gauss_quad(
                lambda s_: self.phi3(s_) * np.exp(1j * k * s_),
                self.sigma0 - self.eps / 2, self.sigma0 + self.eps / 2,
                max(8, int(abs(k) * self.eps) + 8)))
        return self._ft_cache[key]


def _packet(coeffs: WaveCoeffs) -> tuple[np.ndarray, np.ndarray]:
    """Sorted frequencies and branch-I coefficients of the nonzero entries."""
    items = sorted(coeffs.entries.items())
    ms = np.array([m for m, _ in items], dtype=float)
    alpha = np.array([a for _, (a, _) in items], dtype=complex)
    return ms[alpha != 0], alpha[alpha != 0]


def _branch_I(B1: float, mts, s: float, grid, tol: float) -> np.ndarray:
    """Branch-I wave values of every frequency in mts, one row each."""
    return solve_waves(B1, mts, s, *branch_ic(B1, mts, s, "I"), grid, tol,
                       derivs=False)[0]


def _simpson(vals: np.ndarray, h: float):
    """Composite Simpson rule along the last axis."""
    n = vals.shape[-1]
    if n % 2 == 0:
        raise ValueError("need odd sample count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.sum(w * vals, axis=-1) * h / 3.0


def q_mm(m: float, mp: float, obs: Observable, s: float,
         grid: np.ndarray, wm: np.ndarray, wmp: np.ndarray) -> complex:
    """Pair form phi1(m/s) FT[phi3](m-m') int phi2(b) w_m conj(w_m')."""
    p1 = bump((m / s - obs.eta0) / obs.eps)
    if p1 == 0.0:
        return 0.0 + 0.0j
    beta_int = _simpson(obs.phi2(grid) * wm * np.conj(wmp),
                        grid[1] - grid[0])
    return p1 * obs.sigma_ft(m - mp) * beta_int


def default_window(s: float) -> float:
    return s ** 0.125


def quad_form(coeffs: WaveCoeffs, obs: Observable, B: float, s: float,
              freq_window: float | None = None, n_grid: int = 801,
              tol: float = 1e-10) -> complex:
    """Windowed double sum of q_{m,m'} over the coefficient support.

    For B = 0 this is the plain form against a0; for B > 0 the waves are
    taken at degree [Bs] and weighted by the transported symbol a1, with
    the beta' integral pulled back through Phi so that both sides live
    on the same beta grid.
    """
    check_field(B, s)
    if not (n_grid >= 3 and n_grid % 2 == 1):  # the Simpson rule needs an odd count
        raise ValueError(f"need an odd n_grid >= 3, got {n_grid}")
    if freq_window is None:
        freq_window = default_window(s)
    grid = np.linspace(*obs.beta_support(), n_grid)
    ms, alpha = _packet(coeffs)
    ms, alpha = ms[np.abs(ms) <= s / 2], alpha[np.abs(ms) <= s / 2]
    mts = ms / s
    p1 = obs.phi1(mts)
    p5 = bump(mts * 0.999)
    B1 = math.floor(B * s) / s
    if B1 == 0:
        w_all = _branch_I(0.0, mts, s, grid, tol)
    pairs = np.zeros((len(ms), len(ms)), dtype=complex)
    for i in np.flatnonzero(p1):
        near = np.flatnonzero(np.abs(ms - ms[i]) <= freq_window)
        weight = obs.phi2(grid)
        if B1 > 0:
            table = tr.PhaseTable(B=B1, mtilde=mts[i])
            pts = table.Phi(grid)
            weight = weight * np.exp(
                -2.0 * (table.f3(grid, pts) + tr.wave_norm_shift(B1, mts[i]))
                + 1j * (ms[i] - ms[near])[:, None] * table.f4(grid, pts))
            w = _branch_I(B1, mts[near], s, pts, tol)
        else:
            w = w_all[near]
        ft = np.array([obs.sigma_ft(ms[i] - mp) for mp in ms[near]])
        beta_int = _simpson(weight * w[near == i] * np.conj(w), grid[1] - grid[0])
        pairs[i, near] = (alpha[i] * np.conj(alpha[near]) * p5[i] * p5[near]
                          * p1[i] * ft * beta_int)
    return complex(np.sum(pairs))


def geodesic_packet(s: float, eta0: float, K: int, l: float) -> WaveCoeffs:
    """Equal-weight packet on the K lattice frequencies nearest eta0*s."""
    if not (math.isfinite(s) and abs(eta0) < 0.5 and K >= 1 and 0 < l < math.inf):
        raise ValueError(f"need finite s, |eta0| < 1/2, K >= 1 and finite l > 0, "
                         f"got s={s}, eta0={eta0}, K={K}, l={l}")
    step = 2 * math.pi / l
    k0 = round(eta0 * s / step)
    cand = [step * (k0 + j) for j in range(-K - 1, K + 2)]
    cand.sort(key=lambda mu: (abs(mu - eta0 * s), mu))
    ms = sorted(cand[:K])
    if not ms:
        raise ValueError("no lattice frequencies selected")
    alpha = 1.0 / math.sqrt(K)
    return WaveCoeffs(l=l, entries={m: (alpha, 0.0) for m in ms})


def ascend_coeffs(coeffs: WaveCoeffs, s: float, B: float) -> WaveCoeffs:
    """Multiply each alpha_m by the product of transfer coefficients."""
    check_field(B, s)
    n = int(math.floor(B * s))
    if n < 1:
        return coeffs
    ms = np.array(list(coeffs.entries), dtype=float)
    alpha, alpha_II = np.array(list(coeffs.entries.values()),
                               dtype=complex).reshape(-1, 2).T
    if np.any(alpha_II != 0):
        raise ValueError("packet ascension needs pure branch-I data")
    if not np.all(np.isfinite(ms)):
        raise ValueError("frequencies must be finite")
    alpha = alpha * np.prod(c1(np.arange(n) / s, ms[:, None] / s, s), axis=1)
    return WaveCoeffs(l=coeffs.l, entries={m: (a, 0.0) for m, a in
                                           zip(coeffs.entries, alpha)})


def measure_transport_check(s_list, B: float, obs: Observable,
                            eta0: float | None = None, K: int = 20,
                            l: float = 2 * math.pi,
                            n_grid: int = 801) -> list[dict]:
    """Compare the packet form against a0 with the ascended form against a1."""
    if eta0 is None:
        eta0 = obs.eta0
    rows = []
    for s in s_list:
        u0 = geodesic_packet(s, eta0, K, l)
        lhs = quad_form(u0, obs, 0.0, s, n_grid=n_grid)
        uB = ascend_coeffs(u0, s, B)
        rhs = quad_form(uB, obs, B, s, n_grid=n_grid)
        denom = abs(lhs) if lhs != 0 else 1.0
        rows.append({
            "s": s, "b_field": B, "eta0": eta0, "eps": obs.eps,
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


def _shell_grid(beta_cut: float, n: int) -> tuple[np.ndarray, float]:
    """The periodic beta grid of energy_shell_test and its step."""
    grid = np.linspace(-beta_cut / 2, beta_cut / 2, n, endpoint=False)
    return grid, grid[1] - grid[0]


@functools.lru_cache(maxsize=1)  # callers evaluate their symbols packet by packet
def _shell_spectrum(ms: tuple, weights: tuple, s: float, B1: float,
                    beta_cut: float, n: int, tol: float) -> np.ndarray:
    """Read-only cross spectrum sum_w weight_w fft(u_w) conj(fft(a_beta u_w)) / n.

    u_w = w taper for the branch-I wave w of each frequency in ms, and
    a_beta = taper = bump(beta / beta_cut).  The waves are solved once and
    transformed one at a time, so memory stays O(n) beyond the solve.
    """
    grid, _ = _shell_grid(beta_cut, n)
    taper = bump(grid / beta_cut)
    waves = _branch_I(B1, np.array(ms) / s, s, grid, tol)
    spec = np.zeros(n, dtype=complex)
    for weight, w in zip(weights, waves):
        u = w * taper
        spec += weight * np.fft.fft(u) * np.conj(np.fft.fft(taper * u))
    spec /= n
    spec.flags.writeable = False
    return spec


def energy_shell_test(coeffs: WaveCoeffs, s: float, B1: float,
                      xi_profile, h_param: float | None = None,
                      beta_cut: float = 2.4, n: int = 8192,
                      tol: float = 1e-10) -> complex:
    """Diagonal quadratic form of a symbol a_beta(beta) psi(xi).

    The xi multiplier psi(h_param k) acts per frequency k of an FFT in beta
    at semiclassical parameter h_param (default 1/s); a_beta is the inner
    plateau bump(beta / beta_cut).  By Parseval the form is
    sum_k psi(h_param k) S_k h for the packet's cross spectrum S
    (`_shell_spectrum`), which is cached, so further symbols on the same
    packet cost one O(n) sum.  Symbols supported away from the energy
    shell should produce small values relative to psi == 1.
    """
    check_field(B1, s)
    if h_param is None:
        h_param = 1.0 / s
    if not (0 < beta_cut < math.pi and n >= 2 and 0 < h_param < math.inf):
        raise ValueError("need 0 < beta_cut < pi, n >= 2 and finite h_param > 0, "
                         f"got beta_cut={beta_cut}, n={n}, h_param={h_param}")
    _, h = _shell_grid(beta_cut, n)
    mult = np.asarray(xi_profile(2 * math.pi * np.fft.fftfreq(n, d=h) * h_param),
                      dtype=complex)
    if mult.shape != (n,) or not np.all(np.isfinite(mult)):
        raise ValueError(f"xi_profile must return {n} finite values")
    ms, alpha = _packet(coeffs)
    spec = _shell_spectrum(tuple(ms.tolist()),
                           tuple((np.abs(alpha) ** 2 * coeffs.l).tolist()),
                           s, B1, beta_cut, n, tol)
    return complex(np.sum(mult * spec) * h)


def packet_position_density(coeffs: WaveCoeffs, s: float,
                            betas: np.ndarray, sigmas: np.ndarray,
                            tol: float = 1e-10) -> np.ndarray:
    """|u(beta, sigma)|^2 for u = sum alpha_m e^{im sigma} w_m(beta)."""
    check_field(0.0, s)  # before branch_ic does arithmetic on bad input
    ms, alpha = _packet(coeffs)
    waves = alpha[:, None] * _branch_I(0.0, ms / s, s, betas, tol)
    return np.abs(waves.T @ np.exp(1j * np.outer(ms, sigmas))) ** 2


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
