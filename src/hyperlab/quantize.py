"""Quantization on the hyperbolic cylinder.

Separable observables built from a single plateau bump, the frequency
quadratic forms q_{m,m'}, windowed assembly into full quadratic forms,
geodesic-concentrated wave packets, ascension of packet coefficients,
the measure-transport comparison, and energy-shell localization checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import transport as tr
from .waves import WaveCoeffs, c1, gauss_quad, solve_wave


def bump(t: float) -> float:
    """Smooth plateau bump: 1 on [-1/4, 1/4], 0 outside [-1/2, 1/2]."""
    x = abs(t)
    if x <= 0.25:
        return 1.0
    if x >= 0.5:
        return 0.0
    # smoothstep on the shoulder via the standard exp(-1/x) partition
    u = (x - 0.25) / 0.25
    fa = math.exp(-1.0 / u)
    fb = math.exp(-1.0 / (1.0 - u))
    return fb / (fa + fb)


def _bump_arr(t):
    return np.vectorize(bump, otypes=[float])(t)


@dataclass
class Observable:
    """Separable symbol phi1(eta) phi2(beta) phi3(sigma) with xi cutoff."""

    eta0: float
    beta0: float = 0.0
    sigma0: float = 0.0
    eps: float = 0.2
    _ft_cache: dict = field(default_factory=dict, repr=False)

    def phi1(self, eta):
        return _bump_arr((np.asarray(eta) - self.eta0) / self.eps)

    def phi2(self, beta):
        return _bump_arr((np.asarray(beta) - self.beta0) / self.eps)

    def phi3(self, sigma):
        return _bump_arr((np.asarray(sigma) - self.sigma0) / self.eps)

    def phi4(self, xi):
        """Smooth step vanishing for xi <= 0, identically 1 for xi >= 1/4."""
        def step(t):
            if t <= 0.0:
                return 0.0
            if t >= 1.0:
                return 1.0
            fa = math.exp(-1.0 / t)
            fb = math.exp(-1.0 / (1.0 - t))
            return fa / (fa + fb)

        return np.vectorize(step, otypes=[float])(
            np.asarray(xi, dtype=float) / 0.25)

    def phi5(self, eta):
        """Wider plateau, 1 on supp phi1, supported in (-1/2, 1/2)."""
        scaled = _bump_arr((np.asarray(eta) - self.eta0) / (2 * self.eps))
        return scaled * _bump_arr(np.asarray(eta) * 0.999)

    def beta_support(self) -> tuple[float, float]:
        return (self.beta0 - self.eps / 2, self.beta0 + self.eps / 2)

    def sigma_ft(self, k: float) -> complex:
        """Fourier transform of phi3 at frequency k: int phi3 e^{ik sigma}."""
        key = round(k, 12)
        if key not in self._ft_cache:
            def fr(s_):
                return _bump_arr((s_ - self.sigma0) / self.eps) * np.cos(k * s_)

            def fi(s_):
                return _bump_arr((s_ - self.sigma0) / self.eps) * np.sin(k * s_)

            lo = self.sigma0 - self.eps / 2
            hi = self.sigma0 + self.eps / 2
            panels = max(8, int(abs(k) * self.eps) + 8)
            self._ft_cache[key] = complex(gauss_quad(fr, lo, hi, panels),
                                          gauss_quad(fi, lo, hi, panels))
        return self._ft_cache[key]


class _KahanC:
    """Compensated accumulator for complex contributions."""

    def __init__(self):
        self.s = 0.0 + 0.0j
        self.c = 0.0 + 0.0j

    def add(self, x: complex):
        y = x - self.c
        t = self.s + y
        self.c = (t - self.s) - y
        self.s = t


def _uniform_grid(lo: float, hi: float, n: int = 801) -> np.ndarray:
    return np.linspace(lo, hi, n)


def _simpson(vals: np.ndarray, h: float) -> complex:
    n = len(vals)
    if n % 2 == 0:
        raise ValueError("need odd sample count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex(np.sum(w * vals) * h / 3.0)


def q_mm(m: float, mp: float, obs: Observable, s: float,
         grid: np.ndarray, wm: np.ndarray, wmp: np.ndarray) -> complex:
    """Pair form phi1(m/s) FT[phi3](m-m') int phi2(b) w_m conj(w_m')."""
    p1 = bump((m / s - obs.eta0) / obs.eps)
    if p1 == 0.0:
        return 0.0 + 0.0j
    beta_int = _simpson(obs.phi2(grid) * wm * np.conj(wmp),
                        grid[1] - grid[0])
    return p1 * obs.sigma_ft(m - mp) * beta_int


@dataclass(frozen=True)
class _WaveCache:
    """Branch-I wave values per (mtilde, tuple-of-points) key."""

    B1: float
    s: float
    tol: float = 1e-10
    store: dict = field(default_factory=dict)

    def values(self, mtilde: float, pts: np.ndarray) -> np.ndarray:
        key = (round(mtilde, 14), pts.tobytes())
        if key not in self.store:
            order = np.argsort(pts)
            wave = solve_wave(self.B1, mtilde, self.s, "I", pts[order],
                              self.tol)
            vals = np.empty_like(wave.values)
            vals[order] = wave.values
            self.store[key] = vals
        return self.store[key]


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
    if freq_window is None:
        freq_window = default_window(s)
    lo, hi = obs.beta_support()
    grid = _uniform_grid(lo, hi, n_grid)
    ms = sorted(coeffs.entries.keys())
    B1 = math.floor(B * s) / s
    cache = _WaveCache(B1=B1, s=s, tol=tol)
    acc = _KahanC()
    for m in ms:
        am = coeffs.entries[m][0]
        if am == 0 or abs(m) > s / 2:
            continue
        mt = m / s
        if bump((mt - obs.eta0) / obs.eps) == 0.0:
            continue
        if B1 > 0:
            table = tr.PhaseTable(B=B1, mtilde=mt)
            pts = table.Phi(grid)
            f3v = table.f3(grid, pts)
            f4v = table.f4(grid, pts)
            shift = tr.wave_norm_shift(B1, mt)
            weight = obs.phi2(grid) * np.exp(-2.0 * (f3v + shift))
        else:
            pts = grid
            weight = obs.phi2(grid)
            f4v = None
        wm = cache.values(mt, pts)
        for mp in ms:
            if abs(mp - m) > freq_window or abs(mp) > s / 2:
                continue
            amp = coeffs.entries[mp][0]
            if amp == 0:
                continue
            wmp = cache.values(mp / s, pts)
            p5 = bump(mt * 0.999) * bump((mp / s) * 0.999)
            integrand = weight * wm * np.conj(wmp)
            if f4v is not None:
                integrand = integrand * np.exp(1j * (m - mp) * f4v)
            val = (bump((mt - obs.eta0) / obs.eps) * obs.sigma_ft(m - mp)
                   * _simpson(integrand, grid[1] - grid[0]))
            acc.add(am * np.conj(amp) * p5 * val)
    return acc.s


def geodesic_packet(s: float, eta0: float, K: int, l: float) -> WaveCoeffs:
    """Equal-weight packet on the K lattice frequencies nearest eta0*s."""
    if not (abs(eta0) < 0.5 and K >= 1 and l > 0):
        raise ValueError("need |eta0| < 1/2, K >= 1, l > 0")
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
    n = int(math.floor(B * s))
    if n < 1:
        return coeffs
    entries = {}
    for m, (a, a2) in coeffs.entries.items():
        if a2 != 0:
            raise ValueError("packet ascension needs pure branch-I data")
        prod = 1.0 + 0.0j
        for tau in range(n):
            prod *= c1(tau / s, m / s, s)
        entries[m] = (a * prod, 0.0)
    return WaveCoeffs(l=coeffs.l, entries=entries)


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


def energy_shell_test(coeffs: WaveCoeffs, s: float, B1: float,
                      xi_profile, h_param: float | None = None,
                      beta_cut: float = 2.4, n: int = 8192,
                      tol: float = 1e-10) -> complex:
    """Diagonal quadratic form of a symbol a_beta(beta) psi(xi).

    The xi multiplier acts per frequency through an FFT in beta at
    semiclassical parameter h_param (default 1/s); a_beta is the inner
    plateau bump(beta / beta_cut).  Symbols supported away from the
    energy shell should produce small values relative to psi == 1.
    """
    if h_param is None:
        h_param = 1.0 / s
    grid = np.linspace(-beta_cut / 2, beta_cut / 2, n, endpoint=False)
    h = grid[1] - grid[0]
    taper = _bump_arr(grid / beta_cut)
    a_beta = taper
    freqs = 2 * math.pi * np.fft.fftfreq(n, d=h) * h_param
    mult = np.asarray(xi_profile(freqs), dtype=complex)
    total = _KahanC()
    for m in sorted(coeffs.entries.keys()):
        a = coeffs.entries[m][0]
        if a == 0:
            continue
        wave = solve_wave(B1, m / s, s, "I", grid, tol)
        u = wave.values * taper
        v = np.fft.ifft(mult * np.fft.fft(u))
        total.add(abs(a) ** 2 * coeffs.l
                  * complex(np.sum(a_beta * v * np.conj(u)) * h))
    return total.s


def packet_position_density(coeffs: WaveCoeffs, s: float,
                            betas: np.ndarray, sigmas: np.ndarray,
                            tol: float = 1e-10) -> np.ndarray:
    """|u(beta, sigma)|^2 for u = sum alpha_m e^{im sigma} w_m(beta)."""
    u = np.zeros((len(betas), len(sigmas)), dtype=complex)
    for m, (a, _) in sorted(coeffs.entries.items()):
        if a == 0:
            continue
        wave = solve_wave(0.0, m / s, s, "I", betas, tol)
        u += a * np.outer(wave.values, np.exp(1j * m * sigmas))
    return np.abs(u) ** 2


def limit_geodesic_sigma(eta0: float, sigma_ref: float,
                         betas: np.ndarray) -> np.ndarray:
    """sigma(beta) along the unit-energy orbit with conserved eta = eta0.

    On the shell xi^2 + eta^2 = 1/cos^2(beta), the orbit satisfies
    dsigma/dbeta = eta0 / sqrt(1/cos^2 - eta0^2); sigma_ref pins the
    value at beta = 0.
    """
    out = np.empty_like(betas)
    for i, b in enumerate(betas):
        out[i] = sigma_ref + gauss_quad(
            lambda x: eta0 / np.sqrt(1.0 / np.cos(x) ** 2 - eta0 ** 2),
            0.0, b, panels=16)
    return out
