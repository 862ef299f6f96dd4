"""Phase functions and transport maps for the magnetic deformation.

Travel-time phases P, the reparametrization Phi matching magnetic and
free phases, its eta-derivative, the amplitude/shift corrections f3, f4,
the induced boundary map G with density A, and the WKB waves whose phase
is s*P.  The phase functions broadcast over their angle and frequency
arguments: scalars give floats, and an array mtilde (say a column of row
frequencies) against an array beta gives the broadcast shape.  P and the
f4 numerator are closed forms (an asinh plus the logarithm `_J`), Phi is a
masked Newton solve over the broadcast shape.  `PhaseTable(B, mtilde)`
is the one interface to Phi, Phi_inv, their derivatives, f3 and f4; at
B = 0, f3 and f4 are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .base import Q, branch_sign, check_angle, check_centre, check_field, check_window
from .base import gauss_quad  # noqa: F401, traced by perfbench

_PTOL = 1e-11


def _out(values):
    """values as a float when 0-d, else as the array."""
    return float(values) if np.ndim(values) == 0 else values


def _J(c, e, u):
    """int_0^u dv / ((v - i) sqrt(R(v))) for R(v) = v^2 + 2 c v + 1 + e, from the
    antiderivative -log[(2 R(i) + R'(i)(v - i) + 2 sqrt(R(i) R(v))) / (v - i)] / sqrt(R(i))
    on the principal branch, broadcast over c, e and u.  R(i) = e + 2ic stays
    exact as it tends to 0; where R(i) = 0 (c = e = 0) every caller's prefactor
    vanishes, and J is 0 there (the formula runs on R(i) = 1 under the mask).
    """
    Ri = e + 2j * c
    zero = Ri == 0
    Ri = np.where(zero, 1.0, Ri)
    r, dR = np.sqrt(Ri), 2.0 * (c + 1j)

    def F(v):
        return np.log((2.0 * Ri + dR * (v - 1j)
                       + 2.0 * r * np.sqrt(v * v + 2.0 * c * v + 1.0 + e)) / (v - 1j))

    return np.where(zero, 0.0, (F(0.0) - F(u)) / r)


def phase_P(B1: float, mtilde, beta):
    """Travel-time phase P(beta) = B1*beta + int_0^beta sqrt(Q), in closed form.

    With u = tan beta, sqrt(Q) dbeta = sqrt(R(u)) du / (1 + u^2), which splits
    into 1/sqrt(R) (an asinh) and two conjugate terms 1/((u -+ i) sqrt(R)).
    """
    if not np.isfinite(B1):
        raise ValueError(f"need finite B1, got B1={B1}")
    check_window(mtilde)
    b = np.asarray(beta, dtype=float)
    check_angle(b)
    u, c, e = np.tan(b), B1 * mtilde, B1 * B1 - mtilde * mtilde
    rD = np.sqrt((1.0 + B1 * B1) * (1.0 - mtilde * mtilde))
    return _out(B1 * b + np.arcsinh((u + c) / rD) - np.arcsinh(c / rD)
                + 2.0 * np.real((c - 0.5j * e) * _J(c, e, u)))


def phase_P_deriv(B1: float, mtilde, beta):
    """dP/dbeta = B1 + sqrt(Q(beta))."""
    return B1 + np.sqrt(Q(B1, mtilde, beta))


def wkb_eval(B1: float, mtilde: float, s: float, branch: str, beta):
    """Leading-plus-first-correction WKB value of the branch at beta.

    The branch-I phase tau*beta + s*int_0^beta sqrt(Q) is s*P_{B1}(beta);
    branch II flips the sign of the integral, giving s*(2*B1*beta - P).
    """
    b = np.asarray(beta, dtype=float)
    P = phase_P(B1, mtilde, b)
    phase = s * (P if branch_sign(branch) > 0 else 2.0 * B1 * b - P)
    out = (Q(B1, mtilde, 0.0) / Q(B1, mtilde, b)) ** 0.25 * np.exp(1j * phase)
    return out if np.ndim(beta) else complex(out)


def b1(B2, mtilde: float):
    """Angular defect rate -arctan(m / sqrt(B2^2 - m^2 + 1))."""
    return -np.arctan2(mtilde, np.sqrt(B2 * B2 - mtilde * mtilde + 1.0))


def b4(B, mtilde):
    """Accumulated phase offset int_0^B b1(B2, m) dB2, in closed form."""
    check_field(B)
    check_window(mtilde)
    c = 1.0 - mtilde * mtilde
    r = np.sqrt(B * B + c)
    return _out(-B * np.arctan(mtilde / r) - mtilde * np.arcsinh(B / np.sqrt(c))
                + np.arctanh(mtilde * B / r))


def db4_deta(B, eta):
    """Closed form of the eta-derivative of b4."""
    check_field(B)
    check_window(eta)
    return _out(np.log(np.sqrt(1.0 - eta * eta))
                - np.log(B + np.sqrt(B * B - eta * eta + 1.0)))


def b3(B2, mtilde: float):
    """Real part of the first-order log-coefficient of the raising constant."""
    return -B2 / (2.0 * (B2 * B2 - mtilde * mtilde + 1.0))


def b7(B, mtilde):
    """Accumulated amplitude drift int_0^B b3 dB2 = -log(1 + B^2/(1 - m^2))/4."""
    check_field(B)
    check_window(mtilde)
    return _out(-0.25 * np.log1p(B * B / (1.0 - mtilde * mtilde)))


def _solve_P(B1: float, mtilde, target, x0):
    """Solve P_{B1,m}(x) = target pointwise by safeguarded Newton.

    mtilde, target and the start x0 broadcast to one shape.  Each point
    keeps its own bisection bracket and is frozen once its residual is
    below _PTOL or its iterate stalls; a step evaluates P once on the whole
    shape, so mtilde keeps its own shape (a column of row frequencies
    stays a column, and the terms of P that depend on it alone are
    evaluated once per row, not once per point).
    """
    delta = 1e-12
    shape = np.broadcast_shapes(np.shape(mtilde), np.shape(target), np.shape(x0))
    lo = np.full(shape, -np.pi / 2 + delta)
    hi = -lo
    x = np.clip(x0, lo, hi)
    open_ = np.ones(shape, dtype=bool)
    for _ in range(120):
        g = phase_P(B1, mtilde, x) - target
        open_ &= np.abs(g) >= _PTOL
        up = g > 0
        hi = np.where(open_ & up, x, hi)
        lo = np.where(open_ & ~up, x, lo)
        xn = np.where(open_, x - g / phase_P_deriv(B1, mtilde, x), x)
        outside = open_ & ~((lo < xn) & (xn < hi))
        xn[outside] = 0.5 * (lo[outside] + hi[outside])
        open_ &= xn != x
        x = xn
        if not open_.any():
            return _out(x)
    raise RuntimeError("phase equation solve failed to converge")


def _dPhi_dm_numerator(B: float, mtilde, beta, phi_val):
    """int_0^beta dsqrtQ_0/dm - int_0^Phi dsqrtQ_B/dm - db4/dm, in closed form.

    In u = tan beta the integrands -m / ((1 + u^2) sqrt(Q_0)) and
    (B u - m) / ((1 + u^2) sqrt(Q_B)) split at u = +-i into `_J` terms.
    """
    J0 = _J(0.0, -mtilde * mtilde, np.tan(beta))
    JB = _J(B * mtilde, B * B - mtilde * mtilde, np.tan(phi_val))
    return _out(-mtilde * np.imag(J0) - np.real((B + 1j * mtilde) * JB)
                - db4_deta(B, mtilde))


@dataclass(frozen=True)
class PhaseTable:
    """Phase layer of a field B >= 0 and frequencies mtilde: offsets b4, b7
    and the maps.

    mtilde is a scalar or an array, say a column (rows, 1) of row
    frequencies; each method takes a scalar or an array of angles and
    returns their broadcast shape against mtilde, so one table serves
    every row of a grid.  `f3`, `f4` and the derivatives accept
    precomputed values `phi = Phi(beta)`, so a grid needs one Phi solve
    for all of them.  At B = 0 the table is the identity, bit for bit:
    Phi and Phi_inv return their argument, and f3 and f4 are exact zeros
    of the broadcast shape, computed without `_J` or a logarithm.
    """

    B: float
    mtilde: float | np.ndarray
    b4_val: float | np.ndarray = field(init=False)
    b7_val: float | np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "b4_val", b4(self.B, self.mtilde))  # checks B and mtilde
        object.__setattr__(self, "b7_val", b7(self.B, self.mtilde))

    def Phi(self, beta):
        """Reparametrization defined by P_B(Phi(beta)) = P_0(beta) - b4."""
        if self.B == 0.0:
            return beta
        target = phase_P(0.0, self.mtilde, beta) - self.b4_val
        return _solve_P(self.B, self.mtilde, target, beta)

    def Phi_inv(self, beta_prime):
        """Inverse of Phi: solve P_0(beta) = P_B(beta') + b4."""
        if self.B == 0.0:
            return beta_prime
        target = phase_P(self.B, self.mtilde, beta_prime) + self.b4_val
        return _solve_P(0.0, self.mtilde, target, beta_prime)

    def _phi(self, beta, phi):
        return self.Phi(beta) if phi is None else phi

    def _zeros(self, beta):
        return _out(np.zeros(np.broadcast_shapes(np.shape(beta), np.shape(self.mtilde))))

    def dPhi_dbeta(self, beta, phi=None):
        """Closed form sqrt(Q_0(beta)) / (B + sqrt(Q_B(Phi)))."""
        return (np.sqrt(Q(0.0, self.mtilde, beta))
                / phase_P_deriv(self.B, self.mtilde, self._phi(beta, phi)))

    def dPhi_dm(self, beta, phi=None):
        """eta-derivative of Phi via the quotient of phase integrals."""
        phi = self._phi(beta, phi)
        return self.f4(beta, phi) / phase_P_deriv(self.B, self.mtilde, phi)

    def f3(self, beta, phi=None):
        """Log-amplitude correction b7 + (ln Q_0(beta) - ln Q_B(Phi)) / 4."""
        if self.B == 0.0:
            return self._zeros(beta)
        return self.b7_val + 0.25 * (
            np.log(Q(0.0, self.mtilde, beta))
            - np.log(Q(self.B, self.mtilde, self._phi(beta, phi))))

    def f4(self, beta, phi=None):
        """Base-point shift (B + sqrt(Q_B(Phi))) * dPhi/dm.

        The denominator of dPhi/dm cancels, so this is the bare phase-integral
        numerator; it vanishes like O(pi/2 - beta) at the boundary.
        """
        if self.B == 0.0:
            return self._zeros(beta)
        return _dPhi_dm_numerator(self.B, self.mtilde, beta,
                                  self._phi(beta, phi))


def wave_norm_shift(B, eta):
    """Constant relating unit-value and WKB-amplitude wave normalizations.

    The solver waves are pinned to w(0) = 1 while the WKB amplitude is
    Q^{-1/4}, whose value at 0 depends on the field level; comparing the
    ascended wave against exp(f3) therefore requires the extra constant
    (ln Q_B(0) - ln Q_0(0)) / 4, which broadcasts over B and eta.
    """
    check_field(B)
    check_window(eta)
    return _out(0.25 * (np.log(Q(B, eta, 0.0)) - np.log(Q(0.0, eta, 0.0))))


def _check_point(B: float, point) -> PhaseTable:
    """Table for a point (beta, sigma, eta) with finite sigma, a packet centre eta and
    B |eta| < sqrt(1 - eta^2): then Q_B - B^2, of minimum 1 - eta^2 - B^2 eta^2 over
    beta, is positive, so the rate B - sqrt(Q_B) of the branch-II phase never vanishes."""
    beta, sigma, eta = point
    check_field(B)
    check_angle(beta)
    check_centre(eta)
    if not (math.isfinite(sigma) and B * abs(eta) < math.sqrt(1.0 - eta * eta)):
        raise ValueError("need a finite sigma and B |eta| < sqrt(1 - eta^2)")
    return PhaseTable(B, eta)


def G_map(B: float, point):
    """Boundary map G(beta, sigma, eta) = (Phi(beta), sigma + f4, eta)."""
    beta, sigma, eta = point
    table = _check_point(B, point)
    phi = table.Phi(beta)
    return (phi, sigma + table.f4(beta, phi), eta)


def A_density(B: float, point) -> float:
    """Transported density (dPhi_inv/dbeta)^{-1} * exp(2 f3) at a point."""
    beta = point[0]
    table = _check_point(B, point)
    pre = table.Phi_inv(beta)
    return table.dPhi_dbeta(pre, beta) * math.exp(2.0 * table.f3(pre, beta))
