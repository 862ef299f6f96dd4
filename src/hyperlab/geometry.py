"""Geometry and classical dynamics of the hyperbolic plane.

Upper half-plane model: points z = x + iy with y > 0 and metric
ds^2 = (dx^2 + dy^2)/y^2.  Unit-determinant 2x2 real matrices act by
Mobius maps; a tangent vector is identified with the frame matrix g
carrying the upward unit vector at i onto it, so the geodesic,
horocyclic and magnetic (hypercyclic) flows become right multiplication
by explicit one-parameter subgroups and satisfy the group law exactly.

The magnetic flow at field intensity B follows curves of constant
geodesic curvature B/sqrt(B^2+1), speed sqrt(B^2+1), turning clockwise
in the chart for B > 0; as B -> +infinity the unit-speed
reparametrizations converge to the horocyclic flow.  The same dynamics
is generated by the Hamiltonian H_B = ((y*xi1 - B)^2 + (y*xi2)^2)/2 on
the cotangent bundle, with tangent and cotangent pictures glued by the
momentum shift phi_B; `flow_hamiltonian` integrates Hamilton's
equations numerically purely as a cross-check of the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .base import check_angle, check_field

DET_TOL = 1e-9
SPEED_TOL = 1e-8


def mobius_from_matrix(m) -> np.ndarray:
    """The 2x2 array m scaled to determinant +1; its determinant must be finite and positive."""
    m = np.asarray(m, dtype=float)
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] if np.isfinite(m).all() else math.nan
    if not 0 < det < math.inf:
        raise ValueError(f"matrix must be finite with a positive determinant, got det={det}")
    return m / np.sqrt(det)


@dataclass(frozen=True)
class HPoint:
    """Point x + iy of the upper half-plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and 0 < self.y < math.inf):
            raise ValueError(f"need finite x and 0 < y < inf, got x={self.x}, y={self.y}")

    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class TangentVec:
    """Tangent vector vx d/dx + vy d/dy at a half-plane basepoint."""

    base: HPoint
    vx: float
    vy: float

    def speed(self) -> float:
        """Hyperbolic length of the vector."""
        return float(np.hypot(self.vx, self.vy) / self.base.y)

    def as_complex(self) -> complex:
        return complex(self.vx, self.vy)


@dataclass(frozen=True)
class CotangentPt:
    """Cotangent point (x, y, xi1, xi2); xi1, xi2 conjugate to x, y."""

    base: HPoint
    xi1: float
    xi2: float

    def __post_init__(self):
        if not (math.isfinite(self.xi1) and math.isfinite(self.xi2)):
            raise ValueError(f"need finite xi1, xi2, got {self.xi1}, {self.xi2}")


@dataclass(frozen=True)
class CylPoint:
    """Cylinder coordinates (beta, sigma).

    beta in (-pi/2, pi/2) is the angular coordinate, sigma the log-radial
    one (reduced mod l when a finite neck length l > 0 is supplied); the
    half-plane point is z = i * exp(sigma - i*beta).
    """

    beta: float
    sigma: float
    l: float | None = None

    def __post_init__(self):
        check_angle(self.beta)
        if not (math.isfinite(self.sigma) and (self.l is None or 0 < self.l < math.inf)):
            raise ValueError(f"need finite sigma and l > 0, got sigma={self.sigma}, l={self.l}")
        if self.l is not None:
            object.__setattr__(self, "sigma", float(self.sigma % self.l))


def mobius_apply(M, z: HPoint) -> HPoint:
    """Apply the fractional-linear map (az+b)/(cz+d) of a 2x2 array [[a, b], [c, d]]."""
    (a, b), (c, d) = np.asarray(M, dtype=float)
    if not abs(a * d - b * c - 1.0) <= DET_TOL:
        raise ValueError(f"not a unit-determinant map: det={a * d - b * c}")
    w = (a * z.as_complex() + b) / (c * z.as_complex() + d)
    return HPoint(w.real, w.imag)


def mobius_derivative(M, z: HPoint) -> complex:
    """Complex derivative of the map at z (acts on tangent vectors)."""
    c, d = np.asarray(M, dtype=float)[1]
    return 1.0 / (c * z.as_complex() + d) ** 2


def mobius_apply_vec(M, v: TangentVec) -> TangentVec:
    """Push a tangent vector forward by an isometry."""
    w = mobius_apply(M, v.base)
    dv = mobius_derivative(M, v.base) * v.as_complex()
    return TangentVec(w, dv.real, dv.imag)


def hyperbolic_distance(z1: HPoint, z2: HPoint) -> float:
    """Distance induced by ds^2 = (dx^2+dy^2)/y^2, as 2 asinh(|z1 - z2| / (2 sqrt(y1 y2))):
    arccosh(1 + |z1 - z2|^2 / (2 y1 y2)) cancels to 0 below about 1.5e-8."""
    d = math.hypot(z1.x - z2.x, z1.y - z2.y)
    return 2.0 * math.asinh(d / (2.0 * math.sqrt(z1.y) * math.sqrt(z2.y)))


def rotate(v: TangentVec, theta: float) -> TangentVec:
    """Rotate a vector about its basepoint, counterclockwise in the chart."""
    dv = np.exp(1j * theta) * v.as_complex()
    return TangentVec(v.base, dv.real, dv.imag)


def scale(v: TangentVec, c: float) -> TangentVec:
    """Scale a vector by a finite c >= 0, keeping basepoint and direction."""
    if not 0 <= c < math.inf:
        raise ValueError(f"scale factor must be finite and nonnegative, got {c}")
    return TangentVec(v.base, c * v.vx, c * v.vy)


# --- tangent <-> cotangent gluing and the magnetic Hamiltonian ---


def phi_B(p: CotangentPt, B: float) -> TangentVec:
    """Momentum-shifted Legendre map (x,y,xi1,xi2) -> (x,y, y^2 xi1 - B y, y^2 xi2)."""
    y = p.base.y
    return TangentVec(p.base, y * y * p.xi1 - B * y, y * y * p.xi2)


def phi_B_inv(v: TangentVec, B: float) -> CotangentPt:
    """Inverse of phi_B: (x,y,vx,vy) -> (x,y, (vx + B y)/y^2, vy/y^2)."""
    y = v.base.y
    return CotangentPt(v.base, (v.vx + B * y) / y**2, v.vy / y**2)


def hamiltonian(p: CotangentPt, B: float) -> float:
    """Magnetic Hamiltonian H_B = ((y xi1 - B)^2 + (y xi2)^2) / 2."""
    y = p.base.y
    return 0.5 * ((y * p.xi1 - B) ** 2 + (y * p.xi2) ** 2)


def flow_hamiltonian(p: CotangentPt, B: float, t):
    """Integrate Hamilton's equations of H_B numerically for time t.

    xdot = dH/dxi1, ydot = dH/dxi2, xi1dot = 0, xi2dot = -dH/dy.
    Exists as a cross-check of the closed-form flows; adaptive RK
    (DOP853) at rtol 1e-12, atol 1e-14, and an energy drift above
    1e-9 max(1, H) is a RuntimeError.  An array t, sorted away from 0,
    takes one integration and gives a list with one point per time.
    """
    check_field(B)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite, in a scalar or 1-D array")
    ts, out = ts.ravel(), [p] * ts.size
    moving = np.flatnonzero(ts)
    if moving.size:
        def rhs(_, q):
            x, y, xi1, xi2 = q
            return [y * (y * xi1 - B), y * y * xi2, 0.0,
                    -(xi1 * (y * xi1 - B) + y * xi2 * xi2)]

        # well below the energy bound: the check keeps a margin and dense
        # output between steps stays near step accuracy
        sol = solve_ivp(rhs, (0.0, ts[-1]), [p.base.x, p.base.y, p.xi1, p.xi2],
                        method="DOP853", rtol=1e-12, atol=1e-14,
                        t_eval=ts[moving])
        if not sol.success:
            raise RuntimeError(f"Hamiltonian integration failed: {sol.message}")
        h0 = hamiltonian(p, B)
        for i, (x, y, xi1, xi2) in zip(moving, sol.y.T):
            out[i] = CotangentPt(HPoint(x, y), xi1, xi2)
            if abs(hamiltonian(out[i], B) - h0) > 1e-9 * max(1.0, h0):
                raise RuntimeError("energy drift exceeds tolerance")
    return out if np.ndim(t) else out[0]


# --- frame-bundle identification and closed-form flows ---


def _k(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, s], [-s, c]])


def frame_of(v: TangentVec) -> np.ndarray:
    """Unit-determinant matrix carrying the upward unit vector at i onto v/|v|."""
    if v.speed() == 0:
        raise ValueError("zero vector has no frame")
    x, y = v.base.x, v.base.y
    sq = np.sqrt(y)
    translate = np.array([[sq, x / sq], [0.0, 1.0 / sq]])
    theta = np.angle(v.as_complex())
    return translate @ _k((theta - np.pi / 2) / 2)


def vec_of_frame(g: np.ndarray, speed: float) -> TangentVec:
    """Tangent vector of hyperbolic length `speed` framed by g."""
    a, b, c, d = g.ravel()
    z = (a * 1j + b) / (c * 1j + d)
    direction = 1j / (c * 1j + d) ** 2
    direction = direction / abs(direction) * z.imag  # chart components, unit length
    return TangentVec(HPoint(z.real, z.imag), speed * direction.real, speed * direction.imag)


def _flow_frame(v: TangentVec, kind: str, B: float, t: float, speed: float) -> TangentVec:
    """v's frame times `flow_step`.  Its base point is known to u |F|^2 hyperbolically (u =
    2^-53, |F|^2 = 2 cosh d(F i, i)), so past u |F|^2 = 1e-10 (d > 13.7) it raises."""
    F = frame_of(v) @ flow_step(kind, B, t)
    if not 2.0 ** -53 * np.sum(F * F) <= 1e-10:
        raise ValueError(f"{kind} flow at t={t} passes the float horizon |F|^2 <= 9.0e5")
    return vec_of_frame(F, speed)


_X_GEO = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])
_X_ROT = 0.5 * np.array([[0.0, 1.0], [-1.0, 0.0]])


def flow_step(kind: str, B: float, t: float) -> np.ndarray:
    """exp(t X) for the flow's generator X, applied to frames on the right:
    X_geo; N = X_geo - X_rot (nilpotent, exp = I + tN); or, squaring to I/4,
    X_B = sqrt(B^2+1) X_geo - B X_rot = B N + X_geo/(B + sqrt(B^2+1))."""
    if kind not in ("geodesic", "horocyclic", "hypercyclic"):
        raise ValueError(f"unknown flow kind {kind!r}")
    if not math.isfinite(t):
        raise ValueError(f"flow time must be finite, got t={t}")
    try:
        if kind == "geodesic" or (kind == "hypercyclic" and B == 0):  # X_0 = X_geo, exactly
            g = np.array([[math.exp(t / 2), 0.0], [0.0, math.exp(-t / 2)]])
        elif kind == "horocyclic":
            g = np.eye(2) + t * (_X_GEO - _X_ROT)
        else:
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
                xb = math.sqrt(B * B + 1.0) * _X_GEO - B * _X_ROT
                g = math.cosh(t / 2) * np.eye(2) + 2.0 * math.sinh(t / 2) * xb
    except OverflowError:
        g = None
    if g is None or not np.isfinite(g).all():
        raise ValueError(f"{kind} flow overflows at time t={t}")
    return g


def check_speed(v: TangentVec, B: float) -> float:
    """The level sqrt(B^2 + 1) of the field-B flows, which |v| must meet to SPEED_TOL."""
    level = math.sqrt(B * B + 1.0)
    if abs(v.speed() - level) > SPEED_TOL:
        raise ValueError(f"need speed sqrt(B^2 + 1) = {level}, got {v.speed()}")
    return level


def geodesic_flow(v: TangentVec, t: float) -> TangentVec:
    """Move v along its geodesic for arclength |v| * t; `frame_of` rejects v = 0."""
    return _flow_frame(v, "geodesic", 0.0, t, v.speed())


def hypercyclic_flow(v: TangentVec, B: float, t: float) -> TangentVec:
    """Magnetic flow at intensity B >= 0 on the speed-sqrt(B^2+1) bundle.

    Orbits have constant geodesic curvature B/sqrt(B^2+1) (clockwise for
    B > 0) and constant speed sqrt(B^2+1); B = 0 is the geodesic flow.
    """
    check_field(B)
    level = check_speed(v, B)
    return _flow_frame(v, "hypercyclic", B, t, level)


def horocyclic_flow(v: TangentVec, t: float) -> TangentVec:
    """Unit-speed flow along clockwise curves of geodesic curvature 1."""
    check_speed(v, 0.0)
    return _flow_frame(v, "horocyclic", 0.0, t, 1.0)


def transport_T_B(v: TangentVec, B: float) -> TangentVec:
    """Shift a unit vector off its geodesic to the equidistant magnetic orbit.

    Rotate a quarter turn, run the geodesic flow for arcsinh(B), rotate
    back, scale to speed sqrt(B^2+1).  Conjugates the geodesic flow to
    the intensity-B magnetic flow exactly: the image of a unit-speed
    geodesic is traced by `hypercyclic_flow` through the image vector.
    """
    check_field(B)
    check_speed(v, 0.0)
    d = float(np.arcsinh(B))
    w = rotate(v, np.pi / 2)
    w = geodesic_flow(w, d)
    w = rotate(w, -np.pi / 2)
    return scale(w, np.sqrt(B * B + 1))


# --- cylinder coordinates ---


def cyl_to_halfplane(c: CylPoint) -> HPoint:
    """z = i exp(sigma - i beta): x = e^sigma sin(beta), y = e^sigma cos(beta)."""
    r = np.exp(c.sigma)
    return HPoint(r * np.sin(c.beta), r * np.cos(c.beta))


def halfplane_to_cyl(z: HPoint, l: float | None = None) -> CylPoint:
    """Inverse of cyl_to_halfplane; reduces sigma mod l when given."""
    sigma = 0.5 * np.log(z.x**2 + z.y**2)
    beta = np.arctan2(z.x, z.y)
    return CylPoint(beta, sigma, l=l)
