"""Orbit sampling and equidistribution diagnostics on quotient surfaces.

Long geodesic / magnetic / horocyclic orbits reduced to a fundamental
domain, Birkhoff averages against a fixed observable family, discrepancy
series, and the equidistant-curve consistency check for the magnetic
transport map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HPoint, TangentVec, geodesic_flow, horocyclic_flow,
                       hyperbolic_distance, hypercyclic_flow, rotate,
                       transport_T_B, frame_of)
from .groups import FuchsianGroup, octagon_group

_X_GEO = np.array([[0.5, 0.0], [0.0, -0.5]])
_X_ROT = np.array([[0.0, 0.5], [-0.5, 0.0]])

# greedy reduction engages only beyond the octagon inradius
# acosh(1 + sqrt 2); 2 cosh(inradius) = 2 (1 + sqrt 2)
_REDUCE_THRESHOLD = 2.0 * (1.0 + math.sqrt(2.0)) + 1e-9


@dataclass(frozen=True)
class OrbitSample:
    """Reduced orbit samples: positions, directions, and flow metadata."""

    kind: str  # 'geodesic', 'hypercyclic', 'horocyclic'
    B: float
    step: float
    length: float
    xs: np.ndarray
    ys: np.ndarray
    thetas: np.ndarray


def _step_matrix(kind: str, B: float, h: float) -> np.ndarray:
    if kind == "geodesic":
        return np.array([[math.exp(h / 2), 0.0], [0.0, math.exp(-h / 2)]])
    if kind == "horocyclic":
        return np.eye(2) + h * (_X_GEO - _X_ROT)
    if kind == "hypercyclic":
        xb = math.sqrt(B * B + 1.0) * _X_GEO - B * _X_ROT
        return math.cosh(h / 2) * np.eye(2) + 2.0 * math.sinh(h / 2) * xb
    raise ValueError(f"unknown flow kind {kind!r}")


def sample_orbit(v0: TangentVec, kind: str, length: float,
                 B: float = 0.0, step: float = 1e-2,
                 group: FuchsianGroup | None = None) -> OrbitSample:
    """Flow v0 for the given length, reducing after every step."""
    if not (math.isfinite(B) and B >= 0):
        raise ValueError("field intensity must be finite and nonnegative")
    if group is None:
        group = octagon_group()
    moves = [g.matrix() for g in group.generators] + \
            [g.matrix() for g in group.inverses]
    moves = [(m[0, 0], m[0, 1], m[1, 0], m[1, 1]) for m in moves]
    S = _step_matrix(kind, B, step)
    sa, sb, sc, sd = S[0, 0], S[0, 1], S[1, 0], S[1, 1]
    F = frame_of(v0)
    a, b, c, d = F[0, 0], F[0, 1], F[1, 0], F[1, 1]
    n = int(round(length / step))
    xs = np.empty(n + 1)
    ys = np.empty(n + 1)
    ths = np.empty(n + 1)

    def record(i):
        den = c * c + d * d
        xs[i] = (a * c + b * d) / den
        ys[i] = 1.0 / den
        ths[i] = math.pi / 2 - 2.0 * math.atan2(c, d)

    def reduce_frame(a, b, c, d):
        cur = a * a + b * b + c * c + d * d
        while cur > _REDUCE_THRESHOLD:
            best = cur
            best_t = None
            for ma, mb, mc, md in moves:
                na = ma * a + mb * c
                nb = ma * b + mb * d
                nc = mc * a + md * c
                nd = mc * b + md * d
                v = na * na + nb * nb + nc * nc + nd * nd
                if v < best - 1e-13:
                    best = v
                    best_t = (na, nb, nc, nd)
            if best_t is None:
                break
            a, b, c, d = best_t
            cur = best
        return a, b, c, d

    a, b, c, d = reduce_frame(a, b, c, d)
    record(0)
    for i in range(1, n + 1):
        a, b = a * sa + b * sc, a * sb + b * sd
        c, d = c * sa + d * sc, c * sb + d * sd
        if a * a + b * b + c * c + d * d > _REDUCE_THRESHOLD:
            a, b, c, d = reduce_frame(a, b, c, d)
        if i % 1000 == 0:
            det = a * d - b * c
            f = 1.0 / math.sqrt(det)
            a, b, c, d = a * f, b * f, c * f, d * f
        record(i)
    return OrbitSample(kind=kind, B=B, step=step, length=length,
                       xs=xs, ys=ys, thetas=ths)


def birkhoff_average(orbit: OrbitSample, f) -> float:
    """Step-weighted orbit mean of f(x, y, theta)."""
    vals = f(orbit.xs, orbit.ys, orbit.thetas)
    return float(np.mean(vals))


def _bump_scalar(t):
    x = np.abs(t)
    out = np.zeros_like(x, dtype=float)
    out[x <= 0.25] = 1.0
    mid = (x > 0.25) & (x < 0.5)
    u = (x[mid] - 0.25) / 0.25
    fa = np.exp(-1.0 / u)
    fb = np.exp(-1.0 / (1.0 - u))
    out[mid] = fb / (fa + fb)
    return out


def _disk_to_halfplane(w: complex) -> complex:
    return 1j * (1 + w) / (1 - w)


def observable_family() -> list:
    """8 position bumps on an interior grid plus 4 direction harmonics.

    Each entry is (name, f(x, y, theta)).
    """
    fams = []
    for k in range(8):
        w = 0.3 * np.exp(1j * (k * math.pi / 4))
        ck = _disk_to_halfplane(w)
        cx, cy = ck.real, ck.imag

        def fpos(x, y, th, cx=cx, cy=cy):
            coshd = 1.0 + ((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * y * cy)
            return _bump_scalar(np.arccosh(coshd) / 0.8)

        fams.append((f"bump{k}", fpos))
    for j, (name, fn) in enumerate([
            ("cos_th", lambda x, y, th: np.cos(th)),
            ("sin_th", lambda x, y, th: np.sin(th)),
            ("cos_2th", lambda x, y, th: np.cos(2 * th)),
            ("sin_2th", lambda x, y, th: np.sin(2 * th))]):
        fams.append((name, fn))
    return fams


def octagon_area_means(group: FuchsianGroup | None = None,
                       nr: int = 220, nth: int = 440) -> dict:
    """Area means of the observable family by polar quadrature.

    Positions are sampled in geodesic polar coordinates around the domain
    center with the Dirichlet indicator; direction harmonics average to
    zero exactly.
    """
    if group is None:
        group = octagon_group()
    R = math.acosh(3.0 + 2.0 * math.sqrt(2.0)) + 1e-9
    rs = (np.arange(nr) + 0.5) * R / nr
    ths = (np.arange(nth) + 0.5) * 2 * math.pi / nth
    rr, tt = np.meshgrid(rs, ths, indexing="ij")
    # half-plane points at hyperbolic radius r, direction theta from i
    w = np.tanh(rr / 2) * np.exp(1j * tt)
    z = 1j * (1 + w) / (1 - w)
    x, y = z.real, z.imag
    coshd0 = 1.0 + (x * x + (y - 1.0) ** 2) / (2.0 * y)
    inside = np.ones_like(x, dtype=bool)
    for g in list(group.generators) + list(group.inverses):
        m = g.matrix()
        den = (m[1, 0] * x + m[1, 1]) ** 2 + (m[1, 0] * y) ** 2
        gx = ((m[0, 0] * x + m[0, 1]) * (m[1, 0] * x + m[1, 1])
              + m[0, 0] * m[1, 0] * y * y) / den
        gy = y / den
        coshd = 1.0 + (gx * gx + (gy - 1.0) ** 2) / (2.0 * gy)
        inside &= coshd >= coshd0 - 1e-12
    weight = np.sinh(rr) * (R / nr) * (2 * math.pi / nth) * inside
    area = float(np.sum(weight))
    means = {}
    for name, f in observable_family():
        if name.startswith("bump"):
            means[name] = float(np.sum(f(x, y, 0.0) * weight)) / area
        else:
            means[name] = 0.0
    return means


def equidistribution_series(kind: str, v0: TangentVec, lengths,
                            B: float = 0.0, step: float = 1e-2,
                            group: FuchsianGroup | None = None,
                            area_means: dict | None = None,
                            observables: list | None = None) -> list:
    """(length, discrepancy) rows; discrepancy is the max over the family
    of |Birkhoff average - area mean|, computed on prefixes of one orbit."""
    lengths = sorted(lengths)
    if group is None:
        group = octagon_group()
    if observables is None:
        observables = observable_family()
    if area_means is None:
        area_means = octagon_area_means(group)
    orbit = sample_orbit(v0, kind, lengths[-1], B=B, step=step, group=group)
    rows = []
    for L in lengths:
        n = int(round(L / step)) + 1
        disc = 0.0
        for name, f in observables:
            avg = float(np.mean(f(orbit.xs[:n], orbit.ys[:n],
                                  orbit.thetas[:n])))
            if not math.isfinite(avg):
                raise ValueError(f"non-finite Birkhoff average of {name} at length {L}")
            disc = max(disc, abs(avg - area_means[name]))
        rows.append((L, disc))
    return rows


def seeded_unit_vector(seed: int) -> TangentVec:
    """Reproducible unit tangent vector near the domain center."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.3, 0.3)
    y = math.exp(rng.uniform(-0.3, 0.3))
    theta = rng.uniform(0, 2 * math.pi)
    return TangentVec(HPoint(x, y), y * math.cos(theta), y * math.sin(theta))


def tb_shift_check(v0: TangentVec, B: float, arc_length: float,
                   n_samples: int = 101) -> float:
    """Max distance between two constructions of the magnetic orbit.

    The equidistant curve pushes each point of the unit-speed geodesic
    sideways along a horocycle (quarter turn, horocyclic time -B); the
    reference orbit is the closed-form magnetic flow through the
    transported initial vector.  The horocyclic construction lands on the
    same curve shifted by the constant flow-parameter offset
    -ln(1 + B^2)/2, which the comparison removes.
    """
    if abs(v0.speed() - 1.0) > 1e-8:
        raise ValueError("need a unit-speed initial vector")
    vB = transport_T_B(v0, B)
    t0 = -0.5 * math.log(1.0 + B * B)
    worst = 0.0
    span = arc_length / math.sqrt(B * B + 1.0)
    for t in np.linspace(0.0, span, n_samples):
        eq = horocyclic_flow(rotate(geodesic_flow(v0, t), -math.pi / 2),
                             -B).base
        ref = hypercyclic_flow(vB, B, t + t0).base
        worst = max(worst, hyperbolic_distance(eq, ref))
    return worst
