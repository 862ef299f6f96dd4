"""Orbit sampling and equidistribution diagnostics on quotient surfaces.

Long geodesic / magnetic / horocyclic orbits reduced to a fundamental
domain, Birkhoff averages against a fixed observable family, discrepancy
series, and the equidistant-curve consistency check for the magnetic
transport map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .base import bump, check_field, check_length
from .geometry import (HPoint, TangentVec, flow_step, frame_of, geodesic_flow,
                       horocyclic_flow, hyperbolic_distance, hypercyclic_flow,
                       rotate, transport_T_B)
from .groups import _COSH_R, FuchsianGroup, octagon_group

_BLOCK = 1000  # steps between determinant renormalizations
_CHUNK_CAP = 1e3  # bound on |F|^2 |S|^2 over a chunk of unreduced steps
_COSH_HALF = math.cosh(0.5)  # the position bumps are evaluated inside d = 0.5 only


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


def sample_orbit(v0: TangentVec, kind: str, length: float,
                 B: float = 0.0, step: float = 1e-2,
                 group: FuchsianGroup | None = None) -> OrbitSample:
    """Flow v0 for the given length, reducing after every step.

    Exact by contract: every sample is the one a per-step float loop
    records (times the step matrix, Dirichlet reduction past the inradius,
    unit determinant every 1000 steps), because the orbits are
    rounding-sensitive: a 1e-15 shift of the start moves the B = 5
    discrepancy from 0.0077 to 0.0092.  Two passes give those bits:

    1. A float loop keeps only the restarts, the frames that are not
       fl(F S) of the frame before: the start, each step whose reduction
       moved the frame, and each renormalization.  Every frame reads the
       unit Dirichlet forms before `reduce_frame`: each is sinh of the
       signed distance to its side, and a step moves F i by exactly
       delta = d(i, S i).  With g the smallest, the frame
       and the next k = floor((asinh g - margin) / delta) frames lie
       margin inside every side, where every float form is > 1e-9 and
       the reduction gives back its frame: those steps run as bare
       F <- fl(F S), clipped at the renormalization edge, and only the
       frames within margin of a side are reduced (6,228 `reduce_frame`
       calls for 291,403, horocyclic, seed 7, length 1e4).

       margin = asinh(1e-6 / min norm) + 1e-8 max_j |u_j|_1 over the unit
       forms u_j: every form is >= 1e-6 there, 1000 times the 1e-9 test,
       and the second term (|u_j|_1 >= 1) bounds the rounding while
       |F|^2 |S|^2 < 1e3 over the chunk (checked at its start, as |F|^2
       grows at most e^{k delta} <= 2g + 1; past it the frame goes to
       `reduce_frame`): g and the forms are exact to 6u |f|_1 |F|^2
       (u = 2^-53), det F to 1e-10, and each of <= 1000 products moves
       F i at most 3.5u |F|^2 |S|^2 past delta, < 1e-9 in all.  delta is
       2 asinh(|(sa - sd, sb + sc)| / (2 sqrt(det S))) of the float S,
       with det S lowered by its rounding and a 1e-9 relative slack.
    2. Between two restarts the frames are F <- fl(F S), so all segments
       (at most 1000 steps each) are replayed in lockstep on arrays,
       longest first, with the same IEEE multiplies, adds and divides as
       the loop.  Each step stores x and the frame's c and d into the three
       output rows; after the replay one np.arctan2 over the whole rows
       gives theta = pi/2 - 2 atan2(c, d), and y = 1/(c c + d d) is formed
       in place, so no Python call runs per sample (np.arctan2 gives the
       same bits whatever the chunking of its input).

    `step` is flow time, not arc length: a hypercycle moves at speed
    sqrt(1 + B^2), so its arc step is step sqrt(1 + B^2) (0.05 at B = 5 and
    the default step); to sample at arc step h, pass step = h / sqrt(1 + B^2).
    The output is allocated before pass 1, so a step count that cannot be
    held is a ValueError at once.  So is a frame that pass 1 finds lost to
    rounding, as at B = 1e12 and step 1e-2: a non-finite |F|^2, c = d = 0,
    or a determinant <= 0 at a renormalization.
    """
    check_field(B)
    check_length(length)
    if not 0 < step < math.inf:
        raise ValueError(f"need finite step > 0, got step={step}")
    group = group or octagon_group()
    step_matrix = tuple(map(float, flow_step(kind, B, step).ravel()))
    sa, sb, sc, sd = step_matrix
    a, b, c, d = map(float, frame_of(v0).ravel())
    if not math.isfinite(a * a + b * b + c * c + d * d):
        raise ValueError(f"cannot reduce the start frame {(a, b, c, d)}: "
                         "need a finite base point whose |F|^2 does not overflow")
    try:
        n = int(round(length / step))
        out = np.empty((3, n + 1))  # x, c, d per step; then x, y, theta
    except (OverflowError, ValueError, MemoryError):
        raise ValueError(f"cannot hold n = {length / step:.6g} steps "
                         f"(length {length}, step {step})") from None
    starts, frames = _restarts(group, step_matrix, group.reduce_frame(a, b, c, d), n)
    starts = np.array(starts)  # pass 2: the segments in lockstep
    lens = np.diff(starts, append=n + 1)
    order = np.argsort(-lens, kind="stable")  # longest first: the live ones are a prefix
    starts, lens = starts[order], lens[order]
    a, b, c, d = np.array(frames).reshape(-1, 4)[order].T.copy()
    for t, m in enumerate(np.searchsorted(-lens, -np.arange(lens[0])).tolist()):
        a, b, c, d = a[:m], b[:m], c[:m], d[:m]  # the m segments longer than t
        at = starts[:m] + t
        out[0, at] = (a * c + b * d) / (c * c + d * d)
        out[1, at] = c
        out[2, at] = d
        a, b = a * sa + b * sc, a * sb + b * sd
        c, d = c * sa + d * sc, c * sb + d * sd
    c, d = out[1:]
    theta = np.arctan2(c, d)  # the one temporary row
    c *= c
    d *= d
    c += d
    np.divide(1.0, c, out=c)  # y = 1 / (c c + d d)
    theta *= 2.0
    np.subtract(math.pi / 2, theta, out=d)
    return OrbitSample(kind, B, step, length, *out)


def _restarts(group: FuchsianGroup, step_matrix: tuple, frame: tuple, n: int) -> tuple:
    """Pass 1 of `sample_orbit`: the restart steps and their frames, flat."""
    reduce, units = group.reduce_frame, group.unit_dirichlet_forms
    margin = (math.asinh(1e-6 / min(group.dirichlet_norms)) + 1e-11 * _CHUNK_CAP
              * max(abs(u) + abs(v) + abs(w) for u, v, w in units))
    lo = math.sinh(margin)
    sa, sb, sc, sd = step_matrix
    det = sa * sd - sb * sc - 1e-15 * (abs(sa * sd) + abs(sb * sc))
    delta = (2.0 * math.asinh(math.hypot(sa - sd, sb + sc) / (2.0 * math.sqrt(det)))
             * (1.0 + 1e-9) if det > 0 else math.inf)
    reach = 1.0 / max(delta, 1e-300)  # steps per unit distance; a step that fixes i has delta 0
    cap = _CHUNK_CAP / (sa * sa + sb * sb + sc * sc + sd * sd)
    a, b, c, d = frame
    starts, frames = [0], [a, b, c, d]
    for start in range(1, n + 1, _BLOCK):
        stop = min(start + _BLOCK, n + 1)
        i = start
        while i < stop:
            a, b = a * sa + b * sc, a * sb + b * sd
            c, d = c * sa + d * sc, c * sb + d * sd
            p, q, r = a * a + b * b, a * c + b * d, c * c + d * d
            g = math.inf  # the smallest unit form: sinh of the distance to the nearest side
            for u, v, w in units:
                x = u * p + v * q + w * r
                if x < g:
                    g = x
            if g > lo and (p + r) * (2.0 * g + 1.0) < cap:  # False for a non-finite frame
                k = (math.asinh(g) - margin) * reach  # reduce would keep this frame and the next k
                k = stop - 1 - i if k >= stop - 1 - i else int(k)
                for _ in range(k):
                    a, b = a * sa + b * sc, a * sb + b * sd
                    c, d = c * sa + d * sc, c * sb + d * sd
                i += k
            else:
                if not (math.isfinite(p + r) and r > 0):  # the sample is q / r, 1 / r
                    raise ValueError(f"the frame of step {i}, {(a, b, c, d)}, has a non-finite "
                                     "|F|^2 or c = d = 0: the field or step is too large")
                rf = reduce(a, b, c, d)
                if rf != (a, b, c, d):
                    a, b, c, d = rf
                    starts.append(i)
                    frames.extend(rf)
            i += 1
        if stop - start == _BLOCK:  # a reduction restart on this step becomes an empty segment
            det = a * d - b * c
            if not det > 0:
                raise ValueError(f"the frame of step {stop - 1}, {(a, b, c, d)}, has "
                                 f"determinant {det}: the field or step is too large")
            f = 1.0 / math.sqrt(det)
            a, b, c, d = a * f, b * f, c * f, d * f
            starts.append(stop - 1)
            frames.extend((a, b, c, d))
    return starts, frames


def birkhoff_average(orbit: OrbitSample, f) -> float:
    """Step-weighted orbit mean of f(x, y, theta)."""
    return float(np.mean(f(orbit.xs, orbit.ys, orbit.thetas)))


def observable_family() -> list:
    """8 position bumps on an interior grid plus 4 direction harmonics.

    Each entry is (name, f(x, y, theta)).
    """
    fams = []
    for k in range(8):
        w = 0.3 * np.exp(1j * (k * math.pi / 4))
        ck = 1j * (1 + w) / (1 - w)  # disk -> half-plane
        cx, cy = ck.real, ck.imag

        def fpos(x, y, th, cx=cx, cy=cy):
            coshd = np.asarray(1.0 + ((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * y * cy))
            near = coshd < _COSH_HALF  # bump(d / 0.8) is 0 from d = 0.4 on
            out = np.zeros(coshd.shape)
            out[near] = bump(np.arccosh(coshd[near]) / 0.8)
            return out if out.ndim else float(out)

        fams.append((f"bump{k}", fpos))
    return fams + [("cos_th", lambda x, y, th: np.cos(th)),
                   ("sin_th", lambda x, y, th: np.sin(th)),
                   ("cos_2th", lambda x, y, th: np.cos(2 * th)),
                   ("sin_2th", lambda x, y, th: np.sin(2 * th))]


def octagon_area_means(group: FuchsianGroup | None = None) -> dict:
    """Area means of the observable family by polar quadrature.

    Positions are sampled on a 220 x 440 grid of geodesic polar coordinates
    over the octagon's circumdisk with the Dirichlet indicator; direction
    harmonics average to zero exactly.  The quadrature runs once per group;
    every call returns a fresh dict.
    """
    if group is None:
        group = octagon_group()
    if group.kind != "octagon":
        raise ValueError(f"area means need the octagon group, got {group.kind!r}")
    return dict(_area_means(group))


@functools.lru_cache(maxsize=4)
def _area_means(group: FuchsianGroup) -> tuple:
    nr, nth, R = 220, 440, math.acosh(_COSH_R) + 1e-9
    rs = (np.arange(nr) + 0.5) * R / nr
    ths = (np.arange(nth) + 0.5) * 2 * math.pi / nth
    rr, tt = np.meshgrid(rs, ths, indexing="ij")
    # half-plane points at hyperbolic radius r, direction theta from i
    w = np.tanh(rr / 2) * np.exp(1j * tt)
    z = 1j * (1 + w) / (1 - w)
    x, y = z.real, z.imag
    p, q, r = (x * x + y * y) / y, x / y, 1.0 / y
    inside = np.all([fp * p + fq * q + fr * r >= -2e-12
                     for fp, fq, fr in group.dirichlet_forms], axis=0)
    weight = np.sinh(rr) * (R / nr) * (2 * math.pi / nth) * inside
    area = float(np.sum(weight))
    return tuple((name, float(np.sum(f(x, y, 0.0) * weight)) / area
                  if name.startswith("bump") else 0.0)
                 for name, f in observable_family())


def equidistribution_series(kind: str, v0: TangentVec, lengths,
                            B: float = 0.0, group: FuchsianGroup | None = None) -> list:
    """(length, discrepancy) rows; discrepancy is the max over
    `observable_family` of |Birkhoff average - octagon area mean|, computed
    on prefixes of one orbit."""
    lengths = sorted(float(L) for L in lengths)
    if not lengths:
        raise ValueError("need one or more lengths")
    check_length(lengths)
    group = group or octagon_group()
    observables, area_means = observable_family(), octagon_area_means(group)
    for name, _ in observables:  # max(0.0, nan) is 0.0: a NaN mean would vanish
        if not math.isfinite(area_means.get(name, math.nan)):
            raise ValueError(f"need a finite area mean of {name}, "
                             f"got {area_means.get(name)}")
    orbit = sample_orbit(v0, kind, lengths[-1], B=B, group=group)
    discs = [0.0] * len(lengths)
    for name, f in observables:  # one evaluation per observable, prefix means
        vals = f(orbit.xs, orbit.ys, orbit.thetas)
        for i, L in enumerate(lengths):
            avg = float(np.mean(vals[:int(round(L / orbit.step)) + 1]))
            if not math.isfinite(avg):
                raise ValueError(f"non-finite Birkhoff average of {name} at length {L}")
            discs[i] = max(discs[i], abs(avg - area_means[name]))
        del vals  # free before the next observable: one 1e6-point array at a time
    return list(zip(lengths, discs))


def seeded_unit_vector(seed: int) -> TangentVec:
    """Reproducible unit tangent vector near the domain center."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.3, 0.3)
    y = math.exp(rng.uniform(-0.3, 0.3))
    theta = rng.uniform(0, 2 * math.pi)
    return TangentVec(HPoint(x, y), y * math.cos(theta), y * math.sin(theta))


def tb_shift_check(v0: TangentVec, B: float, arc_length: float) -> float:
    """Max distance between two constructions of the magnetic orbit (101 points).

    The equidistant curve pushes each point of the unit-speed geodesic
    sideways along a horocycle (quarter turn, horocyclic time -B); the
    reference orbit is the closed-form magnetic flow through the
    transported initial vector.  The horocyclic construction lands on the
    same curve shifted by the constant flow-parameter offset
    -ln(1 + B^2)/2, which the comparison removes.
    """
    check_length(arc_length)
    vB = transport_T_B(v0, B)
    t0 = -0.5 * math.log(1.0 + B * B)
    worst = 0.0
    span = arc_length / math.sqrt(B * B + 1.0)
    for t in np.linspace(0.0, span, 101):
        eq = horocyclic_flow(rotate(geodesic_flow(v0, t), -math.pi / 2),
                             -B).base
        ref = hypercyclic_flow(vB, B, t + t0).base
        worst = max(worst, hyperbolic_distance(eq, ref))
    return worst
