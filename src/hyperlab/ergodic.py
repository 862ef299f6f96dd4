"""Orbit sampling and equidistribution diagnostics on quotient surfaces.

Long geodesic / magnetic / horocyclic orbits reduced to a fundamental
domain, Birkhoff averages of the fixed observable family (`_observables`,
one evaluator of all 12), discrepancy series, and the equidistant-curve
consistency check for the magnetic transport map.
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
_STEP = 1e-2  # flow time per sample: `sample_orbit`'s default and the series' step
_CHUNK_CAP = 1e3  # bound on |F|^2 |S|^2 over a chunk of unreduced steps
_COSH_HALF = math.cosh(0.5)  # the position bumps are evaluated inside d = 0.5 only
# samples per block of the row passes (x, y and theta in `sample_orbit`, the
# bump windows in `_bumps`, the streamed blocks of `equidistribution_series`):
# one block of whole rows raised the seed-7 horocycle's traced peak at length
# 1e4 from 25.0 to 31.6 MiB (the orbit)
_ROW_BLOCK = 1 << 16


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
                 B: float = 0.0, step: float = _STEP,
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
       (u = 2^-53), det F to 1e-10 (checked on the reduced start, at every
       renormalization and on the last frame; the drift stays below 1e-12 over B <= 20,
       step <= 0.2, and reads 4e-12 at B = 1e3 and 2.7e-10 at B = 1e4,
       step 1e-2, where the check raises), and each of <= 1000 products moves
       F i at most 3.5u |F|^2 |S|^2 past delta, < 1e-9 in all.  delta is
       2 asinh(|(sa - sd, sb + sc)| / (2 sqrt(det S))) of the float S,
       with det S lowered by its rounding and a 1e-9 relative slack.
    2. Between two restarts the frames are F <- fl(F S), so all segments
       (at most 1000 steps each) are replayed in lockstep on arrays,
       longest first, with the same IEEE multiplies, adds and divides as
       the loop (`_replay`).  Each step gives the live segments' sample
       indices with a c + b d and the frames' c and d, which go into the
       three output rows (`ndarray.put`); after the replay, one block of
       samples at a time, `_to_positions` forms x, y and theta in place, so
       no Python call runs per sample and the one temporary is a block.

    `step` is flow time, not arc length: a hypercycle moves at speed
    sqrt(1 + B^2), so its arc step is step sqrt(1 + B^2) (0.05 at B = 5 and
    the default step); to sample at arc step h, pass step = h / sqrt(1 + B^2).
    The start frame is reduced and the output allocated before pass 1, so
    a start whose reduced frame is more than 1e-10 from unit determinant
    (about u |F|^2 of its unreduced frame, e.g. 1.3e-10 at x = 1.345,
    y = 1.3e-6, direction 3.92) and a step count that cannot be held are
    each a ValueError at once.  So is a frame that pass 1 finds lost to
    rounding, as at B = 1e9 and step 1e-2: a non-finite |F|^2, c = d = 0,
    or |det F - 1| > 1e-10 at a renormalization or on the last frame.
    """
    check_field(B)
    check_length(length)
    group, step_matrix, frame, n = _start(v0, kind, length, B, step, group)
    try:
        out = np.empty((3, n + 1))  # x, c, d per step; then x, y, theta
    except (ValueError, MemoryError):
        raise _too_many_steps(length, step) from None
    xr, cr, dr = out  # row 0 holds a c + b d until the divide after the replay
    segments = _segments(*_restarts(group, step_matrix, frame, n), n)
    for at, q, c, d in _replay(step_matrix, *segments):
        xr.put(at, q)
        cr.put(at, c)
        dr.put(at, d)
    for j in range(0, n + 1, _ROW_BLOCK):  # x, y, theta a block at a time
        _to_positions(*out[:, j:j + _ROW_BLOCK])
    return OrbitSample(kind, B, step, length, *out)


def _start(v0: TangentVec, kind: str, length: float, B: float, step: float,
           group: FuchsianGroup | None) -> tuple:
    """The checks before pass 1 past the field and length: (group, step matrix,
    reduced start frame, n)."""
    if not 0 < step < math.inf:
        raise ValueError(f"need finite step > 0, got step={step}")
    group = group or octagon_group()
    step_matrix = tuple(map(float, flow_step(kind, B, step).ravel()))
    a, b, c, d = map(float, frame_of(v0).ravel())
    if not math.isfinite(a * a + b * b + c * c + d * d):
        raise ValueError(f"cannot reduce the start frame {(a, b, c, d)}: "
                         "need a finite base point whose |F|^2 does not overflow")
    frame = group.reduce_frame(a, b, c, d)
    det = frame[0] * frame[3] - frame[1] * frame[2]
    if not abs(det - 1.0) <= 1e-10:
        raise ValueError(f"the start frame {(a, b, c, d)} reduces to determinant {det}: "
                         "need a base point whose reduction keeps |det F - 1| <= 1e-10")
    if not length / step < np.iinfo(np.intp).max:  # the sample indices are intp
        raise _too_many_steps(length, step)
    return group, step_matrix, frame, int(round(length / step))


def _too_many_steps(length: float, step: float) -> ValueError:
    return ValueError(f"cannot hold n = {length / step:.6g} steps "
                      f"(length {length}, step {step})")


def _segments(starts: list, frames: list, n: int) -> tuple:
    """The segments of pass 2 between the restarts of pass 1, longest first:
    their first sample indices, lengths and start frames (rows a, b, c, d)."""
    starts = np.array(starts)
    lens = np.diff(starts, append=n + 1)
    order = np.argsort(-lens, kind="stable")  # longest first: the live ones are a prefix
    return starts[order], lens[order], np.array(frames).reshape(-1, 4)[order].T.copy()


def _replay(step_matrix: tuple, starts: np.ndarray, lens: np.ndarray, frames: np.ndarray):
    """Pass 2 of `sample_orbit`: yield (sample indices, a c + b d, c, d) per
    lockstep step of the segments (`_segments`)."""
    sa, sb, sc, sd = step_matrix
    a, b, c, d = frames
    for t, m in enumerate(np.searchsorted(-lens, -np.arange(lens[0])).tolist()):
        a, b, c, d = a[:m], b[:m], c[:m], d[:m]  # the m segments longer than t
        yield starts[:m] + t, a * c + b * d, c, d
        a, b = a * sa + b * sc, a * sb + b * sd
        c, d = c * sa + d * sc, c * sb + d * sd


def _to_positions(q: np.ndarray, c: np.ndarray, d: np.ndarray) -> None:
    """(a c + b d, c, d) rows of samples -> (x, y, theta) in the same rows.

    theta = pi/2 - 2 atan2(c, d) by np.arctan2 (the same bits whatever the
    chunking of its input), x = (a c + b d) / (c c + d d) and
    y = 1 / (c c + d d) from one c c + d d row; theta is the one temporary."""
    theta = np.arctan2(c, d)
    c *= c
    d *= d
    c += d  # c c + d d
    q /= c
    np.divide(1.0, c, out=c)  # y = 1 / (c c + d d)
    theta *= 2.0
    np.subtract(math.pi / 2, theta, out=d)


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
            f = 1.0 / math.sqrt(_unit_det(stop - 1, a, b, c, d))
            a, b, c, d = a * f, b * f, c * f, d * f
            starts.append(stop - 1)
            frames.extend((a, b, c, d))
    _unit_det(n, a, b, c, d)
    return starts, frames


def _unit_det(i: int, a: float, b: float, c: float, d: float) -> float:
    """det F of the frame of step i, within the 1e-10 of 1 that pass 1 assumes."""
    det = a * d - b * c
    if not abs(det - 1.0) <= 1e-10:
        raise ValueError(f"the frame of step {i}, {(a, b, c, d)}, has "
                         f"determinant {det}: the field or step is too large")
    return det


def _bump_centre(k: int) -> tuple:
    w = 0.3 * np.exp(1j * (k * math.pi / 4))
    ck = 1j * (1 + w) / (1 - w)  # disk -> half-plane
    return ck.real, ck.imag


BUMPS = tuple(f"bump{k}" for k in range(8))
OBSERVABLES = BUMPS + ("cos_th", "sin_th", "cos_2th", "sin_2th")
_CENTRES = tuple(_bump_centre(k) for k in range(8))
_COSH_NEAR = math.cosh(2.0 * math.atanh(0.3) + 0.5)  # each centre is 2 atanh 0.3 from i


def _observables(xs, ys, thetas):
    """Yield (name, values) for each name of OBSERVABLES on 1-D sample arrays,
    consuming xs and ys.

    The 8 position bumps are bump(d(z, c_k) / 0.8) around the centres c_k at
    disk radius 0.3 in the directions k pi/4 (`_bumps`, one reused row).
    That row is dropped after the 8th bump, and then come cos theta and
    sin theta, written into xs and ys, and cos 2 theta = 1 - 2 sin^2 in ys
    and sin 2 theta = 2 sin cos in xs.  Each values array holds until the
    next observable is drawn, so `list` or `dict` of the generator aliases
    them; a caller that needs its positions afterwards passes copies.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    for name, out in _bumps(xs, ys):
        yield name, out
    del out  # the harmonics need no row of their own
    cos = np.cos(thetas, out=xs)
    yield "cos_th", cos
    sin = np.sin(thetas, out=ys)
    yield "sin_th", sin
    cos *= sin
    cos *= 2.0  # sin 2 theta
    sin *= sin
    sin *= -2.0
    sin += 1.0  # cos 2 theta
    yield "cos_2th", sin
    yield "sin_2th", cos


def _bumps(x: np.ndarray, y: np.ndarray):
    """Yield (name, values) per position bump, all in one row that is zeroed
    again after each.

    Each bump is evaluated only inside its window d(z, c_k) < 0.5
    (bump(d / 0.8) is 0 from d = 0.4 on), with the bits of the unmasked
    formula.  One pass over blocks of samples first finds every window's
    samples as int32 offsets per block, testing the 8 windows only on the
    near-set cosh d(z, i) < cosh(2 atanh 0.3 + 0.5) that holds them all;
    then each bump gathers x and y at its own offsets.  No other
    full-length row is made.
    """
    blocks = [slice(j, j + _ROW_BLOCK) for j in range(0, x.size, _ROW_BLOCK)]
    hits = [[] for _ in BUMPS]  # per bump, per block: the offsets inside its window
    for block in blocks:
        xb, yb = x[block], y[block]
        rho = xb * xb
        rho += yb * yb
        rho += 1.0
        rho /= yb  # 2 cosh d(z, i)
        near = np.flatnonzero(rho < 2.0 * _COSH_NEAR)
        xn, yn = xb.take(near), yb.take(near)
        for (cx, cy), ats in zip(_CENTRES, hits):
            ats.append(near[_cosh_dist(xn, yn, cx, cy) < _COSH_HALF].astype(np.int32))
    out = np.zeros(x.shape)
    for name, (cx, cy), ats in zip(BUMPS, _CENTRES, hits):
        for block, at in zip(blocks, ats):
            coshd = _cosh_dist(x[block].take(at), y[block].take(at), cx, cy)
            out[block].put(at, bump(np.arccosh(coshd) / 0.8))
        yield name, out
        for block, at in zip(blocks, ats):
            out[block].put(at, 0.0)


def _cosh_dist(x, y, cx, cy):
    """cosh d(z, c) = 1 + |z - c|^2 / (2 y cy), elementwise."""
    return 1.0 + ((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * y * cy)


def octagon_area_means(group: FuchsianGroup | None = None) -> dict:
    """Area means of `OBSERVABLES` by polar quadrature, keyed by name.

    Positions are sampled on a 220 x 440 grid of geodesic polar coordinates
    over the octagon's circumdisk with the Dirichlet indicator, and only the
    8 position bumps are evaluated there; the direction harmonics average to
    zero exactly.  The quadrature runs once per group; every call returns a
    fresh dict.
    """
    if group is None:
        group = octagon_group()
    if group.kind != "octagon":
        raise ValueError(f"area means need the octagon group, got {group.kind!r}")
    return dict(_area_means(group))


@functools.lru_cache(maxsize=4)
def _area_means(group: FuchsianGroup) -> tuple:
    nr, nth, R = 220, 440, math.acosh(_COSH_R) + 1e-9
    band = 20  # radial rows per band: a traced peak of 1.4 MiB, 11.4 MiB for the whole grid
    ths = (np.arange(nth) + 0.5) * 2 * math.pi / nth
    area, sums = 0.0, dict.fromkeys(BUMPS, 0.0)
    for i in range(0, nr, band):
        rs = (np.arange(i, min(i + band, nr)) + 0.5) * R / nr
        rr, tt = (g.ravel() for g in np.meshgrid(rs, ths, indexing="ij"))
        # half-plane points at hyperbolic radius r, direction theta from i
        w = np.tanh(rr / 2) * np.exp(1j * tt)
        z = 1j * (1 + w) / (1 - w)
        x, y = z.real.copy(), z.imag.copy()  # contiguous, for the gathers of `_bumps`
        p, q, r = (x * x + y * y) / y, x / y, 1.0 / y
        inside = np.all([fp * p + fq * q + fr * r >= -2e-12
                         for fp, fq, fr in group.dirichlet_forms], axis=0)
        weight = np.sinh(rr) * (R / nr) * (2 * math.pi / nth) * inside
        area += float(np.sum(weight))
        for name, vals in _bumps(x, y):
            sums[name] += float(np.sum(vals * weight))
    # the harmonics average to 0
    return tuple((name, sums.get(name, 0.0) / area) for name in OBSERVABLES)


def equidistribution_series(kind: str, v0: TangentVec, lengths,
                            B: float = 0.0, group: FuchsianGroup | None = None) -> list:
    """(length, discrepancy) rows; discrepancy is the max over `OBSERVABLES`
    of |Birkhoff average - octagon area mean|, computed on prefixes of one
    orbit at `sample_orbit`'s default step.

    No orbit is held: after `sample_orbit`'s checks and pass 1, each block
    of pass 2 (`_replay_blocks`) goes to (x, y, theta) and through
    `_observables`, and each observable's block sum is added to every
    length: all of it to the longest, its leading samples below each
    shorter prefix to that one.  Every sample has `sample_orbit`'s and the
    evaluator's bits; only the order of the sums differs from a mean over
    the orbit.  The area means are checked finite before pass 1."""
    lengths = sorted(float(L) for L in lengths)
    if not lengths:
        raise ValueError("need one or more lengths")
    check_length(lengths)
    check_field(B)
    group = group or octagon_group()
    area_means = octagon_area_means(group)
    for name in OBSERVABLES:  # max(0.0, nan) is 0.0: a NaN mean would vanish
        if not math.isfinite(area_means.get(name, math.nan)):
            raise ValueError(f"need a finite area mean of {name}, "
                             f"got {area_means.get(name)}")
    group, step_matrix, frame, n = _start(v0, kind, lengths[-1], B, _STEP, group)
    segments = _segments(*_restarts(group, step_matrix, frame, n), n)
    counts = [int(round(L / _STEP)) + 1 for L in lengths]
    sums = {}  # per observable, the Birkhoff sum of each length
    for xs, ys, thetas, firsts, runs in _replay_blocks(step_matrix, *segments):
        cuts = [int(np.clip(N - firsts, 0, runs).sum()) for N in counts[:-1]]
        _to_positions(xs, ys, thetas)  # from a c + b d, c and d
        for name, vals in _observables(xs, ys, thetas):
            acc = sums.setdefault(name, [0.0] * len(counts))
            for i, cut in enumerate(cuts):
                acc[i] += float(np.sum(vals[:cut]))
            acc[-1] += float(np.sum(vals))
    discs = [0.0] * len(lengths)
    for name, acc in sums.items():
        for i, L in enumerate(lengths):
            avg = acc[i] / counts[i]
            if not math.isfinite(avg):
                raise ValueError(f"non-finite Birkhoff average of {name} at length {L}")
            discs[i] = max(discs[i], abs(avg - area_means[name]))
    return list(zip(lengths, discs))


def _replay_blocks(step_matrix: tuple, starts: np.ndarray, lens: np.ndarray,
                   frames: np.ndarray):
    """Pass 2 of `sample_orbit` a block at a time: yield each block's rows
    (a c + b d, c, d), reused and valid until the next block is drawn, with
    the first sample index and the length of each of its runs.

    A block is the next `_ROW_BLOCK` // m replay steps (one at least) of the
    m segments live at its first step, gathered in orbit order: segment by
    segment, each a run of consecutive samples, so the samples below any
    index lead the block.  In replay order np.sin, np.cos and the bumps'
    masks ran 2x and 5x slower (65,536 samples of the seed-7 horocycle,
    2-core Xeon VM)."""
    cap = max(_ROW_BLOCK, len(lens))
    store, out = np.empty(3 * cap), np.empty((3, cap))
    by_start = np.argsort(starts)
    t0 = span = 0
    for t, (_, q, c, d) in enumerate(_replay(step_matrix, starts, lens, frames)):
        if t == t0 + span:
            if t:
                yield _gather(block, t0, span, starts, lens, by_start, out)
            t0, span = t, cap // q.size
            block = store[:3 * span * q.size].reshape(3, span, q.size)
        qb, cb, db = block[:, t - t0, :q.size]
        qb[...], cb[...], db[...] = q, c, d
    yield _gather(block, t0, t + 1 - t0, starts, lens, by_start, out)


def _gather(block, t0, steps, starts, lens, by_start, out) -> tuple:
    """The first `steps` steps of a block into `out` in orbit order."""
    m = block.shape[2]
    live = by_start[by_start < m]  # the block's segments by start
    runs = np.minimum(lens[live] - t0, steps)
    ends = np.cumsum(runs)
    at = np.arange(ends[-1])
    at -= np.repeat(ends - runs, runs)  # steps into each run
    at *= m
    at += np.repeat(live, runs)
    rows = out[:, :at.size]
    for row, dest in zip(block.reshape(3, -1), rows):
        row.take(at, out=dest, mode="clip")  # in range: "clip" skips a buffered copy
    return (*rows, starts[live] + t0, runs)


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
