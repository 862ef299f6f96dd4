"""Orbit sampling and equidistribution diagnostics on quotient surfaces.

Long geodesic / magnetic / horocyclic orbits reduced to a fundamental
domain, Birkhoff averages of the fixed observable family (`_observables`,
one evaluator of all 12), discrepancy series, and the equidistant-curve
consistency check for the magnetic transport map.
"""

from __future__ import annotations

import functools
import math
from array import array
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
# samples per block of x, y and theta in pass 2 (`_orbit_blocks`) and per
# block of the series' rows (or one per segment, if more): x, y and theta of
# the whole orbit at once raised the seed-7 horocycle's traced peak at length
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
       the loop (`_orbit_blocks`, shared with `equidistribution_series`).
       Each step puts the live segments' a c + b d, c and d straight into
       the three output rows at their sample indices (`ndarray.put`; the
       output's n + 1 columns make the orbit one block); then, one
       `_ROW_BLOCK` of samples at a time, `_to_positions` forms x, y and
       theta in place, so no Python call runs per sample and the one
       temporary is a block.

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
        out = np.empty((3, n + 1))  # x, y, theta
    except (ValueError, MemoryError):
        raise _too_many_steps(length, step) from None
    for _ in _orbit_blocks(step_matrix, *_restarts(group, step_matrix, frame, n), n, out):
        pass  # one block: the orbit, in place
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


def _orbit_blocks(step_matrix: tuple, starts: array, frames: array, n: int,
                  rows: np.ndarray):
    """Pass 2 of `sample_orbit`: write the samples of the segments between
    the restarts of pass 1 (`_restarts`) into `rows` (x, y, theta; shape
    (3, width), width at least the number of segments) one block at a
    time, and yield each block's runs: the first sample index and the
    length of each.  The rows hold until the next block is drawn.

    The segments are replayed in lockstep, longest first, and a block is
    the largest number of replay steps whose samples fit in the width.
    Each step puts a c + b d, c and d of the live segments at their places
    in orbit order: segment by segment, each a run of consecutive samples,
    so the samples below any index lead the block, and with width n + 1
    the one block is the orbit.  Then `_to_positions` runs on `_ROW_BLOCK`
    samples at a time.  In replay order np.sin, np.cos and the bumps' masks
    ran 2x and 5x slower (65,536 samples of the seed-7 horocycle, 2-core
    Xeon VM)."""
    starts = np.frombuffer(starts, dtype=np.int64)
    lens = np.diff(starts, append=n + 1)
    order = np.argsort(-lens, kind="stable")  # longest first: the live ones are a prefix
    starts, lens = starts[order], lens[order]
    a, b, c, d = np.frombuffer(frames).reshape(-1, 4)[order].T
    del frames, order  # pass 1's arrays go once the caller drops them too
    by_start = np.argsort(starts)  # the orbit order, filtered per block
    live = np.searchsorted(-lens, -np.arange(lens[0]))  # the segments longer than each step
    ends = np.cumsum(live)  # the samples up to each step
    sa, sb, sc, sd = step_matrix
    t0 = 0
    while t0 < lens[0]:
        t1 = int(np.searchsorted(ends, ends[t0] - live[t0] + rows.shape[1], side="right"))
        seg = by_start[by_start < live[t0]]  # the block's segments by start
        runs = np.minimum(lens[seg] - t0, t1 - t0)
        at = np.empty(live[t0], dtype=np.intp)
        at[seg] = np.cumsum(runs) - runs  # each segment's first place in the block
        for m in live[t0:t1].tolist():
            a, b, c, d, at = a[:m], b[:m], c[:m], d[:m], at[:m]
            rows[0].put(at, a * c + b * d)
            rows[1].put(at, c)
            rows[2].put(at, d)
            at += 1
            a, b = a * sa + b * sc, a * sb + b * sd
            c, d = c * sa + d * sc, c * sb + d * sd
        size = int(runs.sum())
        for j in range(0, size, _ROW_BLOCK):
            _to_positions(*rows[:, j:min(j + _ROW_BLOCK, size)])
        yield starts[seg] + t0, runs
        t0 = t1


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
    """Pass 1 of `sample_orbit`: the restart steps and their frames, flat
    (array('q') and array('d'), 8 bytes a value)."""
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
    starts, frames = array("q", [0]), array("d", frame)
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
    """Yield (name, values) per position bump on one block of samples
    (fewer than 2^31), all in one row that is zeroed again after each.

    Each bump is evaluated only inside its window d(z, c_k) < 0.5
    (bump(d / 0.8) is 0 from d = 0.4 on), with the bits of the unmasked
    formula.  Every window's samples are found first as int32 offsets,
    testing the 8 windows only on the near-set cosh d(z, i) < cosh(2 atanh
    0.3 + 0.5) that holds them all; then each bump gathers x and y at its
    own offsets.  Late blocks of a long orbit lie mostly in the near-set:
    intp offsets raised the seed-7 horocycle series' traced peak at length
    1e4 from 3.5 to 3.8 MiB.
    """
    rho = x * x
    rho += y * y
    rho += 1.0
    rho /= y  # 2 cosh d(z, i)
    near = np.flatnonzero(rho < 2.0 * _COSH_NEAR).astype(np.int32)
    del rho
    xn, yn = x.take(near), y.take(near)
    hits = [near[_cosh_dist(xn, yn, cx, cy) < _COSH_HALF] for cx, cy in _CENTRES]
    del near, xn, yn
    out = np.zeros(x.shape)
    for name, (cx, cy), at in zip(BUMPS, _CENTRES, hits):
        out.put(at, bump(np.arccosh(_cosh_dist(x.take(at), y.take(at), cx, cy)) / 0.8))
        yield name, out
        out.put(at, 0.0)


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

    No orbit is held: after `sample_orbit`'s checks and pass 1, pass 2
    (`_orbit_blocks`) writes one block of x, y and theta at a time in orbit
    order, into rows of `_ROW_BLOCK` samples (or one per segment, if more),
    and each block goes through `_observables`; each observable's block
    sum is added to every length: all of it to the longest, its leading
    samples below each shorter prefix to that one.  Every sample has
    `sample_orbit`'s and the evaluator's bits; only the order of the sums
    differs from a mean over the orbit.  The area means are checked finite
    before pass 1."""
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
    starts, frames = _restarts(group, step_matrix, frame, n)
    rows = np.empty((3, min(n + 1, max(_ROW_BLOCK, len(starts)))))
    blocks = _orbit_blocks(step_matrix, starts, frames, n, rows)
    del starts, frames  # the replay keeps its own copies
    counts = [int(round(L / _STEP)) + 1 for L in lengths]
    sums = {}  # per observable, the Birkhoff sum of each length
    for firsts, runs in blocks:
        cuts = [int(np.clip(N - firsts, 0, runs).sum()) for N in counts[:-1]]
        for name, vals in _observables(*rows[:, :runs.sum()]):
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
