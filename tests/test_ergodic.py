"""Tests for orbit sampling, Birkhoff averages, and equidistribution."""

import itertools
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import ergodic
from hyperlab.base import bump
from hyperlab.ergodic import (BUMPS, OBSERVABLES, OrbitSample, _observables,
                              equidistribution_series,
                              octagon_area_means, sample_orbit,
                              seeded_unit_vector, tb_shift_check)
from hyperlab.geometry import (HPoint, TangentVec, flow_step, frame_of,
                               hypercyclic_flow, hyperbolic_distance,
                               mobius_apply_vec, mobius_from_matrix, scale)
from hyperlab.groups import (_COSH_HALF_T, _COSH_R, FuchsianGroup, cylinder_group,
                             octagon_group, reduce_to_domain)


V0 = seeded_unit_vector(7)


@pytest.fixture(scope="module")
def area_means():
    return octagon_area_means()


@pytest.fixture(scope="module")
def horo_orbit():
    return sample_orbit(V0, "horocyclic", 100.0)


def test_orbit_samples_lie_in_domain(horo_orbit):
    G = octagon_group()
    for i in range(0, len(horo_orbit.xs), 997):
        z = HPoint(horo_orbit.xs[i], horo_orbit.ys[i])
        zr, _ = reduce_to_domain(z, G)
        assert hyperbolic_distance(z, zr) < 1e-9


@pytest.mark.parametrize("group, kind, B", [(cylinder_group(1.0), "geodesic", 0.0),
                                           (octagon_group(), "hypercyclic", 2.0)])
def test_every_sample_lies_in_its_groups_dirichlet_domain(group, kind, B):
    # the cylinder reduces by its own threshold, 2 cosh(l/2), not the octagon's:
    # with that one, 5 of 41 checked samples of this orbit fell outside the strip
    orbit = sample_orbit(V0, kind, 20.0, B=B, group=group)
    x, y = orbit.xs, orbit.ys
    for fp, fq, fr in group.dirichlet_forms:
        assert np.min(fp * (x * x + y * y) / y + fq * x / y + fr / y) >= -1e-12


def test_reduce_threshold_is_twice_cosh_of_half_the_shortest_translation():
    assert cylinder_group(1.0).reduce_threshold == pytest.approx(2 * math.cosh(0.5) + 1e-9,
                                                                 abs=1e-14)
    assert octagon_group().reduce_threshold == pytest.approx(2 * _COSH_HALF_T + 1e-9,
                                                             abs=1e-14)


def test_orbit_matches_closed_form_flow():
    # reduced sample positions agree with the closed-form flow reduced
    # independently, for each flow kind
    G = octagon_group()
    for kind, B in [("geodesic", 0.0), ("horocyclic", 0.0),
                    ("hypercyclic", 0.7)]:
        orbit = sample_orbit(V0, kind, 2.0, B=B)
        for i in (37, 120, 200):
            t = i * orbit.step
            if kind == "geodesic":
                from hyperlab.geometry import geodesic_flow
                v = geodesic_flow(V0, t)
            elif kind == "horocyclic":
                from hyperlab.geometry import horocyclic_flow
                v = horocyclic_flow(V0, t)
            else:
                level = math.sqrt(B * B + 1.0)
                v = hypercyclic_flow(scale(V0, level), B, t)
            zr, _ = reduce_to_domain(v.base, G)
            zo = HPoint(orbit.xs[i], orbit.ys[i])
            assert hyperbolic_distance(zr, zo) < 1e-8


def test_hypercyclic_speed_level():
    B = 0.7
    level = math.sqrt(B * B + 1.0)
    v = scale(V0, level)
    for t in np.linspace(0.0, 3.0, 7):
        assert abs(hypercyclic_flow(v, B, t).speed() - level) < 1e-9


def test_birkhoff_deck_transformation_invariance(area_means):
    G = octagon_group()
    gamma = G.generators[2]
    v_moved = mobius_apply_vec(gamma, V0)
    o1 = sample_orbit(V0, "horocyclic", 50.0)
    o2 = sample_orbit(v_moved, "horocyclic", 50.0)
    pairs = zip(_observables(o1.xs, o1.ys, o1.thetas), _observables(o2.xs, o2.ys, o2.thetas))
    for (name, v1), (_, v2) in pairs:
        a1 = float(np.mean(v1))
        a2 = float(np.mean(v2))
        assert abs(a1 - a2) < 1e-10


def test_area_means_symmetry_and_direction_zero(area_means):
    bump_vals = [area_means[f"bump{k}"] for k in range(8)]
    assert max(bump_vals) - min(bump_vals) < 1e-6
    for name in ("cos_th", "sin_th", "cos_2th", "sin_2th"):
        assert area_means[name] == 0.0


def _patch_family(monkeypatch, family, means):
    """The series' evaluator, its names and the area means, patched together:
    `family` maps (x, y, theta) to (name, values) pairs; patching the evaluator
    alone would leave `_area_means` caching wrong means for later tests."""
    names = tuple(name for name, _ in family(*[np.ones(1)] * 3))
    monkeypatch.setattr(ergodic, "OBSERVABLES", names)
    monkeypatch.setattr(ergodic, "_observables", family)
    monkeypatch.setattr(ergodic, "octagon_area_means", lambda group: dict(means))


def test_birkhoff_constant_observables(monkeypatch):
    # against an area mean of 0 each discrepancy reads |Birkhoff average|: a
    # constant family's average is its constant at every prefix length
    for const, family in [(1.0, np.ones_like), (0.0, np.zeros_like)]:
        _patch_family(monkeypatch, lambda x, y, th: [("c", family(x))], {"c": 0.0})
        rows = equidistribution_series("horocyclic", V0, [10.0, 20.0, 100.0])
        assert [d for _, d in rows] == [const, const, const]


def test_constant_family_zero_discrepancy(monkeypatch):
    _patch_family(monkeypatch, lambda x, y, th: [("one", np.ones_like(x))], {"one": 1.0})
    rows = equidistribution_series("horocyclic", V0, [10.0, 20.0])
    assert all(d == 0.0 for _, d in rows)


@pytest.mark.slow
def test_horocycle_equidistribution_trend():
    rows = equidistribution_series("horocyclic", V0, [1e2, 1e3, 1e4])
    discs = [d for _, d in rows]
    assert discs[0] >= discs[1] >= discs[2]
    assert discs[2] < 0.05


@pytest.mark.slow
def test_long_horocycle_bump_average_near_area_mean(area_means):
    orbit = sample_orbit(V0, "horocyclic", 1e4)
    name, vals = next(_observables(orbit.xs, orbit.ys, orbit.thetas))
    assert abs(float(np.mean(vals)) - area_means[name]) < 0.05


def test_larger_b_hypercycles_equidistribute_faster():
    d5 = equidistribution_series("hypercyclic", V0, [1e3], B=5.0)[0][1]
    d05 = equidistribution_series("hypercyclic", V0, [1e3], B=0.5)[0][1]
    assert d5 < d05


@pytest.mark.slow
def test_geodesic_mixing_trend():
    rows = equidistribution_series("geodesic", V0, [1e2, 1e4])
    assert rows[1][1] < rows[0][1]


def test_tb_shift_zero_field():
    # T_0 is the identity, so the two constructions differ by the rounding of a
    # length-5 frame, about u e^5 = 3e-14; arccosh's cancellation had read it as 0.0
    assert tb_shift_check(V0, 0.0, 5.0) < 1e-13


def test_tb_shift_magnetic():
    for B in (0.5, 1.0, 2.0):
        assert tb_shift_check(V0, B, 5.0) < 1e-6


def test_tb_shift_isometry_invariance():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(2, 2))
    if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] < 0:
        m[:, 0] = -m[:, 0]
    m = m / math.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    gamma = mobius_from_matrix(m)
    v_moved = mobius_apply_vec(gamma, V0)
    d0 = tb_shift_check(V0, 1.0, 5.0)
    d1 = tb_shift_check(v_moved, 1.0, 5.0)
    assert abs(d0 - d1) < 1e-8


def test_tb_shift_rejects_non_unit():
    bad = TangentVec(HPoint(0.0, 1.0), 0.0, 2.0)
    with pytest.raises(ValueError):
        tb_shift_check(bad, 1.0, 1.0)


@pytest.mark.parametrize("B", [-1.0, math.nan])
def test_tb_shift_rejects_a_negative_or_non_finite_field(B):
    # -1 failed with hypercyclic_flow's own message, nan with "t=nan"
    with pytest.raises(ValueError, match="need finite B >= 0"):
        tb_shift_check(V0, B, 1.0)


def test_unknown_flow_kind():
    with pytest.raises(ValueError):
        sample_orbit(V0, "elliptic", 1.0)


@pytest.mark.parametrize("B", [math.inf, math.nan, -1.0])
def test_sample_orbit_rejects_non_finite_or_negative_field(B):
    with pytest.raises(ValueError):
        sample_orbit(V0, "hypercyclic", 10.0, B=B)


def test_discrepancy_rejects_non_finite_average(area_means, monkeypatch):
    # a NaN Birkhoff average must not be dropped by the max over the family
    def family(x, y, th):
        yield from _observables(x, y, th)
        yield "nan", np.full_like(x, np.nan)

    _patch_family(monkeypatch, family, {**area_means, "nan": 0.0})
    with pytest.raises(ValueError, match="non-finite Birkhoff average"):
        equidistribution_series("horocyclic", V0, [1.0])


def _sequential_frames(v0, kind, length, B=0.0, step=1e-2):
    """Frozen per-step loop the orbit sampler must reproduce bit for bit:
    numpy-scalar frame, ungated 8-move sweep, per-step recording of x, y and
    the frame's c and d."""
    group = octagon_group()
    threshold = 2.0 * (1.0 + math.sqrt(2.0)) + 1e-9
    moves = [*group.generators, *group.inverses]
    moves = [(m[0, 0], m[0, 1], m[1, 0], m[1, 1]) for m in moves]
    S = flow_step(kind, B, step)
    sa, sb, sc, sd = S[0, 0], S[0, 1], S[1, 0], S[1, 1]
    F = frame_of(v0)
    a, b, c, d = F[0, 0], F[0, 1], F[1, 0], F[1, 1]
    n = int(round(length / step))
    xs, ys, cs, ds = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)

    def record(i):
        den = c * c + d * d
        xs[i] = (a * c + b * d) / den
        ys[i] = 1.0 / den
        cs[i], ds[i] = c, d

    def reduce_frame(a, b, c, d):
        cur = a * a + b * b + c * c + d * d
        while cur > threshold:
            best, best_t = cur, None
            for ma, mb, mc, md in moves:
                na = ma * a + mb * c
                nb = ma * b + mb * d
                nc = mc * a + md * c
                nd = mc * b + md * d
                v = na * na + nb * nb + nc * nc + nd * nd
                if v < best - 1e-13:
                    best, best_t = v, (na, nb, nc, nd)
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
        if a * a + b * b + c * c + d * d > threshold:
            a, b, c, d = reduce_frame(a, b, c, d)
        if i % 1000 == 0:
            f = 1.0 / math.sqrt(a * d - b * c)
            a, b, c, d = a * f, b * f, c * f, d * f
        record(i)
    return xs, ys, cs, ds


def _sequential_orbit(v0, kind, length, B=0.0, step=1e-2):
    """The frozen loop's xs, ys and thetas: np.arctan2 over the recorded c and d,
    which gives each element the same bits however the array is chunked."""
    xs, ys, cs, ds = _sequential_frames(v0, kind, length, B=B, step=step)
    return xs, ys, math.pi / 2 - 2.0 * np.arctan2(cs, ds)


def _on_side_start(inside=0.0):
    # midpoint of octagon side 1 (disk direction pi/4, at the apothem), or the
    # point `inside` from it towards the centre, pointing along the side
    w = math.tanh((math.acosh(_COSH_HALF_T) - inside) / 2) * np.exp(1j * math.pi / 4)
    z = 1j * (1 + w) / (1 - w)
    dz = 1j * w / abs(w) * (2j / (1 - w) ** 2)  # tangent to the side at z
    dz *= z.imag / abs(dz)
    return TangentVec(HPoint(z.real, z.imag), dz.real, dz.imag)


@pytest.mark.parametrize("kind, B", [("geodesic", 0.0), ("horocyclic", 0.0),
                                     ("hypercyclic", 0.5),
                                     ("hypercyclic", 5.0)])
def test_orbit_is_bit_identical_to_sequential_loop(kind, B):
    # 2537 steps: two full renormalization blocks and a partial one
    v0 = _on_side_start()
    orbit = sample_orbit(v0, kind, 25.37, B=B)
    xs, ys, ths = _sequential_orbit(v0, kind, 25.37, B=B)
    assert len(orbit.xs) == 2538
    assert np.array_equal(orbit.xs, xs)
    assert np.array_equal(orbit.ys, ys)
    assert np.array_equal(orbit.thetas, ths)


@pytest.mark.parametrize("kind, B", [("geodesic", 0.0), ("horocyclic", 0.0),
                                     ("hypercyclic", 0.5), ("hypercyclic", 5.0)])
def test_angle_is_within_4_ulps_of_math_atan2_on_the_oracle_frames(kind, B):
    # both sides take np.arctan2, so check the angle against math.atan2 itself;
    # an ulp is one of the larger term, pi/2 or 2 atan2(c, d)
    v0 = _on_side_start()
    orbit = sample_orbit(v0, kind, 25.37, B=B)
    _, _, cs, ds = _sequential_frames(v0, kind, 25.37, B=B)
    two_atan = 2.0 * np.array([math.atan2(c, d) for c, d in zip(cs, ds)])
    want = math.pi / 2 - two_atan
    ulp = np.spacing(np.maximum(np.abs(two_atan), math.pi / 2))
    assert np.all(np.abs(orbit.thetas - want) <= 4 * ulp)


def _assert_matches_oracle(v0, kind, length, B=0.0, step=1e-2):
    orbit = sample_orbit(v0, kind, length, B=B, step=step)
    xs, ys, ths = _sequential_orbit(v0, kind, length, B=B, step=step)
    assert len(orbit.xs) == int(round(length / step)) + 1
    for got, want in zip((orbit.xs, orbit.ys, orbit.thetas), (xs, ys, ths)):
        assert got.tobytes() == want.tobytes()
    return orbit


@pytest.mark.parametrize("n", [0, 1, 999, 1000, 1001])
def test_replay_matches_sequential_loop_at_block_edges(n):
    # one segment, a full block ending in a renormalization, one step past it
    _assert_matches_oracle(_on_side_start(), "horocyclic", n / 100)


@pytest.mark.parametrize("kind, B", [("horocyclic", 0.0), ("hypercyclic", 5.0)])
def test_replay_matches_sequential_loop_over_ten_blocks(kind, B):
    _assert_matches_oracle(seeded_unit_vector(3), kind, 105.37, B=B)


@pytest.mark.parametrize("length", [10.0, 12.5])
def test_replay_matches_sequential_loop_with_a_sweep_on_a_renormalization_step(length):
    # from seeded start 1 the B = 5 hypercycle leaves the octagon on step 1000,
    # so the reduced frame is renormalized on that same step
    orbit = _assert_matches_oracle(seeded_unit_vector(1), "hypercyclic", length, B=5.0)
    jump = hyperbolic_distance(HPoint(orbit.xs[999], orbit.ys[999]),
                               HPoint(orbit.xs[1000], orbit.ys[1000]))
    assert jump > 1.0  # a side pairing, not a flow step of 0.051


@settings(max_examples=40)
@given(seed=st.integers(0, 2**16),
       kind=st.sampled_from(["geodesic", "horocyclic", "hypercyclic"]),
       B=st.floats(0.0, 20.0), step=st.floats(1e-3, 0.2), n=st.integers(0, 2100))
def test_chunked_orbit_is_bit_identical_to_sequential_loop(seed, kind, B, step, n):
    # large steps (and fields) make the ungated chunks short or empty
    _assert_matches_oracle(seeded_unit_vector(seed), kind, n * step, B=B, step=step)


def _vertex_start(inside=0.0):
    # on octagon vertex 0 (disk direction pi/8), or `inside` from it towards
    # the centre, pointing into the octagon
    w = math.tanh((math.acosh(_COSH_R) - inside) / 2) * np.exp(1j * math.pi / 8)
    z = 1j * (1 + w) / (1 - w)
    return TangentVec(HPoint(z.real, z.imag), -z.real, 1.0 - z.imag)


@pytest.mark.parametrize("start", ["vertex", "side"])
@pytest.mark.parametrize("kind, B", [("geodesic", 0.0), ("horocyclic", 0.0),
                                     ("hypercyclic", 5.0)])
def test_orbit_from_a_vertex_or_within_the_margin_of_a_side_is_exact(start, kind, B):
    # 1e-7 inside a side is within the chunk margin (1.6e-7 for the octagon)
    v0 = _vertex_start() if start == "vertex" else _on_side_start(inside=1e-7)
    _assert_matches_oracle(v0, kind, 25.37, B=B)


@pytest.mark.parametrize("kind", ["geodesic", "horocyclic", "hypercyclic"])
def test_a_step_whose_float_matrix_fixes_i_is_exact(kind):
    # at step 1e-17 the float step matrix fixes i, so delta = 0; the start is
    # past the |F|^2 gate and 0.3 inside the octagon
    _assert_matches_oracle(_vertex_start(inside=0.3), kind, 50e-17, B=2.0, step=1e-17)


def _gated_restarts(group, step_matrix, frame, n):
    """Frozen pass 1 with the per-step |F|^2 gate: the restarts to reproduce."""
    reduce, threshold = group.reduce_frame, group.reduce_threshold
    sa, sb, sc, sd = step_matrix
    a, b, c, d = frame
    starts, frames = [0], [a, b, c, d]
    for start in range(1, n + 1, 1000):
        stop = min(start + 1000, n + 1)
        for i in range(start, stop):
            a, b = a * sa + b * sc, a * sb + b * sd
            c, d = c * sa + d * sc, c * sb + d * sd
            if a * a + b * b + c * c + d * d > threshold:
                r = reduce(a, b, c, d)
                if r != (a, b, c, d):
                    a, b, c, d = r
                    starts.append(i)
                    frames.extend(r)
        if stop - start == 1000:
            f = 1.0 / math.sqrt(a * d - b * c)
            a, b, c, d = a * f, b * f, c * f, d * f
            starts.append(stop - 1)
            frames.extend((a, b, c, d))
    return starts, frames


def test_ungated_chunks_keep_the_restarts_with_few_reductions(monkeypatch):
    # the per-step gate called reduce_frame 30,674 times on this orbit, the chunks 642
    group = octagon_group()
    step_matrix = tuple(map(float, flow_step("horocyclic", 0.0, 1e-2).ravel()))
    frame = group.reduce_frame(*map(float, frame_of(V0).ravel()))
    want = _gated_restarts(group, step_matrix, frame, 100_000)
    calls = []
    reduce = FuchsianGroup.reduce_frame
    monkeypatch.setattr(FuchsianGroup, "reduce_frame",
                        lambda self, *frame: calls.append(1) or reduce(self, *frame))
    sample_orbit(V0, "horocyclic", 1e3, group=group)
    assert 0 < len(calls) <= 5000
    assert tuple(map(list, ergodic._restarts(group, step_matrix, frame, 100_000))) == want
    assert len(want[0]) == 742  # 100 renormalizations and 641 side crossings


@pytest.mark.parametrize("v", [TangentVec(HPoint(0.0, 1.0), math.nan, 1.0),
                               TangentVec(HPoint(1e200, 1.0), 0.0, 1.0)], ids=["nan", "1e+200"])
def test_sample_orbit_rejects_a_start_it_cannot_reduce(v):
    # a NaN frame gave an all-NaN orbit (HPoint rejects a NaN x itself, so the NaN
    # is in the direction); at x = 1e200 |F|^2 overflowed, reduce_frame gave up
    # and no sample lay in the domain
    with pytest.raises(ValueError, match="start frame"):
        sample_orbit(v, "horocyclic", 1.0)


def test_unit_dirichlet_forms_read_sinh_of_the_distance_to_each_side():
    # at F = I (p = r = 1, q = 0) every octagon side is an apothem away
    for u, v, w in octagon_group().unit_dirichlet_forms:
        assert u + w == pytest.approx(math.sqrt(_COSH_HALF_T ** 2 - 1), rel=1e-12)
    # the strip e^{-1/2} <= |z| <= e^{1/2} seen from i e^{0.2}
    t, group = 0.2, cylinder_group(1.0)
    vals = sorted(u * math.exp(t) + w * math.exp(-t) for u, v, w in group.unit_dirichlet_forms)
    assert vals == pytest.approx([math.sinh(0.5 - t), math.sinh(0.5 + t)], rel=1e-12)
    # 4 sinh(l/2) with no cancellation of the 1e40-sized squares
    assert cylinder_group(46.0).dirichlet_norms == pytest.approx([4 * math.sinh(23.0)] * 2,
                                                                 rel=1e-12)


def test_sample_orbit_memory_peak_is_at_most_twice_its_output(monkeypatch):
    # a whole-orbit frame array would add 4 * (n + 1) * 8 bytes to the 3 * (n + 1) * 8
    group = octagon_group()
    sample_orbit(V0, "horocyclic", 1.0, group=group)  # fill the group's cached forms
    orbits = []
    peak = _traced_peak(monkeypatch, lambda: orbits.append(
        sample_orbit(V0, "horocyclic", 1e3, group=group)))
    assert [len(orbit.xs) for orbit in orbits] == [100_001, 100_001]
    assert peak <= 2 * 3 * 100_001 * 8


def test_equidistribution_series_memory_peak_is_at_most_twice_its_orbit(monkeypatch):
    # the orbit, one bump row and the window offsets; the harmonics go into xs and ys
    group = octagon_group()
    equidistribution_series("horocyclic", V0, [1.0], group=group)  # warm the area means
    series = []
    peak = _traced_peak(monkeypatch, lambda: series.append(
        equidistribution_series("horocyclic", V0, [1e2, 1e3], group=group)))
    assert len(series) == 2 and series[0] == series[1] and len(series[1]) == 2
    assert peak <= 2 * 3 * 100_001 * 8


def _traced_peak(monkeypatch, f):
    """tracemalloc peak of f(), with orbit pass 1 replayed from an untraced run.

    Under tracemalloc the float loop of pass 1 runs about 60 times slower (31 s
    against 0.54 s at length 1e4 on a 2-core Xeon VM); its restart arrays are
    unpickled afresh on each replay, so their bytes still count in the peak."""
    real, blobs = ergodic._restarts, []

    def record(*args):
        restarts = real(*args)
        blobs.append(pickle.dumps(restarts))
        return restarts

    monkeypatch.setattr(ergodic, "_restarts", record)
    f()
    monkeypatch.setattr(ergodic, "_restarts", lambda *args: pickle.loads(blobs[0]))
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_orbit_memory_peak_at_length_1e4_is_its_output_and_one_block(monkeypatch):
    # x, y and theta are formed a block at a time: a whole theta row made it 1.38
    group = octagon_group()
    peak = _traced_peak(monkeypatch, lambda: sample_orbit(V0, "horocyclic", 1e4, group=group))
    assert peak <= 1.1 * 3 * 1_000_001 * 8


def test_equidistribution_series_memory_peak_grows_by_at_most_half_from_1e3_to_1e4(
        monkeypatch):
    # the series streams its blocks: 2.56 and 3.46 MiB, 0.90 MiB of growth (the
    # restarts grow, and late blocks lie mostly in the bumps' near-set); holding
    # its orbit it grew 29 MiB.  The bound is on the growth, not the ratio, so a
    # smaller footprint that does not grow with the orbit cannot fail it
    group = octagon_group()
    equidistribution_series("horocyclic", V0, [1.0], group=group)  # warm the area means
    peaks = []
    for length in (1e3, 1e4):
        with monkeypatch.context() as patch:  # each length replays its own pass 1
            peaks.append(_traced_peak(patch, lambda: equidistribution_series(
                "horocyclic", V0, [1e2, length], group=group)))
    assert peaks[1] - peaks[0] <= 1.25 * 2**20


def test_the_streamed_series_at_length_1e4_peaks_below_5_mib(monkeypatch):
    # pass 2 writes each block's samples in place, in orbit order: 3.5 MiB; a
    # step-major copy of each block and its gather read 6.0 MiB
    group = octagon_group()
    equidistribution_series("horocyclic", V0, [1.0], group=group)  # warm the area means
    peak = _traced_peak(monkeypatch, lambda: equidistribution_series(
        "horocyclic", V0, [1e2, 1e4], group=group))
    assert peak < 5 * 2**20


def test_a_cold_area_quadrature_peaks_at_2_mib(monkeypatch):
    # one band of radial rows at a time: 1.4 MiB; the whole grid read 11.4 MiB
    group = octagon_group()
    peak = _traced_peak(monkeypatch, lambda: ergodic._area_means.__wrapped__(group))
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("B, length, text", [
    (1e12, 1.0, "non-finite |F|^2 or c = d = 0"),  # 15 of 101 samples were NaN
    (1e15, 1.0, "non-finite |F|^2 or c = d = 0"),  # 70 of 101
    (1e10, 10.0, "has determinant"),  # math.sqrt of a negative determinant
    (1e9, 10.0, "has determinant"),  # 1001 finite samples, det F = 1.47 at step 1000
    (1e10, 1.0, "has determinant")])  # 101 finite samples, det F = 9.5e-4 on the last frame
def test_a_frame_lost_to_rounding_is_a_value_error(B, length, text):
    # the float step matrix of a huge field loses the frame within a few steps
    with pytest.raises(ValueError, match=re.escape(text)):
        sample_orbit(V0, "hypercyclic", length, B=B)


def test_a_far_start_is_sampled_unless_its_reduction_loses_the_determinant():
    # x = 1e4 reduces to det F - 1 = 8.9e-16 and gives the per-step loop's bits
    far = TangentVec(HPoint(1e4, 1.0), 0.0, 1.0)
    orbit = sample_orbit(far, "horocyclic", 25.37)
    xs, ys, ths = _sequential_orbit(far, "horocyclic", 25.37)
    assert np.array_equal(orbit.xs, xs)
    assert np.array_equal(orbit.ys, ys)
    assert np.array_equal(orbit.thetas, ths)
    # near the boundary the reduction leaves det F - 1 = 1.3e-10, outside the
    # premise of pass 1: the start is blamed, not the field or step
    y, th = 1.3e-6, 3.92
    lost = TangentVec(HPoint(1.345, y), y * math.cos(th), y * math.sin(th))
    for length in (0.0, 1.0, 20.0):
        with pytest.raises(ValueError, match="the start frame .* reduces to determinant"):
            sample_orbit(lost, "geodesic", length)


def test_a_step_count_that_cannot_be_held_fails_before_pass_1(monkeypatch):
    # pass 1 used to run over the 1e300 steps before the output was allocated
    monkeypatch.setattr(ergodic, "_restarts",
                        lambda *args: pytest.fail("pass 1 ran before the allocation"))
    with pytest.raises(ValueError, match=re.escape("n = 1e+300 steps")):
        sample_orbit(V0, "geodesic", 1.0, step=1e-300)
    with pytest.raises(ValueError, match=re.escape("n = inf steps")):
        sample_orbit(V0, "geodesic", 1e300, step=1e-300)
    # the series holds no orbit, so its bound is the intp sample index, checked
    # with nothing allocated: n = 1e19 passes int() but not intp
    octagon_area_means()  # warm, so that the trace sees the series alone
    tracemalloc.start()
    try:
        for length, n in [(1e300, "1e+302"), (1e17, "1e+19")]:
            with pytest.raises(ValueError, match=re.escape(f"cannot hold n = {n} steps")):
                equidistribution_series("geodesic", V0, [1.0, length])
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("length, step", [
    (math.nan, 1e-2), (math.inf, 1e-2), (-1.0, 1e-2),
    (10.0, 0.0), (10.0, -1e-2), (10.0, math.nan), (10.0, math.inf)])
def test_sample_orbit_rejects_bad_length_or_step(length, step):
    with pytest.raises(ValueError):
        sample_orbit(V0, "horocyclic", length, step=step)


@pytest.mark.parametrize("lengths", [[], [math.nan], [math.inf, 10.0],
                                     [-5.0, 10.0]])
def test_discrepancy_rejects_bad_lengths(lengths):
    # -5 used to give a row from xs[:-499]; inf and nan died in int()
    with pytest.raises(ValueError, match="lengths"):
        equidistribution_series("horocyclic", V0, lengths)


def test_orbit_step_overflow_is_a_value_error():
    # exp(1500) used to escape as OverflowError: math range error
    with pytest.raises(ValueError, match="t=3000"):
        sample_orbit(V0, "geodesic", 1e5, step=3000.0)


def test_area_means_need_the_octagon():
    # the quadrature covers the octagon's circumdisk; the cylinder has
    # infinite area, so its "means" (bump0 0.0067) meant nothing
    with pytest.raises(ValueError, match="octagon"):
        octagon_area_means(cylinder_group(1.0))
    with pytest.raises(ValueError, match="octagon"):
        equidistribution_series("geodesic", V0, [10, 20], group=cylinder_group(1.0))


def _per_length_series(kind, v0, lengths, area_means, B=0.0, step=1e-2):
    """Frozen per-length loop: every observable again on each prefix."""
    orbit = sample_orbit(v0, kind, max(lengths), B=B, step=step)
    rows = []
    for L in sorted(lengths):
        n = int(round(L / step)) + 1
        disc = 0.0
        # copies: the evaluator consumes xs and ys, and the next length reads them again
        for name, vals in _observables(orbit.xs[:n].copy(), orbit.ys[:n].copy(),
                                       orbit.thetas[:n]):
            avg = float(np.mean(vals))
            disc = max(disc, abs(avg - area_means[name]))
        rows.append((L, disc))
    return rows


@pytest.mark.parametrize("kind, B, lengths", [
    ("horocyclic", 0.0, [10.0, 100.0, 1000.0]), ("hypercyclic", 5.0, [100.0])])
def test_one_observable_pass_matches_the_per_length_loop(area_means, monkeypatch,
                                                         kind, B, lengths):
    # The series sums each block with np.sum and adds its K block sums in turn;
    # the loop takes np.mean of each prefix.  np.sum is pairwise down to 128
    # values, then keeps 8 running sums of up to 16 values, joins them in 3
    # levels and adds up to 7 more, so over N values each value meets at most
    # ceil(log2 N) + 25 roundings, and the series adds K more.  To first order in
    # u = 2^-53 each rounding moves a sum of values in [-1, 1] by at most u N, so
    # the two means differ by at most (2 (ceil(log2 N) + 25) + K + 2) u, the 2 for
    # the divisions by N, and the discrepancies by 2 u more for the subtraction
    # of the area mean.  Observed: at most 3.5e-17 over seeds 7 and 8.
    blocks, real = [], ergodic._observables
    monkeypatch.setattr(ergodic, "_observables",
                        lambda *rows: blocks.append(1) or real(*rows))
    rows = equidistribution_series(kind, V0, lengths, B=B)
    want = _per_length_series(kind, V0, lengths, area_means, B=B)
    assert [L for L, _ in rows] == [L for L, _ in want]
    for (L, got), (_, disc) in zip(rows, want):
        n = round(L / 1e-2) + 1
        bound = (2 * (math.ceil(math.log2(n)) + 25) + len(blocks) + 4) * 2.0 ** -53
        assert abs(got - disc) <= bound


def test_the_series_samples_are_the_orbits_samples(monkeypatch):
    # each sample once, with sample_orbit's bits; only their order differs
    got = []

    def family(x, y, th):
        got.append((x.copy(), y.copy(), th.copy()))
        yield "c", np.zeros_like(x)

    _patch_family(monkeypatch, family, {"c": 0.0})
    for kind, B, length in [("horocyclic", 0.0, 1e3), ("hypercyclic", 5.0, 25.37)]:
        got.clear()
        equidistribution_series(kind, _on_side_start(), [length], B=B)
        orbit = sample_orbit(_on_side_start(), kind, length, B=B)
        # the frozen loop shares no pass 2 with the series
        frozen = _sequential_orbit(_on_side_start(), kind, length, B=B)
        assert len(got) >= (2 if kind == "horocyclic" else 1)  # 100,001 samples: 2 blocks
        for series_rows, orbit_row, frozen_row in zip(
                zip(*got), (orbit.xs, orbit.ys, orbit.thetas), frozen):
            want = np.sort(orbit_row).tobytes()
            assert np.sort(np.concatenate(series_rows)).tobytes() == want
            assert np.sort(frozen_row).tobytes() == want


@pytest.mark.parametrize("row_block", [1, 7])
def test_one_step_blocks_and_blocks_that_end_mid_segment_keep_the_samples(
        area_means, monkeypatch, row_block):
    # rows of one sample per segment: the first block is one replay step, and
    # later blocks end inside segments; x, y and theta go 1 or 7 samples at a time
    monkeypatch.setattr(ergodic, "_ROW_BLOCK", row_block)
    v0, lengths = _on_side_start(), [10.0, 25.0]  # 2,501 samples
    blocks, runs, real, real_blocks = [], [], ergodic._observables, ergodic._orbit_blocks
    monkeypatch.setattr(ergodic, "_observables", lambda *rows: blocks.append(
        [row.copy() for row in rows]) or real(*rows))  # copies: the evaluator consumes rows
    monkeypatch.setattr(ergodic, "_orbit_blocks", lambda *args: (
        runs.append(block[1].copy()) or block for block in real_blocks(*args)))
    rows = equidistribution_series("horocyclic", v0, lengths)
    assert max(runs[0]) == 1 and len(runs) >= 3 and max(runs[-1]) > 1
    for got, frozen_row in zip(zip(*blocks), _sequential_orbit(v0, "horocyclic", lengths[-1])):
        assert np.sort(np.concatenate(got)).tobytes() == np.sort(frozen_row).tobytes()
    want = _per_length_series("horocyclic", v0, lengths, area_means)
    for (L, got), (_, disc) in zip(rows, want):
        n = round(L / 1e-2) + 1
        bound = (2 * (math.ceil(math.log2(n)) + 25) + len(blocks) + 4) * 2.0 ** -53
        assert abs(got - disc) <= bound


def test_area_means_run_once_per_group_and_return_a_fresh_dict(monkeypatch):
    group = octagon_group()
    first = octagon_area_means(group)
    first["bump0"] = math.nan
    quadratures = []
    real_bumps = ergodic._bumps  # the quadrature's one evaluator call
    monkeypatch.setattr(ergodic, "_bumps",
                        lambda *args: quadratures.append(1) or real_bumps(*args))
    again = octagon_area_means(octagon_group())  # an equal group shares the entry
    assert again is not first and math.isfinite(again["bump0"])
    assert again == octagon_area_means(group)
    assert quadratures == []


def _at(r, phi):
    # the half-plane point at hyperbolic distance r from i in disk direction phi
    w = math.tanh(r / 2) * np.exp(1j * phi)
    z = 1j * (1 + w) / (1 - w)
    return z.real, z.imag


def test_position_bumps_match_the_unmasked_formula(horo_orbit):
    # every centre lies r0 = 2 atanh 0.3 from i; on the ray from i through centre k,
    # r0 + 0.5 is both the near-set bound and the far edge of the bump's d = 0.5
    # window, and r0 - 0.5 is the near edge; pi/8 off the ray, r0 + 0.5 meets the
    # near-set bound alone
    r0 = 2 * math.atanh(0.3)
    edges = [_at(r0 + sign * 0.5 + eps, k * math.pi / 4 + off)
             for k in range(8) for sign, off in [(1, 0.0), (-1, 0.0), (1, math.pi / 8)]
             for eps in (-1e-12, 1e-12)]
    cosh_i = [(x * x + y * y + 1) / (2 * y) for x, y in edges]
    assert max(cosh_i[0::6] + cosh_i[4::6]) < ergodic._COSH_NEAR
    assert min(cosh_i[1::6] + cosh_i[5::6]) >= ergodic._COSH_NEAR
    centres = [_at(r0, k * math.pi / 4) for k in range(8)]
    ex, ey = np.array(edges + centres).T
    x, y = np.concatenate([horo_orbit.xs, ex]), np.concatenate([horo_orbit.ys, ey])
    n = len(horo_orbit.xs)
    bumps = itertools.islice(_observables(x, y, np.zeros_like(x)), len(BUMPS))
    for k, (name, vals) in enumerate(bumps):
        assert name == BUMPS[k] == OBSERVABLES[k] == f"bump{k}"
        w = 0.3 * np.exp(1j * (k * math.pi / 4))
        ck = 1j * (1 + w) / (1 - w)
        coshd = 1.0 + ((x - ck.real) ** 2 + (y - ck.imag) ** 2) / (2.0 * y * ck.imag)
        assert vals.tobytes() == bump(np.arccosh(coshd) / 0.8).tobytes()
        assert np.count_nonzero(vals[:n]) > 0
        assert vals[n + len(edges) + k] == 1.0  # the centre
        assert np.count_nonzero(vals[n:n + len(edges)]) == 0
    assert k == 7


def test_direction_harmonics_match_cos_and_sin_of_theta(horo_orbit):
    # cos and sin are numpy's own; the double angles come from them, within 4 eps
    x, y, th = horo_orbit.xs, horo_orbit.ys, horo_orbit.thetas
    want = {"cos_th": np.cos(th), "sin_th": np.sin(th),
            "cos_2th": np.cos(2 * th), "sin_2th": np.sin(2 * th)}
    got = {name: vals.copy() for name, vals in _observables(x.copy(), y.copy(), th)
           if name not in BUMPS}  # copies: the evaluator consumes xs and ys
    assert tuple(got) == OBSERVABLES[len(BUMPS):]
    assert got["cos_th"].tobytes() == want["cos_th"].tobytes()
    assert got["sin_th"].tobytes() == want["sin_th"].tobytes()
    for name in ("cos_2th", "sin_2th"):
        assert np.max(np.abs(got[name] - want[name])) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("bad", [math.nan, math.inf, "missing"])
def test_discrepancy_rejects_a_missing_or_non_finite_area_mean(area_means, monkeypatch, bad):
    # max(0.0, nan) is 0.0: a NaN bump0 mean used to give the clean row
    means = {**area_means, "bump0": bad}
    if bad == "missing":
        del means["bump0"]
    _patch_family(monkeypatch, _observables, means)
    monkeypatch.setattr(ergodic, "_restarts",
                        lambda *args: pytest.fail("pass 1 ran before the check"))
    with pytest.raises(ValueError, match="finite area mean of bump0"):
        equidistribution_series("horocyclic", V0, [10.0])
