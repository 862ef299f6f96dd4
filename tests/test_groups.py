"""Tests for discrete isometry groups and domain reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import groups as gr
from hyperlab.geometry import (HPoint, MobiusMap, hyperbolic_distance,
                               mobius_apply, mobius_from_matrix)

finite = dict(allow_nan=False, allow_infinity=False)


def _rand_map(rng):
    while True:
        m = rng.normal(size=(2, 2))
        if np.linalg.det(m) < 0:
            m[:, 0] = -m[:, 0]
        if abs(np.linalg.det(m)) > 0.1:
            return mobius_from_matrix(m)


# --- automorphy factor ---


def test_automorphy_trivial_cases():
    rng = np.random.default_rng(3)
    z = HPoint(0.7, 2.1)
    for _ in range(10):
        M = _rand_map(rng)
        assert gr.automorphy_factor(M, z, 0).value == 1.0
    upper = mobius_from_matrix(np.array([[2.0, 1.5], [0.0, 0.5]]))
    for tau in range(-3, 4):
        assert gr.automorphy_factor(upper, z, tau).value == pytest.approx(1.0)


def test_automorphy_sign_flip_invariance():
    rng = np.random.default_rng(4)
    z = HPoint(-0.3, 0.9)
    for _ in range(10):
        M = _rand_map(rng)
        Mn = MobiusMap(-M.a, -M.b, -M.c, -M.d)
        f1 = gr.automorphy_factor(M, z, 3).value
        f2 = gr.automorphy_factor(Mn, z, 3).value
        assert f1 == pytest.approx(f2, abs=1e-12)


@settings(deadline=None)
@given(
    x=st.floats(-3, 3, **finite),
    y=st.floats(0.1, 5, **finite),
    tau=st.integers(-4, 4),
    seed=st.integers(0, 2**31),
)
def test_automorphy_cocycle(x, y, tau, seed):
    rng = np.random.default_rng(seed)
    g1, g2 = _rand_map(rng), _rand_map(rng)
    z = HPoint(x, y)
    lhs = gr.automorphy_factor(g1.compose(g2), z, tau).value
    rhs = (gr.automorphy_factor(g1, mobius_apply(g2, z), tau).value
           * gr.automorphy_factor(g2, z, tau).value)
    assert lhs == pytest.approx(rhs, abs=1e-10)


# --- cylinder group ---


def test_cylinder_generator_action():
    G = gr.cylinder_group(1.0)
    img = mobius_apply(G.generators[0], HPoint(0.0, 1.0))
    assert img.x == pytest.approx(0.0, abs=1e-14)
    assert img.y == pytest.approx(math.e, rel=1e-14)


def test_cylinder_generator_preserves_beta_shifts_sigma():
    from hyperlab.geometry import CylPoint, cyl_to_halfplane, halfplane_to_cyl

    G = gr.cylinder_group(0.7)
    c = CylPoint(beta=0.4, sigma=0.2, l=0.7)
    z = cyl_to_halfplane(c)
    img = halfplane_to_cyl(mobius_apply(G.generators[0], z), l=0.7)
    assert img.beta == pytest.approx(c.beta, abs=1e-12)
    assert img.sigma == pytest.approx((c.sigma + 0.7) % 0.7, abs=1e-12)


def test_cylinder_reduction():
    G = gr.cylinder_group(1.0)
    z = HPoint(0.0, math.exp(1.1))
    red, gamma = gr.reduce_to_domain(z, G)
    assert 0.0 <= 0.5 * math.log(red.x**2 + red.y**2) < 1.0
    assert red.y == pytest.approx(math.exp(0.1), rel=1e-12)
    assert gamma.matrix() == pytest.approx(G.generators[0].matrix())
    back = mobius_apply(gamma, red)
    assert (back.x, back.y) == pytest.approx((z.x, z.y), abs=1e-9)


def test_cylinder_reduction_interior_identity():
    G = gr.cylinder_group(2.0)
    z = HPoint(0.3, 1.2)
    red, gamma = gr.reduce_to_domain(z, G)
    assert (red.x, red.y) == (z.x, z.y)
    assert gamma.matrix() == pytest.approx(np.eye(2))


def test_cylinder_has_one_fundamental_domain():
    # reduce_to_domain and reduce_frame both land in e^{-l/2} <= |z| <= e^{l/2}
    G, z = gr.cylinder_group(2.0), HPoint(0.1, 0.5)
    red, _ = gr.reduce_to_domain(z, G)
    assert abs(complex(red.x, red.y)) == pytest.approx(0.5099, abs=1e-4)
    sq = math.sqrt(z.y)
    a, b, c, d = G.reduce_frame(sq, z.x / sq, 0.0, 1.0 / sq)
    den = c * c + d * d
    assert abs(complex((a * c + b * d) / den, 1.0 / den)) == pytest.approx(0.5099, abs=1e-4)


# --- octagon group ---


def test_octagon_relator_is_identity():
    G = gr.octagon_group()
    assert np.abs(gr.octagon_relator(G) - np.eye(2)).max() < 1e-8


def test_octagon_area_gauss_bonnet():
    G = gr.octagon_group()
    assert gr.octagon_area(G) == pytest.approx(4 * math.pi, abs=1e-6)


def test_octagon_side_pairing_endpoints():
    G = gr.octagon_group()
    assert gr.side_pairing_error(G) < 1e-8


def test_octagon_generators_unit_det():
    G = gr.octagon_group()
    for g in G.generators:
        assert g.det() == pytest.approx(1.0, abs=1e-12)


def test_octagon_reduction_roundtrip():
    G = gr.octagon_group()
    rng = np.random.default_rng(7)
    for _ in range(30):
        # random point within hyperbolic distance 5 of the center i
        d = rng.uniform(0, 5.0)
        th = rng.uniform(0, 2 * math.pi)
        w = math.tanh(d / 2) * np.exp(1j * th)  # disk model
        zc = 1j * (1 + w) / (1 - w)
        z = HPoint(zc.real, zc.imag)
        red, gamma = gr.reduce_to_domain(z, G)
        back = mobius_apply(gamma, red)
        assert (back.x, back.y) == pytest.approx((z.x, z.y), abs=1e-9)
        # Dirichlet property: no single move improves the distance
        dist = hyperbolic_distance(red, HPoint(0.0, 1.0))
        for mv in list(G.generators) + list(G.inverses):
            assert hyperbolic_distance(mobius_apply(mv, red),
                                       HPoint(0.0, 1.0)) >= dist - 1e-12


def test_octagon_reduction_idempotent():
    G = gr.octagon_group()
    z = HPoint(1.7, 0.4)
    red, _ = gr.reduce_to_domain(z, G)
    red2, gamma2 = gr.reduce_to_domain(red, G)
    assert (red2.x, red2.y) == pytest.approx((red.x, red.y), abs=1e-12)
    assert gamma2.matrix() == pytest.approx(np.eye(2))


def test_octagon_greedy_steps_decrease_distance():
    G = gr.octagon_group()
    z = HPoint(2.5, 0.2)
    moves = list(G.generators) + list(G.inverses)
    cur = z
    dist = hyperbolic_distance(cur, HPoint(0.0, 1.0))
    for _ in range(200):
        cands = [(hyperbolic_distance(mobius_apply(mv, cur), HPoint(0.0, 1.0)),
                  mobius_apply(mv, cur)) for mv in moves]
        d, nxt = min(cands, key=lambda t: t[0])
        if d >= dist - 1e-13:
            break
        assert d < dist
        dist, cur = d, nxt
    red, _ = gr.reduce_to_domain(z, G)
    assert hyperbolic_distance(red, HPoint(0.0, 1.0)) == pytest.approx(dist, abs=1e-10)


def _ungated_reduce(moves, a, b, c, d):
    """Frozen 8-move greedy sweep on the frame norm, with no gate."""
    cur, threshold = a * a + b * b + c * c + d * d, gr.octagon_group().reduce_threshold
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


def _frame_at(w, phi):
    """Unit-determinant frame over the half-plane image of disk point w."""
    z = 1j * (1 + w) / (1 - w)
    sq = math.sqrt(z.imag)
    c, s = math.cos(phi), math.sin(phi)
    t = np.array([[sq, z.real / sq], [0.0, 1.0 / sq]])
    return tuple(float(v) for v in (t @ np.array([[c, s], [-s, c]])).ravel())


def test_gated_reduction_equals_ungated_sweep():
    G = gr.octagon_group()
    rng = np.random.default_rng(5)
    apothem = math.tanh(math.acosh(1.0 + math.sqrt(2.0)) / 2)
    frames = []
    for _ in range(2000):  # within distance 5 of the center
        w = math.tanh(rng.uniform(0, 5.0) / 2) * np.exp(2j * math.pi * rng.random())
        frames.append(_frame_at(w, rng.uniform(0, 2 * math.pi)))
    for k in range(8):
        mid = np.exp(1j * k * math.pi / 4)
        for _ in range(100):  # along side k, within 1e-12 of it
            t = rng.uniform(-0.4, 0.4)
            # side k is the geodesic through apothem * mid orthogonal to mid
            m = (apothem + 1j * t) / (1 + 1j * t * apothem)
            w = (m + rng.uniform(-1e-12, 1e-12)) * mid
            frames.append(_frame_at(w, rng.uniform(0, 2 * math.pi)))
    for v in G.vertices:  # the vertices and their 1e-12 neighbourhoods
        w = (v - 1j) / (v + 1j)
        for eps in (0.0, 1e-12, -1e-12, 1e-12j, -1e-12j):
            frames.append(_frame_at(w + eps, rng.uniform(0, 2 * math.pi)))
    used = []
    for f in frames:
        assert G.reduce_frame(*f, used) == _ungated_reduce(G.moves, *f)
    assert len(used) > 1000  # the sweeps moved frames


def test_octagon_reduction_gamma_from_moves():
    # reduce_to_domain composes the inverses of the moves it applied
    G = gr.octagon_group()
    rng = np.random.default_rng(8)
    for _ in range(300):
        d = rng.uniform(0, 5.0)
        w = math.tanh(d / 2) * np.exp(2j * math.pi * rng.random())
        zc = 1j * (1 + w) / (1 - w)
        z = HPoint(zc.real, zc.imag)
        red, gamma = gr.reduce_to_domain(z, G)
        back = mobius_apply(gamma, red)
        assert abs(back.as_complex() - zc) < 1e-12 * max(1.0, abs(zc))
        assert hyperbolic_distance(red, HPoint(0.0, 1.0)) <= math.acosh(3 + 2 * math.sqrt(2)) + 1e-9
