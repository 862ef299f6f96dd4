import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlab import geometry as G

finite = dict(allow_nan=False, allow_infinity=False)
coords = st.floats(min_value=-3, max_value=3, **finite)
ys = st.floats(min_value=0.1, max_value=5, **finite)
angles = st.floats(min_value=-np.pi, max_value=np.pi, **finite)
fields = st.floats(min_value=0, max_value=3, **finite)


def random_mobius(rng):
    while True:
        m = rng.standard_normal((2, 2))
        if m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] > 0.05:
            return G.mobius_from_matrix(m)


def vec_at(x, y, theta, speed):
    return G.TangentVec(G.HPoint(x, y), speed * y * np.cos(theta), speed * y * np.sin(theta))


# --- Mobius maps ---

def test_mobius_identity():
    z = G.mobius_apply(G.MobiusMap(1, 0, 0, 1), G.HPoint(0, 1))
    assert (z.x, z.y) == (0, 1)


def test_mobius_translation():
    z = G.mobius_apply(G.MobiusMap(1, 1, 0, 1), G.HPoint(0, 1))
    assert z.x == pytest.approx(1) and z.y == pytest.approx(1)


def test_mobius_inversion_fixes_i():
    z = G.mobius_apply(G.MobiusMap(0, -1, 1, 0), G.HPoint(0, 1))
    assert z.x == pytest.approx(0, abs=1e-15) and z.y == pytest.approx(1)


def test_mobius_degenerate_rejected():
    with pytest.raises(ValueError):
        G.mobius_apply(G.MobiusMap(2, 0, 0, 1), G.HPoint(0, 1))


@given(coords, ys, st.integers(0, 10**6))
@settings(deadline=None)
def test_mobius_preserves_halfplane(x, y, seed):
    m = random_mobius(np.random.default_rng(seed))
    assert G.mobius_apply(m, G.HPoint(x, y)).y > 0


# --- distance ---

def test_distance_vertical():
    assert G.hyperbolic_distance(G.HPoint(0, 1), G.HPoint(0, np.e)) == pytest.approx(1)


def test_distance_zero():
    assert G.hyperbolic_distance(G.HPoint(0, 1), G.HPoint(0, 1)) == 0


def test_distance_horizontal_closed_form():
    # arcosh(1 + |z1-z2|^2 / (2 y1 y2)) for (0,1)-(1,1)
    assert G.hyperbolic_distance(G.HPoint(0, 1), G.HPoint(1, 1)) == pytest.approx(np.arccosh(1.5))


@given(coords, ys, coords, ys, st.integers(0, 10**6))
@settings(deadline=None)
def test_distance_isometry_invariant(x1, y1, x2, y2, seed):
    m = random_mobius(np.random.default_rng(seed))
    z1, z2 = G.HPoint(x1, y1), G.HPoint(x2, y2)
    d0 = G.hyperbolic_distance(z1, z2)
    d1 = G.hyperbolic_distance(G.mobius_apply(m, z1), G.mobius_apply(m, z2))
    assert d1 == pytest.approx(d0, abs=1e-10)


@given(coords, ys, coords, ys)
@settings(max_examples=100, deadline=None)
def test_distance_symmetric(x1, y1, x2, y2):
    z1, z2 = G.HPoint(x1, y1), G.HPoint(x2, y2)
    assert G.hyperbolic_distance(z1, z2) == pytest.approx(G.hyperbolic_distance(z2, z1))


# --- rotate / scale ---

@given(coords, ys, angles)
@settings(max_examples=100, deadline=None)
def test_rotate_identity_and_inverse(x, y, theta):
    v = vec_at(x, y, theta, 1.0)
    r0 = G.rotate(v, 0.0)
    assert (r0.vx, r0.vy) == (v.vx, v.vy)
    w = G.rotate(G.rotate(v, np.pi / 2), -np.pi / 2)
    assert w.vx == pytest.approx(v.vx, abs=1e-12) and w.vy == pytest.approx(v.vy, abs=1e-12)


@given(coords, ys, angles, angles)
@settings(max_examples=100, deadline=None)
def test_rotate_preserves_speed(x, y, theta, phi):
    v = vec_at(x, y, theta, 1.3)
    assert G.rotate(v, phi).speed() == pytest.approx(v.speed())


def test_scale_doubles_speed():
    v = vec_at(0.3, 2.0, 0.7, 1.0)
    assert G.scale(v, 2.0).speed() == pytest.approx(2.0)


# --- phi_B / Hamiltonian ---

def test_phi_0_example():
    v = G.phi_B(G.CotangentPt(G.HPoint(0, 1), 1, 0), 0.0)
    assert (v.vx, v.vy) == (1, 0)


def test_phi_1_kills_momentum():
    v = G.phi_B(G.CotangentPt(G.HPoint(0, 1), 1, 0), 1.0)
    assert v.vx == 0 and v.vy == 0


@given(coords, ys, coords, coords, st.floats(min_value=-2, max_value=2, **finite))
@settings(deadline=None)
def test_phi_B_roundtrip_and_energy_level(x, y, xi1, xi2, B):
    p = G.CotangentPt(G.HPoint(x, y), xi1, xi2)
    v = G.phi_B(p, B)
    q = G.phi_B_inv(v, B)
    assert q.xi1 == pytest.approx(xi1, abs=1e-10) and q.xi2 == pytest.approx(xi2, abs=1e-10)
    assert v.speed() == pytest.approx(np.sqrt(2 * G.hamiltonian(p, B)), abs=1e-12)


def test_hamiltonian_values():
    assert G.hamiltonian(G.CotangentPt(G.HPoint(0, 1), 1, 0), 1.0) == 0
    assert G.hamiltonian(G.CotangentPt(G.HPoint(0, 1), 1, 0), 0.0) == 0.5
    assert G.hamiltonian(G.CotangentPt(G.HPoint(0, 1), 2, 0), 1.0) == 0.5


# --- Hamiltonian flow ---

def test_flow_hamiltonian_t0():
    p = G.CotangentPt(G.HPoint(0.2, 1.5), 0.3, -0.1)
    assert G.flow_hamiltonian(p, 1.0, 0.0) is p


def test_flow_hamiltonian_vertical_geodesic():
    p = G.phi_B_inv(G.TangentVec(G.HPoint(0, 1), 0, 1), 0.0)
    q = G.flow_hamiltonian(p, 0.0, 1.0)
    v = G.phi_B(q, 0.0)
    assert v.base.x == pytest.approx(0, abs=1e-9)
    assert v.base.y == pytest.approx(np.e, abs=1e-9)
    assert v.vx == pytest.approx(0, abs=1e-9)
    assert v.vy == pytest.approx(np.e, abs=1e-9)


def test_flow_hamiltonian_energy_drift():
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y = rng.uniform(-1, 1), rng.uniform(0.5, 2)
        p = G.CotangentPt(G.HPoint(x, y), rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = G.flow_hamiltonian(p, 1.0, 10.0)
        assert abs(G.hamiltonian(q, 1.0) - G.hamiltonian(p, 1.0)) < 1e-9


@pytest.mark.parametrize("B, sign", [(0.0, 1), (1.0, 1), (2.0, -1)])
def test_flow_hamiltonian_array_matches_scalar_calls(B, sign):
    # one integration with dense output serves every time of the array
    p = G.phi_B_inv(G.scale(G.TangentVec(G.HPoint(0.3, 1.2), 0.72, 0.96),
                            np.sqrt(B * B + 1)), B)
    ts = sign * np.linspace(0.0, 5.0, 101)
    qs = G.flow_hamiltonian(p, B, ts)
    assert len(qs) == len(ts) and qs[0] is p
    for t, q in zip(ts, qs):
        r = G.flow_hamiltonian(p, B, float(t))
        assert abs(q.base.as_complex() - r.base.as_complex()) < 1e-10
        for a, b in ((q.xi1, r.xi1), (q.xi2, r.xi2)):  # y -> 0 grows xi
            assert abs(a - b) < 1e-10 * max(1.0, abs(b))


@pytest.mark.parametrize("ts", [[1.0, 0.5], [-1.0, 1.0], [0.0, np.nan],
                                [[1.0]]])
def test_flow_hamiltonian_rejects_bad_times(ts):
    p = G.CotangentPt(G.HPoint(0.2, 1.5), 0.3, -0.1)
    with pytest.raises(ValueError):
        G.flow_hamiltonian(p, 1.0, np.array(ts))


@pytest.mark.parametrize("B", [np.nan, np.inf, -1.0])
def test_flow_hamiltonian_rejects_non_finite_or_negative_field(B):
    # nan used to hang in DOP853, inf warned before failing, and -1
    # integrated the reversed field that hypercyclic_flow rejects
    p = G.CotangentPt(G.HPoint(0.2, 1.5), 0.3, -0.1)
    with pytest.raises(ValueError, match="need finite B >= 0"):
        G.flow_hamiltonian(p, B, np.array([0.5, 1.0]))


# --- closed-form flows ---

def test_geodesic_flow_vertical():
    v = G.geodesic_flow(G.TangentVec(G.HPoint(0, 1), 0, 1), 1.0)
    assert v.base.x == pytest.approx(0, abs=1e-12)
    assert v.base.y == pytest.approx(np.e)
    assert v.vx == pytest.approx(0, abs=1e-12) and v.vy == pytest.approx(np.e)


def test_horocyclic_printed_curve():
    v0 = G.TangentVec(G.HPoint(0, 1), -1, 0)
    for t in [0.5, 1.0, 3.0, -2.0]:
        v = G.horocyclic_flow(v0, t)
        assert v.base.x == pytest.approx(-t, abs=1e-12)
        assert v.base.y == pytest.approx(1, abs=1e-12)
        assert v.vx == pytest.approx(-1, abs=1e-12)
        assert v.vy == pytest.approx(0, abs=1e-12)


def test_hypercyclic_model_curve():
    # exponential-ray orbit through its own tangent at t=0
    B = 0.7
    sq = np.sqrt(B * B + 1)
    v0 = G.TangentVec(G.HPoint(-B / sq, 1 / sq), -B / sq, 1 / sq)
    for t in [0.3, 1.0, 2.5]:
        v = G.hypercyclic_flow(v0, B, t)
        assert v.base.x == pytest.approx(-B / sq * np.exp(t), rel=1e-10)
        assert v.base.y == pytest.approx(1 / sq * np.exp(t), rel=1e-10)
        assert v.vx == pytest.approx(-B / sq * np.exp(t), rel=1e-10)
        assert v.vy == pytest.approx(1 / sq * np.exp(t), rel=1e-10)


@pytest.mark.parametrize("B", [np.nan, np.inf, -1.0])
def test_hypercyclic_rejects_non_finite_or_negative_field(B):
    with pytest.raises(ValueError):
        G.hypercyclic_flow(G.TangentVec(G.HPoint(0, 1), 0, 1), B, 0.5)


def test_hypercyclic_speed_level_enforced():
    with pytest.raises(ValueError):
        G.hypercyclic_flow(G.TangentVec(G.HPoint(0, 1), 0, 1), 2.0, 0.5)
    with pytest.raises(ValueError):
        G.horocyclic_flow(G.TangentVec(G.HPoint(0, 1), 0, 2), 0.5)


# --- the flow-generator table ---

@pytest.mark.parametrize("t", [-2.5, 0.0, 0.37, 4.0])
def test_closed_form_flows_read_the_generator_table(t):
    v = vec_at(0.2, 1.3, 0.9, 1.0)
    for kind, B, flow in [("geodesic", 0.0, lambda: G.geodesic_flow(v, t)),
                          ("horocyclic", 0.0, lambda: G.horocyclic_flow(v, t)),
                          ("hypercyclic", 0.7, lambda: G.hypercyclic_flow(
                              G.scale(v, np.sqrt(1.49)), 0.7, t))]:
        speed = np.sqrt(B * B + 1)
        ref = G.vec_of_frame(G.frame_of(v) @ G.flow_step(kind, B, t), speed)
        got = flow()
        assert (got.base, got.vx, got.vy) == (ref.base, ref.vx, ref.vy)


def test_hypercyclic_step_tends_to_horocyclic_step():
    # X_B = B N + X_geo/(B + sqrt(B^2+1)): at time 1/B the error is O(1/B^2)
    horo = G.flow_step("horocyclic", 0.0, 1.0)
    errs = [np.abs(G.flow_step("hypercyclic", B, 1.0 / B) - horo).max()
            for B in (1e1, 1e2, 1e3, 1e4)]
    assert errs[0] == pytest.approx(3.95e-3, rel=1e-2)
    assert all(e1 >= 90.0 * e2 for e1, e2 in zip(errs, errs[1:]))


@pytest.mark.parametrize("call", [
    lambda v: G.geodesic_flow(v, np.nan),
    lambda v: G.hypercyclic_flow(G.scale(v, np.sqrt(1.25)), 0.5, np.inf),
    lambda v: G.hypercyclic_flow(G.scale(v, np.sqrt(2.0)), 1.0, 2000.0),
    lambda v: G.hypercyclic_flow(G.scale(v, np.sqrt(26.0)), 5.0, 1419.0),
    lambda v: G.geodesic_flow(v, -3000.0)])
def test_flow_times_fail_loudly_in_the_table(call):
    # nan and inf used to die on "point must lie in the upper half-plane";
    # math.cosh(1000) raises OverflowError, which the CLI does not catch, and
    # at t = 1419 sinh stays finite while the element overflows to inf
    with pytest.raises(ValueError, match="t="):
        call(vec_at(0.2, 1.3, 0.9, 1.0))


@given(coords, ys, angles, fields,
       st.floats(min_value=-3, max_value=3, **finite),
       st.floats(min_value=-3, max_value=3, **finite))
@settings(max_examples=150, deadline=None)
def test_flow_group_law(x, y, theta, B, t, s):
    sq = np.sqrt(B * B + 1)
    v = vec_at(x, y, theta, sq)
    a = G.hypercyclic_flow(G.hypercyclic_flow(v, B, t), B, s)
    b = G.hypercyclic_flow(v, B, t + s)
    assert abs(a.base.as_complex() - b.base.as_complex()) < 1e-9 * max(1, abs(b.base.as_complex()))
    u = vec_at(x, y, theta, 1.0)
    a = G.horocyclic_flow(G.horocyclic_flow(u, t), s)
    b = G.horocyclic_flow(u, t + s)
    assert abs(a.base.as_complex() - b.base.as_complex()) < 1e-9 * max(1, abs(b.base.as_complex()))
    a = G.geodesic_flow(G.geodesic_flow(u, t), s)
    b = G.geodesic_flow(u, t + s)
    assert abs(a.base.as_complex() - b.base.as_complex()) < 1e-9 * max(1, abs(b.base.as_complex()))


@given(coords, ys, angles, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
       st.floats(min_value=0, max_value=5, **finite))
@settings(max_examples=60, deadline=None)
def test_conjugacy_hamiltonian_vs_hypercyclic(x, y, theta, B, t):
    sq = np.sqrt(B * B + 1)
    v = vec_at(x, y, theta, sq)
    w = G.phi_B(G.flow_hamiltonian(G.phi_B_inv(v, B), B, t), B)
    u = G.hypercyclic_flow(v, B, t)
    assert G.hyperbolic_distance(w.base, u.base) < 1e-6
    assert abs(w.as_complex() - u.as_complex()) < 1e-6 * max(1.0, abs(u.as_complex()))


@given(coords, ys, angles, st.floats(min_value=0, max_value=5, **finite))
@settings(max_examples=40, deadline=None)
def test_conjugacy_hamiltonian_vs_horocyclic(x, y, theta, t):
    v = vec_at(x, y, theta, 1.0)
    w = G.phi_B(G.flow_hamiltonian(G.phi_B_inv(v, 1.0), 1.0, t), 1.0)
    u = G.horocyclic_flow(v, t)
    assert G.hyperbolic_distance(w.base, u.base) < 1e-6
    assert abs(w.as_complex() - u.as_complex()) < 1e-6 * max(1.0, abs(u.as_complex()))


# --- transport map ---

def test_transport_B0_identity():
    v = vec_at(0.4, 1.7, 1.1, 1.0)
    w = G.transport_T_B(v, 0.0)
    assert abs(w.base.as_complex() - v.base.as_complex()) < 1e-12
    assert abs(w.as_complex() - v.as_complex()) < 1e-12


def test_transport_scaling():
    v = vec_at(0, 1, 0.3, 1.0)
    assert G.transport_T_B(v, 2.0).speed() == pytest.approx(np.sqrt(5))


def test_transport_rejects_non_unit():
    with pytest.raises(ValueError):
        G.transport_T_B(vec_at(0, 1, 0.0, 2.0), 1.0)


def _signed_curvature(zs, h):
    """Finite-difference signed geodesic curvature at the middle of three samples."""
    zm, z0, zp = zs
    xd, yd = (zp.real - zm.real) / (2 * h), (zp.imag - zm.imag) / (2 * h)
    xdd, ydd = (zp.real - 2 * z0.real + zm.real) / h**2, (zp.imag - 2 * z0.imag + zm.imag) / h**2
    y = z0.imag
    ax = xdd - 2 * xd * yd / y
    ay = ydd + (xd * xd - yd * yd) / y
    num = (-yd * ax + xd * ay) / y**2
    sp2 = (xd * xd + yd * yd) / y**2
    return num / sp2**1.5


def test_transport_image_curvature():
    B = 1.3
    v0 = vec_at(0.2, 1.4, 0.8, 1.0)
    h = 1e-4
    for t in [0.0, 0.7, 2.0]:
        zs = [G.transport_T_B(G.geodesic_flow(v0, t + dt), B).base.as_complex()
              for dt in (-h, 0.0, h)]
        kappa = _signed_curvature(zs, h)
        assert abs(kappa) == pytest.approx(B / np.sqrt(B * B + 1), abs=1e-6)


# --- cylinder coordinates ---

def test_cyl_basic_points():
    z = G.cyl_to_halfplane(G.CylPoint(0.0, 0.0))
    assert z.x == pytest.approx(0) and z.y == pytest.approx(1)
    z = G.cyl_to_halfplane(G.CylPoint(0.0, 1.0))
    assert z.x == pytest.approx(0) and z.y == pytest.approx(np.e)


def test_cyl_beta_range_enforced():
    with pytest.raises(ValueError):
        G.CylPoint(np.pi / 2, 0.0)


@given(st.floats(min_value=-1.5, max_value=1.5, **finite),
       st.floats(min_value=-2, max_value=2, **finite))
@settings(deadline=None)
def test_cyl_roundtrip(beta, sigma):
    c = G.CylPoint(beta, sigma)
    back = G.halfplane_to_cyl(G.cyl_to_halfplane(c))
    assert back.beta == pytest.approx(beta, abs=1e-12)
    assert back.sigma == pytest.approx(sigma, abs=1e-12)
