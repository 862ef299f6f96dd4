"""The admissible window of `hyperlab.base`: each check on its own, edges
included, and each public entry point that calls one."""

import math
import re

import numpy as np
import pytest

from hyperlab import base
from hyperlab import cli
from hyperlab import ergodic as E
from hyperlab import geometry as G
from hyperlab import quantize as qz
from hyperlab import transport as tr
from hyperlab import waves as W
from hyperlab.quantize import WaveCoeffs

NAN, INF = math.nan, math.inf
HALF_PI = np.pi / 2
ABOVE_HALF = np.nextafter(0.5, 1.0)
BELOW_HALF = np.nextafter(0.5, 0.0)

CHECKS = {
    # check: (accepted, rejected, a text of the message)
    base.check_field: ([0.0, -0.0, 0.5, 1e300, np.array([0.0, 2.5])],
                       [-1.0, -1e-300, NAN, INF, -INF, np.array([0.5, NAN])],
                       "need finite B >= 0"),
    base.check_scale: ([1e-300, 1.0, 400.0],
                       [0.0, -0.0, -1.0, NAN, INF],
                       "need finite s > 0"),
    base.check_angle: ([0.0, np.nextafter(HALF_PI, 0.0), -np.nextafter(HALF_PI, 0.0),
                        np.linspace(-1.5, 1.5, 7)],
                       [HALF_PI, -HALF_PI, 2.0, NAN, INF, np.array([0.0, HALF_PI])],
                       "pi/2"),
    base.check_band: ([0.5, -0.5, 0.0, np.array([-0.5, 0.2, 0.5])],
                      [ABOVE_HALF, -ABOVE_HALF, 1.0, NAN, np.array([0.2, ABOVE_HALF])],
                      "s/2"),
    base.check_window: ([np.nextafter(1.0, 0.0), -np.nextafter(1.0, 0.0), 0.5, ABOVE_HALF,
                         np.array([-0.9, 0.9])],
                        [1.0, -1.0, 1.5, NAN, INF, np.array([0.2, 1.0])],
                        "|mtilde| < 1"),
    base.check_centre: ([0.0, BELOW_HALF, -BELOW_HALF, 0.2],
                        [0.5, -0.5, ABOVE_HALF, NAN, INF],
                        "|eta0| < 1/2"),
    base.check_degree: ([0, 3, np.int64(2)],
                        [-1, 2.5, 2.0, NAN, INF, "2"],
                        "tau"),
    base.check_length: ([0.0, -0.0, 1e-300, 1e4, 1e300, np.array([0.0, 10.0])],
                        [-1.0, -1e-300, NAN, INF, -INF, np.array([10.0, NAN])],
                        "need finite lengths >= 0"),
}


@pytest.mark.parametrize("check, value", [
    (check, value) for check, (ok, _, _) in CHECKS.items() for value in ok],
    ids=lambda x: getattr(x, "__name__", None))
def test_each_check_accepts_its_domain(check, value):
    assert check(value) is None


@pytest.mark.parametrize("check, value", [
    (check, value) for check, (_, bad, _) in CHECKS.items() for value in bad],
    ids=lambda x: getattr(x, "__name__", None))
def test_each_check_rejects_outside_its_domain(check, value):
    with pytest.raises(ValueError, match=re.escape(CHECKS[check][2])):
        check(value)


def test_in_band_is_the_mask_check_band_tests():
    mt = np.array([-ABOVE_HALF, -0.5, 0.0, 0.5, ABOVE_HALF, NAN])
    assert base.in_band(mt).tolist() == [False, True, True, True, False, False]


@pytest.mark.parametrize("m, s", [(50.0, 100.0), (12.5, 25.0), (-0.5, 1.0),
                                  (np.nextafter(50.0, 100.0), 100.0)])
def test_the_band_of_m_over_s_is_the_band_of_m_against_half_s(m, s):
    # m/s rounds across 1/2 exactly where m crosses s/2
    assert bool(base.in_band(m / s)) == (abs(m) <= s / 2)


@pytest.mark.parametrize("B, s, n", [(0.5, 100.0, 50), (0.0, 100.0, 0), (0.999, 10.0, 9),
                                     (8.0, 25.0, 200), (0.29, 100.0, 28), (1e-3, 100.0, 0)])
def test_reached_degree_is_the_floor_of_B_s(B, s, n):
    # 0.29 * 100 rounds to 28.999999999999996: the floor of the float product, as always
    got = base.reached_degree(B, s)
    assert got == (n, n / s) and type(got[0]) is int


@pytest.mark.parametrize("B, s, text", [(-0.5, 100.0, "B >= 0"), (NAN, 100.0, "B >= 0"),
                                        (INF, 100.0, "B >= 0"), (0.5, 0.0, "s > 0"),
                                        (0.5, NAN, "s > 0"), (0.5, -100.0, "s > 0")])
def test_reached_degree_checks_field_and_scale(B, s, text):
    with pytest.raises(ValueError, match=text):
        base.reached_degree(B, s)


# --- every public entry point that calls a check ---

L = 2 * math.pi
UNIT = G.TangentVec(G.HPoint(0.2, 1.5), 0.0, 1.5)
DOUBLE = G.TangentVec(G.HPoint(0.2, 1.5), 0.0, 3.0)
GRID = np.linspace(-0.5, 0.5, 5)
U20 = WaveCoeffs(L, [20.0], [1.0])
U60 = WaveCoeffs(L, [20.0, 60.0], [1.0, 1.0])
OBS = qz.Observable(eta0=0.2)
P = G.CotangentPt(G.HPoint(0.2, 1.5), 0.3, -0.1)
OFFSETS = [tr.b4, tr.b7, tr.db4_deta, tr.wave_norm_shift]


def _cli_config(*argv):
    """The run config that `cli.main` hands a subcommand for this command line."""
    return cli.build_parser().parse_args(argv)


ENTRY_POINTS = [
    # (id, call, the last frames of the traceback: the entry point down to the check)
    ("flow_hamiltonian-field", lambda: G.flow_hamiltonian(P, -1.0, 1.0),
     ("flow_hamiltonian", "check_field")),
    ("hypercyclic_flow-field", lambda: G.hypercyclic_flow(UNIT, -1.0, 0.5),
     ("hypercyclic_flow", "check_field")),
    ("hypercyclic_flow-speed", lambda: G.hypercyclic_flow(UNIT, 1.0, 0.5),
     ("hypercyclic_flow", "check_speed")),
    ("horocyclic_flow-speed", lambda: G.horocyclic_flow(DOUBLE, 0.5),
     ("horocyclic_flow", "check_speed")),
    ("transport_T_B-field", lambda: G.transport_T_B(UNIT, -1.0),
     ("transport_T_B", "check_field")),
    ("transport_T_B-speed", lambda: G.transport_T_B(DOUBLE, 0.5),
     ("transport_T_B", "check_speed")),
    ("CylPoint-angle", lambda: G.CylPoint(2.0, 0.0), ("__post_init__", "check_angle")),
    ("sample_orbit-field", lambda: E.sample_orbit(UNIT, "horocyclic", 1.0, B=-1.0),
     ("sample_orbit", "check_field")),
    ("sample_orbit-length", lambda: E.sample_orbit(UNIT, "horocyclic", NAN),
     ("sample_orbit", "check_length")),
    ("equidistribution_series-length",
     lambda: E.equidistribution_series("horocyclic", UNIT, [10.0, -1.0]),
     ("equidistribution_series", "check_length")),
    ("equidistribution_series-field",
     lambda: E.equidistribution_series("horocyclic", UNIT, [10.0], B=-1.0),
     ("equidistribution_series", "check_field")),
    ("tb_shift_check-length", lambda: E.tb_shift_check(UNIT, 0.5, INF),
     ("tb_shift_check", "check_length")),
    ("tb_shift_check-field", lambda: E.tb_shift_check(UNIT, -1.0, 1.0),
     ("tb_shift_check", "transport_T_B", "check_field")),
    ("tb_shift_check-speed", lambda: E.tb_shift_check(DOUBLE, 0.5, 1.0),
     ("tb_shift_check", "transport_T_B", "check_speed")),
    ("phase_P-window", lambda: tr.phase_P(0.5, 1.0, 0.3), ("phase_P", "check_window")),
    ("phase_P-angle", lambda: tr.phase_P(0.5, 0.2, 2.0), ("phase_P", "check_angle")),
    *[(f"{fn.__name__}-field", lambda fn=fn: fn(-0.5, 0.2), (fn.__name__, "check_field"))
      for fn in OFFSETS],
    *[(f"{fn.__name__}-window", lambda fn=fn: fn(0.5, 1.0), (fn.__name__, "check_window"))
      for fn in OFFSETS],
    ("PhaseTable-field", lambda: tr.PhaseTable(-0.5, 0.2),
     ("__post_init__", "b4", "check_field")),
    ("G_map-field", lambda: tr.G_map(-0.5, (0.1, 0.0, 0.2)),
     ("G_map", "_check_point", "check_field")),
    ("G_map-angle", lambda: tr.G_map(0.5, (2.0, 0.0, 0.2)),
     ("G_map", "_check_point", "check_angle")),
    ("A_density-centre", lambda: tr.A_density(0.0, (0.1, 0.0, 0.6)),
     ("A_density", "_check_point", "check_centre")),
    ("solve_waves-field", lambda: W.solve_waves(-0.5, 0.2, 100.0, 1.0, 0.0, GRID),
     ("solve_waves", "check_field")),
    ("solve_waves-scale", lambda: W.solve_waves(0.5, 0.2, 0.0, 1.0, 0.0, GRID),
     ("solve_waves", "check_scale")),
    ("solve_waves-band", lambda: W.solve_waves(0.5, 0.6, 100.0, 1.0, 0.0, GRID),
     ("solve_waves", "check_band")),
    ("solve_waves-angle", lambda: W.solve_waves(0.5, 0.2, 100.0, 1.0, 0.0, [0.0, 2.0]),
     ("solve_waves", "check_angle")),
    ("ascend-field", lambda: W.ascend(20.0, 100.0, -0.5, GRID),
     ("ascend", "reached_degree", "check_field")),
    ("ascend-scale", lambda: W.ascend(20.0, NAN, 0.5, GRID),
     ("ascend", "reached_degree", "check_scale")),
    ("ascend-band", lambda: W.ascend(60.0, 100.0, 0.5, GRID), ("ascend", "check_band")),
    ("WhittakerParams-degree", lambda: W.WhittakerParams(2.5, 25.0, 0.5),
     ("__post_init__", "check_degree")),
    ("ascension_norm-degree", lambda: W.ascension_norm(2.5, 50.0),
     ("ascension_norm", "check_degree")),
    ("quad_form-field", lambda: qz.quad_form(U20, OBS, -0.5, 100.0),
     ("quad_form", "reached_degree", "check_field")),
    ("quad_form-scale", lambda: qz.quad_form(U20, OBS, 0.5, 0.0),
     ("quad_form", "reached_degree", "check_scale")),
    ("quad_form-band", lambda: qz.quad_form(U60, OBS, 0.5, 100.0),
     ("quad_form", "check_band")),
    ("geodesic_packet-scale", lambda: qz.geodesic_packet(0.0, 0.2, 5, L),
     ("geodesic_packet", "check_scale")),
    ("geodesic_packet-centre", lambda: qz.geodesic_packet(100.0, 0.5, 5, L),
     ("geodesic_packet", "check_centre")),
    ("ascend_coeffs-field", lambda: qz.ascend_coeffs(U20, 100.0, -0.5),
     ("ascend_coeffs", "reached_degree", "check_field")),
    ("ascend_coeffs-scale", lambda: qz.ascend_coeffs(U20, 0.0, 0.5),
     ("ascend_coeffs", "reached_degree", "check_scale")),
    ("ascend_coeffs-band", lambda: qz.ascend_coeffs(U60, 100.0, 0.5),
     ("ascend_coeffs", "check_band")),
    ("energy_shell_test-field", lambda: qz.energy_shell_test(U20, 100.0, -0.5, np.ones_like),
     ("energy_shell_test", "check_field")),
    ("energy_shell_test-scale", lambda: qz.energy_shell_test(U20, 0.0, 0.0, np.ones_like),
     ("energy_shell_test", "check_scale")),
    ("packet_position_density-scale",
     lambda: qz.packet_position_density(U20, 0.0, np.zeros(3), np.zeros(2)),
     ("packet_position_density", "check_scale")),
    ("limit_geodesic_sigma-window", lambda: qz.limit_geodesic_sigma(1.0, 0.0, [0.1]),
     ("limit_geodesic_sigma", "check_window")),
    ("limit_geodesic_sigma-angle", lambda: qz.limit_geodesic_sigma(0.2, 0.0, [2.0]),
     ("limit_geodesic_sigma", "check_angle")),
    ("cmd_flows-field", lambda: cli.cmd_flows(_cli_config("flows", "--B", "nan")),
     ("cmd_flows", "check_field")),
    ("cmd_flows-degree", lambda: cli.cmd_flows(_cli_config("flows", "--tau-max", "-1")),
     ("cmd_flows", "check_degree")),
    ("cmd_whittaker-degree",
     lambda: cli.cmd_whittaker(_cli_config("whittaker", "--tau-max", "-1")),
     ("cmd_whittaker", "check_degree")),
]


@pytest.mark.parametrize("call, frames", [row[1:] for row in ENTRY_POINTS],
                         ids=[row[0] for row in ENTRY_POINTS])
def test_each_entry_point_calls_its_check_itself(call, frames):
    # the check raises, called straight from the entry point: a deleted call would
    # leave the input to a later check, or to none
    with pytest.raises(ValueError) as exc:
        call()
    assert tuple(entry.name for entry in exc.traceback[-len(frames):]) == frames
