"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hyperlab.geometry  # noqa: E402
import hyperlab.quantize  # noqa: E402
import hyperlab.transport  # noqa: E402
import hyperlab.waves  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402
from workloads import DEFAULT_SEED, compare  # noqa: E402


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "work": 0, "key": None}


def test_self_time_subtracts_direct_children_only():
    spans = [_span(2, 1, "b", 1.0, 4.0), _span(4, 3, "d", 6.0, 7.0),
             _span(3, 1, "c", 5.0, 9.0), _span(1, 0, "a", 0.0, 10.0)]
    assert self_times(spans) == {1: 3.0, 2: 3.0, 3: 3.0, 4: 1.0}


def test_layer_metrics_present_with_zero_counts_for_unused_layers():
    spans = [_span(1, 0, "bench.pass", 0.0, 2.0),
             _span(2, 1, "ergodic.sample_orbit", 0.5, 1.5)]
    spans[1]["work"] = 100
    m = layer_metrics(spans, "octagon-orbits")
    assert m["transport.gauss_quad.calls"] == (0, "count")
    assert m["waves.ode.self_s"] == (0.0, "s")
    assert m["ergodic.sample_orbit.steps_per_s"] == (100.0, "1/s")
    assert m["trace.dominant_share"] == (0.5, "ratio")


def _ops():
    return [{"name": "row", "seeded": True, "failures": [], "drift": None,
             "outputs": {"lhs": [1.0, 2.0], "rel_diff": 0.008}},
            {"name": "flows", "seeded": False, "failures": [], "drift": None,
             "outputs": {"x": [0.5, 0.25], "chart_dev": 3e-13}}]


def test_perturbed_reference_counts_as_failed_op():
    reference = {"transport-forms": {op["name"]: copy.deepcopy(op["outputs"])
                                     for op in _ops()}}
    ops = _ops()
    compare("transport-forms", DEFAULT_SEED, ops, reference)
    assert [op["failures"] for op in ops] == [[], []]
    assert [op["drift"] for op in ops] == [0.0, 0.0]

    reference["transport-forms"]["row"]["rel_diff"] *= 1.0 + 1e-3
    ops = _ops()
    compare("transport-forms", DEFAULT_SEED, ops, reference)
    failed = sum(1 for op in ops if op["failures"])
    assert failed / len(ops) == 0.5
    assert ops[0]["drift"] > 1e-4

    # other seeds compare only the ops whose inputs the seed does not pick
    ops = _ops()
    compare("transport-forms", DEFAULT_SEED + 1, ops, reference)
    assert ops[0]["drift"] is None and not ops[0]["failures"]
    assert ops[1]["drift"] == 0.0


def test_traced_pass_restores_every_wrapped_name():
    q, w, t, g = (hyperlab.quantize, hyperlab.waves, hyperlab.transport,
                  hyperlab.geometry)
    before = {"solve_wave": w.solve_wave, "gauss_quad": w.gauss_quad,
              "Phi": vars(t.PhaseTable)["Phi"], "solve_ivp": w.solve_ivp,
              "geo_solve_ivp": g.solve_ivp}
    tracer = Tracer("test")
    tracer.install()
    assert q.solve_wave is w.solve_wave is not before["solve_wave"]
    assert t.gauss_quad is not q.gauss_quad
    grid = np.linspace(-0.5, 0.5, 11)
    with tracer.span("bench.pass"):
        q.solve_wave(0.0, 0.2, 10.0, "I", grid)
        t.PhaseTable(B=0.5, mtilde=0.2).Phi(0.05)
    assert tracer.remove()
    names = {s[2] for s in tracer.spans}
    assert {"waves.solve_wave", "waves.ode", "transport.PhaseTable",
            "transport.PhaseTable.Phi", "transport.phase_P",
            "transport.gauss_quad", "bench.pass"} <= names
    assert hyperlab.quantize.solve_wave is hyperlab.waves.solve_wave
    assert w.solve_wave is before["solve_wave"]
    assert t.gauss_quad is q.gauss_quad is w.gauss_quad is before["gauss_quad"]
    assert vars(t.PhaseTable)["Phi"] is before["Phi"]
    assert w.solve_ivp is g.solve_ivp is before["solve_ivp"]
    assert g.solve_ivp is before["geo_solve_ivp"]
