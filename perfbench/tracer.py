"""Spans around the public calls of each hyperlab layer, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, pass id, work count).  A
function is replaced in its defining module and in every other hyperlab
module that imported the name, so `quantize.solve_wave` is traced as well
as `waves.solve_wave`.  Quadrature and `solve_ivp` are traced per binding,
because their span names say which layer called them.  `Tracer.remove()`
puts every original object back.  Spans stay in memory until the pass
ends; `write()` stores them and `layer_metrics()` derives the per-layer
numbers from them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import time
from collections import defaultdict

LAYERS = ("geometry", "groups", "waves", "transport", "quantize", "ergodic",
          "cli")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _quad_nodes(args, kwargs, result):
    return 32 * int(_arg(args, kwargs, 3, "panels", 8))


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _ys_points(args, kwargs, result):
    ys = _arg(args, kwargs, 1, "ys")
    return len(ys) if hasattr(ys, "__len__") else 1


def _n_peaks(args, kwargs, result):
    return len(result)


def _orbit_steps(args, kwargs, result):
    return len(result.xs) - 1


def _grid_points(args, kwargs, result):
    return len(result.grid)


def _wave_key(args, kwargs, result):
    """Distinct-work key of a wave solve: (B1, mtilde, s, branch, grid)."""
    grid = hashlib.blake2b(result.grid.tobytes(), digest_size=8).hexdigest()
    return f"{result.B1!r}|{result.mtilde!r}|{result.s!r}|{result.branch}|{grid}"


# (span name, module, attribute, every binding?, work count, distinct key).
# A dotted attribute names a method on a class of that module.
TARGETS = (
    ("transport.gauss_quad", "transport", "gauss_quad", False, _quad_nodes, None),
    ("quantize.gauss_quad", "quantize", "gauss_quad", False, _quad_nodes, None),
    ("waves.gauss_quad", "waves", "gauss_quad", False, _quad_nodes, None),
    ("waves.ode", "waves", "solve_ivp", False, _nfev, None),
    ("geometry.ode", "geometry", "solve_ivp", False, _nfev, None),
    ("transport.PhaseTable", "transport", "PhaseTable.__post_init__", False, None, None),
    ("transport.PhaseTable.Phi", "transport", "PhaseTable.Phi", False, None, None),
    ("transport.PhaseTable.Phi_inv", "transport", "PhaseTable.Phi_inv", False, None, None),
    ("transport.PhaseTable.f3", "transport", "PhaseTable.f3", False, None, None),
    ("transport.PhaseTable.f4", "transport", "PhaseTable.f4", False, None, None),
    ("transport.phase_P", "transport", "phase_P", True, None, None),
    ("transport.wave_norm_shift", "transport", "wave_norm_shift", True, None, None),
    ("waves.whittaker_W", "waves", "whittaker_W", True, _ys_points, None),
    ("waves.whittaker_deriv", "waves", "whittaker_deriv", True, _ys_points, None),
    ("waves.whittaker_peaks", "waves", "whittaker_peaks", True, _n_peaks, None),
    ("waves.solve_wave", "waves", "solve_wave", True, _grid_points, _wave_key),
    ("waves.solve_wave_ic", "waves", "solve_wave_ic", True, _grid_points, None),
    ("waves.ascend", "waves", "ascend", True, None, None),
    ("quantize.measure_transport_check", "quantize", "measure_transport_check", True, None, None),
    ("quantize.quad_form", "quantize", "quad_form", True, None, None),
    ("quantize.ascend_coeffs", "quantize", "ascend_coeffs", True, None, None),
    ("quantize.energy_shell_test", "quantize", "energy_shell_test", True, None, None),
    ("quantize.geodesic_packet", "quantize", "geodesic_packet", True, None, None),
    ("ergodic.sample_orbit", "ergodic", "sample_orbit", True, _orbit_steps, None),
    ("ergodic.octagon_area_means", "ergodic", "octagon_area_means", True, None, None),
    ("ergodic.equidistribution_series", "ergodic", "equidistribution_series", True, None, None),
    ("groups.octagon_group", "groups", "octagon_group", True, None, None),
    ("groups.reduce_to_domain", "groups", "reduce_to_domain", True, None, None),
    ("geometry.flow_hamiltonian", "geometry", "flow_hamiltonian", True, None, None),
    ("geometry.closed_flow", "geometry", "hypercyclic_flow", True, None, None),
    ("geometry.closed_flow", "geometry", "geodesic_flow", True, None, None),
    ("geometry.closed_flow", "geometry", "horocyclic_flow", True, None, None),
    ("geometry.closed_flow", "geometry", "transport_T_B", True, None, None),
    ("cli.main", "cli", "main", True, None, None),
)


def _modules():
    return {name: importlib.import_module(f"hyperlab.{name}") for name in LAYERS}


class Tracer:
    """In-memory span recorder for one pass: install, run, remove, write."""

    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        # (span id, parent id, name, start, end, work, key, pass id)
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple] = []  # (owner, attribute, original)

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, work=0, key=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, work, key,
                           self.pass_id))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around several calls."""
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, start)

    def _wrap(self, name, fn, work, key):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(sid, parent, name, start)
                raise
            self._close(sid, parent, name, start,
                        work(args, kwargs, result) if work else 0,
                        key(args, kwargs, result) if key else None)
            return result

        return traced

    def install(self) -> None:
        mods = _modules()
        for name, mod_name, attr, everywhere, work, key in TARGETS:
            mod = mods[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[meth]
                setattr(cls, meth, self._wrap(name, orig, work, key))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, work, key)
            owners = mods.values() if everywhere else (mod,)
            for owner in owners:
                for binding, value in list(vars(owner).items()):
                    if value is orig:
                        setattr(owner, binding, wrapped)
                        self._patched.append((owner, binding, orig))

    def remove(self) -> bool:
        """Put every original back; True when each binding holds it again."""
        patched, self._patched = self._patched, []
        for owner, binding, orig in reversed(patched):
            setattr(owner, binding, orig)
        return all(vars(owner)[binding] is orig
                   for owner, binding, orig in patched)

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[s[0], s[1], index[s[2]], s[3], s[4], s[5], s[6]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass_id": self.pass_id, "names": names,
                       "fields": ["id", "parent", "name", "start", "end",
                                  "work", "key"],
                       "spans": rows}, fh)


def read_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    names = data["names"]
    return [{"id": r[0], "parent": r[1], "name": names[r[2]], "start": r[3],
             "end": r[4], "work": r[5], "key": r[6]} for r in data["spans"]]


def self_times(spans: list[dict]) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def _under(spans: list[dict], root_name: str) -> set:
    """Ids of the spans inside any span called root_name (roots included)."""
    parent = {s["id"]: s["parent"] for s in spans}
    roots = {s["id"] for s in spans if s["name"] == root_name}
    inside = set()
    for sid in parent:
        cur = sid
        while cur in parent:
            if cur in roots:
                inside.add(sid)
                break
            cur = parent[cur]
    return inside


# Metric names in report order; every one is emitted on every workload.
_CALLS = ("transport.PhaseTable", "transport.PhaseTable.Phi",
          "transport.PhaseTable.f3", "transport.PhaseTable.f4",
          "transport.PhaseTable.Phi_inv", "transport.phase_P",
          "transport.gauss_quad", "transport.wave_norm_shift",
          "waves.whittaker_W", "waves.whittaker_deriv",
          "waves.whittaker_peaks", "waves.solve_wave", "waves.solve_wave_ic",
          "waves.ascend", "quantize.quad_form", "quantize.ascend_coeffs",
          "quantize.energy_shell_test", "quantize.geodesic_packet",
          "ergodic.sample_orbit", "ergodic.octagon_area_means",
          "groups.octagon_group", "groups.reduce_to_domain",
          "geometry.flow_hamiltonian", "geometry.closed_flow", "cli.main")
_SELF = ("transport.PhaseTable.Phi", "transport.PhaseTable.f3",
         "transport.PhaseTable.f4", "transport.PhaseTable.Phi_inv",
         "waves.whittaker_W", "waves.whittaker_deriv", "waves.whittaker_peaks",
         "waves.solve_wave", "waves.solve_wave_ic", "waves.ascend",
         "waves.ode", "quantize.measure_transport_check",
         "quantize.quad_form", "quantize.ascend_coeffs",
         "quantize.energy_shell_test", "ergodic.sample_orbit",
         "ergodic.octagon_area_means", "ergodic.equidistribution_series",
         "groups.octagon_group", "geometry.flow_hamiltonian",
         "geometry.closed_flow", "cli.main")
_WORK = {"transport.gauss_quad.nodes": "transport.gauss_quad",
         "waves.whittaker_W.points": "waves.whittaker_W",
         "waves.whittaker_deriv.points": "waves.whittaker_deriv",
         "waves.whittaker_peaks.peaks": "waves.whittaker_peaks",
         "waves.solve_wave.points": "waves.solve_wave",
         "waves.ode.nfev": "waves.ode",
         "geometry.ode.nfev": "geometry.ode",
         "ergodic.sample_orbit.steps": "ergodic.sample_orbit"}

# The layer each workload exists to load, as span-name prefixes.
DOMINANT = {
    "transport-forms": ("transport.",),
    "whittaker-peaks": ("waves.ode",),
    "octagon-orbits": ("ergodic.sample_orbit",),
    "packet-shell": ("waves.solve_wave", "waves.ode"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], workload: str) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    work = defaultdict(int)
    keys = defaultdict(set)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += selfs[s["id"]]
        work[s["name"]] += s["work"]
        if s["key"] is not None:
            keys[s["name"]].add(s["key"])
    by_id = {s["id"]: s for s in spans}

    out = {}
    for name in _CALLS:
        out[f"{name}.calls"] = (calls[name], "count")
    for name in _SELF:
        out[f"{name}.self_s"] = (self_s[name], "s")
    for metric, name in _WORK.items():
        out[metric] = (work[name], "count")
    out["transport.gauss_quad.calls"] = (calls["transport.gauss_quad"], "count")
    out["waves.ode.solves"] = (calls["waves.ode"], "count")
    out["geometry.ode.solves"] = (calls["geometry.ode"], "count")
    newton = sum(1 for s in spans if s["name"] == "transport.phase_P"
                 and by_id.get(s["parent"], {}).get("name")
                 == "transport.PhaseTable.Phi")
    out["transport.phase_P.per_Phi"] = (
        _ratio(newton, calls["transport.PhaseTable.Phi"]), "ratio")
    in_peaks = _under(spans, "waves.whittaker_peaks")
    peak_solves = sum(1 for s in spans
                      if s["name"] == "waves.ode" and s["id"] in in_peaks)
    out["waves.ode.solves_per_peak"] = (
        _ratio(peak_solves, work["waves.whittaker_peaks"]), "ratio")
    out["waves.solve_wave.calls_per_distinct"] = (
        _ratio(calls["waves.solve_wave"], len(keys["waves.solve_wave"])),
        "ratio")
    out["ergodic.sample_orbit.steps_per_s"] = (
        _ratio(work["ergodic.sample_orbit"], self_s["ergodic.sample_orbit"]),
        "1/s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for n, v in self_s.items() if n.startswith(layer + ".")), "s")

    in_pass = _under(spans, "bench.pass")
    pass_wall = sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "bench.pass")
    dominant = sum(selfs[s["id"]] for s in spans if s["id"] in in_pass
                   and s["name"].startswith(DOMINANT[workload]))
    out["trace.dominant_share"] = (_ratio(dominant, pass_wall), "ratio")
    out["trace.wall_s"] = (pass_wall, "s")
    return out
