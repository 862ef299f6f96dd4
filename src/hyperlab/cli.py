"""Batch front end: experiment drivers with CSV/JSON artifact output.

Subcommands
-----------
whittaker          scaled Whittaker ascension waves and their peak table
ascend             raising-operator evolution of a cylindrical eigenwave
measure-transport  packet quadratic forms before/after the magnetic map
flows              numeric Hamiltonian flow vs closed-form orbits
equidistribute     Birkhoff discrepancy series on the octagon surface

One parser takes the subcommand, every flag and, for `equidistribute` only,
the flow kind.  Data files are deterministic: a CSV is a float table written
by one "%.17g" format string in a fixed row order, so identical configs yield
byte-identical CSVs.  JSON outputs are UTF-8 with snake_case keys and carry a
``schema_version`` field.  With ``--assert`` a subcommand exits nonzero
and prints a JSON diagnostic if its built-in tolerance checks fail.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .base import check_degree, check_field

SCHEMA_VERSION = 1

_WHITTAKER_PEAK_TABLE = [
    # tau, abscissa, normalized ordinate
    (0, 1.884, 2.488e-34),
    (1, 1.922, 2.499e-34),
    (2, 1.962, 2.510e-34),
]
_DEFAULT_TOLERANCES = {
    "peak_abscissa_abs": 0.002,
    "peak_ordinate_rel": 0.01,
    "transport_rel_diff_max": 0.1,
    "flow_conjugacy_abs": 1e-6,
    "ascend_monochromatic_rel": 1e-2,
}


def _write_csv(path: Path, header: list[str], table) -> None:
    """A float table (rows, len(header)) as CSV, each value with 17 significant digits."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%.17g"] * len(header)) + "\n"
    path.write_text(",".join(header) + "\n" + row * len(table) % tuple(table.ravel().tolist()),
                    encoding="utf-8")


def _out_dir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj: dict) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
                    + "\n", encoding="utf-8")


def cmd_whittaker(cfg: argparse.Namespace) -> dict:
    from .waves import WhittakerParams, _sweep_peaks, _whittaker_sweep, ascension_norm

    check_degree(cfg.tau_max)
    out = _out_dir(cfg)
    # one sweep per degree on the peak scan; the CSV grid reads its dense output
    ys, scan = np.linspace(1.0, 3.0, 801), np.linspace(1.0, 3.0, 2000)
    peak_rows = []
    for tau in range(cfg.tau_max + 1):
        p = WhittakerParams(tau=tau, s1=cfg.s1, a=cfg.a)
        states, dense = _whittaker_sweep(p, scan)
        norm = ascension_norm(tau, cfg.s1)
        _write_csv(out / f"whittaker_tau{tau}.csv", ["y", "abs_w_scaled"],
                   np.column_stack((ys, np.abs(dense(ys)[0]) / norm)))
        all_peaks = _sweep_peaks(p, scan, states, dense)
        if all_peaks:
            y_pk, v_pk = max(all_peaks, key=lambda pk: pk[1])
            peak_rows.append({"tau": tau, "abscissa": y_pk, "ordinate": v_pk / norm})
    _write_json(out / "whittaker_peaks.json", {"peaks": peak_rows})

    failures = []
    if cfg.do_assert and (cfg.s1, cfg.a) != (50.0, 25.0):
        failures.append({"reason": f"no reference peak table for s1={cfg.s1}, a={cfg.a}"})
    elif cfg.do_assert:
        tol_y, tol_v = cfg.tolerances["peak_abscissa_abs"], cfg.tolerances["peak_ordinate_rel"]
        rows = {r["tau"]: r for r in peak_rows}
        for tau, y_ref, v_ref in _WHITTAKER_PEAK_TABLE[:cfg.tau_max + 1]:
            r = rows.get(tau)
            if r is None:
                failures.append({"tau": tau, "reason": "no peak found"})
                continue
            if abs(r["abscissa"] - y_ref) > tol_y:
                failures.append({"tau": tau, "abscissa": r["abscissa"],
                                 "expected": y_ref, "reason": "abscissa"})
            if abs(r["ordinate"] - v_ref) > tol_v * v_ref:
                failures.append({"tau": tau, "ordinate": r["ordinate"],
                                 "expected": v_ref, "reason": "ordinate"})
    return {"subcommand": "whittaker", "peaks": peak_rows,
            "failures": failures, "passed": not failures}


def cmd_ascend(cfg: argparse.Namespace) -> dict:
    from .transport import wave_norm_shift
    from .waves import ascend

    if len(cfg.s) != 1:
        raise ValueError(f"ascend takes exactly one --s value, got {cfg.s}")
    out = _out_dir(cfg)
    s, grid = cfg.s[0], np.linspace(-1.0, 1.0, 401)
    exact, closed, prod, base = ascend(cfg.eta0 * s, s, cfg.B, grid)
    _write_csv(out / "ascend_wave.csv",
               ["beta", "re_omega", "im_omega", "re_closed", "im_closed",
                "re_w0", "im_w0"],
               np.column_stack((grid, exact.values.real, exact.values.imag,
                                closed.real, closed.imag,
                                base.values.real, base.values.imag)))
    b1 = exact.B1  # the reached field [Bs]/s
    shift = wave_norm_shift(b1, cfg.eta0)
    # the ascended wave is one branch-I wave times the c1 product
    mono = float(np.max(np.abs(exact.values - closed))
                 / np.max(np.abs(exact.values)))
    failures = []
    if cfg.do_assert and not mono <= cfg.tolerances["ascend_monochromatic_rel"]:
        failures.append({"reason": "ascended wave not monochromatic",
                         "monochromatic_rel": mono})
    summary = {"subcommand": "ascend", "s": s, "b_field_requested": cfg.B,
               "b_field_reached": b1, "eta0": cfg.eta0,
               "c1_product_modulus": abs(prod), "monochromatic_rel": mono,
               "wave_norm_shift": shift, "failures": failures,
               "passed": not failures}
    _write_json(out / "ascend_summary.json", summary)
    return summary


def cmd_measure_transport(cfg: argparse.Namespace) -> dict:
    from .quantize import Observable, measure_transport_check

    if not cfg.s:
        raise ValueError("need one or more --s values")
    out = _out_dir(cfg)
    obs = Observable(eta0=cfg.eta0, eps=cfg.eps)
    rows = measure_transport_check([float(s) for s in cfg.s], cfg.B, obs, l=cfg.l)
    header = ["s", "b_field", "eta0", "eps", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "rel_diff"]
    _write_csv(out / "measure_transport.csv", header,
               [[r[k] for k in header] for r in rows])
    diffs = [r["rel_diff"] for r in rows]
    non_increasing = all(a >= b for a, b in zip(diffs, diffs[1:]))
    failures = []
    if cfg.do_assert:
        if not non_increasing:
            failures.append({"reason": "rel_diff not non-increasing",
                             "rel_diff": diffs})
        if diffs and diffs[-1] >= cfg.tolerances["transport_rel_diff_max"]:
            failures.append({"reason": "final rel_diff too large",
                             "rel_diff": diffs[-1]})
    summary = {"subcommand": "measure_transport", "rel_diff": diffs,
               "non_increasing": non_increasing,
               "failures": failures, "passed": not failures}
    _write_json(out / "measure_transport_summary.json", summary)
    return summary


def cmd_flows(cfg: argparse.Namespace) -> dict:
    from .geometry import (HPoint, TangentVec, flow_hamiltonian,
                           hyperbolic_distance, hypercyclic_flow, phi_B,
                           phi_B_inv, scale)

    check_degree(cfg.tau_max)
    check_field(cfg.B)  # before the start vector is scaled to sqrt(B^2 + 1)
    out = _out_dir(cfg)
    B, t_max = cfg.B, float(cfg.tau_max)
    v0 = scale(TangentVec(HPoint(0.3, 1.2), 0.6 * 1.2, 0.8 * 1.2), math.sqrt(B * B + 1.0))
    ts = np.linspace(0.0, t_max, max(2, int(20 * t_max) + 1)) if t_max > 0 \
        else np.array([0.0])
    rows, worst = [], 0.0
    for t, q in zip(ts, flow_hamiltonian(phi_B_inv(v0, B), B, ts)):
        closed, numeric = hypercyclic_flow(v0, B, float(t)), phi_B(q, B)
        dev = hyperbolic_distance(closed.base, numeric.base)
        worst = max(worst, dev)
        rows.append([t, closed.base.x, closed.base.y, closed.vx, closed.vy,
                     numeric.base.x, numeric.base.y, dev])
    _write_csv(out / "flows.csv",
               ["t", "x", "y", "vx", "vy", "x_numeric", "y_numeric",
                "deviation"], rows)
    failures = []
    if cfg.do_assert and t_max == 0:
        failures.append({"reason": "no check ran: need a positive --tau-max"})
    elif cfg.do_assert and worst > cfg.tolerances["flow_conjugacy_abs"]:
        failures.append({"reason": "conjugacy deviation", "worst": worst})
    summary = {"subcommand": "flows", "b_field": B, "t_max": t_max,
               "worst_deviation": worst,
               "failures": failures, "passed": not failures}
    _write_json(out / "flows_summary.json", summary)
    return summary


def cmd_equidistribute(cfg: argparse.Namespace) -> dict:
    from .ergodic import equidistribution_series, seeded_unit_vector

    out = _out_dir(cfg)
    kind = {"horocycle": "horocyclic", "hypercycle": "hypercyclic",
            "geodesic": "geodesic"}.get(cfg.flow_kind, cfg.flow_kind)
    rows = equidistribution_series(kind, seeded_unit_vector(7), list(cfg.lengths), B=cfg.B)
    _write_csv(out / "equidistribution.csv", ["length", "discrepancy"], rows)
    discs = [d for _, d in rows]
    non_increasing = all(a >= b for a, b in zip(discs, discs[1:]))
    failures = []
    if cfg.do_assert and len(discs) < 2:
        failures.append({"reason": "no check ran: need at least two lengths"})
    elif cfg.do_assert and not non_increasing:
        failures.append({"reason": "discrepancy not non-increasing",
                         "discrepancy": discs})
    summary = {"subcommand": "equidistribute", "flow_kind": kind,
               "b_field": cfg.B, "discrepancy": discs,
               "non_increasing": non_increasing,
               "failures": failures, "passed": not failures}
    _write_json(out / "equidistribution_summary.json", summary)
    return summary


_COMMANDS = {
    "whittaker": cmd_whittaker,
    "ascend": cmd_ascend,
    "measure-transport": cmd_measure_transport,
    "flows": cmd_flows,
    "equidistribute": cmd_equidistribute,
}


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


# the value flags: (flag, type, default, help); the flag names its config key
# (`_` for `-`), and a default given as text is read by the type, as a flag's is
_VALUE_FLAGS = (
    ("--s", _float_list, "100", "spectral parameter(s), comma-separated"),
    ("--B", float, "0", "magnetic field intensity"),
    ("--eta0", float, "0.2", "packet frequency center"),
    ("--eps", float, "0.2", "observable window width"),
    ("--l", float, 2 * math.pi, "cylinder circumference"),
    ("--tau-max", int, "2", "top ascension degree, or flow time span for `flows`"),
    ("--s1", float, "50", "Whittaker spectral parameter"),
    ("--a", float, "25", "Whittaker frequency"),
    ("--lengths", _float_list, "1e2,1e3,1e4", "orbit lengths, comma-separated"),
    ("--out", None, ".", "output directory"),
)


class _FlowKind(argparse.Action):
    """The optional flow kind positional: only `equidistribute` takes one.
    Its default is the parser's, so the action runs only on a given kind."""

    def __call__(self, parser, namespace, value, option_string=None):
        if namespace.subcommand != "equidistribute":
            parser.error(f"unrecognized arguments: {value}")
        setattr(namespace, self.dest, value)


def build_parser() -> argparse.ArgumentParser:
    """The parser whose namespace is the run config that each `cmd_*` reads."""
    ap = argparse.ArgumentParser(prog="hyperlab", description="Numerical experiments for "
                                 "magnetic dynamics on hyperbolic surfaces.")
    # the settings no flag sets; before the flow kind's argument, whose own
    # default must stay SUPPRESS (see `_FlowKind`)
    ap.set_defaults(flow_kind="horocyclic", tolerances=dict(_DEFAULT_TOLERANCES))
    ap.add_argument("subcommand", choices=_COMMANDS)
    ap.add_argument("flow_kind", nargs="?", action=_FlowKind, default=argparse.SUPPRESS,
                    help="equidistribute only: geodesic | hypercyclic | horocyclic "
                         "(default horocyclic)")
    ap.add_argument("--config", default=None,
                    help="optional JSON config file of defaults; flags take precedence")
    for flag, typ, default, text in _VALUE_FLAGS:
        ap.add_argument(flag, type=typ, default=default, help=text + " (default %(default)s)")
    ap.add_argument("--assert", dest="do_assert", action="store_true",
                    help="exit nonzero if built-in tolerance checks fail")
    ap.add_argument("--json-summary", action="store_true",
                    help="print the machine-readable verdict to stdout")
    return ap


def _config_tolerances(val) -> dict:
    """The `tolerances` object of a config file: known keys, finite numbers."""
    if not (isinstance(val, dict) and set(val) <= set(_DEFAULT_TOLERANCES)
            and all(type(t) in (int, float) and math.isfinite(t) for t in val.values())):
        raise ValueError(f"config tolerances must map keys of {sorted(_DEFAULT_TOLERANCES)} "
                         f"to finite numbers, got {val!r}")
    return val


def _config_value(key: str, typ, val):
    """A config file value read as its flag reads text: lists joined by commas."""
    text = ",".join(map(str, val)) if isinstance(val, list) else val
    try:
        if type(text) not in (str, int, float):
            raise ValueError("need a number, a string or a list")
        return (typ or str)(str(text))
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}, got {val!r}") from None


def _config_defaults(path: str) -> dict:
    """A config file's values, checked, as parser defaults."""
    file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(file_cfg, dict):
        raise ValueError("a config file must hold a JSON object")
    types = {flag[2:].replace("-", "_"): typ for flag, typ, _, _ in _VALUE_FLAGS}
    defaults = {}
    for key, val in file_cfg.items():
        if key == "tolerances":
            defaults[key] = {**_DEFAULT_TOLERANCES, **_config_tolerances(val)}
        elif key in types:
            defaults[key] = _config_value(key, types[key], val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return defaults


def main(argv=None) -> int:
    ap = build_parser()
    cfg = ap.parse_intermixed_args(argv)
    try:
        if cfg.config:  # built-in < file < flag: the file's values become the defaults
            ap.set_defaults(**_config_defaults(cfg.config))
            cfg = ap.parse_intermixed_args(argv)
        summary = {"schema_version": SCHEMA_VERSION,
                   **_COMMANDS[cfg.subcommand](cfg)}
        text = json.dumps(summary, sort_keys=True, allow_nan=False)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        diag = {"schema_version": SCHEMA_VERSION, "passed": False,
                "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(diag, sort_keys=True))
        return 2
    failed = cfg.do_assert and not summary.get("passed", False)
    if cfg.json_summary or failed:
        print(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
