"""Batch front end: experiment drivers with CSV/JSON artifact output.

Subcommands
-----------
whittaker          scaled Whittaker ascension waves and their peak table
ascend             raising-operator evolution of a cylindrical eigenwave
measure-transport  packet quadratic forms before/after the magnetic map
flows              numeric Hamiltonian flow vs closed-form orbits
equidistribute     Birkhoff discrepancy series on the octagon surface

One parser takes the subcommand, every flag and, for `equidistribute` only,
the flow kind.  Every setting of a run is its flag, and `--assert` checks
each claim against one fixed table, `_TOLERANCES`.  Data files are
deterministic: a CSV is a float table written by one "%.17g" format string
in a fixed row order, so identical configs yield byte-identical CSVs.  JSON
outputs are UTF-8 with snake_case keys and carry a ``schema_version`` field.

Each `cmd_*` returns (files, summary, failures): `files` maps a file name to
a CSV's (header, table) or to a JSON object, and `failures` lists what its
tolerance checks found on this run.  `main` alone writes: it keeps the
failures only under ``--assert``, adds them and ``passed`` to the summary,
then writes every file and the summary file `_COMMANDS` names.  With
``--assert`` a failed check exits 1 and prints the summary as a diagnostic.
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
_TOLERANCES = {  # the built-in checks of --assert
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


def _write_json(path: Path, obj: dict) -> None:
    obj = {"schema_version": SCHEMA_VERSION, **obj}
    path.write_text(json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
                    + "\n", encoding="utf-8")


def cmd_whittaker(cfg: argparse.Namespace) -> tuple[dict, dict, list]:
    from .waves import WhittakerParams, _sweep_peaks, _whittaker_sweep, ascension_norm

    check_degree(cfg.tau_max)
    # one sweep per degree on the peak scan; the CSV grid reads its dense output
    ys, scan = np.linspace(1.0, 3.0, 801), np.linspace(1.0, 3.0, 2000)
    files, peak_rows = {}, []
    for tau in range(cfg.tau_max + 1):
        p = WhittakerParams(tau=tau, s1=cfg.s1, a=cfg.a)
        states, dense = _whittaker_sweep(p, scan)
        norm = ascension_norm(tau, cfg.s1)
        files[f"whittaker_tau{tau}.csv"] = (["y", "abs_w_scaled"],
                                            np.column_stack((ys, np.abs(dense(ys)[0]) / norm)))
        all_peaks = _sweep_peaks(p, scan, states, dense)
        if all_peaks:
            y_pk, v_pk = max(all_peaks, key=lambda pk: pk[1])
            peak_rows.append({"tau": tau, "abscissa": y_pk, "ordinate": v_pk / norm})
    files["whittaker_peaks.json"] = {"peaks": peak_rows}

    failures = []
    if (cfg.s1, cfg.a) != (50.0, 25.0):
        failures.append({"reason": f"no reference peak table for s1={cfg.s1}, a={cfg.a}"})
    else:
        tol_y, tol_v = _TOLERANCES["peak_abscissa_abs"], _TOLERANCES["peak_ordinate_rel"]
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
    return files, {"subcommand": "whittaker", "peaks": peak_rows}, failures


def cmd_ascend(cfg: argparse.Namespace) -> tuple[dict, dict, list]:
    from .transport import wave_norm_shift
    from .waves import ascend

    if len(cfg.s) != 1:
        raise ValueError(f"ascend takes exactly one --s value, got {cfg.s}")
    s, grid = cfg.s[0], np.linspace(-1.0, 1.0, 401)
    exact, closed, prod, base = ascend(cfg.eta0 * s, s, cfg.B, grid)
    wave = (["beta", "re_omega", "im_omega", "re_closed", "im_closed", "re_w0", "im_w0"],
            np.column_stack((grid, exact.values.real, exact.values.imag,
                             closed.real, closed.imag, base.values.real, base.values.imag)))
    b1 = exact.B1  # the reached field [Bs]/s
    # the ascended wave is one branch-I wave times the c1 product
    mono = float(np.max(np.abs(exact.values - closed))
                 / np.max(np.abs(exact.values)))
    failures = []
    if not mono <= _TOLERANCES["ascend_monochromatic_rel"]:
        failures.append({"reason": "ascended wave not monochromatic",
                         "monochromatic_rel": mono})
    summary = {"subcommand": "ascend", "s": s, "b_field_requested": cfg.B,
               "b_field_reached": b1, "eta0": cfg.eta0,
               "c1_product_modulus": abs(prod), "monochromatic_rel": mono,
               "wave_norm_shift": wave_norm_shift(b1, cfg.eta0)}
    return {"ascend_wave.csv": wave}, summary, failures


def cmd_measure_transport(cfg: argparse.Namespace) -> tuple[dict, dict, list]:
    from .quantize import Observable, measure_transport_check

    if not cfg.s:
        raise ValueError("need one or more --s values")
    obs = Observable(eta0=cfg.eta0, eps=cfg.eps)
    rows = measure_transport_check([float(s) for s in cfg.s], cfg.B, obs, l=cfg.l)
    header = ["s", "b_field", "eta0", "eps", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "rel_diff"]
    diffs = [r["rel_diff"] for r in rows]
    non_increasing = all(a >= b for a, b in zip(diffs, diffs[1:]))
    failures = []
    if not non_increasing:
        failures.append({"reason": "rel_diff not non-increasing", "rel_diff": diffs})
    if diffs and diffs[-1] >= _TOLERANCES["transport_rel_diff_max"]:
        failures.append({"reason": "final rel_diff too large", "rel_diff": diffs[-1]})
    return ({"measure_transport.csv": (header, [[r[k] for k in header] for r in rows])},
            {"subcommand": "measure_transport", "rel_diff": diffs,
             "non_increasing": non_increasing}, failures)


def cmd_flows(cfg: argparse.Namespace) -> tuple[dict, dict, list]:
    from .geometry import (HPoint, TangentVec, flow_hamiltonian,
                           hyperbolic_distance, hypercyclic_flow, phi_B,
                           phi_B_inv, scale)

    check_degree(cfg.tau_max)
    check_field(cfg.B)  # before the start vector is scaled to sqrt(B^2 + 1)
    B, t_max = cfg.B, float(cfg.tau_max)
    v0 = scale(TangentVec(HPoint(0.3, 1.2), 0.6 * 1.2, 0.8 * 1.2), math.sqrt(B * B + 1.0))
    ts = np.linspace(0.0, t_max, max(2, int(20 * t_max) + 1)) if t_max > 0 \
        else np.array([0.0])
    # the closed form first: past its float horizon it raises before the oracle runs
    closed_flow = [hypercyclic_flow(v0, B, float(t)) for t in ts]
    rows, worst = [], 0.0
    for t, closed, q in zip(ts, closed_flow, flow_hamiltonian(phi_B_inv(v0, B), B, ts)):
        numeric = phi_B(q, B)
        dev = hyperbolic_distance(closed.base, numeric.base)
        worst = max(worst, dev)
        rows.append([t, closed.base.x, closed.base.y, closed.vx, closed.vy,
                     numeric.base.x, numeric.base.y, dev])
    failures = []
    if t_max == 0:
        failures.append({"reason": "no check ran: need a positive --tau-max"})
    elif worst > _TOLERANCES["flow_conjugacy_abs"]:
        failures.append({"reason": "conjugacy deviation", "worst": worst})
    return ({"flows.csv": (["t", "x", "y", "vx", "vy", "x_numeric", "y_numeric",
                            "deviation"], rows)},
            {"subcommand": "flows", "b_field": B, "t_max": t_max, "worst_deviation": worst},
            failures)


def cmd_equidistribute(cfg: argparse.Namespace) -> tuple[dict, dict, list]:
    from .ergodic import equidistribution_series, seeded_unit_vector

    rows = equidistribution_series(cfg.flow_kind, seeded_unit_vector(7), list(cfg.lengths),
                                   B=cfg.B)
    discs = [d for _, d in rows]
    non_increasing = all(a >= b for a, b in zip(discs, discs[1:]))
    failures = []
    if len(discs) < 2:
        failures.append({"reason": "no check ran: need at least two lengths"})
    elif not non_increasing:
        failures.append({"reason": "discrepancy not non-increasing", "discrepancy": discs})
    return ({"equidistribution.csv": (["length", "discrepancy"], rows)},
            {"subcommand": "equidistribute", "flow_kind": cfg.flow_kind, "b_field": cfg.B,
             "discrepancy": discs, "non_increasing": non_increasing}, failures)


_COMMANDS = {  # subcommand: (command, the file its summary goes to, if any)
    "whittaker": (cmd_whittaker, None),
    "ascend": (cmd_ascend, "ascend_summary.json"),
    "measure-transport": (cmd_measure_transport, "measure_transport_summary.json"),
    "flows": (cmd_flows, "flows_summary.json"),
    "equidistribute": (cmd_equidistribute, "equidistribution_summary.json"),
}


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


# the value flags: (flag, type, default, help); a default given as text is
# read by the type, as a flag's is
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
    # before the flow kind's argument, whose own default must stay SUPPRESS
    # (see `_FlowKind`)
    ap.set_defaults(flow_kind="horocyclic")
    ap.add_argument("subcommand", choices=_COMMANDS)
    ap.add_argument("flow_kind", nargs="?", action=_FlowKind, default=argparse.SUPPRESS,
                    help="equidistribute only: geodesic | hypercyclic | horocyclic "
                         "(default horocyclic)")
    for flag, typ, default, text in _VALUE_FLAGS:
        ap.add_argument(flag, type=typ, default=default, help=text + " (default %(default)s)")
    ap.add_argument("--assert", dest="do_assert", action="store_true",
                    help="exit nonzero if built-in tolerance checks fail")
    ap.add_argument("--json-summary", action="store_true",
                    help="print the machine-readable verdict to stdout")
    return ap


def main(argv=None) -> int:
    cfg = build_parser().parse_intermixed_args(argv)
    try:
        command, summary_file = _COMMANDS[cfg.subcommand]
        files, summary, failures = command(cfg)
        failures = failures if cfg.do_assert else []
        summary = {"schema_version": SCHEMA_VERSION, **summary,
                   "failures": failures, "passed": not failures}
        text = json.dumps(summary, sort_keys=True, allow_nan=False)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            if isinstance(data, dict):
                _write_json(out / name, data)
            else:
                _write_csv(out / name, *data)
        if summary_file:
            _write_json(out / summary_file, summary)
    except (ValueError, OSError) as exc:
        diag = {"schema_version": SCHEMA_VERSION, "passed": False,
                "error": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(diag, sort_keys=True))
        return 2
    if cfg.json_summary or failures:
        print(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
