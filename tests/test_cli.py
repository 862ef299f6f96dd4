"""Tests for the batch front end: artifacts, determinism, exit codes."""

import argparse
import dataclasses
import json
import math

import numpy as np
import pytest

from hyperlab.cli import (_VALUE_FLAGS, RunConfig, _write_json, build_parser,
                          config_from_args, main)
from hyperlab import waves
from hyperlab.waves import WhittakerParams, ascension_norm, whittaker_W, whittaker_peaks


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parser_accepts_all_flags():
    ap = build_parser()
    args = ap.parse_args([
        "measure-transport", "--s", "100,200", "--B", "0.5", "--eta0", "0.3",
        "--eps", "0.1", "--l", "6.28", "--tau-max", "3", "--s1", "25",
        "--a", "12", "--lengths", "10,100",
        "--out", "x", "--assert", "--json-summary"])
    cfg = config_from_args(args)
    assert cfg.s == [100.0, 200.0]
    assert cfg.B == 0.5 and cfg.eta0 == 0.3 and cfg.eps == 0.1
    assert cfg.tau_max == 3 and cfg.lengths == [10.0, 100.0]
    assert cfg.do_assert and cfg.json_summary


def test_value_flags_are_the_config_fields():
    # one table drives the parser and config_from_args: it must name every
    # settable RunConfig field, and nothing else
    dests = {argparse.ArgumentParser().add_argument(flag).dest for flag, _, _ in _VALUE_FLAGS}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests == fields - {"subcommand", "flow_kind", "do_assert",
                              "json_summary", "tolerances"}


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"B": 2.0, "tau_max": 1}))
    ap = build_parser()
    args = ap.parse_args(["flows", "--config", str(cfgfile),
                          "--B", "0.5", "--out", str(tmp_path)])
    cfg = config_from_args(args)
    assert cfg.B == 0.5  # flag wins
    assert cfg.tau_max == 1  # file value survives


def test_flows_t0_returns_initial_vector(tmp_path, capsys):
    code, out = run_cli(["flows", "--B", "0.5", "--tau-max", "0",
                         "--out", str(tmp_path), "--json-summary"], capsys)
    assert code == 0
    lines = (tmp_path / "flows.csv").read_text().strip().split("\n")
    assert len(lines) == 2
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    assert abs(float(row[1]) - 0.3) < 1e-15
    assert abs(float(row[2]) - 1.2) < 1e-15
    summary = json.loads(out)
    assert summary["schema_version"] == 1
    assert summary["passed"] is True


def test_flows_conjugacy_assert(tmp_path, capsys):
    code, _ = run_cli(["flows", "--B", "1", "--tau-max", "5",
                       "--out", str(tmp_path), "--assert"], capsys)
    assert code == 0


def test_assert_failure_gives_nonzero_exit_and_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(
        {"tolerances": {"flow_conjugacy_abs": -1.0}}))
    code, out = run_cli(["flows", "--B", "1", "--tau-max", "2",
                         "--config", str(cfgfile),
                         "--out", str(tmp_path), "--assert"], capsys)
    assert code == 1
    diag = json.loads(out)
    assert diag["passed"] is False
    assert diag["failures"]


def test_bad_input_exits_nonzero_with_json(tmp_path, capsys):
    code, out = run_cli(["equidistribute", "elliptic",
                         "--lengths", "10", "--out", str(tmp_path)], capsys)
    assert code == 2
    diag = json.loads(out)
    assert diag["passed"] is False and "error" in diag


@pytest.mark.parametrize("eps", ["0", "-0.2", "nan"])
def test_measure_transport_bad_eps_exits_2(tmp_path, capsys, eps):
    # eps 0 used to fail on a NaN in the JSON and eps -0.2 to pass --assert
    code, out = run_cli(["measure-transport", "--s", "25", "--B", "0.5",
                         f"--eps={eps}", "--out", str(tmp_path), "--assert"], capsys)
    assert code == 2
    diag = json.loads(out)
    assert diag["passed"] is False and "eps" in diag["error"]


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"does_not_exist": 1}))
    code, out = run_cli(["flows", "--config", str(cfgfile),
                         "--out", str(tmp_path)], capsys)
    assert code == 2


@pytest.mark.parametrize("subcommand, file_cfg, message", [
    # a config key that is no value flag used to switch the subcommand or the flow kind
    ("whittaker", {"subcommand": "flows", "tau_max": 0}, "subcommand"),
    ("equidistribute", {"flow_kind": "geodesic", "lengths": [10]}, "flow_kind"),
    # a non-object `tolerances` used to escape as a TypeError traceback
    ("flows", {"tolerances": 5}, "tolerances"),
    # values go through the flag's own type: 2.7 is no int, "a" no float list
    ("flows", {"tau_max": 2.7}, "tau_max"),
    ("ascend", {"s": "a"}, "'s'"),
    # a file that is no JSON object used to escape as an AttributeError traceback
    ("flows", [1], "object")])
def test_config_values_are_checked_like_flags(tmp_path, capsys, subcommand, file_cfg, message):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(file_cfg))
    code, out = run_cli([subcommand, "--config", str(cfgfile), "--out", str(tmp_path),
                         "--json-summary"], capsys)
    assert code == 2
    diag = json.loads(out)
    assert diag["passed"] is False and message in diag["error"]


def test_config_lists_and_numbers_read_as_flag_text(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"s": [25, 50.5], "tau_max": 3, "B": 1,
                                   "tolerances": {"flow_conjugacy_abs": 1}}))
    cfg = config_from_args(build_parser().parse_args(["flows", "--config", str(cfgfile)]))
    assert cfg.s == [25.0, 50.5] and cfg.tau_max == 3 and cfg.B == 1.0
    assert type(cfg.B) is float and cfg.tolerances["flow_conjugacy_abs"] == 1


def test_equidistribute_artifacts(tmp_path, capsys):
    code, out = run_cli(["equidistribute", "horocyclic",
                         "--lengths", "20,50", "--out", str(tmp_path),
                         "--json-summary", "--assert"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["non_increasing"] is True
    lines = (tmp_path / "equidistribution.csv").read_text().strip().split("\n")
    assert lines[0] == "length,discrepancy"
    assert len(lines) == 3


@pytest.mark.parametrize("lengths", ["--lengths=-5,10", "--lengths=inf",
                                     "--lengths=nan", "--lengths=,"])
def test_equidistribute_bad_lengths_exit_2(tmp_path, capsys, lengths):
    # -5 used to pass with a row from xs[:-499]; inf escaped as a traceback
    code, out = run_cli(["equidistribute", "horocyclic", lengths,
                         "--out", str(tmp_path), "--assert"], capsys)
    assert code == 2
    diag = json.loads(out, parse_constant=lambda tok: pytest.fail(tok))
    assert diag["passed"] is False and "ValueError" in diag["error"]


def test_equidistribute_assert_one_length_says_no_check_ran(tmp_path, capsys):
    code, out = run_cli(["equidistribute", "horocyclic", "--lengths", "20",
                         "--out", str(tmp_path), "--assert"], capsys)
    assert code == 1
    diag = json.loads(out)
    assert diag["passed"] is False
    assert diag["failures"] == [
        {"reason": "no check ran: need at least two lengths"}]


def test_determinism_byte_identical(tmp_path, capsys):
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    for d in (d1, d2):
        code, _ = run_cli(["equidistribute", "geodesic",
                           "--lengths", "10,30", "--out", str(d)], capsys)
        assert code == 0
    assert (d1 / "equidistribution.csv").read_bytes() == \
           (d2 / "equidistribution.csv").read_bytes()
    assert (d1 / "equidistribution_summary.json").read_bytes() == \
           (d2 / "equidistribution_summary.json").read_bytes()


def test_csv_uses_17_significant_digits(tmp_path, capsys):
    run_cli(["flows", "--B", "0.5", "--tau-max", "1",
             "--out", str(tmp_path)], capsys)
    text = (tmp_path / "flows.csv").read_text()
    assert "0.29999999999999999" in text
    assert ";" not in text  # comma separated, point decimal


def test_ascend_artifacts(tmp_path, capsys):
    code, out = run_cli(["ascend", "--s", "25", "--B", "0.4",
                         "--eta0", "0.2", "--out", str(tmp_path),
                         "--json-summary"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["b_field_reached"] == math.floor(0.4 * 25) / 25
    assert 0 < summary["c1_product_modulus"] < 1.5
    lines = (tmp_path / "ascend_wave.csv").read_text().strip().split("\n")
    assert len(lines) == 402


def test_ascend_assert_checks_monochromaticity(tmp_path, capsys):
    code, out = run_cli(["ascend", "--s", "50", "--B", "0.5", "--out",
                         str(tmp_path), "--json-summary", "--assert"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"] is True
    assert 0 < summary["monochromatic_rel"] < 1e-2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(
        {"tolerances": {"ascend_monochromatic_rel": 1e-6}}))
    code, out = run_cli(["ascend", "--s", "50", "--B", "0.5", "--config",
                         str(cfgfile), "--out", str(tmp_path), "--assert"],
                        capsys)
    assert code == 1
    diag = json.loads(out)
    assert diag["passed"] is False
    assert diag["failures"][0]["reason"] == "ascended wave not monochromatic"


@pytest.mark.parametrize("argv", [
    ["ascend", "--B", "-1"], ["ascend", "--B", "nan"], ["ascend", "--s", "0"],
    ["equidistribute", "hypercyclic", "--B", "inf", "--lengths", "10,100"]])
def test_bad_field_fails_with_strict_json(tmp_path, capsys, argv):
    # these used to exit 0 with "passed": true (and an Infinity token)
    code, out = run_cli(argv + ["--out", str(tmp_path), "--assert"], capsys)
    assert code == 2
    diag = json.loads(out, parse_constant=lambda tok: pytest.fail(tok))
    assert diag["passed"] is False and "ValueError" in diag["error"]


@pytest.mark.parametrize("B", ["nan", "inf", "-1"])
def test_flows_reports_the_packages_field_check(tmp_path, capsys, B):
    # nan used to fail inside scipy ("initial state `y0` must be finite")
    code, out = run_cli(["flows", "--B", B, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "need finite B >= 0" in json.loads(out)["error"]


def test_json_output_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": math.inf})


@pytest.mark.parametrize("s1, a", [("10", "12"), ("50", "20")])
def test_whittaker_assert_off_reference_pair_fails(tmp_path, capsys, s1, a):
    # no reference table to check against: --assert must not pass silently
    code, out = run_cli(["whittaker", "--s1", s1, "--a", a, "--tau-max", "0",
                         "--out", str(tmp_path), "--assert"], capsys)
    assert code == 1
    diag = json.loads(out)
    assert diag["passed"] is False
    assert diag["failures"] == [
        {"reason": f"no reference peak table for s1={float(s1)}, a={float(a)}"}]


@pytest.mark.slow
def test_whittaker_single_tau(tmp_path, capsys):
    code, out = run_cli(["whittaker", "--tau-max", "0",
                         "--out", str(tmp_path), "--json-summary",
                         "--assert"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert len(summary["peaks"]) == 1
    assert abs(summary["peaks"][0]["abscissa"] - 1.884) < 0.002
    assert (tmp_path / "whittaker_tau0.csv").exists()
    assert not (tmp_path / "whittaker_tau1.csv").exists()


def test_whittaker_rows_match_the_wave_functions(tmp_path, capsys, monkeypatch):
    # one sweep per degree serves both outputs; each must read exactly as
    # whittaker_W on the CSV grid and whittaker_peaks on its own scan
    sweeps = []
    sweep = waves._whittaker_sweep
    monkeypatch.setattr(waves, "_whittaker_sweep",
                        lambda p, ys: sweeps.append(p.tau) or sweep(p, ys))
    code, _ = run_cli(["whittaker", "--s1", "24", "--a", "12", "--tau-max", "1",
                       "--out", str(tmp_path)], capsys)
    assert code == 0 and sweeps == [0, 1]
    monkeypatch.undo()
    peaks = json.loads((tmp_path / "whittaker_peaks.json").read_text())["peaks"]
    assert [r["tau"] for r in peaks] == [0, 1]
    ys = np.linspace(1.0, 3.0, 801)
    for tau in (0, 1):
        p = WhittakerParams(tau=tau, s1=24.0, a=12.0)
        rows = np.loadtxt(tmp_path / f"whittaker_tau{tau}.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows[:, 0], ys)
        assert np.array_equal(rows[:, 1], np.abs(whittaker_W(p, ys))
                              / ascension_norm(tau, 24.0))
        y_pk, v_pk = max(whittaker_peaks(p, (1.0, 3.0), normalized=True),
                         key=lambda pk: pk[1])
        assert (peaks[tau]["abscissa"], peaks[tau]["ordinate"]) == (y_pk, v_pk)


@pytest.mark.slow
def test_measure_transport_small(tmp_path, capsys):
    code, out = run_cli(["measure-transport", "--s", "50", "--B", "0.5",
                         "--out", str(tmp_path), "--json-summary",
                         "--assert"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["rel_diff"][0] < 0.1
    header = (tmp_path / "measure_transport.csv").read_text().split("\n")[0]
    assert header == "s,b_field,eta0,eps,lhs_re,lhs_im,rhs_re,rhs_im,rel_diff"


@pytest.mark.parametrize("argv", [
    ["whittaker", "--tau-max", "-1"], ["flows", "--tau-max", "-2"],
    ["measure-transport", "--s", ","], ["ascend", "--s="],
    ["ascend", "--s", "100,200"]])
def test_inputs_that_leave_nothing_to_check_exit_2(tmp_path, capsys, argv):
    # these used to pass --assert on an empty table or span, die with an
    # IndexError (ascend --s ""), or drop every --s value but the first
    code, out = run_cli(argv + ["--out", str(tmp_path), "--assert"], capsys)
    assert code == 2
    diag = json.loads(out, parse_constant=lambda tok: pytest.fail(tok))
    assert diag["passed"] is False and "ValueError" in diag["error"]


def test_flows_assert_zero_span_says_no_check_ran(tmp_path, capsys):
    code, out = run_cli(["flows", "--tau-max", "0", "--out", str(tmp_path),
                         "--assert"], capsys)
    assert code == 1
    diag = json.loads(out)
    assert diag["passed"] is False
    assert diag["failures"] == [{"reason": "no check ran: need a positive --tau-max"}]
