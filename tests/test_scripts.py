"""Smoke tests for scripts/: each runs at a small size, exits 0 and prints
(or writes) its header lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_run_equidistribution(tmp_path):
    lines = run_script("run_equidistribution.py", "--lengths", "1e1,1e2",
                       cwd=tmp_path)
    assert [ln.split()[0] for ln in lines[::2]] == [
        "horocyclic", "hypercyclic", "hypercyclic", "geodesic"]
    assert len(lines) == 8 and all("discrepancy=" in ln for ln in lines)
    assert all(float(ln.split("steps/s=")[1]) > 0 for ln in lines)


def test_run_transport_suite(tmp_path):
    lines = run_script("run_transport_suite.py", "--s-max", "50", cwd=tmp_path)
    assert lines[0] == "# modulus transport |omega(Phi)| vs |w0| e^{f3}"
    forms = lines.index("# packet quadratic forms across the magnetic map")
    assert lines[forms + 1].startswith("s=50  lhs=") and float(lines[forms + 1].split("ms=")[1]) > 0
    assert lines[-1].startswith("s=50 ")
    shell = lines.index("# energy shell off/ref, ms for the first and each further symbol")
    assert lines[shell + 1].startswith("s=50  off/ref=")


def test_run_wave_scaling(tmp_path):
    lines = run_script("run_wave_scaling.py", "--s", "25", "--oracle-max", "25",
                       "--whittaker-s1", "25", cwd=tmp_path)
    assert lines[0].split() == ["s", "ms/wave", "err", "vs", "DOP853"]
    assert lines[2].split() == ["s1", "ms/sweep", "panels", "err", "vs", "whitw"]
    assert len(lines) == 4


@pytest.mark.parametrize("args, printed", [
    # turning point s1/a < 1: no peak in [1, 3] (used to crash in max())
    (["--s1", "10", "--a", "12", "--tau-max", "1"],
     ["tau=0  no peak in [1, 3]", "tau=1  no peak in [1, 3]"]),
    (["--tau-max", "1"], None)])
def test_run_whittaker_figure(tmp_path, args, printed):
    out = tmp_path / "fig"
    lines = run_script("run_whittaker_figure.py", "--out", str(out), *args,
                       cwd=tmp_path)
    if printed is not None:
        assert lines == printed
    else:  # the shift per degree is compared with 1/a = 0.04, not 1/s1
        assert lines[-1].startswith("shift tau 0->1: 0.03")
        assert lines[-1].endswith("(1/a = 0.0400)")
    assert (out / "whittaker_tau1.csv").read_text().startswith("y,abs_w_scaled\n")
    assert (out / "whittaker_peaks.json").read_text().startswith('{\n  "peaks": [')
