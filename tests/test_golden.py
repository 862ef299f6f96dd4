"""Golden artifacts: the bits of the README's command lines, eight octagon
orbits, three discrepancy series and three packet-wave batches, pinned in
`golden.json` beside this file.

`PYTHONPATH=src python tests/test_golden.py` rewrites the file; do so only for
a change whose outputs are meant to move, and say which entries moved.  The
bits belong to one Python, numpy and scipy; on other versions the test fails
naming both sets, and never skips.
"""

import contextlib
import hashlib
import io
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import scipy

from hyperlab import cli, waves
from hyperlab.ergodic import equidistribution_series, sample_orbit, seeded_unit_vector
from hyperlab.quantize import _SHELL_GRID, ascend_coeffs, geodesic_packet

GOLDEN = Path(__file__).with_name("golden.json")
README = Path(__file__).resolve().parents[1] / "README.md"

# (kind, B, length): the horocycle at 1e4, the chaotic B = 0.5, the fast-mixing
# B = 5 and the geodesic at 1e3; the series runs each of the last three
_ORBITS = [("horocyclic", 0.0, 1e4), ("hypercyclic", 0.5, 1e3),
           ("hypercyclic", 5.0, 1e3), ("geodesic", 0.0, 1e3)]
_SERIES_LENGTHS = [1e2, 3e2, 1e3]


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_files(tmp: Path) -> dict:
    """The sha256 of each file the README's command lines write, by file name."""
    out = tmp / "out"
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("hyperlab "):
            argv = [str(out) if arg == "out/" else arg for arg in line.split()[1:]]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, line
    return {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())}


def _orbits() -> dict:
    """The sha256 of each orbit's xs, ys and thetas as raw '<f8' bytes, in that order."""
    digests = {}
    for seed in (7, 8):
        for kind, B, length in _ORBITS:
            o = sample_orbit(seeded_unit_vector(seed), kind, length, B=B)
            data = b"".join(np.asarray(a, dtype="<f8").tobytes() for a in (o.xs, o.ys, o.thetas))
            digests[f"{kind} B={B:g} length={length:g} seed={seed}"] = _sha256(data)
    return digests


def _series() -> dict:
    """The seed-7 discrepancy series of the last three orbits, as float.hex."""
    return {f"{kind} B={B:g}": [d.hex() for _, d in equidistribution_series(
                kind, seeded_unit_vector(7), _SERIES_LENGTHS, B=B)]
            for kind, B, _ in _ORBITS[1:]}


def _wave_bytes(values, derivs) -> str:
    return _sha256(b"".join(np.asarray(a, dtype="<c16").tobytes() for a in (values, derivs)))


def _waves() -> dict:
    """The sha256 of `solve_waves`' values then derivatives as raw '<c16' bytes: the
    branch-I waves of the two energy-shell packets on the shell grid, and the
    three-wave batch of the README's `ascend` line."""
    digests = {}
    for name, coeffs, s, B1 in [
            ("shell s=100 B1=0", geodesic_packet(100.0, 0.2, 6, 2 * np.pi), 100.0, 0.0),
            ("shell s=25 B1=8", ascend_coeffs(geodesic_packet(25.0, 0.2, 2, 2 * np.pi),
                                              25.0, 8.0), 25.0, 8.0)]:
        mts = coeffs.ms / s
        digests[name] = _wave_bytes(*waves.solve_waves(
            B1, mts, s, *waves.branch_ic(B1, mts, s, "I"), _SHELL_GRID, derivs=True))
    solve, batches = waves.solve_waves, []
    waves.solve_waves = lambda *a, **kw: batches.append(solve(*a, **kw)) or batches[-1]
    try:
        waves.ascend(20.0, 100.0, 0.5, np.linspace(-1.0, 1.0, 401))
    finally:
        waves.solve_waves = solve
    (batch,) = batches
    digests["ascend s=100 B=0.5 m=20"] = _wave_bytes(*batch)
    return digests


def _golden(tmp: Path) -> dict:
    return {"versions": _versions(), "cli_files": _cli_files(tmp),
            "orbits": _orbits(), "series": _series(), "waves": _waves()}


def test_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _versions() == golden["versions"], (
        f"the golden bits are of {golden['versions']}, this run has {_versions()}")
    got = _golden(tmp_path)
    for section in ("cli_files", "orbits", "series", "waves"):
        assert got[section] == golden[section], section


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_golden(Path(tmp)), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
