"""Golden artifacts: the bits of the README's command lines, eight octagon
orbits and three discrepancy series, pinned in `golden.json` beside this file.

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

from hyperlab import cli
from hyperlab.ergodic import equidistribution_series, sample_orbit, seeded_unit_vector

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


def _golden(tmp: Path) -> dict:
    return {"versions": _versions(), "cli_files": _cli_files(tmp),
            "orbits": _orbits(), "series": _series()}


def test_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _versions() == golden["versions"], (
        f"the golden bits are of {golden['versions']}, this run has {_versions()}")
    got = _golden(tmp_path)
    for section in ("cli_files", "orbits", "series"):
        assert got[section] == golden[section], section


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_golden(Path(tmp)), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
