"""Primitives shared by every layer: the effective potential, the admissible
window, one quadrature rule and one plateau bump.

The admissible window is one check per input domain, each a ValueError outside
its bound (entrywise on arrays); the bounds and their reasons:
- field B >= 0, finite (`check_field`): B is reached as [Bs] raisings, a count;
- scale s > 0, finite (`check_scale`): frequencies are read as m/s, degrees as [Bs];
- angle |beta| < pi/2 (`check_angle`): Q carries 1/cos^2(beta), infinite at the ends;
- band |m| <= s/2 (`in_band`, `check_band`): ascended packets stay on branch I there;
- phase window |mtilde| < 1 (`check_window`): Q >= (1 + B1^2)(1 - mtilde^2) > 0 there,
  so the phase integral of sqrt(Q) is real for every finite B1;
- packet centre |eta0| < 1/2 (`check_centre`): the centre lies inside the band;
- degree tau, an integer >= 0 (`check_degree`): it counts raisings;
- orbit length L >= 0, finite (`check_length`): a flow time, sampled at L/step steps;
- reached degree n = [Bs], field B1 = n/s (`reached_degree`): one raising per hbar = 1/s
  of adiabatic time B.  `geometry.check_speed` holds the speed level |v| = sqrt(B^2 + 1).

This module imports nothing from hyperlab, so the layers above it
(geometry, groups, waves, transport; then quantize, ergodic; then the CLI)
import in one direction.
"""

from __future__ import annotations

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gauss_quad(f, a: float, b: float, panels: int = 8):
    """Composite 32-point Gauss-Legendre rule on `panels` equal panels of [a, b].

    f is called once, on the nodes as an array of shape (panels, 32), and may
    return leading axes, (..., panels, 32): the rule sums over the last two
    axes only, one integral per leading index.
    """
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return np.sum(half * _GL_WEIGHTS * f(0.5 * (edges[1:] + edges[:-1])[:, None]
                                         + half * _GL_NODES), axis=(-2, -1))


def Q(B1: float, mtilde: float, beta):
    """Effective potential of the separated wave equation."""
    c = np.cos(beta)
    return 2 * B1 * mtilde * np.tan(beta) - mtilde**2 + 1.0 / c**2 + B1**2


def Q_prime(B1: float, mtilde: float, beta):
    """d/dbeta of Q."""
    c = np.cos(beta)
    return 2 * B1 * mtilde / c**2 + 2 * np.sin(beta) / c**3


def check_field(B) -> None:
    if not np.all(np.isfinite(B) & (np.asarray(B) >= 0)):
        raise ValueError(f"need finite B >= 0, got B={B}")


def check_scale(s) -> None:
    if not (np.isfinite(s) and s > 0):
        raise ValueError(f"need finite s > 0, got s={s}")


def check_angle(beta) -> None:
    if not np.all(np.abs(beta) < np.pi / 2):
        raise ValueError(f"need |beta| < pi/2, got beta={beta}")


def in_band(mtilde):
    return np.abs(mtilde) <= 0.5


def check_band(mtilde) -> None:
    if not np.all(in_band(mtilde)):
        raise ValueError(f"need |m| <= s/2, got max |m/s| = {np.max(np.abs(mtilde))}")


def check_window(mtilde) -> None:
    if not np.all(np.abs(mtilde) < 1.0):
        raise ValueError(f"need |mtilde| < 1, got mtilde={mtilde}")


def check_centre(eta0) -> None:
    if not np.all(np.abs(eta0) < 0.5):
        raise ValueError(f"need |eta0| < 1/2, got eta0={eta0}")


def check_degree(tau) -> None:
    if not (isinstance(tau, (int, np.integer)) and tau >= 0):
        raise ValueError(f"degree tau must be an integer >= 0, got {tau!r}")


def check_length(L) -> None:
    if not np.all(np.isfinite(L) & (np.asarray(L) >= 0)):
        raise ValueError(f"need finite lengths >= 0, got length={L}")


def reached_degree(B, s) -> tuple[int, float]:
    check_field(B)
    check_scale(s)
    n = int(np.floor(B * s))
    return n, n / s


def branch_sign(branch: str) -> int:
    """+1 for the WKB branch "I", -1 for "II"; any other label is an error."""
    if branch not in ("I", "II"):
        raise ValueError(f"branch must be 'I' or 'II', got {branch!r}")
    return 1 if branch == "I" else -1


def bump(t):
    """Smooth plateau bump: 1 on [-1/4, 1/4], 0 outside [-1/2, 1/2].

    Maps a scalar to a float and an array to an array of its shape.
    """
    x = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(x)
    out[x <= 0.25] = 1.0
    mid = (x > 0.25) & (x < 0.5)
    # smoothstep on the shoulder via the standard exp(-1/x) partition
    u = (x[mid] - 0.25) / 0.25
    fa = np.exp(-1.0 / u)
    fb = np.exp(-1.0 / (1.0 - u))
    out[mid] = fb / (fa + fb)
    return float(out) if np.ndim(t) == 0 else out
