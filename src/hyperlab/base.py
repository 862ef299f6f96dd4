"""Primitives shared by every layer: the effective potential, input checks,
one quadrature rule and one plateau bump.

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


def check_field(B, s) -> None:
    """Reject a non-finite or negative field B and a non-finite or non-positive s."""
    if not (np.all(np.isfinite(B) & (np.asarray(B) >= 0)) and np.isfinite(s) and s > 0):
        raise ValueError(f"need finite B >= 0 and s > 0, got B={B}, s={s}")


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
