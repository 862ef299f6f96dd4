"""Discrete isometry groups of the hyperbolic plane.

Automorphy factors for forms of integer degree, the cylinder group
generated by a single dilation, a compact genus-2 group built from the
regular hyperbolic octagon with vertex angles pi/4, and greedy reduction
of points into each group's Dirichlet domain centered at i.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce

import numpy as np

from .geometry import HPoint, hyperbolic_distance, mobius_apply, mobius_from_matrix

# regular octagon with all vertex angles pi/4: right triangle
# (center, side midpoint, vertex) has angles pi/8, pi/2, pi/8, giving
# cosh(apothem) = cot(pi/8) and cosh(center-to-vertex) = cot(pi/8)^2
_COSH_HALF_T = 1.0 + math.sqrt(2.0)  # cosh of the apothem = half pairing length
_COSH_R = 3.0 + 2.0 * math.sqrt(2.0)  # cosh of center-to-vertex distance


@dataclass(frozen=True, eq=False)
class FuchsianGroup:
    """Finitely generated discrete group, given by its generators, with its
    Dirichlet domain centered at i."""

    kind: str  # 'cylinder' or 'octagon'
    generators: np.ndarray  # read-only (n, 2, 2), from any sequence of 2x2 arrays
    vertices: tuple[complex, ...] = ()  # half-plane vertices, octagon only

    def __post_init__(self):
        gens = np.array(self.generators, dtype=float)
        if not (gens.shape[1:] == (2, 2) and np.isfinite(gens).all()
                and np.all(np.abs(np.linalg.det(gens) - 1.0) <= 1e-10)):
            raise ValueError("generators must be finite 2x2 arrays of unit determinant")
        gens.flags.writeable = False
        object.__setattr__(self, "generators", gens)

    @cached_property
    def inverses(self) -> np.ndarray:
        """Each generator's inverse, in order, read-only: the exact adjugate [[d, -b], [-c, a]]."""
        inv = self.generators[:, ::-1, ::-1].swapaxes(1, 2) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        inv.flags.writeable = False
        return inv

    @cached_property
    def moves(self) -> tuple[tuple[float, float, float, float], ...]:
        """Generators, then inverses, as (a, b, c, d)."""
        moves = np.concatenate((self.generators, self.inverses)).reshape(-1, 4)
        return tuple(map(tuple, moves.tolist()))

    @cached_property
    def dirichlet_forms(self) -> tuple[tuple[float, float, float], ...]:
        """|MF|^2 - |F|^2 = <M^T M - I, F F^T> per move M as coefficients of
        (a^2 + b^2, ac + bd, c^2 + d^2) for a frame F = [[a, b], [c, d]]:
        F i is in the Dirichlet domain iff all are >= 0 (|F|^2 = 2 cosh d)."""
        return tuple((ma * ma + mc * mc - 1.0, 2.0 * (ma * mb + mc * md),
                      mb * mb + md * md - 1.0) for ma, mb, mc, md in self.moves)

    @cached_property
    def dirichlet_norms(self) -> tuple[float, ...]:
        """Minkowski norm sqrt((fp - fr)^2 + fq^2 - (fp + fr)^2) of each Dirichlet form,
        4 sinh(D/2) = 2 sqrt(|M|^2 - 2) for a move M carrying i a distance D, evaluated
        without the cancellation of the squares."""
        return tuple(2.0 * math.hypot(ma - md, mb + mc) for ma, mb, mc, md in self.moves)

    @cached_property
    def unit_dirichlet_forms(self) -> tuple[tuple[float, float, float], ...]:
        """Each Dirichlet form divided by its norm: on a unit-determinant frame it
        reads sinh of the signed distance from F i to its side (positive inside)."""
        return tuple((fp / n, fq / n, fr / n)
                     for (fp, fq, fr), n in zip(self.dirichlet_forms, self.dirichlet_norms))

    @cached_property
    def reduce_threshold(self) -> float:
        """|F|^2 = 2 cosh d(F i, i) past which reduction engages: sqrt(|M|^2 + 2) = 2 cosh(l/2)
        for the move M of shortest translation l."""
        return math.sqrt(min(sum(v * v for v in m) for m in self.moves) + 2.0) + 1e-9

    def reduce_frame(self, a, b, c, d, used=None):
        """Greedy Dirichlet reduction of a frame: each sweep applies the move
        that lowers |F|^2 the most, by more than 1e-13, and appends its
        index to `used`.  A sweep runs only if a Dirichlet form is <= 1e-9
        (far above their ~1e-13 rounding): the ungated result, bit for bit."""
        cur, threshold = a * a + b * b + c * c + d * d, self.reduce_threshold
        while cur > threshold:
            p, q, r = a * a + b * b, a * c + b * d, c * c + d * d
            for fp, fq, fr in self.dirichlet_forms:
                if fp * p + fq * q + fr * r <= 1e-9:
                    break
            else:
                break
            best, best_k = cur, None
            for k, (ma, mb, mc, md) in enumerate(self.moves):
                na, nb = ma * a + mb * c, ma * b + mb * d
                nc, nd = mc * a + md * c, mc * b + md * d
                v = na * na + nb * nb + nc * nc + nd * nd
                if v < best - 1e-13:
                    best, best_k, best_t = v, k, (na, nb, nc, nd)
            if best_k is None:
                break
            (a, b, c, d), cur = best_t, best
            if used is not None:
                used.append(best_k)
        return a, b, c, d


def automorphy_factor(M, z: HPoint, tau: int) -> complex:
    """Unit-modulus multiplier ((cz + d) / (c zbar + d))^tau of a degree-tau form under
    the isometry [[a, b], [c, d]] at the point z."""
    c, d = np.asarray(M, dtype=float)[1]
    zc = z.as_complex()
    val = ((c * zc + d) / (c * zc.conjugate() + d)) ** tau
    return complex(val / abs(val))


def cylinder_group(l: float) -> FuchsianGroup:
    """Group generated by z -> e^l z; its Dirichlet domain about i is the strip
    e^{-l/2} <= |z| <= e^{l/2}."""
    if not 0 < l < math.inf:
        raise ValueError(f"neck length must be finite and positive, got {l}")
    h = math.exp(l / 2)
    g = mobius_from_matrix(np.array([[h, 0.0], [0.0, 1.0 / h]]))
    return FuchsianGroup(kind="cylinder", generators=(g,))


def _disk_generator(k: int) -> np.ndarray:
    """Disk-model translation of length 2*apothem along direction k*pi/4."""
    sh = math.sqrt(_COSH_HALF_T**2 - 1.0)
    e = cmath.exp(1j * k * math.pi / 4)
    return np.array([[_COSH_HALF_T, sh * e],
                     [sh * e.conjugate(), _COSH_HALF_T]])


_CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def _to_halfplane_matrix(m_disk: np.ndarray) -> np.ndarray:
    m = _CAYLEY_INV @ m_disk @ _CAYLEY
    m = m / np.sqrt(np.linalg.det(m))
    if np.abs(m.imag).max() > 1e-10:
        raise RuntimeError("conjugated matrix is not real")
    return mobius_from_matrix(m.real)


def octagon_vertices_disk() -> np.ndarray:
    """Disk-model vertices of the regular octagon, at angles pi/8 + k pi/4."""
    R = math.acosh(_COSH_R)
    r = math.tanh(R / 2)
    return r * np.exp(1j * (math.pi / 8 + np.arange(8) * math.pi / 4))


@cache  # one group, shared by every caller
def octagon_group() -> FuchsianGroup:
    """Side-pairing group of the regular octagon (genus-2 surface).

    Generator k translates along the direction k*pi/4 through the center
    and carries the opposite side onto side k; the surface relator is
    g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3.
    """
    gens = tuple(_to_halfplane_matrix(_disk_generator(k)) for k in range(4))
    # Cayley inverse: disk w -> half-plane i(1+w)/(1-w)
    verts = tuple(1j * (1 + w) / (1 - w) for w in octagon_vertices_disk())
    return FuchsianGroup(kind="octagon", generators=gens, vertices=verts)


def octagon_relator(G: FuchsianGroup) -> np.ndarray:
    """Matrix of the genus-2 surface relator; identity for the true group."""
    g, gi = G.generators, G.inverses
    m = np.linalg.multi_dot([g[0], gi[1], g[2], gi[3], gi[0], g[1], gi[2], g[3]])
    return m * np.sign(m[0, 0])


def _angle_at(v: complex, p: complex, q: complex) -> float:
    """Interior angle at half-plane point v between geodesics to p and q.

    The Mobius map w -> (w - v)/(w - conj(v)) sends v to the disk center,
    where geodesics through the center are Euclidean diameters.
    """
    tp = (p - v) / (p - v.conjugate())
    tq = (q - v) / (q - v.conjugate())
    d = abs(cmath.phase(tp / tq))
    return min(d, 2 * math.pi - d)


def octagon_area(G: FuchsianGroup) -> float:
    """Hyperbolic area from the Gauss-Bonnet angle defect, numerically."""
    vs = G.vertices
    total = 0.0
    for i, v in enumerate(vs):
        total += _angle_at(v, vs[i - 1], vs[(i + 1) % len(vs)])
    return 6 * math.pi - total


def side_pairing_error(G: FuchsianGroup) -> float:
    """Max distance between mapped opposite-side endpoints and side k."""
    vs = G.vertices
    worst = 0.0
    for k in range(4):
        g = G.generators[k]
        # side k sits between vertices k-1 and k; its opposite between
        # vertices k+3 and k+4
        tgt = {vs[k - 1], vs[k]}
        src = [vs[k + 3], vs[(k + 4) % 8]]
        for sp in src:
            zp = mobius_apply(g, HPoint(sp.real, sp.imag))
            err = min(hyperbolic_distance(zp, HPoint(t.real, t.imag))
                      for t in tgt)
            worst = max(worst, err)
    return worst


def reduce_to_domain(z: HPoint, G: FuchsianGroup) -> tuple[HPoint, np.ndarray]:
    """Move z into the Dirichlet domain of `reduce_frame`; returns (point, gamma)
    with gamma(point) = z, and (z, identity) when no move applies."""
    sq, used = math.sqrt(z.y), []
    a, b, c, d = G.reduce_frame(sq, z.x / sq, 0.0, 1.0 / sq, used)
    if not used:  # the frame round trip would move z by rounding
        return z, np.eye(2)
    # move k is undone by the k-th of the inverses, then the generators
    gamma = reduce(np.matmul, np.concatenate((G.inverses, G.generators))[used])
    den = c * c + d * d
    return HPoint((a * c + b * d) / den, 1.0 / den), mobius_from_matrix(gamma)
