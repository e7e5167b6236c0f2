"""Contours, the regions they bound, and their gate points.

Every contour holds the open region it bounds (``Contour.region``), which
builds it (``contour``): a ``CircleRegion`` a circle, a ``GapRegion`` a closed
gap contour between parabolas.  Besides its region a contour is three arrays:
its nodes, their weights and its panel endpoints (``breaks``).  A region holds
the geometry without nodes: the predicate ``contains``, which selects the
eigenvalues inside, and ``distance_bound``, a lower bound on the distance to
the contour, with which ``projections`` gates a whole contour at once.  Where
that bound is too small, the gate checks the contour's ``gate_points``: every
node and panel endpoint, corners included.

Circles carry periodic trapezoid nodes; gap contours carry composite
Gauss-Legendre panels of ``MIN_NODES_PER_SEGMENT`` nodes on each of their four
sides.  The weights w_j give integral_Gamma f(z) dz ~ sum_j w_j f(z_j),
counterclockwise, and ``refined`` doubles the panels.  No production route
integrates, and no winding number is computed here: the weights serve the
tests' quadrature references and the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InputError

#: minimum nodes per segment; on gap contours, the Gauss-Legendre panel order
MIN_NODES_PER_SEGMENT = 16

# panel nodes and weights on [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(MIN_NODES_PER_SEGMENT)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class Contour:
    """Closed quadrature contour around ``region`` (a ``CircleRegion`` or a
    ``GapRegion``), which builds it; ``refined(factor)`` rebuilds with factor
    times the nodes (on gap contours, factor times the panels)."""

    region: CircleRegion | GapRegion
    nodes: np.ndarray
    weights: np.ndarray
    #: panel endpoints, corners included, in the order of the nodes (none on a circle)
    breaks: np.ndarray
    nodes_per_segment: int

    @property
    def gate_points(self) -> np.ndarray:
        """Points the margin gate checks: every node, then every panel endpoint."""
        return np.concatenate([self.nodes, self.breaks])

    def refined(self, factor: int = 2) -> "Contour":
        return self.region.contour(self.nodes_per_segment * int(factor))


def _open_segment(z_of, dz_of, m, rot):
    """Composite Gauss-Legendre panels on one open segment, rotated by rot:
    (nodes, weights, panel endpoints other than the segment's end)."""
    panels = m // MIN_NODES_PER_SEGMENT
    left = np.arange(panels) / panels
    s = (left[:, None] + _GL_NODES[None, :] / panels).ravel()
    weights = dz_of(s) * np.tile(_GL_WEIGHTS / panels, panels)
    return z_of(s) * rot, weights * rot, z_of(left) * rot


def circle(center: complex, radius: float, node_count: int = 64) -> Contour:
    """Positively oriented circle."""
    return CircleRegion(complex(center), float(radius)).contour(node_count)


@dataclass(frozen=True)
class CircleRegion:
    """The open disc |z - center| < radius."""

    center: complex
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.center) and 0.0 < self.radius < np.inf):
            raise InputError("need a finite center and a finite positive radius")

    def contour(self, node_count: int = 64) -> Contour:
        """Its boundary, positively oriented: node_count periodic trapezoid nodes
        (``circle``)."""
        m = int(node_count)
        if m < MIN_NODES_PER_SEGMENT:
            raise InputError("need at least %d nodes per segment" % MIN_NODES_PER_SEGMENT)
        c, r = complex(self.center), float(self.radius)
        e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        return Contour(region=self, nodes=c + r * e, weights=1j * r * e * (2.0 * np.pi / m),
                       breaks=np.zeros(0, dtype=complex), nodes_per_segment=m)

    def contains(self, z) -> np.ndarray:
        return np.abs(np.asarray(z) - self.center) < self.radius

    def distance_bound(self, z) -> np.ndarray:
        """Lower bound on the distance from each point to the circle: the exact
        ||z - center| - radius| less 8 u (|z| + |center| + radius), u = 2^-52,
        which covers the rounding of the two differences and the modulus."""
        z = np.asarray(z)
        pad = 8.0 * numerics.EPS * (np.abs(z) + abs(self.center) + self.radius)
        return np.abs(np.abs(z - self.center) - self.radius) - pad


@dataclass(frozen=True)
class GapRegion:
    """The gap region { x_left < x < x_right, |y| < alpha x^p } in ray
    coordinates w = x + i y = e^{-i theta} z."""

    x_left: float
    x_right: float
    alpha: float
    p: float
    theta: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_left, self.x_right, self.alpha, self.theta])):
            raise InputError("need finite x_left, x_right, alpha and theta")
        if not (0.0 < self.x_left < self.x_right):
            raise InputError("need 0 < x_left < x_right")
        if self.alpha < 0.0 or not (0.0 <= float(self.p) < 1.0):
            raise InputError("need alpha >= 0 and p in [0, 1)")
        if self.alpha == 0.0:
            raise InputError("alpha must be positive for a non-degenerate contour")

    def contour(self, nodes_per_segment: int = 32) -> Contour:
        """Its boundary, traversed counterclockwise (``gap_contour``): composite
        Gauss-Legendre panels on the lower arc, right side, upper arc, left side."""
        m = int(nodes_per_segment)
        if m < MIN_NODES_PER_SEGMENT:
            raise InputError("need at least %d nodes per segment" % MIN_NODES_PER_SEGMENT)
        if m % MIN_NODES_PER_SEGMENT:
            raise InputError("nodes per segment must be a multiple of %d"
                             % MIN_NODES_PER_SEGMENT)
        xl, xr, alpha, p, theta = map(float, (self.x_left, self.x_right, self.alpha, self.p,
                                              self.theta))
        hl = alpha * xl**p
        hr = alpha * xr**p

        def arc(sign, a, b):
            def z_of(s):
                x = a + (b - a) * s
                return x + sign * 1j * alpha * x**p

            def dz_of(s):
                x = a + (b - a) * s
                slope = alpha * p * x ** (p - 1.0) if p > 0.0 else np.zeros_like(x)
                return (1.0 + sign * 1j * slope) * (b - a)

            return z_of, dz_of

        def vertical(x0, y_from, y_to):
            def z_of(s):
                return x0 + 1j * (y_from + (y_to - y_from) * s)

            def dz_of(s):
                return 1j * (y_to - y_from) * np.ones_like(s)

            return z_of, dz_of

        rot = np.exp(1j * theta)
        sides = [_open_segment(z_of, dz_of, m, rot)
                 for z_of, dz_of in (arc(-1.0, xl, xr), vertical(xr, -hr, hr),
                                     arc(+1.0, xr, xl), vertical(xl, hl, -hl))]
        nodes, weights, breaks = (np.concatenate(parts) for parts in zip(*sides))
        return Contour(region=self, nodes=nodes, weights=weights, breaks=breaks,
                       nodes_per_segment=m)

    def _ray_coordinates(self, z):
        """(x, |y|) of w = e^{-i theta} z."""
        w = np.asarray(z, dtype=complex) * np.exp(-1j * self.theta)
        return w.real, np.abs(w.imag)

    def contains(self, z) -> np.ndarray:
        """The region's predicate: x_left < x < x_right and |y| < alpha x^p."""
        x, y = self._ray_coordinates(z)
        xl, xr = self.x_left, self.x_right
        return (xl < x) & (x < xr) & (y < self.alpha * np.clip(x, xl, xr) ** self.p)

    def distance_bound(self, z) -> np.ndarray:
        """Lower bound on the distance from each point to the region's contour.

        Exact for the two sides, and for the arcs at p = 0.  Folding y to |y|
        leaves the upper arc y = f(x) = alpha x^p (the nearer one).  Every arc
        point lies in the box [x_left, x_right] x [f(x_left), f(x_right)], and
        f is s-Lipschitz there, s = alpha p x_left^(p-1), so with c the nearest
        point of [x_left, x_right] to x the distance is at least
        |y - f(c)| / sqrt(1 + s^2); the larger bound counts.  The rounding of
        these formulas, a few u = 2^-52 of the coordinates, is covered by
        subtracting 8 u (|z| + x_right + f(x_right)).
        """
        x, y = self._ray_coordinates(z)
        xl, xr, alpha, p = self.x_left, self.x_right, self.alpha, self.p
        hl, hr = alpha * xl**p, alpha * xr**p
        sides = np.minimum(np.hypot(x - xl, np.maximum(y - hl, 0.0)),
                           np.hypot(x - xr, np.maximum(y - hr, 0.0)))
        arc = np.hypot(np.maximum(np.maximum(xl - x, x - xr), 0.0),
                       np.maximum(np.maximum(hl - y, y - hr), 0.0))
        slope = alpha * p * xl ** (p - 1.0)
        graph = np.abs(y - alpha * np.clip(x, xl, xr) ** p) / np.sqrt(1.0 + slope * slope)
        pad = 8.0 * numerics.EPS * (np.abs(z) + xr + hr)
        return np.minimum(sides, np.maximum(arc, graph)) - pad


def gap_contour(x_left: float, x_right: float, alpha: float, p: float,
                theta: float = 0.0, nodes_per_segment: int = 32) -> Contour:
    """Closed contour between two parabola cross-cuts, rotated by theta.

    In ray coordinates it bounds { x_left <= x <= x_right, |y| <= alpha x^p },
    traversed counterclockwise.
    """
    return GapRegion(x_left, x_right, alpha, p, theta).contour(nodes_per_segment)


def min_resolvent_margin(t_mat, contour: Contour) -> float:
    """Exact SVD diagnostic: min over the gate points of sigma_min(T - z)."""
    t_mat = numerics.as_matrix(t_mat)
    n = t_mat.shape[0]
    ident = np.eye(n, dtype=complex)
    margins = [
        np.linalg.svd(t_mat - z * ident, compute_uv=False)[-1] for z in contour.gate_points
    ]
    return float(min(margins))
