"""Quadrature contours: circles and closed gap contours between parabolas.

Every contour carries explicit nodes z_j and weights w_j such that

    integral_Gamma f(z) dz  ~  sum_j w_j f(z_j),

with positive (counterclockwise) orientation.  Circles use the periodic
trapezoid rule (spectrally accurate).  Gap contours consist of four open
segments (lower parabola arc left->right, right vertical up, upper parabola
arc right->left, left vertical down) joined at corners.  Each segment is a
smooth arc away from the spectrum, so composite Gauss-Legendre panels of
``MIN_NODES_PER_SEGMENT`` nodes converge geometrically on it without any
treatment of the corners; refinement doubles the panel count, never the
order.  ``riesz_projection`` gates every node and panel endpoint (``gate_points``,
corners included) on the quadrature's own resolvents, triangular resolvents from
one Schur form, on every refinement pass.  A ``GapRegion`` holds a gap's
geometry in ray coordinates without any nodes: the predicate ``contains`` and
``distance_bound``, a lower bound on the distance to its contour, with which
``projections.family_from_gaps`` gates the whole contour at once; it builds
the contour (``GapRegion.contour``) only where that bound is too small.
"""

from __future__ import annotations

import dataclasses
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
class Segment:
    kind: str
    nodes: np.ndarray
    weights: np.ndarray
    start: complex
    end: complex
    #: panel endpoints other than ``end`` (the next segment's start)
    breaks: np.ndarray


@dataclass(frozen=True)
class Contour:
    """Closed quadrature contour; ``refined(factor)`` rebuilds with factor
    times the nodes (on gap contours, factor times the panels)."""

    kind: str
    params: dict
    segments: tuple[Segment, ...]
    nodes_per_segment: int

    @property
    def nodes(self) -> np.ndarray:
        return np.concatenate([s.nodes for s in self.segments])

    @property
    def weights(self) -> np.ndarray:
        return np.concatenate([s.weights for s in self.segments])

    @property
    def total_nodes(self) -> int:
        return sum(len(s.nodes) for s in self.segments)

    @property
    def gate_points(self) -> np.ndarray:
        """Points the margin gate checks: every node, then every panel endpoint."""
        return np.concatenate([self.nodes] + [s.breaks for s in self.segments])

    def refined(self, factor: int = 2) -> "Contour":
        return _build(self.kind, self.params, self.nodes_per_segment * int(factor))


def _check_closure(segments):
    pts = [(s.start, s.end) for s in segments]
    scale = max(max(abs(a), abs(b)) for a, b in pts) + 1.0
    for (_, end), (start, _) in zip(pts, pts[1:] + pts[:1]):
        if abs(end - start) > 1e-12 * scale:
            raise InputError("contour segments do not close up")


def _open_segment(kind, z_of, dz_of, m, rot):
    """Composite Gauss-Legendre panels on one open segment, rotated by rot."""
    panels = m // MIN_NODES_PER_SEGMENT
    left = np.arange(panels) / panels
    s = (left[:, None] + _GL_NODES[None, :] / panels).ravel()
    weights = dz_of(s) * np.tile(_GL_WEIGHTS / panels, panels)
    breaks = z_of(left) * rot
    return Segment(kind=kind, nodes=z_of(s) * rot, weights=weights * rot,
                   start=complex(breaks[0]), end=complex(z_of(np.array([1.0]))[0]) * rot,
                   breaks=breaks)


def _build(kind, params, m):
    if m < MIN_NODES_PER_SEGMENT:
        raise InputError("need at least %d nodes per segment" % MIN_NODES_PER_SEGMENT)
    if kind == "circle":
        c, r = complex(params["center"]), float(params["radius"])
        t = 2.0 * np.pi * np.arange(m) / m
        e = np.exp(1j * t)
        seg = Segment(kind="circle", nodes=c + r * e,
                      weights=1j * r * e * (2.0 * np.pi / m),
                      start=c + r, end=c + r, breaks=np.zeros(0, dtype=complex))
        return Contour(kind=kind, params=dict(params), segments=(seg,), nodes_per_segment=m)
    if kind == "gap":
        if m % MIN_NODES_PER_SEGMENT:
            raise InputError("nodes per segment must be a multiple of %d"
                             % MIN_NODES_PER_SEGMENT)
        xl, xr = float(params["x_left"]), float(params["x_right"])
        alpha, p = float(params["alpha"]), float(params["p"])
        theta = float(params["theta"])
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

        pieces = [
            ("arc_lower", arc(-1.0, xl, xr)),
            ("side_right", vertical(xr, -hr, hr)),
            ("arc_upper", arc(+1.0, xr, xl)),
            ("side_left", vertical(xl, hl, -hl)),
        ]
        rot = np.exp(1j * theta)
        segments = tuple(_open_segment(name, z_of, dz_of, m, rot)
                         for name, (z_of, dz_of) in pieces)
        _check_closure(segments)
        return Contour(kind=kind, params=dict(params), segments=segments, nodes_per_segment=m)
    raise InputError("unknown contour kind %r" % kind)


def circle(center: complex, radius: float, node_count: int = 64) -> Contour:
    """Positively oriented circle."""
    if radius <= 0.0:
        raise InputError("radius must be positive")
    return _build("circle", {"center": complex(center), "radius": float(radius)}, int(node_count))


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
        if not (0.0 < self.x_left < self.x_right):
            raise InputError("need 0 < x_left < x_right")
        if self.alpha < 0.0 or not (0.0 <= float(self.p) < 1.0):
            raise InputError("need alpha >= 0 and p in [0, 1)")
        if self.alpha == 0.0:
            raise InputError("alpha must be positive for a non-degenerate contour")

    def contour(self, nodes_per_segment: int = 32) -> Contour:
        """Its boundary, traversed counterclockwise (``gap_contour``)."""
        params = {k: float(v) for k, v in dataclasses.asdict(self).items()}
        return _build("gap", params, int(nodes_per_segment))

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


def winding_number(contour: Contour, w: complex) -> complex:
    """Quadrature estimate of the winding number about w."""
    z = contour.nodes
    return complex(np.sum(contour.weights / (z - w)) / (2j * np.pi))


def min_resolvent_margin(t_mat, contour: Contour) -> float:
    """Exact SVD diagnostic: min over the gate points of sigma_min(T - z)."""
    t_mat = numerics.as_matrix(t_mat)
    n = t_mat.shape[0]
    ident = np.eye(n, dtype=complex)
    margins = [
        np.linalg.svd(t_mat - z * ident, compute_uv=False)[-1] for z in contour.gate_points
    ]
    return float(min(margins))
