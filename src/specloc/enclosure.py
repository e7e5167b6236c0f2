"""Certified spectral enclosures for T = G + S with S p-subordinate to G.

The enclosure is a closed ball of radius r0 around the origin together with
one parabolic lobe per spectral ray:

    e^{i theta} { x + i y : x >= 0, |y| <= alpha x^p },   alpha > b.

Every lobe has the same alpha and p; an ``EnclosureRegion`` validates its own
parameters.  ``certified_r0`` produces the ball radius from the resolvent
conditions used to prove the enclosure; ``contains`` takes an array of points
in one pass, on the lobe coordinates e^{-i theta} z with the lobes on the
last axis.  ``enclose`` runs the whole chain from b to the verdict (arrays:
the eigenvalues and the violators) once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics, subordination
from .errors import InputError
from .operators import PerturbedSystem

#: abscissae per lobe in ``lobe_boundary``
LOBE_POINTS = 200


@dataclass(frozen=True)
class EnclosureRegion:
    """Ball of radius r0 plus one lobe |y| <= alpha x^p around each ray angle
    in ``thetas``.  alpha, r0 and the angles must be finite, alpha and r0
    non-negative, and p in [0, 1)."""

    r0: float
    thetas: tuple[float, ...]
    alpha: float
    p: float

    def __post_init__(self):
        r0, alpha, p = float(self.r0), float(self.alpha), float(self.p)
        thetas = tuple(float(t) for t in np.atleast_1d(self.thetas))
        if not (0.0 <= alpha < math.inf and 0.0 <= r0 < math.inf and 0.0 <= p < 1.0):
            raise InputError("need finite alpha >= 0, finite r0 >= 0 and p in [0, 1)")
        if not np.all(np.isfinite(thetas)):
            raise InputError("ray angles must be finite")
        for name, value in (("r0", r0), ("thetas", thetas), ("alpha", alpha), ("p", p)):
            object.__setattr__(self, name, value)


def contains(region: EnclosureRegion, z):
    """Closed membership test for the enclosure region, point by point."""
    z = np.asarray(z, dtype=complex)
    # x + iy = e^{-i theta} z, one column per lobe on the last axis
    w = z[..., None] * np.exp(-1j * np.asarray(region.thetas))
    x, y = w.real, w.imag
    in_lobe = (x >= 0.0) & (np.abs(y) <= region.alpha * np.maximum(x, 0.0) ** region.p)
    return (np.abs(z) <= region.r0) | in_lobe.any(axis=-1)


# ---------------------------------------------------------------------------
# certified ball radius


def certified_r0(b: float, p: float, alpha: float, epsilon: float, psi: float) -> float:
    """Smallest certified ball radius: all three resolvent conditions hold for
    every |z| >= r0.

    Each condition is a power law in r, so r0 is the largest of their exact
    thresholds, rounded up by ulps until the conditions hold in floating point.
    Raises InputError when that radius exceeds the floating-point range.
    """
    b = float(b)
    p = float(p)
    alpha = float(alpha)
    epsilon = float(epsilon)
    psi = float(psi)
    if b < 0.0 or not (0.0 <= p < 1.0):
        raise InputError("need b >= 0 and p in [0, 1)")
    if not b < alpha:
        raise InputError("need b < alpha")
    if not (b / alpha < epsilon < 1.0):
        raise InputError("need b/alpha < epsilon < 1")
    if not (0.0 < psi < math.pi / 2.0):
        raise InputError("need 0 < psi < pi/2")
    if b == 0.0:
        return 0.0

    sin_psi = math.sin(psi)
    cos_psi = math.cos(psi)

    def certified(r):
        """r > 0 and the outer (|z| large, away from the ray axis), sector
        (psi <= |arg| <= pi/2 from the ray) and parabolic (near the ray,
        distance >= alpha (r cos psi)^p) conditions at r, in that order; each
        is monotone: once satisfied at r it holds for all larger radii."""
        if not (r > 0.0 and 2.0**p * b * r ** (p - 1.0) <= epsilon
                and b * (1.0 + 1.0 / sin_psi) ** p * (r * sin_psi) ** (p - 1.0) <= epsilon):
            return False
        if p == 0.0:
            return True  # distance >= alpha gives b/alpha < epsilon directly
        d = alpha * (r * cos_psi) ** p
        return d != 0.0 and 2.0 * b * d ** (p - 1.0) + b / alpha <= epsilon

    try:
        r0 = max((2.0**p * b / epsilon) ** (1.0 / (1.0 - p)),
                 (b * (1.0 + 1.0 / sin_psi) ** p / epsilon) ** (1.0 / (1.0 - p)) / sin_psi)
        if p > 0.0:
            k = 2.0 * b / (alpha ** (1.0 - p) * (epsilon - b / alpha))
            r0 = max(r0, k ** (1.0 / (p * (1.0 - p))) / math.cos(psi))
    except OverflowError:
        r0 = math.inf
    if math.isinf(r0):
        raise InputError("certified r0 exceeds the floating-point range (b=%g, p=%g)" % (b, p))
    while not certified(r0):
        r0 = math.nextafter(r0, math.inf)
    return r0


# ---------------------------------------------------------------------------
# verification against a concrete operator


@dataclass(frozen=True)
class EnclosureReport:
    """The eigenvalues of T and those outside the region (``violators``, in
    eigenvalue order)."""

    eigenvalues: np.ndarray
    violators: np.ndarray

    @property
    def all_inside(self) -> bool:
        return not self.violators.size


def verify_spectrum_enclosure(system: PerturbedSystem, region: EnclosureRegion) -> EnclosureReport:
    """Check every eigenvalue of T against the region in one array pass."""
    values = numerics.eig(system.t).values
    return EnclosureReport(values, values[~contains(region, values)])


@dataclass(frozen=True)
class Enclosure:
    """One run of the enclosure chain: the tuple ``certified_r0`` certified
    (keys b, alpha, epsilon, psi) with its r0, the region and the verdict."""

    parameters: dict
    region: EnclosureRegion
    report: EnclosureReport


def enclose(system: PerturbedSystem, alpha_factor: float, epsilon: float | None = None,
            psi: float | None = None) -> Enclosure:
    """Certify and check the enclosure of ``system`` in one chain.

    b is the upper end of the certified subordination bracket, alpha =
    alpha_factor b (0.1 when b = 0); unless given, epsilon = (b/alpha + 1)/2
    and psi = min(pi/4, half the smallest ray separation).  r0 comes from
    ``certified_r0`` on exactly these values, and every eigenvalue of T is
    checked against the region they define.  An infinite b (S not vanishing
    on ker G while p > 0), or an alpha not above b or not finite, raises
    InputError.
    """
    b = float(subordination.subordination_bound(system.s, system.g, system.p).bound)
    if math.isinf(b):
        raise InputError("S is not p-subordinate to G (p = %g): S does not vanish on ker G"
                         % system.p)
    alpha = float(alpha_factor) * b if b > 0.0 else 0.1
    if not b < alpha:
        raise InputError("need b < alpha")
    if epsilon is None:
        epsilon = (b / alpha + 1.0) / 2.0
    if psi is None:
        psi = min(math.pi / 4.0, system.ray_spec.min_ray_separation() / 2.0)
    r0 = certified_r0(b, system.p, alpha, epsilon, psi)
    region = EnclosureRegion(r0, system.ray_spec.thetas, alpha, system.p)
    parameters = {"b": b, "alpha": alpha, "epsilon": float(epsilon), "psi": float(psi), "r0": r0}
    return Enclosure(parameters, region, verify_spectrum_enclosure(system, region))


def lobe_boundary(region: EnclosureRegion, x_max: float):
    """Boundary polylines of each lobe in lobe coordinates at LOBE_POINTS abscissae.

    Yields rows (theta, x, y_upper, y_lower) for CSV dumps.
    """
    if x_max <= 0.0:
        raise InputError("need x_max > 0")
    xs = np.linspace(0.0, float(x_max), LOBE_POINTS).tolist()
    # scalar powers: numpy's vector pow moves about 5% of them by an ulp at p != 1/2
    halfwidths = [region.alpha * x ** region.p for x in xs]
    for theta in region.thetas:
        for x, h in zip(xs, halfwidths):
            yield (theta, x, h, -h)
