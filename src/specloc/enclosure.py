"""Certified spectral enclosures for T = G + S with S p-subordinate to G.

The enclosure is a closed ball of radius r0 around the origin together with
one parabolic lobe per spectral ray:

    e^{i theta} { x + i y : x >= 0, |y| <= alpha x^p },   alpha > b.

``certified_r0`` produces the ball radius from the resolvent conditions used
to prove the enclosure; ``contains`` optionally applies the sharper
asymptotic exclusion test (reducing to b < |y| at p = 0).  ``enclose`` runs
the whole chain from b to the verdict once, for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics, subordination
from .errors import InputError
from .operators import PerturbedSystem


@dataclass(frozen=True)
class Lobe:
    theta: float
    alpha: float
    p: float


@dataclass(frozen=True)
class EnclosureRegion:
    """Ball of radius r0 plus parabolic lobes; ``refined`` switches the
    sharper membership test (which needs the subordination bound ``b``)."""

    r0: float
    lobes: tuple[Lobe, ...]
    refined: bool = False
    b: float | None = None


def build_enclosure(thetas, alpha: float, p: float, r0: float, refined: bool = False,
                    b: float | None = None) -> EnclosureRegion:
    alpha = float(alpha)
    p = float(p)
    r0 = float(r0)
    if alpha < 0.0 or r0 < 0.0 or not (0.0 <= p < 1.0):
        raise InputError("need alpha >= 0, r0 >= 0 and p in [0, 1)")
    if refined and b is None:
        raise InputError("refined membership needs the subordination bound b")
    lobes = tuple(Lobe(theta=float(t), alpha=alpha, p=p) for t in np.atleast_1d(thetas))
    return EnclosureRegion(r0=r0, lobes=lobes, refined=bool(refined), b=b)


def _lobe_halfwidth(lobe: Lobe, x: float) -> float:
    if x < 0.0:
        return -1.0
    if lobe.p == 0.0:
        return lobe.alpha
    return lobe.alpha * x**lobe.p


def _refined_excluded(b: float, p: float, x: float, y: float) -> bool:
    """Asymptotic resolvent test: True when x + iy (lobe coordinates) is a
    certified resolvent point of the sharper enclosure boundary."""
    ay = abs(y)
    if ay == 0.0:
        return False
    if p == 0.0:
        return b < ay
    if b == 0.0:
        return True
    t = 2.0 * b ** (1.0 / p) * ay ** (1.0 - 1.0 / p)
    if t >= 1.0:
        return False
    return x < (ay / b) ** (1.0 / p) * math.sqrt(1.0 - t)


def contains(region: EnclosureRegion, z: complex) -> bool:
    """Closed membership test for the enclosure region."""
    z = complex(z)
    if abs(z) <= region.r0:
        return True
    for lobe in region.lobes:
        w = z * np.exp(-1j * lobe.theta)
        x, y = float(w.real), float(w.imag)
        if x < 0.0 or abs(y) > _lobe_halfwidth(lobe, x):
            continue
        if region.refined and _refined_excluded(float(region.b), lobe.p, x, y):
            continue
        return True
    return False


# ---------------------------------------------------------------------------
# certified ball radius


def _region_conditions(b: float, p: float, alpha: float, epsilon: float, psi: float):
    """The three sufficient resolvent conditions at radius r (each monotone:
    once satisfied at r they hold for all larger radii)."""
    sin_psi = math.sin(psi)
    cos_psi = math.cos(psi)

    def outer(r):  # |z| large, away from the ray axis
        return 2.0**p * b * r ** (p - 1.0) <= epsilon

    def sector(r):  # psi <= |arg| <= pi/2 relative to the ray
        return b * (1.0 + 1.0 / sin_psi) ** p * (r * sin_psi) ** (p - 1.0) <= epsilon

    def parabolic(r):  # near the ray, distance >= alpha (r cos psi)^p
        if p == 0.0:
            return True  # distance >= alpha gives b/alpha < epsilon directly
        d = alpha * (r * cos_psi) ** p
        if d == 0.0:
            return False
        return 2.0 * b * d ** (p - 1.0) + b / alpha <= epsilon

    return outer, sector, parabolic


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
    outer, sector, parabolic = _region_conditions(b, p, alpha, epsilon, psi)
    while not (r0 > 0.0 and outer(r0) and sector(r0) and parabolic(r0)):
        r0 = math.nextafter(r0, math.inf)
    return r0


# ---------------------------------------------------------------------------
# verification against a concrete operator


@dataclass(frozen=True)
class EnclosureReport:
    all_inside: bool
    eigenvalues: np.ndarray
    violators: tuple[dict, ...]


def _outside_distance(region: EnclosureRegion, z: complex) -> float:
    """Rough distance estimate from an outside point to the region."""
    best = abs(z) - region.r0
    for lobe in region.lobes:
        w = z * np.exp(-1j * lobe.theta)
        x, y = float(w.real), float(w.imag)
        if x >= 0.0:
            best = min(best, abs(y) - _lobe_halfwidth(lobe, x))
        else:
            best = min(best, math.hypot(x, y))
    return max(best, 0.0)


def verify_spectrum_enclosure(system: PerturbedSystem, region: EnclosureRegion) -> EnclosureReport:
    """Check every eigenvalue of T against the region; list violators."""
    values = numerics.eig(system.t).values
    violators = tuple(
        {"value": complex(z), "distance": _outside_distance(region, z)}
        for z in values
        if not contains(region, z)
    )
    return EnclosureReport(all_inside=not violators, eigenvalues=values, violators=violators)


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
    on ker G while p > 0) raises InputError.
    """
    b = float(subordination.subordination_bound(system.s, system.g, system.p).bound)
    if math.isinf(b):
        raise InputError("S is not p-subordinate to G (p = %g): S does not vanish on ker G"
                         % system.p)
    alpha = float(alpha_factor) * b if b > 0.0 else 0.1
    if epsilon is None:
        epsilon = (b / alpha + 1.0) / 2.0
    if psi is None:
        psi = min(math.pi / 4.0, system.ray_spec.min_ray_separation() / 2.0)
    r0 = certified_r0(b, system.p, alpha, epsilon, psi)
    region = build_enclosure(system.ray_spec.thetas, alpha, system.p, r0, b=b)
    parameters = {"b": b, "alpha": alpha, "epsilon": float(epsilon), "psi": float(psi), "r0": r0}
    return Enclosure(parameters, region, verify_spectrum_enclosure(system, region))


def lobe_boundary(region: EnclosureRegion, x_max: float, count: int = 200):
    """Boundary polylines of each lobe in lobe coordinates.

    Yields rows (theta, x, y_upper, y_lower) for CSV dumps.
    """
    if x_max <= 0.0 or count < 2:
        raise InputError("need x_max > 0 and count >= 2")
    xs = np.linspace(0.0, float(x_max), int(count))
    for lobe in region.lobes:
        for x in xs:
            h = max(_lobe_halfwidth(lobe, float(x)), 0.0)
            yield (lobe.theta, float(x), h, -h)


# ---------------------------------------------------------------------------
# pointwise resolvent diagnostics


@dataclass(frozen=True)
class ResolventDiagnostic:
    """Perturbation-lemma quantities at one resolvent candidate z.

    When ``applicable`` (i.e. ||S (G-z)^-1|| <= epsilon < 1), the lemma
    asserts z in rho(T) with ||(T-z)^-1|| <= (1-eps)^-1 ||(G-z)^-1|| and
    ||S (T-z)^-1|| <= eps / (1-eps); the booleans record those checks.
    """

    z: complex
    epsilon: float
    dist_to_sigma_g: float
    norm_g_resolvent: float
    norm_sg_resolvent: float
    applicable: bool
    norm_t_resolvent: float | None = None
    norm_st_resolvent: float | None = None
    in_resolvent_set: bool | None = None
    t_bound_ok: bool | None = None
    st_bound_ok: bool | None = None


def resolvent_diagnostic(system: PerturbedSystem, z: complex,
                         epsilon: float) -> ResolventDiagnostic:
    """Evaluate the resolvent perturbation bounds for T = G + S at z."""
    z = complex(z)
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise InputError("epsilon must lie in (0, 1)")
    sigma_g = system.sigma_g()
    dist = float(np.min(np.abs(sigma_g - z)))
    if dist <= 1e-12:
        raise InputError("z is (numerically) in the spectrum of G")
    ident = np.eye(system.dimension, dtype=complex)
    norm_g = 1.0 / dist  # G is normal
    norm_sg = numerics.opnorm(system.s @ np.linalg.solve(system.g - z * ident, ident))
    if norm_sg > epsilon:
        return ResolventDiagnostic(
            z=z, epsilon=epsilon, dist_to_sigma_g=dist,
            norm_g_resolvent=norm_g, norm_sg_resolvent=norm_sg, applicable=False,
        )
    # T - z = U diag(sv) V*, so (T - z)^-1 = V diag(1/sv) U* and ||S (T - z)^-1|| = ||S V / sv||
    _, sv, vh = np.linalg.svd(system.t - z * ident)
    in_res = sv[-1] > 0.0
    if in_res:
        norm_t = 1.0 / float(sv[-1])
        norm_st = numerics.opnorm((system.s @ vh.conj().T) / sv)
    else:
        norm_t = norm_st = math.inf
    bound_t = norm_g / (1.0 - epsilon)
    bound_st = epsilon / (1.0 - epsilon)
    return ResolventDiagnostic(
        z=z, epsilon=epsilon, dist_to_sigma_g=dist,
        norm_g_resolvent=norm_g, norm_sg_resolvent=norm_sg, applicable=True,
        norm_t_resolvent=norm_t, norm_st_resolvent=norm_st,
        in_resolvent_set=bool(in_res),
        t_bound_ok=bool(norm_t <= bound_t * (1.0 + 1e-10)),
        st_bound_ok=bool(norm_st <= bound_st * (1.0 + 1e-10)),
    )
