"""Eigenvalue counting, spectral gap sequences, and asymptotic gap
classification.

Counting conventions: N(r) counts eigenvalues in the closed ball |z| <= r;
N_+(r1, r2) counts moduli in the open interval (r1, r2) on one ray; region
counts use a caller-supplied predicate.  The gap condition along a ray with
widths l r^p is

    r_k + l r_k^p  <=  r_{k+1} - l r_{k+1}^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .operators import RaySpectrumSpec

#: verdicts of the asymptotic gap classifier
HOLDS_EVENTUALLY = "holdsEventually"
BOUNDARY_HOLDS = "boundaryHolds"
FAILS = "fails"


def count_radius(spec: RaySpectrumSpec, r: float) -> int:
    """N(r): eigenvalues with |z| <= r (closed ball), with multiplicity."""
    if not np.isfinite(r):
        raise InputError("radius must be finite")
    values = np.abs(spec.eigenvalues())
    return int(np.sum(values <= r))


def count_interval(spec: RaySpectrumSpec, theta: float, r1: float, r2: float) -> int:
    """N_+(r1, r2): moduli strictly between r1 and r2 on the ray ``theta``."""
    if r1 > r2:
        raise InputError("need r1 <= r2")
    theta = float(np.mod(theta, 2.0 * np.pi))
    for ray in spec.rays:
        if abs(ray.theta - theta) <= 1e-12 or abs(abs(ray.theta - theta) - 2.0 * np.pi) <= 1e-12:
            radii = np.asarray(ray.radii)
            return int(np.sum((radii > r1) & (radii < r2)))
    raise InputError("theta=%r does not match any declared ray" % theta)


def count_region(spec: RaySpectrumSpec, predicate) -> int:
    """Count eigenvalues z with predicate(z) true."""
    return int(sum(bool(predicate(z)) for z in spec.eigenvalues()))


# ---------------------------------------------------------------------------
# gap sequences


@dataclass(frozen=True)
class AsymptoticModel:
    """r_k = c k^q + d_k k^(q-1); d_tail supplies the leading d_k values."""

    c: float
    q: float
    d_tail: tuple[float, ...] = ()

    def __post_init__(self):
        if self.c <= 0.0 or self.q < 1.0:
            raise InputError("need c > 0 and q >= 1")

    def radii(self, k_max: int) -> np.ndarray:
        k = np.arange(1, k_max + 1, dtype=float)
        d = np.zeros(k_max)
        tail = np.asarray(self.d_tail, dtype=float)
        d[: min(len(tail), k_max)] = tail[:k_max]
        return self.c * k**self.q + d * k ** (self.q - 1.0)


@dataclass(frozen=True)
class GapSequenceModel:
    """Increasing radii (any real sequence, stored as a tuple of floats) with
    gap parameter l and exponent p in [0, 1)."""

    radii: tuple[float, ...]
    l: float
    p: float
    asymptotic: AsymptoticModel | None = None

    def __post_init__(self):
        if self.l < 0.0:
            raise InputError("l must be non-negative")
        if not (0.0 <= self.p < 1.0):
            raise InputError("p must lie in [0, 1)")
        radii = np.asarray(self.radii, dtype=float)
        if np.any(~np.isfinite(radii) | (radii < 0)):
            raise InputError("radii must be finite and non-negative")
        if np.any(np.diff(radii) <= 0):
            raise InputError("radii must be strictly increasing")
        object.__setattr__(self, "radii", tuple(radii.tolist()))


def from_asymptotic(c: float, q: float, l: float, p: float, k_max: int, d_tail=()) -> GapSequenceModel:
    """Build a concrete GapSequenceModel from an asymptotic law up to k_max."""
    model = AsymptoticModel(c=c, q=q, d_tail=tuple(d_tail))
    return GapSequenceModel(radii=model.radii(k_max), l=l, p=p, asymptotic=model)


@dataclass(frozen=True)
class GapEntry:
    k: int
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class GapReport:
    entries: tuple[GapEntry, ...]
    #: smallest k such that the condition holds from k through the end of the
    #: inspected window; None when it fails at the last inspected index
    first_hold_index: int | None

    @property
    def all_hold(self) -> bool:
        return all(e.holds for e in self.entries)


def check_gap_sequence(model: GapSequenceModel, k_range: tuple[int, int] | None = None) -> GapReport:
    """Evaluate the gap condition for consecutive radii indices in k_range.

    Indices are 1-based positions into ``model.radii``; the condition at k
    compares r_k with r_{k+1}.
    """
    r = np.asarray(model.radii)
    n_pairs = len(r) - 1
    if k_range is None:
        k_range = (1, n_pairs)
    k_lo, k_hi = int(k_range[0]), int(k_range[1])
    if k_lo < 1 or k_hi > n_pairs or k_lo > k_hi:
        raise InputError("k_range %r out of bounds for %d radius pairs" % (k_range, n_pairs))
    ks = np.arange(k_lo, k_hi + 1)
    lhs = r[ks - 1] + model.l * r[ks - 1] ** model.p
    rhs = r[ks] - model.l * r[ks] ** model.p
    holds = lhs <= rhs
    entries = tuple(
        GapEntry(k=int(k), lhs=float(a), rhs=float(b), holds=bool(h))
        for k, a, b, h in zip(ks, lhs, rhs, holds)
    )
    first = None
    for e in reversed(entries):
        if not e.holds:
            break
        first = e.k
    return GapReport(entries=entries, first_hold_index=first)


def classify_asymptotic_gap(c: float, q: float, l: float, p: float) -> str:
    """Asymptotic verdict for r_k = c k^q + O(k^(q-1)) with widths l r^p.

    holdsEventually  iff p < 1 - 1/q, or p = 1 - 1/q with l < q c^(1/q) / 2;
    boundaryHolds    at p = 1 - 1/q with l exactly at the critical value;
    fails            otherwise.  l = 0 always holds.
    """
    model = AsymptoticModel(c=c, q=q)  # validates c, q
    l = float(l)
    p = float(p)
    if l < 0.0 or not (0.0 <= p < 1.0):
        raise InputError("need l >= 0 and p in [0, 1)")
    if l == 0.0:
        return HOLDS_EVENTUALLY
    critical_p = 1.0 - 1.0 / model.q
    if p < critical_p - 1e-12:
        return HOLDS_EVENTUALLY
    if p > critical_p + 1e-12:
        return FAILS
    threshold = model.q * model.c ** (1.0 / model.q) / 2.0
    if l < threshold * (1.0 - 1e-12):
        return HOLDS_EVENTUALLY
    if l <= threshold * (1.0 + 1e-12):
        return BOUNDARY_HOLDS
    return FAILS


# ---------------------------------------------------------------------------
# counting density


@dataclass(frozen=True)
class DensityCurve:
    """N(r) / r^(1-p) sampled on a radius grid, with its running minimum.

    ``proxy`` approximates liminf N(r)/r^(1-p): the minimum over the top
    decade of the grid (r >= r_max / 10).
    """

    r: np.ndarray
    ratio: np.ndarray
    running_min: np.ndarray
    proxy: float


def liminf_density(spec: RaySpectrumSpec, p: float, r_grid) -> DensityCurve:
    """Counting density curve along a positive radius grid."""
    if not (0.0 <= float(p) < 1.0):
        raise InputError("p must lie in [0, 1)")
    r = np.asarray(r_grid, dtype=float)
    if r.ndim != 1 or r.size == 0 or np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise InputError("r_grid must be a strictly increasing positive grid")
    moduli = np.sort(np.abs(spec.eigenvalues()))
    counts = np.searchsorted(moduli, r, side="right")
    ratio = counts / r ** (1.0 - float(p))
    running = np.minimum.accumulate(ratio[::-1])[::-1]
    top = r >= r[-1] / 10.0
    proxy = float(np.min(ratio[top])) if np.any(top) else math.inf
    return DensityCurve(r=r, ratio=ratio, running_min=running, proxy=proxy)
