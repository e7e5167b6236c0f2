"""Spectral gap sequences and asymptotic gap classification.

The gap condition along a ray with widths l r^p is

    r_k + l r_k^p  <=  r_{k+1} - l r_{k+1}^p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

#: verdicts of the asymptotic gap classifier
HOLDS_EVENTUALLY = "holdsEventually"
BOUNDARY_HOLDS = "boundaryHolds"
FAILS = "fails"

#: largest k_max ``from_asymptotic`` builds radii for (8 MB of float64)
MAX_K = 10**6


@dataclass(frozen=True)
class AsymptoticModel:
    """r_k = c k^q + d_k k^(q-1); d_tail supplies the leading d_k values."""

    c: float
    q: float
    d_tail: tuple[float, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.c < math.inf and 1.0 <= self.q < math.inf):
            raise InputError("need finite c > 0 and finite q >= 1")
        if not np.all(np.isfinite(np.asarray(self.d_tail, dtype=float))):
            raise InputError("d_tail must be finite")

    def radii(self, k_max: int) -> np.ndarray:
        k = np.arange(1, k_max + 1, dtype=float)
        tail = np.asarray(self.d_tail, dtype=float)[:len(k)]
        d = np.zeros_like(k)
        d[:len(tail)] = tail
        # overflow leaves inf or nan radii, which GapSequenceModel rejects
        with np.errstate(over="ignore", invalid="ignore"):
            return self.c * k**self.q + d * k ** (self.q - 1.0)


@dataclass(frozen=True)
class GapSequenceModel:
    """At least two increasing radii (any real sequence, stored as a tuple of
    floats) with gap parameter l and exponent p in [0, 1)."""

    radii: tuple[float, ...]
    l: float
    p: float
    asymptotic: AsymptoticModel | None = None

    def __post_init__(self):
        if not 0.0 <= self.l < math.inf:
            raise InputError("l must be finite and non-negative")
        if not (0.0 <= self.p < 1.0):
            raise InputError("p must lie in [0, 1)")
        radii = np.asarray(self.radii, dtype=float)
        if len(radii) < 2:
            raise InputError("a gap sequence needs at least two radii, got %d" % len(radii))
        if np.any(~np.isfinite(radii) | (radii < 0)):
            raise InputError("radii must be finite and non-negative")
        if np.any(np.diff(radii) <= 0):
            raise InputError("radii must be strictly increasing")
        object.__setattr__(self, "radii", tuple(radii.tolist()))


def from_asymptotic(c: float, q: float, l: float, p: float, k_max: int, d_tail=()) -> GapSequenceModel:
    """Build a concrete GapSequenceModel from an asymptotic law up to k_max;
    a k_max below 2 or above MAX_K raises InputError."""
    if k_max > MAX_K:
        raise InputError("k_max %d exceeds the cap %d" % (k_max, MAX_K))
    model = AsymptoticModel(c=c, q=q, d_tail=tuple(d_tail))
    return GapSequenceModel(radii=model.radii(k_max), l=l, p=p, asymptotic=model)


@dataclass(frozen=True)
class GapReport:
    """The gap condition ``lhs <= rhs`` at each inspected index ``k``, as
    aligned arrays."""

    k: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    #: smallest k such that the condition holds from k through the end of the
    #: inspected window; None when it fails at the last inspected index
    first_hold_index: int | None

    @property
    def all_hold(self) -> bool:
        return bool(self.holds.all())


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
    # the holding tail starts right after the last failure
    fails = np.flatnonzero(~holds)
    start = int(fails[-1]) + 1 if fails.size else 0
    first = int(ks[start]) if start < len(ks) else None
    return GapReport(k=ks, lhs=lhs, rhs=rhs, holds=holds, first_hold_index=first)


def classify_asymptotic_gap(c: float, q: float, l: float, p: float) -> str:
    """Asymptotic verdict for r_k = c k^q + O(k^(q-1)) with widths l r^p.

    holdsEventually  iff p < 1 - 1/q, or p = 1 - 1/q with l < q c^(1/q) / 2;
    boundaryHolds    at p = 1 - 1/q with l exactly at the critical value;
    fails            otherwise.  l = 0 always holds.
    """
    model = AsymptoticModel(c=c, q=q)  # validates c, q
    l = float(l)
    p = float(p)
    if not (0.0 <= l < math.inf and 0.0 <= p < 1.0):
        raise InputError("need finite l >= 0 and p in [0, 1)")
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
