"""Riesz basis constants for subspace families and skew projection families.

A family of subspaces with orthonormal frames F_k is quantified by the best
constant c with

    c^-1 sum ||x_k||^2  <=  || sum x_k ||^2  <=  c sum ||x_k||^2,

x_k ranging over the subspaces.  For stacked frames W = [F_1 ... F_m] this is
c = max(sigma_max(W)^2, sigma_min(W)^-2).  Families of pairwise-disjoint
projections are quantified through the sign-pattern norm
C = max_eps || sum eps_k P_k || and the derived basis constant 4 C^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InputError
from .projections import ProjectionFamily

#: exhaustive sign-pattern search cap; beyond this, random patterns are used
SIGN_EXHAUSTIVE_MAX = 12

#: sampled sign patterns above the exhaustive cap
SIGN_SAMPLES = 4096


@dataclass(frozen=True)
class SubspaceFamily:
    """Orthonormal frames (columns) of finitely many subspaces of C^n."""

    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        frames = tuple(np.asarray(f, dtype=complex) for f in self.frames)
        if not frames:
            raise InputError("need at least one subspace")
        n = frames[0].shape[0]
        total = 0
        for f in frames:
            if f.ndim != 2 or f.shape[0] != n or f.shape[1] == 0:
                raise InputError("frames must be nonempty column blocks of equal height")
            gram = f.conj().T @ f
            if numerics.opnorm(gram - np.eye(f.shape[1])) > 1e-12:
                raise InputError("frame columns must be orthonormal")
            total += f.shape[1]
        if total > n:
            raise InputError("total dimension %d exceeds ambient dimension %d" % (total, n))
        object.__setattr__(self, "frames", frames)

    @property
    def ambient_dimension(self) -> int:
        return self.frames[0].shape[0]

    @property
    def total_dimension(self) -> int:
        return sum(f.shape[1] for f in self.frames)

    @property
    def stacked(self) -> np.ndarray:
        return np.hstack(self.frames)


@dataclass(frozen=True)
class RieszConstantReport:
    constant: float
    sigma_max: float
    sigma_min: float
    complete: bool


def riesz_constant(family: SubspaceFamily) -> RieszConstantReport:
    """Best two-sided constant of the family, from the stacked-frame SVD."""
    w = family.stacked
    s = np.linalg.svd(w, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    constant = math.inf if smin == 0.0 else max(smax**2, smin**-2)
    return RieszConstantReport(
        constant=constant, sigma_max=smax, sigma_min=smin,
        complete=family.total_dimension == family.ambient_dimension,
    )


def join_families(outer: SubspaceFamily, inners) -> SubspaceFamily:
    """Refine each outer subspace by an inner family given in its frame
    coordinates; returns the combined family of all inner subspaces."""
    inners = list(inners)
    if len(inners) != len(outer.frames):
        raise InputError("need one inner family per outer subspace")
    frames = []
    for f, inner in zip(outer.frames, inners):
        if inner.ambient_dimension != f.shape[1]:
            raise InputError(
                "inner family lives in dimension %d, outer block has %d columns"
                % (inner.ambient_dimension, f.shape[1])
            )
        for g in inner.frames:
            frames.append(f @ g)
    return SubspaceFamily(frames=tuple(frames))


@dataclass(frozen=True)
class JoinCheck:
    outer_constant: float
    inner_constant: float
    combined_constant: float
    bound: float
    holds: bool


def join_constant_check(outer: SubspaceFamily, inners) -> JoinCheck:
    """Verify combined constant <= c_outer * max_k c_inner_k (relative slack 1e-8)."""
    c0 = riesz_constant(outer).constant
    c1 = max(riesz_constant(inner).constant for inner in inners)
    combined = riesz_constant(join_families(outer, inners)).constant
    bound = c0 * c1
    return JoinCheck(outer_constant=c0, inner_constant=c1, combined_constant=combined,
                     bound=bound, holds=combined <= bound * (1.0 + 1e-8))


# ---------------------------------------------------------------------------
# sign patterns for disjoint projection families


def sign_pattern_constant(family: ProjectionFamily, seed: int = 0) -> float:
    """C = max over sign vectors eps of || sum_k eps_k P_k ||.

    Exhaustive for at most SIGN_EXHAUSTIVE_MAX projections, over the 2^(m-1)
    patterns with eps_0 = +1 since ||-A|| = ||A||; randomized (SIGN_SAMPLES
    patterns) beyond that.  The patterns form one (P, m) array; each batch of
    at most numerics.BATCH_ENTRIES stacked entries is one GEMM for its sums
    and one stacked ``numerics.opnorm``.
    """
    mats = family.matrices
    if not mats:
        raise InputError("family is empty")
    if family.cross_talk > 1e-6:
        raise InputError("projections are not pairwise disjoint (P_j P_k != 0)")
    m = len(mats)
    if m <= SIGN_EXHAUSTIVE_MAX:
        patterns = np.array([(1.0,) + rest
                             for rest in itertools.product((1.0, -1.0), repeat=m - 1)])
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(4,)))
        patterns = rng.choice((1.0, -1.0), size=(SIGN_SAMPLES, m))
    stack = np.stack(mats)
    return max(float(numerics.opnorm(np.tensordot(patterns[b], stack, 1)).max())
               for b in numerics.batches(len(patterns), stack[0].size))


@dataclass(frozen=True)
class ProjectionEstimateReport:
    constant: float
    two_sided_holds: bool
    worst_lower_slack: float
    worst_upper_slack: float
    basis_constant: float
    #: the ranges span the whole space
    complete: bool
    chain_holds: bool


def range_family(family: ProjectionFamily) -> SubspaceFamily:
    """The range frames ``make_family`` took from each projection's SVD."""
    for e in family.entries:
        if e.rank == 0:
            raise InputError("projection %r has rank zero" % (e.label,))
    return SubspaceFamily(frames=tuple(e.frame for e in family.entries))


def verify_projection_estimate(family: ProjectionFamily, constant: float, probe_count: int = 1000,
                               seed: int = 0) -> ProjectionEstimateReport:
    """Probe the two-sided estimate

        C^-2 sum ||P_k x||^2 <= || sum P_k x ||^2 <= C^2 sum ||P_k x||^2

    on random unit vectors, and check the derived basis-constant chain
    c(ranges) <= 4 C^2.
    """
    mats = family.matrices
    if not mats:
        raise InputError("family is empty")
    c = float(constant)
    if c <= 0.0:
        raise InputError("constant must be positive")
    n = mats[0].shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(5,)))
    x = rng.standard_normal((n, probe_count)) + 1j * rng.standard_normal((n, probe_count))
    x /= np.linalg.norm(x, axis=0)
    sum_px = np.zeros((n, probe_count), dtype=complex)
    sq = np.zeros(probe_count)
    for mat in mats:
        px = mat @ x
        sum_px += px
        sq += np.linalg.norm(px, axis=0) ** 2
    mid = np.linalg.norm(sum_px, axis=0) ** 2
    lower_slack = mid - sq / c**2
    upper_slack = c**2 * sq - mid
    scale = np.maximum(sq, 1e-300)
    ok = np.all(lower_slack >= -1e-9 * scale) and np.all(upper_slack >= -1e-9 * scale)
    basis = riesz_constant(range_family(family))
    return ProjectionEstimateReport(
        constant=c,
        two_sided_holds=bool(ok),
        worst_lower_slack=float(np.min(lower_slack / scale)),
        worst_upper_slack=float(np.min(upper_slack / scale)),
        basis_constant=basis.constant,
        complete=basis.complete,
        chain_holds=bool(basis.constant <= 4.0 * c**2 * (1.0 + 1e-9)),
    )
