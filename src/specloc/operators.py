"""Construction of normal operators with ray-localized spectra and their
perturbations.

A normal model operator G is diagonal with eigenvalues e^{i theta_j} r on
finitely many rays; perturbations S are dense/banded/random/block matrices.
Everything is a finite matrix, capped at dimension 512.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import DimensionError, InputError

#: hard cap on operator dimension
MAX_DIMENSION = 512

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Ray:
    """One spectral ray: direction angle ``theta`` and moduli ``radii``."""

    theta: float
    radii: tuple[float, ...]

    def __post_init__(self):
        theta = float(self.theta)
        if not np.isfinite(theta):
            raise InputError("ray angle must be finite")
        radii = tuple(float(r) for r in self.radii)
        if any((not np.isfinite(r)) or r < 0.0 for r in radii):
            raise InputError("ray radii must be finite and non-negative")
        object.__setattr__(self, "theta", float(np.mod(theta, _TWO_PI)))
        object.__setattr__(self, "radii", radii)

    def eigenvalues(self) -> np.ndarray:
        return np.exp(1j * self.theta) * np.asarray(self.radii, dtype=float)


@dataclass(frozen=True)
class RaySpectrumSpec:
    """Finitely many rays with distinct directions."""

    rays: tuple[Ray, ...]

    def __post_init__(self):
        rays = tuple(self.rays)
        if not rays:
            raise InputError("need at least one ray")
        thetas = np.array([r.theta for r in rays])
        if len(thetas) > 1:
            diff = np.abs(thetas[:, None] - thetas[None, :])
            diff = np.minimum(diff, _TWO_PI - diff)
            np.fill_diagonal(diff, np.inf)
            if diff.min() < 1e-12:
                raise InputError("ray angles must be distinct")
        object.__setattr__(self, "rays", rays)

    @property
    def dimension(self) -> int:
        return sum(len(r.radii) for r in self.rays)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.rays])

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues, concatenated ray by ray in declaration order."""
        if self.dimension == 0:
            return np.zeros(0, dtype=complex)
        return np.concatenate([r.eigenvalues() for r in self.rays])

    def min_ray_separation(self) -> float:
        """Smallest angular separation between distinct rays (2*pi if one)."""
        thetas = np.sort(self.thetas)
        if len(thetas) == 1:
            return _TWO_PI
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + _TWO_PI]]))
        return float(gaps.min())


def build_normal(spec: RaySpectrumSpec) -> np.ndarray:
    """Diagonal matrix with the spec's eigenvalues, in declaration order."""
    n = spec.dimension
    if n > MAX_DIMENSION:
        raise DimensionError("dimension %d exceeds cap %d" % (n, MAX_DIMENSION))
    return np.diag(spec.eigenvalues())


# ---------------------------------------------------------------------------
# perturbation specifications


@dataclass(frozen=True)
class DensePerturbation:
    """Explicit complex entries."""

    entries: np.ndarray


@dataclass(frozen=True)
class RandomGaussianPerturbation:
    """Seeded complex Gaussian matrix, rescaled to operator norm ``scale``."""

    seed: int
    scale: float


@dataclass(frozen=True)
class BandedPerturbation:
    """Seeded Gaussian entries restricted to a band, rescaled to ``scale``."""

    seed: int
    scale: float
    bandwidth: int


@dataclass(frozen=True)
class OffDiagonalBlockPerturbation:
    """S = [[0, B], [C, 0]] on a two-component space."""

    b: np.ndarray
    c: np.ndarray


def _gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    return numerics.gaussian(rng, shape) / np.sqrt(2.0)


def _rescaled(m: np.ndarray, scale: float) -> np.ndarray:
    if scale < 0.0 or not np.isfinite(scale):
        raise InputError("scale must be finite and non-negative")
    if scale == 0.0:
        return np.zeros_like(m)
    norm = numerics.opnorm(m)
    if norm == 0.0:
        raise InputError("cannot rescale a zero matrix to positive norm")
    return m * (scale / norm)


def build_perturbation(spec, n: int) -> np.ndarray:
    """Materialize a perturbation spec as an n x n complex matrix."""
    if n > MAX_DIMENSION:
        raise DimensionError("dimension %d exceeds cap %d" % (n, MAX_DIMENSION))
    if isinstance(spec, DensePerturbation):
        m = numerics.as_matrix(spec.entries)
        if m.shape[0] != n:
            raise DimensionError("dense entries are %dx%d, expected %d" % (*m.shape, n))
        return m
    if isinstance(spec, RandomGaussianPerturbation):
        rng = np.random.default_rng(int(spec.seed))
        return _rescaled(_gaussian(rng, (n, n)), spec.scale)
    if isinstance(spec, BandedPerturbation):
        if spec.bandwidth < 0:
            raise InputError("bandwidth must be non-negative")
        rng = np.random.default_rng(int(spec.seed))
        m = _gaussian(rng, (n, n))
        i, j = np.indices((n, n))
        m[np.abs(i - j) > spec.bandwidth] = 0.0
        if not np.any(m):
            return np.zeros((n, n), dtype=complex)
        return _rescaled(m, spec.scale)
    if isinstance(spec, OffDiagonalBlockPerturbation):
        b = numerics.as_matrix(spec.b)
        c = numerics.as_matrix(spec.c)
        if b.shape != c.shape or 2 * b.shape[0] != n:
            raise DimensionError("block shapes %r/%r incompatible with n=%d" % (b.shape, c.shape, n))
        k = b.shape[0]
        s = np.zeros((n, n), dtype=complex)
        s[:k, k:] = b
        s[k:, :k] = c
        return s
    raise InputError("unknown perturbation spec %r" % (type(spec).__name__,))


# ---------------------------------------------------------------------------
# assembled systems


@dataclass
class PerturbedSystem:
    """T = G + S with G normal (diagonal in the standard basis here)."""

    g: np.ndarray
    s: np.ndarray
    t: np.ndarray = field(repr=False)
    p: float = 0.0
    ray_spec: RaySpectrumSpec | None = None

    @property
    def dimension(self) -> int:
        return self.g.shape[0]

    def sigma_g(self) -> np.ndarray:
        """Eigenvalues of G (diagonal entries for diagonal G)."""
        if not np.any(self.g - np.diag(np.diag(self.g))):
            return np.diag(self.g).copy()
        return numerics.eig(self.g).values


def rays_from_values(values) -> RaySpectrumSpec:
    """Cluster eigenvalue angles into rays (1e-8 rad) and put each eigenvalue
    on its nearest ray; one off every ray by more than 1e-10 (relative) raises
    InputError.  Zeros join the first ray."""
    values = np.asarray(values)
    nonzero = values[np.abs(values) > 0.0]
    angles = np.mod(np.angle(nonzero), _TWO_PI)

    def dist(a, r):
        return min(abs(a - r), _TWO_PI - abs(a - r))

    reps: list[float] = []
    for a in np.sort(angles):
        if not reps or min(dist(a, r) for r in reps) > 1e-8:
            reps.append(float(a))
    if not reps:
        reps = [0.0]
    buckets: dict[float, list[float]] = {r: [] for r in reps}
    for z, a in zip(nonzero, angles):
        rep = min(reps, key=lambda r: dist(a, r))
        if abs(z) * dist(a, rep) > 1e-10 * (1.0 + abs(z)):
            raise InputError("eigenvalue %r is not on any spectral ray" % (complex(z),))
        buckets[rep].append(float(abs(z)))
    buckets[reps[0]].extend([0.0] * (len(values) - len(nonzero)))
    return RaySpectrumSpec(rays=tuple(Ray(theta=r, radii=tuple(sorted(buckets[r])))
                                      for r in reps))


def assemble(g, s, p: float, ray_spec: RaySpectrumSpec | None = None) -> PerturbedSystem:
    """Validate and assemble T = G + S.

    G must be diagonal with its entries on the declared (or inferred) rays;
    the subordination exponent p must lie in [0, 1).
    """
    g = numerics.as_matrix(g)
    s = numerics.as_matrix(s)
    if g.shape != s.shape:
        raise DimensionError("G is %r but S is %r" % (g.shape, s.shape))
    if g.shape[0] > MAX_DIMENSION:
        raise DimensionError("dimension %d exceeds cap %d" % (g.shape[0], MAX_DIMENSION))
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("subordination exponent p must lie in [0, 1), got %r" % p)
    diag = np.diag(g)
    if numerics.opnorm(g - np.diag(diag)) > 1e-12 * max(numerics.opnorm(g), 1.0):
        raise InputError("G must be diagonal in the standard basis")
    if ray_spec is None:
        ray_spec = rays_from_values(diag)
    else:
        if ray_spec.dimension != g.shape[0]:
            raise DimensionError(
                "ray spec dimension %d != matrix dimension %d" % (ray_spec.dimension, g.shape[0])
            )
        want = np.sort_complex(ray_spec.eigenvalues())
        got = np.sort_complex(diag)
        if np.max(np.abs(want - got)) > 1e-10 * max(1.0, float(np.max(np.abs(diag), initial=0.0))):
            raise InputError("diagonal of G does not match the declared ray spectrum")
    return PerturbedSystem(g=g, s=s, t=g + s, p=p, ray_spec=ray_spec)
