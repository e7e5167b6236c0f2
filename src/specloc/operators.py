"""Normal operators with ray-localized spectra, perturbation builders, and
``assemble``, the one constructor of perturbed systems T = G + S.

``build_normal`` gives the diagonal G with eigenvalues e^{i theta_j} r on
finitely many rays; ``random_gaussian``, ``banded`` and ``offdiagonal_block``
(the one writer of [[0, B], [C, 0]]) give S.  ``assemble`` accepts any normal
G with its spectrum on rays, block-diagonal ones included.  Everything is a
finite matrix, capped at dimension 512.
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


def _check_dimension(n: int):
    if n > MAX_DIMENSION:
        raise DimensionError("dimension %d exceeds cap %d" % (n, MAX_DIMENSION))


def build_normal(spec: RaySpectrumSpec) -> np.ndarray:
    """Diagonal matrix with the spec's eigenvalues, in declaration order."""
    _check_dimension(spec.dimension)
    return np.diag(spec.eigenvalues())


# ---------------------------------------------------------------------------
# perturbation builders


def _seeded_gaussian(n: int, seed: int) -> np.ndarray:
    _check_dimension(n)
    return numerics.gaussian(numerics.subrng(seed, 40), (n, n)) / np.sqrt(2.0)


def _rescaled(m: np.ndarray, scale: float) -> np.ndarray:
    if scale < 0.0 or not np.isfinite(scale):
        raise InputError("scale must be finite and non-negative")
    if scale == 0.0:
        return np.zeros_like(m)
    norm = numerics.opnorm(m)
    if norm == 0.0:
        raise InputError("cannot rescale a zero matrix to positive norm")
    return m * (scale / norm)


def random_gaussian(n: int, seed: int, scale: float) -> np.ndarray:
    """Seeded complex Gaussian n x n matrix, rescaled to operator norm ``scale``."""
    return _rescaled(_seeded_gaussian(n, seed), scale)


def banded(n: int, seed: int, scale: float, bandwidth: int) -> np.ndarray:
    """Seeded Gaussian entries restricted to ``|i - j| <= bandwidth``, rescaled
    to operator norm ``scale``."""
    if bandwidth < 0:
        raise InputError("bandwidth must be non-negative")
    m = _seeded_gaussian(n, seed)
    i, j = np.indices((n, n))
    m[np.abs(i - j) > bandwidth] = 0.0
    if not np.any(m):
        return np.zeros((n, n), dtype=complex)
    return _rescaled(m, scale)


def offdiagonal_block(b, c) -> np.ndarray:
    """S = [[0, B], [C, 0]] for finite blocks B (k x m) and C (m x k)."""
    b = np.array(b, dtype=complex)
    c = np.array(c, dtype=complex)
    if b.ndim != 2 or c.shape != b.shape[::-1]:
        raise DimensionError("blocks %r and %r do not form [[0, B], [C, 0]]"
                             % (b.shape, c.shape))
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise InputError("off-diagonal blocks must be finite")
    k, n = b.shape[0], sum(b.shape)
    _check_dimension(n)
    s = np.zeros((n, n), dtype=complex)
    s[:k, k:] = b
    s[k:, :k] = c
    return s


# ---------------------------------------------------------------------------
# assembled systems


@dataclass
class PerturbedSystem:
    """T = G + S with G normal and its spectrum on the rays of ``ray_spec``;
    built by ``assemble``."""

    g: np.ndarray
    s: np.ndarray
    t: np.ndarray = field(repr=False)
    p: float
    ray_spec: RaySpectrumSpec

    @property
    def dimension(self) -> int:
        return self.g.shape[0]


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


def require_normal(m: np.ndarray, name: str):
    """Raise InputError unless ||M M* - M* M|| <= 1e-10 max(||M||^2, 1);
    a diagonal M passes without an SVD."""
    if numerics.is_diagonal(m):
        return
    norm = numerics.opnorm(m)
    residual = numerics.opnorm(m @ m.conj().T - m.conj().T @ m)
    if residual > 1e-10 * max(norm**2, 1.0):
        raise InputError("%s is not normal (commutator norm %.3e)" % (name, residual))


def assemble(g, s, p: float, ray_spec: RaySpectrumSpec | None = None) -> PerturbedSystem:
    """Validate and assemble T = G + S; the one constructor of PerturbedSystem.

    G must be normal with its eigenvalues on the declared (or inferred) rays.
    A diagonal G is its own eigendecomposition; any other G must pass
    ``require_normal`` and its eigenvalues come from the checked
    ``numerics.eig``.  The subordination exponent p must lie in [0, 1).
    """
    g = numerics.as_matrix(g)
    s = numerics.as_matrix(s)
    if g.shape != s.shape:
        raise DimensionError("G is %r but S is %r" % (g.shape, s.shape))
    _check_dimension(g.shape[0])
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("subordination exponent p must lie in [0, 1), got %r" % p)
    if numerics.is_diagonal(g):
        values = np.diag(g)
    else:
        require_normal(g, "G")
        values = numerics.eig(g).values
    if ray_spec is None:
        ray_spec = rays_from_values(values)
    else:
        if ray_spec.dimension != g.shape[0]:
            raise DimensionError(
                "ray spec dimension %d != matrix dimension %d" % (ray_spec.dimension, g.shape[0])
            )
        want = np.sort_complex(ray_spec.eigenvalues())
        got = np.sort_complex(values)
        scale = max(1.0, float(np.max(np.abs(values), initial=0.0)))
        if np.max(np.abs(want - got)) > 1e-10 * scale:
            raise InputError("spectrum of G does not match the declared ray spectrum")
    return PerturbedSystem(g=g, s=s, t=g + s, p=p, ray_spec=ray_spec)
