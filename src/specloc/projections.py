"""Riesz projections by contour quadrature, and projection families.

P = (i / 2 pi) * sum_j w_j (T - z_j)^-1 over a positively oriented contour, with
node doubling until ||P^2 - P||_F meets tolerance.  The resolvents are
triangular resolvents from one Schur form T = Q R Q*: each node and panel
endpoint inverts R - z with LAPACK ztrtri, every pass gates each of them on that
inverse, and the accepted sum is rotated back as Q P_R Q*.  An eigendecomposition
route (``spectral_projector_oracle``) provides the independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import contours as contours_mod
from . import numerics
from .errors import AmbiguousClusterError, ContourSpectrumError, ConvergenceError, InputError

#: margin gate: 1 / ||(T - z)^-1||_F, a lower bound on sigma_min(T - z), must exceed this
MARGIN_GATE = 1e-8

#: total node cap for adaptive doubling
MAX_TOTAL_NODES = 2**20


def schur_form(t_mat) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form T = Q R Q*: returns (R, Q), R upper triangular."""
    try:
        r, q = scipy.linalg.schur(numerics.as_matrix(t_mat), output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("Schur form failed: %s" % exc) from exc
    return np.triu(r), q


def _triangular_resolvent(r, z):
    """(R - z)^-1 by ztrtri and its margin 1 / ||(R - z)^-1||_F (0 at a zero pivot)."""
    if not r.size:  # LAPACK rejects an empty matrix; its inverse is empty
        return r, np.inf
    shifted = r.copy(order="F")
    shifted.flat[::r.shape[0] + 1] -= z
    inverse, info = scipy.linalg.lapack.ztrtri(shifted, overwrite_c=1)
    return inverse, (1.0 / np.linalg.norm(inverse) if info == 0 else 0.0)


def riesz_projection(t_mat, contour: contours_mod.Contour, tol: float = 1e-8, *,
                     schur: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Contour-quadrature Riesz projection with adaptive node doubling.

    Works in the Schur coordinates of ``schur = schur_form(T)`` (computed here
    when not given), so the quadrature integrates the resolvent of T + E,
    where ||E|| is the Schur form's backward error (a small multiple of
    eps ||T||).  Each pass inverts R - z at every node and panel endpoint; a
    zero pivot or a margin 1 / ||(R - z)^-1||_F = 1 / ||(T + E - z)^-1||_F not
    above MARGIN_GATE raises ContourSpectrumError.  The stopping test
    ||P_R^2 - P_R||_F runs on the triangular P_R; the result is Q P_R Q*.
    """
    r, q = schur_form(t_mat) if schur is None else schur
    while True:
        weights = contour.weights
        acc = np.zeros(r.shape, dtype=complex)
        for k, z in enumerate(contour.gate_points):
            resolvent, margin = _triangular_resolvent(r, z)
            if not margin > MARGIN_GATE:
                raise ContourSpectrumError("contour margin %.3e below gate %.1e"
                                           % (margin, MARGIN_GATE), margin=margin)
            if k < len(weights):
                acc += weights[k] * resolvent
        proj = (1j / (2.0 * np.pi)) * acc
        residual = float(np.linalg.norm(proj @ proj - proj))
        if residual <= tol:
            return q @ proj @ q.conj().T
        if contour.total_nodes * 2 > MAX_TOTAL_NODES:
            raise ConvergenceError(
                "projection residual %.3e at node cap %d" % (residual, MAX_TOTAL_NODES),
                residual=residual,
            )
        contour = contour.refined(2)


def spectral_projector_oracle(t_mat, region_predicate) -> np.ndarray:
    """Eigendecomposition route: sum of spectral projectors of the eigenvalue
    clusters inside the region.

    Eigenvalues are clustered through chains of neighbours within 1e-8; a
    cluster whose members disagree about membership raises AmbiguousClusterError.
    """
    # scipy.sparse costs about 5 MB and 30 ms to import; only the oracle uses it
    from scipy.sparse.csgraph import connected_components

    dec = numerics.eig(t_mat)
    values = dec.values
    count, labels = connected_components(np.abs(values[:, None] - values) <= 1e-8,
                                         directed=False)
    indicator = np.zeros(len(values))
    for c in range(count):
        members = np.flatnonzero(labels == c)
        flags = {bool(region_predicate(values[i])) for i in members}
        if len(flags) > 1:
            raise AmbiguousClusterError(
                "eigenvalue cluster %r straddles the region boundary"
                % ([complex(values[i]) for i in members],)
            )
        if flags.pop():
            indicator[members] = 1.0
    v = dec.vectors
    return v @ (indicator[:, None] * np.linalg.inv(v))


def rank_of_projection(p_mat) -> int:
    """Numerical rank: singular values above 1/2 (valid for near-idempotents)."""
    s = np.linalg.svd(np.asarray(p_mat, dtype=complex), compute_uv=False)
    return int(np.sum(s > 0.5))


@dataclass(frozen=True)
class ProjectionEntry:
    label: str
    matrix: np.ndarray
    idempotency_residual: float
    #: orthonormal range frame: left singular vectors with singular value above 1/2
    frame: np.ndarray

    @property
    def rank(self) -> int:
        return self.frame.shape[1]


@dataclass(frozen=True)
class ProjectionFamily:
    entries: tuple[ProjectionEntry, ...]

    @property
    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.entries]

    def _cross_products(self):
        """The products P_j P_k, k != j, per row j in stacked batches."""
        mats = self.matrices
        for j, a in enumerate(mats):
            others = mats[:j] + mats[j + 1:]
            for b in numerics.batches(len(others), a.size):
                yield a @ np.stack(others[b])

    @property
    def cross_talk(self) -> float:
        """max over j != k of ||P_j P_k||; k(k-1) norms on every read, taken
        as stacked opnorms over the batches of ``_cross_products``."""
        return max((float(numerics.opnorm(c).max()) for c in self._cross_products()),
                   default=0.0)

    def disjoint(self, tol: float) -> bool:
        """Whether cross_talk <= tol, without SVDs when the Frobenius norms
        ||P_j P_k||_F (upper bounds) of the same products already are.

        The Frobenius pass is conclusive only below tol (1 - 1e-12), a margin
        for the rounding of both norms; above it the exact cross_talk decides.
        """
        fro = max((float(np.linalg.norm(c, axis=(1, 2)).max()) for c in self._cross_products()),
                  default=0.0)
        return fro <= tol * (1.0 - 1e-12) or self.cross_talk <= tol

    @property
    def sum_residual(self) -> float:
        """||sum_k P_k - I|| (only meaningful for intentionally complete families)."""
        mats = self.matrices
        if not mats:
            return 0.0
        return numerics.opnorm(sum(mats) - np.eye(mats[0].shape[0], dtype=complex))


def make_family(labelled_projections) -> ProjectionFamily:
    """Entries for a list of (label, matrix) pairs: one SVD each gives the
    rank and the range frame."""
    entries = []
    for label, mat in labelled_projections:
        mat = numerics.as_matrix(mat)
        u, s, _ = np.linalg.svd(mat)
        entries.append(
            ProjectionEntry(
                label=str(label),
                matrix=mat,
                idempotency_residual=numerics.opnorm(mat @ mat - mat),
                frame=u[:, s > 0.5],
            )
        )
    return ProjectionFamily(entries=tuple(entries))


def family_from_gaps(t_mat, gap_abscissae, alpha: float, p: float, theta: float = 0.0,
                     tol: float = 1e-8) -> ProjectionFamily:
    """Riesz projections for the gap contours between consecutive abscissae.

    One Schur form of T serves every contour.  A contour failing the margin
    gate of ``riesz_projection`` raises ContourSpectrumError naming the
    abscissa pair.
    """
    t_mat = numerics.as_matrix(t_mat)
    xs = [float(x) for x in gap_abscissae]
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise InputError("need at least two strictly increasing gap abscissae")
    schur = schur_form(t_mat)
    labelled = []
    for xl, xr in zip(xs, xs[1:]):
        contour = contours_mod.gap_contour(xl, xr, alpha, p, theta=theta)
        try:
            proj = riesz_projection(t_mat, contour, tol=tol, schur=schur)
        except ContourSpectrumError as exc:
            raise ContourSpectrumError("gap contour (%g, %g): %s" % (xl, xr, exc),
                                       margin=exc.margin, abscissae=(xl, xr)) from exc
        labelled.append(("gap[%g,%g]" % (xl, xr), proj))
    return make_family(labelled)


def projection_sum_bound(family: ProjectionFamily, probe_count: int = 256, seed: int = 0):
    """Probe estimate and norm upper bound for C = sup sum_k |(P_k x | y)|.

    Returns (c_hat, c_upper) with c_hat <= c_upper = sum_k ||P_k||.
    """
    mats = family.matrices
    if not mats:
        return 0.0, 0.0
    n = mats[0].shape[0]
    rng = numerics.subrng(seed, 3)
    x = numerics.unit_columns(rng, n, probe_count)
    y = numerics.unit_columns(rng, n, probe_count)
    total = np.zeros(probe_count)
    for mat in mats:
        total += np.abs(np.einsum("ij,ij->j", y.conj(), mat @ x))
    c_upper = float(sum(numerics.opnorm(m) for m in mats))
    c_hat = min(float(total.max()), c_upper)
    return c_hat, c_upper
