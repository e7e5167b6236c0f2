"""Riesz projections by contour quadrature, and projection families.

P = (i / 2 pi) * sum_j w_j (T - z_j)^-1 over a positively oriented contour, with
node doubling until ||P^2 - P||_F meets tolerance.  The resolvents are
triangular resolvents from one Schur form T = Q R Q*: each node and panel
endpoint inverts R - z with LAPACK ztrtri, every pass gates each of them on that
inverse, and the accepted sum is rotated back as Q P_R Q*.  An eigendecomposition
route (``spectral_projector_oracle``) provides the independent cross-check.
"""

from __future__ import annotations

import functools
import itertools
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
    dec = numerics.eig(t_mat)
    values = dec.values
    root = list(range(len(values)))  # union-find: each cluster's root is its first member

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in zip(*np.nonzero(np.triu(np.abs(values[:, None] - values) <= 1e-8, 1))):
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    labels = np.array([find(i) for i in range(len(values))], dtype=int)
    indicator = np.zeros(len(values))
    for c in np.unique(labels):
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
    #: orthonormal range frame U_r: left singular vectors with singular value above 1/2
    frame: np.ndarray
    #: those r singular values S_r and their right singular vectors V_r: P~ = U_r S_r V_r*
    singular_values: np.ndarray
    coframe: np.ndarray
    #: sigma_1(P) and the tail sigma_{r+1}(P) = ||P - P~|| (0 at full rank), for the pad
    norm: float
    tail: float

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @functools.cached_property
    def idempotency_residual(self) -> float:
        """||P^2 - P||; its SVD runs on first read."""
        return numerics.opnorm(self.matrix @ self.matrix - self.matrix)


@dataclass(frozen=True)
class ProjectionFamily:
    entries: tuple[ProjectionEntry, ...]

    @property
    def matrices(self) -> list[np.ndarray]:
        return [e.matrix for e in self.entries]

    @property
    def cross_talk(self) -> float:
        """Bound on max_{j != k} ||P_j P_k||: ||S_j V_j* U_k S_k||, a block of one GEMM of the
        stacked factors (one stacked opnorm per pair of ranks, no padding), plus the pad tail_j
        ||P_k|| + ||P_j|| tail_k; the GEMM rounding margin, ~n eps ||P_j|| ||P_k||, is not added."""
        es = self.entries
        if len(es) < 2:
            return 0.0
        ranks = np.array([e.rank for e in es])
        start = np.cumsum(ranks) - ranks
        gram = (np.hstack([e.coframe * e.singular_values for e in es]).conj().T
                @ np.hstack([e.frame * e.singular_values for e in es]))
        norm, tail = np.array([(e.norm, e.tail) for e in es]).T
        bound = np.outer(tail, norm) + np.outer(norm, tail)
        for a, b in itertools.product(np.unique(ranks), repeat=2):
            j, k = np.flatnonzero(ranks == a), np.flatnonzero(ranks == b)
            rows, cols = start[j, None] + np.arange(a), start[k, None] + np.arange(b)
            bound[np.ix_(j, k)] += numerics.opnorm(gram[rows[:, None, :, None], cols[:, None, :]])
        return float(bound[~np.eye(len(es), dtype=bool)].max())

    def disjoint(self, tol: float) -> bool:
        """Whether ``cross_talk`` <= tol: pads included, GEMM rounding margin not."""
        return self.cross_talk <= tol

    @property
    def sum_residual(self) -> float:
        """||sum_k P_k - I|| (only meaningful for intentionally complete families)."""
        mats = self.matrices
        if not mats:
            return 0.0
        return numerics.opnorm(sum(mats) - np.eye(mats[0].shape[0], dtype=complex))


def make_family(labelled_projections) -> ProjectionFamily:
    """Entries for (label, matrix) pairs: one SVD each gives rank, thin factors, norm, tail."""
    entries = []
    for label, mat in labelled_projections:
        mat = numerics.as_matrix(mat)
        u, s, vh = np.linalg.svd(mat)
        top = s > 0.5
        entries.append(ProjectionEntry(
            label=str(label), matrix=mat, frame=u[:, top], singular_values=s[top],
            coframe=vh[top].conj().T,
            norm=float(np.max(s, initial=0.0)), tail=float(np.max(s[~top], initial=0.0))))
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

    Returns (c_hat, c_upper) with c_hat <= c_upper = sum_k ||P_k||, from make_family's SVDs.
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
    c_upper = float(sum(e.norm for e in family.entries))
    c_hat = min(float(total.max()), c_upper)
    return c_hat, c_upper
