"""Riesz projections: gap families from one reordered Schur form, contour
quadrature for single contours, and projection families.

A gap family takes one Schur form T = Q R Q* for all its contours.  Each gap
contour is gated in closed form over the whole contour (Weyl's inequality on
R = diag R + N), and its projection is the spectral projector of the diagonal
entries of R inside the gap: LAPACK ztrsen moves them to the top and ztrsyl
solves one Sylvester equation (Bai, Demmel and McKenney, ACM TOMS 19, 1993;
Stewart and Sun, Matrix Perturbation Theory, 1990, ch. V), so no quadrature
runs and each entry comes from its factors.  ``riesz_projection`` integrates
P = (i / 2 pi) * sum_j w_j (T - z_j)^-1 over any contour, with node doubling
until ||P^2 - P||_F meets tolerance, from triangular resolvents of the same
Schur form: each node and panel endpoint inverts R - z with LAPACK ztrtri,
every pass gates each of them on that inverse, and the accepted sum is rotated
back as Q P_R Q*.  An eigendecomposition route (``spectral_projector_oracle``)
provides the independent cross-check.
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
    if info:
        return inverse, 0.0
    flat = inverse.ravel("K")
    return inverse, 1.0 / np.sqrt(np.vdot(flat, flat).real)


def _gate(margin: float) -> None:
    """Raise ContourSpectrumError unless ``margin`` exceeds MARGIN_GATE (NaN fails)."""
    if not margin > MARGIN_GATE:
        raise ContourSpectrumError("contour margin %.3e below gate %.1e"
                                   % (margin, MARGIN_GATE), margin=margin)


def riesz_projection(t_mat, contour: contours_mod.Contour, tol: float = 1e-8) -> np.ndarray:
    """Contour-quadrature Riesz projection with adaptive node doubling.

    Works in the Schur coordinates of ``schur_form(T)``, so the quadrature
    integrates the resolvent of T + E, where ||E|| is the Schur form's
    backward error (a small multiple of eps ||T||).  Each pass inverts R - z
    at every node and panel endpoint; a zero pivot or a margin
    1 / ||(R - z)^-1||_F = 1 / ||(T + E - z)^-1||_F not above MARGIN_GATE
    raises ContourSpectrumError.  The stopping test
    ||P_R^2 - P_R||_F runs on the triangular P_R; the result is Q P_R Q*.
    """
    r, q = schur_form(t_mat)
    while True:
        weights = contour.weights
        acc = np.zeros(r.shape, dtype=complex)
        for k, z in enumerate(contour.gate_points):
            resolvent, margin = _triangular_resolvent(r, z)
            _gate(margin)
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
    #: for a gap projection, the certified lower bound on sigma_min(T - z) over its
    #: contour (``family_from_gaps``); None where the sampled gate decided
    gate_margin: float | None = None

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


def _schur_error(t_mat, r, q) -> float:
    """Bound on ||E|| with Q0* T Q0 = R + E for a unitary Q0 (``family_from_gaps``)."""
    n = r.shape[0]
    g = numerics.gamma(n + 2)
    q2, r_norm = float(np.linalg.norm(q)) ** 2, float(np.linalg.norm(r))
    residual = float(np.linalg.norm(q @ r @ q.conj().T - t_mat)) + 2.0 * g * q2 * r_norm
    d = float(np.linalg.norm(q.conj().T @ q - np.eye(n))) + g * q2
    if not d <= 0.5:
        raise ConvergenceError("Schur vectors far from orthonormal: %.3e" % d, residual=d)
    return residual + d * (1.0 + 2.0 * d) * r_norm


def _contour_gate(r, region, values, departure: float, error: float) -> float | None:
    """Closed-form gate of one gap contour, else the sampled gate on its points."""
    dist = max(float(np.min(region.distance_bound(values), initial=np.inf)), 0.0)
    if not dist > MARGIN_GATE + error:
        raise ContourSpectrumError("Schur diagonal within %.3e of the contour" % dist,
                                   margin=dist)
    bound = dist - departure - error
    if bound > MARGIN_GATE:
        return bound
    for z in region.contour().gate_points:
        _gate(_triangular_resolvent(r, z)[1])
    return None


def _spectral_entry(label: str, r, q, select, gate_margin) -> ProjectionEntry:
    """The spectral projector P = U Y of the selected diagonal entries of R.

    ztrsen moves them to the top of R = Qs Ts Qs*, and with Ts = [[T11, T12],
    [0, T22]], ztrsyl solves T11 Z - Z T22 = scale T12; then U = Qs[:, :k] and
    Y = [I, Z / scale] Qs*.  One thin SVD Y = A S B* gives the frame U A, the
    singular values S and the coframe B, and P = (U A) S B* has no tail.
    """
    n, k = r.shape[0], int(np.count_nonzero(select))
    if k == 0:
        empty = np.zeros((n, 0), dtype=complex)
        return ProjectionEntry(label=label, matrix=np.zeros((n, n), dtype=complex),
                               frame=empty, singular_values=np.zeros(0), coframe=empty,
                               norm=0.0, tail=0.0, gate_margin=gate_margin)
    qs, y = q, q.conj().T
    if k < n:
        ts, qs, *_, info = scipy.linalg.lapack.ztrsen(select, r, q, job="N")
        if info:
            raise ConvergenceError("ztrsen failed to reorder the Schur form (info %d)" % info)
        z, scale, info = scipy.linalg.lapack.ztrsyl(ts[:k, :k], ts[k:, k:], ts[:k, k:], isgn=-1)
        if info:
            raise ConvergenceError("ztrsyl: the gap's eigenvalues are too close to the "
                                   "others (info %d)" % info)
        y = qs[:, :k].conj().T + (z / scale) @ qs[:, k:].conj().T
    u = qs[:, :k]
    a, s, bh = np.linalg.svd(y, full_matrices=False)
    return ProjectionEntry(label=label, matrix=u @ y, frame=u @ a, singular_values=s,
                           coframe=bh.conj().T, norm=float(s[0]), tail=0.0,
                           gate_margin=gate_margin)


def family_from_gaps(t_mat, gap_abscissae, alpha: float, p: float,
                     theta: float = 0.0) -> ProjectionFamily:
    """Spectral projections for the gap contours between consecutive abscissae.

    One Schur form T = Q R Q* serves every contour.  Each projection is that of
    the diagonal entries of R inside the gap region (``GapRegion.contains``), from
    its factors (``_spectral_entry``), so the family takes no n x n SVD.

    The gate bounds sigma_min(T - z) over a whole contour at once.  With
    u = 2^-52 and gamma_k as in ``numerics.gamma`` (the sign-pattern screen's
    conventions) and Q = Q0 H its polar decomposition:

    * E1 = T - Q R Q* is at most its computed Frobenius norm plus the rounding
      of the two GEMMs, 2 gamma_{n+2} ||Q||_F^2 ||R||_F;
    * d >= ||Q*Q - I|| is the computed Frobenius norm plus gamma_{n+2} ||Q||_F^2,
      and ||H - I|| <= d / (2 - d), so ||H R H - R|| <= d (1 + 2 d) ||R|| for
      d <= 1/2 (else ConvergenceError);
    * so Q0* T Q0 = R + E with ||E|| <= ||E1|| + d (1 + 2 d) ||R||_F;
    * with R = diag R + N, N strictly upper triangular, Weyl's inequality gives
      sigma_min(T - z) >= dist(diag R, Gamma) - ||N|| - ||E|| for every z on
      Gamma, where ``GapRegion.distance_bound`` bounds dist from below and ||N||
      is its computed norm over (1 - rho), rho = n^2 u for gesdd's backward
      error as in the screen.

    A diagonal entry within MARGIN_GATE + ||E|| of a contour is an eigenvalue
    of T + E on it, which the region predicate cannot place: that raises
    ContourSpectrumError.  The contour passes when the bound exceeds
    MARGIN_GATE, and the bound is the entry's ``gate_margin``.  Otherwise the
    margin 1 / ||(R - z)^-1||_F of ``riesz_projection`` gates every point of
    the contour's ``gate_points``, built only then, and ``gate_margin`` is
    None.  A failing contour raises ContourSpectrumError naming the abscissa
    pair.
    """
    t_mat = numerics.as_matrix(t_mat)
    xs = [float(x) for x in gap_abscissae]
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise InputError("need at least two strictly increasing gap abscissae")
    r, q = schur_form(t_mat)
    n = r.shape[0]
    values = np.diag(r)
    error = _schur_error(t_mat, r, q)
    departure = numerics.opnorm(np.triu(r, 1)) / (1.0 - n * n * numerics.EPS)
    entries = []
    for xl, xr in zip(xs, xs[1:]):
        region = contours_mod.GapRegion(xl, xr, float(alpha), float(p), float(theta))
        try:
            margin = _contour_gate(r, region, values, departure, error)
        except ContourSpectrumError as exc:
            raise ContourSpectrumError("gap contour (%g, %g): %s" % (xl, xr, exc),
                                       margin=exc.margin, abscissae=(xl, xr)) from exc
        entries.append(_spectral_entry("gap[%g,%g]" % (xl, xr), r, q,
                                       region.contains(values), margin))
    return ProjectionFamily(entries=tuple(entries))


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
