"""Riesz projections from one reordered Schur form, and projection families.

The Riesz projection P = (i / 2 pi) * integral over Gamma of (T - z)^-1 dz is
the spectral projector of the eigenvalues inside Gamma.  ``riesz_projection``
(one contour) and ``family_from_gaps`` (one per gap) both take it from one
complex Schur form T = Q R Q* (``_schur_projector``).  Each contour is gated in
closed form over the whole contour (Weyl's inequality on R = diag R + N), else
by the margins 1 / ||(R - z)^-1||_F at its gate points; then LAPACK ztrsen
moves the diagonal entries of R inside the contour's region to the top and
ztrsyl solves one Sylvester equation (Bai, Demmel and McKenney, ACM TOMS 19,
1993; Stewart and Sun, Matrix Perturbation Theory, 1990, ch. V), so no
quadrature runs.  An eigendecomposition route (``spectral_projector_oracle``)
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


def schur_form(t_mat) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form T = Q R Q*: returns (R, Q), R upper triangular."""
    try:
        r, q = scipy.linalg.schur(numerics.as_matrix(t_mat), output="complex")
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("Schur form failed: %s" % exc) from exc
    return np.triu(r), q


def _triangular_resolvent(r, z) -> float:
    """The margin 1 / ||(R - z)^-1||_F, the inverse by ztrtri (0 at a zero pivot)."""
    shifted = r.copy(order="F")
    shifted.ravel("K")[::r.shape[0] + 1] -= z  # a view: the copy is contiguous
    inverse, info = scipy.linalg.lapack.ztrtri(shifted, overwrite_c=1)
    if info:
        return 0.0
    flat = inverse.ravel("K")
    return 1.0 / np.sqrt(np.vdot(flat, flat).real)


def _schur_error(t_mat, r, q) -> float:
    """Bound on ||E|| with Q0* T Q0 = R + E for a unitary Q0 (``_schur_projector``)."""
    n = r.shape[0]
    g = numerics.gamma(n + 2)
    q2, r_norm = float(np.linalg.norm(q)) ** 2, float(np.linalg.norm(r))
    residual = float(np.linalg.norm(q @ r @ q.conj().T - t_mat)) + 2.0 * g * q2 * r_norm
    d = float(np.linalg.norm(q.conj().T @ q - np.eye(n))) + g * q2
    if not d <= 0.5:
        raise ConvergenceError("Schur vectors far from orthonormal: %.3e" % d, residual=d)
    return residual + d * (1.0 + 2.0 * d) * r_norm


def _schur_projector(t_mat):
    """One Schur form T = Q R Q* for any number of contours.

    Returns ``project(region, gate_points)``, which gates the contour of
    ``region`` and gives (gate_margin, U, Y), where P = U Y is the spectral
    projector of the diagonal entries of R inside the region
    (``region.contains``).

    The gate bounds sigma_min(T - z) over the whole contour at once.  With
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
      Gamma, where ``region.distance_bound`` bounds dist from below and ||N||
      is its computed norm over (1 - rho), rho = n^2 u for gesdd's backward
      error as in the screen; that SVD runs once per Schur form, only for a
      contour that ||N|| >= (1 - n u) max_j ||N e_j|| does not already fail.

    A diagonal entry within MARGIN_GATE + ||E|| of the contour is an eigenvalue
    of T + E on it, which the region predicate cannot place: that raises
    ContourSpectrumError before any inverse is taken.  The contour passes when
    the bound exceeds MARGIN_GATE, and the bound is ``gate_margin``.
    Otherwise the margin 1 / ||(R - z)^-1||_F must exceed MARGIN_GATE at every
    point of ``gate_points()``, called only then, and ``gate_margin`` is None.

    ztrsen moves the k selected entries to the top of R = Qs Ts Qs*, and with
    Ts = [[T11, T12], [0, T22]], ztrsyl solves T11 Z - Z T22 = scale T12; then
    U = Qs[:, :k] and Y = [I, Z / scale] Qs*.  For k = 0 and k = n neither
    runs: U Y is the empty product or Q Q*.
    """
    t_mat = numerics.as_matrix(t_mat)
    r, q = schur_form(t_mat)
    n = r.shape[0]
    values = np.diag(r)
    error = _schur_error(t_mat, r, q)
    strict = np.triu(r, 1)
    column = (1.0 - n * numerics.EPS) * float(np.max(np.linalg.norm(strict, axis=0), initial=0.0))
    departure = functools.cache(lambda: numerics.opnorm(strict) / (1.0 - n * n * numerics.EPS))

    def project(region, gate_points):
        dist = max(float(np.min(region.distance_bound(values), initial=np.inf)), 0.0)
        if not dist > MARGIN_GATE + error:
            raise ContourSpectrumError("Schur diagonal within %.3e of the contour" % dist,
                                       margin=dist)
        gate_margin = dist - departure() - error if dist - error - column > MARGIN_GATE else -np.inf
        if not gate_margin > MARGIN_GATE:
            gate_margin = None
            for point in gate_points():
                margin = _triangular_resolvent(r, point)
                if not margin > MARGIN_GATE:
                    raise ContourSpectrumError("contour margin %.3e below gate %.1e"
                                               % (margin, MARGIN_GATE), margin=margin)
        select = region.contains(values)
        k = int(np.count_nonzero(select))
        qs, y = q, q.conj().T
        if 0 < k < n:
            ts, qs, *_, info = scipy.linalg.lapack.ztrsen(select, r, q, job="N")
            if info:
                raise ConvergenceError("ztrsen failed to reorder the Schur form (info %d)"
                                       % info)
            z, scale, info = scipy.linalg.lapack.ztrsyl(ts[:k, :k], ts[k:, k:], ts[:k, k:],
                                                        isgn=-1)
            if info:
                raise ConvergenceError("ztrsyl: the contour's eigenvalues are too close to "
                                       "the others (info %d)" % info)
            y = qs[:, :k].conj().T + (z / scale) @ qs[:, k:].conj().T
        return gate_margin, qs[:, :k], y[:k]

    return project


def riesz_projection(t_mat, contour: contours_mod.Contour) -> np.ndarray:
    """The Riesz projection over ``contour``: the spectral projector of the
    eigenvalues inside ``contour.region``, as U Y from ``_schur_projector``.

    The contour is gated as a whole in closed form, else at its own
    ``gate_points``; an eigenvalue on or near it raises ContourSpectrumError.
    """
    _, u, y = _schur_projector(t_mat)(contour.region, lambda: contour.gate_points)
    return u @ y


def spectral_projector_oracle(t_mat, region_predicate) -> np.ndarray:
    """Eigendecomposition route: sum of spectral projectors of the eigenvalue
    clusters inside the region.

    Eigenvalues are clustered through chains of neighbours within 1e-8; a
    cluster whose members disagree about membership raises AmbiguousClusterError.
    """
    dec = numerics.eig(t_mat)
    values = dec.values
    # square the within-1e-8 relation until it is transitive: its closure
    reach, closure = None, np.abs(values[:, None] - values) <= 1e-8
    while not np.array_equal(reach, closure):
        reach, closure = closure, closure.astype(float) @ closure > 0.0
    labels = np.argmax(reach, axis=1)  # each cluster's label is its first member
    indicator = np.array([float(bool(region_predicate(z))) for z in values])
    inside = np.bincount(labels, weights=indicator, minlength=len(values))
    mixed = np.flatnonzero((inside > 0.0) & (inside < np.bincount(labels, minlength=len(values))))
    if mixed.size:  # the lowest-numbered mixed cluster: the one holding the lowest index
        raise AmbiguousClusterError(
            "eigenvalue cluster %r straddles the region boundary"
            % ([complex(z) for z in values[labels == mixed[0]]],)
        )
    v = dec.vectors
    return v @ (indicator[:, None] * np.linalg.inv(v))


def rank_of_projection(p_mat) -> int:
    """Numerical rank: singular values above 1/2 (valid for near-idempotents)."""
    s = np.linalg.svd(np.asarray(p_mat, dtype=complex), compute_uv=False)
    return int(np.sum(s > 0.5))


@dataclass(frozen=True)
class ProjectionEntry:
    """One member P of a family, held only as its thin factors P~ = U_r S_r V_r*."""

    label: str
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
        """||P~^2 - P~||, on first read: with F = U_r and C = V_r S_r, P~^2 - P~ is
        F (C*F - I) C*, and with the thin QR C = Q R' and F orthonormal to rounding its
        norm is that of the r x r product (C*F - I) R'*."""
        f, c = self.frame, self.coframe * self.singular_values
        r = np.linalg.qr(c, mode="r")
        return numerics.opnorm((c.conj().T @ f - np.eye(self.rank)) @ r.conj().T)


@dataclass(frozen=True)
class ProjectionFamily:
    entries: tuple[ProjectionEntry, ...]

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacked frames F = [F_1 ... F_m] and weighted coframes
        C = [V_1 S_1 ... V_m S_m] of the entries, so P~_k = F_k C_k*; stacked on first read."""
        es = self.entries
        return (np.hstack([e.frame for e in es]),
                np.hstack([e.coframe * e.singular_values for e in es]))

    @functools.cached_property
    def frame_singular_values(self) -> np.ndarray:
        """The singular values of the stacked frames F of ``factors``, on first read."""
        return np.linalg.svd(self.factors[0], compute_uv=False)

    def _rank_blocks(self):
        """(members, columns) for each nonzero rank r: the indices of the members of rank r
        and, one row each, their r columns of ``factors``."""
        ranks = np.array([e.rank for e in self.entries])
        start = np.cumsum(ranks) - ranks
        for r in np.unique(ranks[ranks > 0]):
            k = np.flatnonzero(ranks == r)
            yield k, start[k, None] + np.arange(r)

    @property
    def cross_talk(self) -> float:
        """Bound on max_{j != k} ||P_j P_k||: ||S_j V_j* U_k S_k||, a block of the GEMM C* F of
        ``factors`` with its columns scaled by S (one stacked opnorm per pair of ranks, no
        padding), plus the pad tail_j ||P_k|| + ||P_j|| tail_k; the GEMM rounding margin,
        ~n eps ||P_j|| ||P_k||, is not added."""
        es = self.entries
        if len(es) < 2:
            return 0.0
        f, c = self.factors
        gram = c.conj().T @ f * np.concatenate([e.singular_values for e in es])
        norm, tail = np.array([(e.norm, e.tail) for e in es]).T
        bound = np.outer(tail, norm) + np.outer(norm, tail)
        for (j, rows), (k, cols) in itertools.product(self._rank_blocks(), repeat=2):
            bound[np.ix_(j, k)] += numerics.opnorm(gram[rows[:, None, :, None], cols[:, None, :]])
        return float(bound[~np.eye(len(es), dtype=bool)].max())

    def commutator_residuals(self, t_mat) -> np.ndarray:
        """||T P~_k - P~_k T|| for each entry, from ``factors``: with P~_k = F_k C_k*, the
        commutator is X Y* with X = [T F_k, F_k] and Y = [C_k, -T* C_k], so its norm is
        ||R_X R_Y*|| for the thin QR R-factors, at most 2r x 2r (0 at rank 0)."""
        out = np.zeros(len(self.entries))
        if not self.entries:
            return out
        f, c = self.factors
        tf, tc = t_mat @ f, t_mat.conj().T @ c
        for k, cols in self._rank_blocks():
            rx = np.linalg.qr(np.concatenate([tf[:, cols], f[:, cols]], axis=2)
                              .transpose(1, 0, 2), mode="r")
            ry = np.linalg.qr(np.concatenate([c[:, cols], -tc[:, cols]], axis=2)
                              .transpose(1, 0, 2), mode="r")
            out[k] = numerics.opnorm(rx @ ry.conj().transpose(0, 2, 1))
        return out

    @property
    def sum_residual(self) -> float:
        """||sum_k P~_k - I|| = ||F C* - I||, one GEMM of ``factors`` (only meaningful
        for intentionally complete families)."""
        if not self.entries:
            return 0.0
        f, c = self.factors
        return numerics.opnorm(f @ c.conj().T - np.eye(f.shape[0]))


def _member(label, y, u=None, gate_margin=None) -> ProjectionEntry:
    """The member P = U Y (P = Y without ``u``) from one thin SVD Y = A S B*: its rank r
    counts the singular values above 1/2, its frame is U A_r, its norm sigma_1 and its
    tail the largest singular value dropped (0 if none is)."""
    a, s, bh = np.linalg.svd(y, full_matrices=False)
    top = s > 0.5
    return ProjectionEntry(
        label=str(label), frame=a[:, top] if u is None else u @ a[:, top],
        singular_values=s[top], coframe=bh[top].conj().T, norm=float(np.max(s, initial=0.0)),
        tail=float(np.max(s[~top], initial=0.0)), gate_margin=gate_margin)


def make_family(labelled_projections) -> ProjectionFamily:
    """Entries for (label, matrix) pairs, one thin SVD each (``_member``); the matrix is not
    kept, so a member is its thin factors, within its tail of P."""
    return ProjectionFamily(entries=tuple(_member(label, numerics.as_matrix(mat))
                                          for label, mat in labelled_projections))


def family_from_gaps(t_mat, gap_abscissae, alpha: float, p: float,
                     theta: float = 0.0) -> ProjectionFamily:
    """Spectral projections for the gap contours between consecutive abscissae.

    One Schur form serves every contour (``_schur_projector``, which states the
    gate).  Each projection P = U Y is that of the diagonal entries of R inside
    the gap region (``GapRegion.contains``), and ``_member`` factors it by one
    thin SVD Y = A S B*.  As Y Y* >= I, no singular value of Y is dropped and the
    tail is 0; the family takes no n x n SVD and keeps no n x n matrix per member.
    The sampled gate builds a gap's contour only where the closed form fails.
    A failing contour raises ContourSpectrumError naming the abscissa pair.
    """
    xs = [float(x) for x in gap_abscissae]
    if len(xs) < 2 or any(b <= a for a, b in zip(xs, xs[1:])):
        raise InputError("need at least two strictly increasing gap abscissae")
    project = _schur_projector(t_mat)
    entries = []
    for xl, xr in zip(xs, xs[1:]):
        region = contours_mod.GapRegion(xl, xr, float(alpha), float(p), float(theta))
        try:
            gate_margin, u, y = project(region, lambda: region.contour().gate_points)
        except ContourSpectrumError as exc:
            raise ContourSpectrumError("gap contour (%g, %g): %s" % (xl, xr, exc),
                                       margin=exc.margin, abscissae=(xl, xr)) from exc
        entries.append(_member("gap[%g,%g]" % (xl, xr), y, u, gate_margin))
    return ProjectionFamily(entries=tuple(entries))


def projection_sum_bound(family: ProjectionFamily, constant: float, upper: float | None):
    """Lower and upper ends (c_hat, c_upper) of C = sup_{||x|| = ||y|| = 1} sum_k |(P_k x | y)|
    from a ``rieszbasis.SignPatternSearch``'s ``constant`` and ``upper`` (None without a
    screen) and the entries' norms and tails, T = sum_k tail_k; nothing is drawn.

    C is the largest || sum_k w_k P_k || over unimodular w_k (Gohberg and Krein, ch. VI).
    Each sign pattern is one such w, and the top singular pair of P_k gives ||P_k|| <= C, so
    c_hat = max(constant, max_k ||P_k||) - T.  ``upper`` (``rieszbasis._screen``) uses only
    ||D|| = 1 of D = diag(eps): F D Y~ = (W D Y)(I + R), ||W D Y|| <= kappa(W) and the delta
    term hold for every diagonal unitary D, so it bounds every || sum_k w_k P~_k ||, and with
    the triangle inequality c_upper = min(sum_k ||P_k||, upper + T).  Where the ends meet
    (m = 1: C = ||P_1||) and their roundings cross, c_hat is lowered to c_upper.
    """
    tail = sum(e.tail for e in family.entries)
    norms = [e.norm for e in family.entries]
    c_upper = float(sum(norms)) if upper is None else min(float(sum(norms)), upper + tail)
    return min(max([constant, *norms]) - tail, c_upper), c_upper
