"""Dense complex linear-algebra kernel used by every other module.

Thin, validated wrappers around LAPACK (via numpy/scipy) with deterministic
conventions: eigenvalues come back in a fixed order, eigenvectors have unit
columns, and solves certify their own residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, InputError, SingularMatrixError

#: number of angular buckets used by the deterministic eigenvalue ordering
_ANGLE_BUCKETS = 4096

#: relative residual allowed for an eigenpair, in units of ||A||
EIG_RESIDUAL_RTOL = 1e-10

#: relative residual allowed for a linear solve
SOLVE_RESIDUAL_RTOL = 1e-12

#: complex entries in one stacked batch of matrices (512 KB)
BATCH_ENTRIES = 1 << 15


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a finite square complex matrix and return a copy."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix, got shape %r" % (m.shape,))
    if m.size and not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m


def opnorm(a) -> float | np.ndarray:
    """Spectral (operator 2-) norm of ``a``: a float for one matrix, an array
    of norms for a stack ``(k, n, n)``.

    The same LAPACK gesdd call as ``np.linalg.norm(a, 2)``, so the values agree
    bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def batches(count: int, matrix_entries: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, each covering as many matrices
    of ``matrix_entries`` entries as fit in BATCH_ENTRIES (at least one)."""
    step = max(1, BATCH_ENTRIES // max(matrix_entries, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def svd_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular value of a square matrix."""
    a = as_matrix(a)
    if a.shape[0] == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in deterministic order with matching unit eigenvectors.

    ``condition_estimate`` is the 2-norm condition number of the eigenvector
    matrix (infinite / huge for defective inputs).
    """

    values: np.ndarray
    vectors: np.ndarray
    condition_estimate: float


def _eig_order(values: np.ndarray) -> np.ndarray:
    """Deterministic ordering: angle bucket, then modulus, then real part."""
    ang = np.mod(np.angle(values), 2.0 * np.pi)
    bucket = np.floor(ang * (_ANGLE_BUCKETS / (2.0 * np.pi))).astype(np.int64)
    bucket = np.clip(bucket, 0, _ANGLE_BUCKETS - 1)
    # lexsort: last key is the primary one
    return np.lexsort((values.imag, values.real, np.abs(values), bucket))


def eig(a) -> EigenDecomposition:
    """Full eigendecomposition with deterministic ordering and residual check.

    Raises ConvergenceError if LAPACK fails or an eigenpair residual exceeds
    ``EIG_RESIDUAL_RTOL * ||A||``.
    """
    a = as_matrix(a)
    try:
        values, vectors = scipy.linalg.eig(a)
    except Exception as exc:  # LAPACK convergence failure
        raise ConvergenceError("eigensolver failed: %s" % exc) from exc
    order = _eig_order(values)
    values = values[order]
    vectors = vectors[:, order]
    norms = np.linalg.norm(vectors, axis=0)
    if np.any(norms == 0.0):
        raise ConvergenceError("eigensolver returned a zero eigenvector")
    vectors = vectors / norms
    norm_a = opnorm(a)
    residuals = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > EIG_RESIDUAL_RTOL * max(norm_a, 1e-300):
        raise ConvergenceError(
            "eigenpair residual %.3e exceeds %.1e * ||A||" % (worst, EIG_RESIDUAL_RTOL),
            residual=worst,
        )
    sv = np.linalg.svd(vectors, compute_uv=False) if a.shape[0] else np.array([1.0])
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    return EigenDecomposition(values=values, vectors=vectors, condition_estimate=max(cond, 1.0))


def solve(a, b) -> np.ndarray:
    """Solve ``A X = B`` with a backward-stability certificate.

    Raises SingularMatrixError (carrying sigma_min) when A is singular to
    working tolerance, ConvergenceError when the residual check fails for any
    other reason.
    """
    a = as_matrix(a)
    b = np.asarray(b, dtype=complex)
    if b.shape[0] != a.shape[0]:
        raise InputError("right-hand side has %d rows, matrix has %d" % (b.shape[0], a.shape[0]))

    def _singular_check():
        smax, smin = svd_extremes(a)
        if smin <= 1e-13 * max(smax, 1e-300):
            raise SingularMatrixError(
                "matrix singular to tolerance (sigma_min=%.3e)" % smin, sigma_min=smin
            )

    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        _singular_check()
        raise SingularMatrixError("linear solve failed: %s" % exc, sigma_min=0.0) from exc
    residual = float(np.linalg.norm(a @ x - b))
    scale = opnorm(a) * max(float(np.linalg.norm(x)), 1e-300)
    if residual > SOLVE_RESIDUAL_RTOL * max(scale, 1e-300):
        _singular_check()
        raise ConvergenceError(
            "solve residual %.3e exceeds %.1e * ||A|| ||X||" % (residual, SOLVE_RESIDUAL_RTOL),
            residual=residual,
        )
    return x
