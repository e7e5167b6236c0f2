"""Dense complex linear-algebra kernel used by every other module.

Thin, validated wrappers around LAPACK (via numpy/scipy) with deterministic
conventions: eigenvalues come back in a fixed order with a residual check,
and eigenvectors have unit columns.  Seeded randomness comes from
``subrng``: one independent stream per (seed, spawn key), so every instance
and probe set is reproducible and independent of evaluation order.
Independent batches of stacked work run through ``map_batches``, on one
worker thread per usable core.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, InputError

#: number of angular buckets used by the deterministic eigenvalue ordering
_ANGLE_BUCKETS = 4096

#: relative residual allowed for an eigenpair, in units of the largest column
#: norm of A (at most ||A|| and at least ||A|| / sqrt(n), so no SVD is needed)
EIG_RESIDUAL_RTOL = 1e-10

#: complex entries in one stacked batch of matrices (512 KB)
BATCH_ENTRIES = 1 << 15

#: u = 2^-52, twice the unit roundoff, so first-order rounding bounds in u also
#: cover their second-order terms and the few extra roundings of complex arithmetic
EPS = float(np.finfo(float).eps)


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a finite square complex matrix and return a copy."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError("expected a square matrix, got shape %r" % (m.shape,))
    if m.size and not np.all(np.isfinite(m)):
        raise InputError("matrix contains non-finite entries")
    return m


def as_diagonal(g) -> np.ndarray:
    """Validate ``g`` as the diagonal of G, a finite complex vector, and return a copy."""
    v = np.array(g, dtype=complex)
    if v.ndim != 1:
        raise InputError("G is given by its diagonal: expected a vector, got shape %r"
                         % (v.shape,))
    if not np.all(np.isfinite(v)):
        raise InputError("the diagonal of G contains non-finite entries")
    return v


def opnorm(a) -> float | np.ndarray:
    """Spectral (operator 2-) norm of ``a``: a float for one matrix, an array
    of norms for a stack ``(..., m, n)``.

    The same LAPACK gesdd call as ``np.linalg.norm(a, 2)``, so the values agree
    bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        norms = np.zeros(a.shape[:-2])
    else:
        norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u) with u = EPS (Higham, section 3.1); a complex
    inner product of length n rounds within gamma_{n+2} (Lemma 3.5, section 3.6)."""
    return k * EPS / (1.0 - k * EPS)


def batches(count: int, matrix_entries: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, each covering as many matrices
    of ``matrix_entries`` entries as fit in BATCH_ENTRIES (at least one)."""
    step = max(1, BATCH_ENTRIES // max(matrix_entries, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The batch pool: one worker per usable core, built on first use."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ThreadPoolExecutor(max_workers=cores or 1, thread_name_prefix="specloc-batch")


def map_batches(fn, count: int, matrix_entries: int) -> list:
    """``[fn(b) for b in batches(count, matrix_entries)]``, in batch order.

    More than one batch runs on the module's pool, one worker thread per
    usable core; NumPy releases the GIL inside LAPACK and BLAS, so the
    batches' SVDs and GEMMs overlap.  Each worker multiplies with BLAS's own
    threads, so keep BLAS at one thread.  A single batch runs inline.  An
    exception raised by ``fn`` reaches the caller.  ``fn`` must not itself
    call ``map_batches``: a worker waiting on its own pool can deadlock.
    """
    parts = batches(count, matrix_entries)
    if len(parts) <= 1:
        return [fn(b) for b in parts]
    return list(_pool().map(fn, parts))


def subrng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based splitter: independent stream for (seed, key...)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(key)))


def gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Complex standard-normal array: all real parts are drawn, then all
    imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def unit_columns(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` random unit probe vectors of length ``n``, as columns
    (a zero column is left zero)."""
    z = gaussian(rng, (n, count))
    norms = np.linalg.norm(z, axis=0)
    norms[norms == 0.0] = 1.0
    return z / norms


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues in deterministic order with matching unit eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray

    @functools.cached_property
    def condition_estimate(self) -> float:
        """2-norm condition number of the eigenvector matrix (infinite / huge
        for defective inputs); its SVD runs on first read."""
        if not self.vectors.size:
            return 1.0
        sv = np.linalg.svd(self.vectors, compute_uv=False)
        return max(float(sv[0] / sv[-1]), 1.0) if sv[-1] > 0.0 else math.inf


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
    ``EIG_RESIDUAL_RTOL * max_j ||A e_j||``, the largest column norm of A.
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
    scale = float(np.linalg.norm(a, axis=0).max(initial=0.0))
    residuals = np.linalg.norm(a @ vectors - vectors * values, axis=0)
    worst = float(residuals.max()) if residuals.size else 0.0
    if worst > EIG_RESIDUAL_RTOL * max(scale, 1e-300):
        raise ConvergenceError(
            "eigenpair residual %.3e exceeds %.1e * max_j ||A e_j||" % (worst, EIG_RESIDUAL_RTOL),
            residual=worst,
        )
    return EigenDecomposition(values=values, vectors=vectors)
