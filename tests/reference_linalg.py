"""Independent linear-algebra references for the tests: plain LAPACK calls
that the library under test does not route through."""

import itertools
import math

import numpy as np
import scipy.linalg

from specloc import numerics


def svd_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular value of a square matrix."""
    a = numerics.as_matrix(a)
    if a.shape[0] == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


def winding_number(contour, w: complex) -> complex:
    """Quadrature estimate of the winding number about w."""
    z = contour.nodes
    return complex(np.sum(contour.weights / (z - w)) / (2j * np.pi))


def r0_conditions(b: float, p: float, alpha: float, epsilon: float, psi: float):
    """The three sufficient resolvent conditions of ``enclosure.certified_r0``
    at radius r > 0, one callable each (each monotone: once satisfied at r
    they hold for all larger radii)."""
    sin_psi = math.sin(psi)
    cos_psi = math.cos(psi)

    def outer(r):  # |z| large, away from the ray axis
        return 2.0**p * b * r ** (p - 1.0) <= epsilon

    def sector(r):  # psi <= |arg| <= pi/2 relative to the ray
        return b * (1.0 + 1.0 / sin_psi) ** p * (r * sin_psi) ** (p - 1.0) <= epsilon

    def parabolic(r):  # near the ray, distance >= alpha (r cos psi)^p
        if p == 0.0:
            return True  # distance >= alpha gives b/alpha < epsilon directly
        d = alpha * (r * cos_psi) ** p
        if d == 0.0:
            return False
        return 2.0 * b * d ** (p - 1.0) + b / alpha <= epsilon

    return outer, sector, parabolic


def refined_excluded(b: float, p: float, x, y):
    """Asymptotic resolvent test: True where x + iy (lobe coordinates) is a
    certified resolvent point of the sharper enclosure boundary."""
    ay = np.abs(y)
    if p == 0.0 or b == 0.0:
        return b < ay  # b >= 0, so y = 0 is never excluded
    with np.errstate(divide="ignore", invalid="ignore"):  # t = inf at y = 0
        t = 2.0 * b ** (1.0 / p) * ay ** (1.0 - 1.0 / p)
        return (t < 1.0) & (x < (ay / b) ** (1.0 / p) * np.sqrt(1.0 - t))


def lu_reference(t, contour, tol=1e-8):
    """The contour quadrature P = (i / 2 pi) sum_j w_j (T - z_j)^-1, with one LU
    solve of T - z against I per gate point and node doubling until
    ||P^2 - P||_F <= tol: (projection, margins 1 / ||(T - z)^-1||_F of every
    pass, gate points in order)."""
    ident = np.eye(len(t), dtype=complex)
    margins = []
    while True:
        acc = np.zeros_like(ident)
        for k, z in enumerate(contour.gate_points):
            resolvent = np.linalg.solve(t - z * ident, ident)
            margins.append(1.0 / np.linalg.norm(resolvent))
            if k < len(contour.weights):
                acc += contour.weights[k] * resolvent
        proj = (1j / (2.0 * np.pi)) * acc
        if np.linalg.norm(proj @ proj - proj) <= tol:
            return proj, margins
        contour = contour.refined(2)


def entry_matrix(entry) -> np.ndarray:
    """The dense n x n member F S B* of a projection family entry, from its frame
    F, singular values S and coframe B."""
    return (entry.frame * entry.singular_values) @ entry.coframe.conj().T


def idempotency_residual(p) -> float:
    """||P^2 - P|| of a dense matrix, by its own SVD."""
    return float(np.linalg.svd(p @ p - p, compute_uv=False)[0])


def sum_residual(mats) -> float:
    """||sum_k P_k - I|| of dense matrices, by one SVD."""
    total = sum(mats)
    return float(np.linalg.svd(total - np.eye(len(total)), compute_uv=False)[0])


def factored_pattern_norms(family, patterns) -> list[float]:
    """|| sum_k eps_k P~_k || for each pattern, one at a time: its sum F D C* of the
    family's stacked factors formed alone, by one GEMM on the exact D C*, and
    normed by its own SVD."""
    f, c = family.factors
    ch = np.ascontiguousarray(c.conj().T)
    ranks = [e.rank for e in family.entries]
    return [numerics.opnorm(f @ (np.repeat(eps, ranks)[:, None] * ch)) for eps in patterns]


def max_cross_product_norm(mats) -> float:
    """max over ordered pairs j != k of ||P_j P_k||: every product formed and
    normed by its own SVD."""
    return max((float(np.linalg.svd(a @ b, compute_uv=False)[0])
                for a, b in itertools.permutations(mats, 2)), default=0.0)


def cross_talk_pad(mats) -> float:
    """max over ordered pairs j != k of tail_j ||P_k|| + ||P_j|| tail_k, where
    tail is the largest singular value not above 1/2 (0 at full rank)."""
    norms, tails = [], []
    for a in mats:
        s = np.linalg.svd(a, compute_uv=False)
        norms.append(float(s[0]))
        tails.append(float(np.append(s[s <= 0.5], 0.0)[0]))
    return max((tails[j] * norms[k] + norms[j] * tails[k]
                for j, k in itertools.permutations(range(len(mats)), 2)), default=0.0)


def pattern_bounds(patterns, ranks, screen) -> np.ndarray:
    """The sign-pattern screen's bound on every pattern's computed norm, each
    from its own eigvalsh: lambda = lambda_max(L* N_SS L) with M_SS = LL*, one
    batched Cholesky and eigvalsh per size of the smaller sign side S, then
    the bound formula of ``rieszbasis._screen``."""
    minus = np.repeat(patterns < 0.0, ranks, axis=1)
    side = np.where((minus.sum(1) * 2 <= minus.shape[1])[:, None], minus, ~minus)
    size = side.sum(1)
    lam = np.ones(len(patterns))
    for s in np.unique(size[size > 0]):
        group = np.flatnonzero(size == s)
        cols = np.nonzero(side[group])[1].reshape(-1, s)
        c = cols[:, :, None], cols[:, None, :]
        chol = np.linalg.cholesky(screen.m_gram[c])
        h = np.conj(chol).transpose(0, 2, 1) @ (screen.n_gram[c] @ chol)
        lam[group] = np.linalg.eigvalsh(h)[:, -1]
    x2 = ((1.0 + screen.rho) * lam + screen.tau) / (1.0 - screen.r) ** 2
    x = np.sqrt(x2)
    return (1.0 + screen.rho) * ((1.0 + screen.r) * (x + np.sqrt(np.maximum(x2 - 1.0, 0.0)))
                                 + screen.delta)


def probe_estimate_slacks(mats, constant, probe_count=1000, seed=0):
    """The two-sided estimate on ``verify_projection_estimate``'s probes, each
    P_k multiplied into the probe block as a dense matrix: returns (holds,
    worst relative lower slack, worst relative upper slack)."""
    c = float(constant)
    n = mats[0].shape[0]
    x = numerics.unit_columns(numerics.subrng(seed, 5), n, probe_count)
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
    return bool(ok), float(np.min(lower_slack / scale)), float(np.min(upper_slack / scale))


def exact_estimate_slacks(mats, constant):
    """The two-sided estimate decided on the dense P_k of a complete family:
    the extreme generalized eigenvalues of (sum P_k)* (sum P_k) against
    sum P_k* P_k (positive definite, as the P_k sum to I) are the extreme
    ratios of the two sides; returns (holds, worst relative lower slack,
    worst relative upper slack)."""
    c = float(constant)
    total = sum(mats)
    lam = scipy.linalg.eigh(total.conj().T @ total, sum(m.conj().T @ m for m in mats),
                            eigvals_only=True)
    lower, upper = float(lam[0]) - c**-2, c**2 - float(lam[-1])
    return bool(lower >= -1e-9 and upper >= -1e-9), lower, upper


def phase_grid_constant(mats, points=64) -> float:
    """The largest || sum_k w_k P_k || of dense matrices over the phase grid
    w_0 = 1, w_k = exp(2 pi i j_k / points) for k >= 1 (points^(m - 1) sums,
    so m <= 3), the sums formed by one einsum and normed by one batched SVD."""
    assert 1 <= len(mats) <= 3
    grid = np.exp(2j * np.pi * np.arange(points) / points)
    w = np.array(list(itertools.product(grid, repeat=len(mats) - 1)), dtype=complex)
    w = w.reshape(points ** (len(mats) - 1), len(mats) - 1)
    sums = mats[0] + np.einsum("pk,kij->pij", w, np.reshape(mats[1:], (-1, *mats[0].shape)))
    return float(np.linalg.svd(sums, compute_uv=False)[:, 0].max())
