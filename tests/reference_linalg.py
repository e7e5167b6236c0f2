"""Independent linear-algebra references for the tests: plain LAPACK calls
that the library under test does not route through."""

import itertools

import numpy as np

from specloc import numerics


def svd_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular value of a square matrix."""
    a = numerics.as_matrix(a)
    if a.shape[0] == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])


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
