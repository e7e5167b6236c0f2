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
