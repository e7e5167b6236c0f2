"""Independent linear-algebra references for the tests: plain LAPACK calls
that the library under test does not route through."""

import numpy as np

from specloc import numerics


def svd_extremes(a) -> tuple[float, float]:
    """Largest and smallest singular value of a square matrix."""
    a = numerics.as_matrix(a)
    if a.shape[0] == 0:
        return 0.0, 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[0]), float(s[-1])
