"""specloc: numerical laboratory for spectral localization of p-subordinate
perturbations of normal operators.

Core objects: ray-localized normal operators G and perturbations S with
||S u|| <= b ||u||^(1-p) ||G u||^p, certified spectral enclosures (ball plus
parabolic lobes), Riesz projections of single contours and of gap contours,
each from one reordered Schur form, and Riesz basis constants for the
resulting projection families.
"""

import os

# one BLAS thread unless the caller chose otherwise, set before numpy loads:
# more threads oversubscribe the map_batches workers and move report values
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    AmbiguousClusterError,
    ContourSpectrumError,
    ConvergenceError,
    DimensionError,
    InputError,
    SpeclocError,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousClusterError",
    "ContourSpectrumError",
    "ConvergenceError",
    "DimensionError",
    "InputError",
    "SpeclocError",
    "__version__",
]
