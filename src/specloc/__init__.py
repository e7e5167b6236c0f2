"""specloc: numerical laboratory for spectral localization of p-subordinate
perturbations of normal operators.

Core objects: ray-localized normal operators G and perturbations S with
||S u|| <= b ||u||^(1-p) ||G u||^p, certified spectral enclosures (ball plus
parabolic lobes), Riesz projections of gap contours from one reordered Schur
form (and by contour quadrature for single contours), and Riesz basis
constants for the resulting projection families.
"""

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
