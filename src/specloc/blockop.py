"""The Hamiltonian block operator T = [[A, B], [C, A]] with A = i diag(r_seq)
skew-adjoint and B, C self-adjoint.

T is the model G + S with the diagonal G = diag(A, A), whose eigenvalues lie
on the rays pi/2 and 3 pi/2, and S = [[0, B], [C, 0]]; S is subordinate to G
with p = 0 and b = max(||B||, ||C||).  The spectrum is symmetric about the
imaginary axis, confined to discs |z - i r_k| <= b, and kept away from the
imaginary axis by the positivity floor gamma of B and C.

``verify_hamiltonian`` checks these properties: the J1-skew residual is the
norm of a 2 x 2 block matrix formed from T's blocks, and the z <-> -conj(z)
symmetry is a maximum bipartite matching of the eigenvalues with their mirror
images (Hopcroft-Karp), perfect exactly when the spectrum is symmetric within
the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.csgraph

from . import numerics, operators
from .errors import DimensionError, InputError


@dataclass(frozen=True)
class HamiltonianModel:
    """T = [[A, B], [C, A]] with A = i diag(r_seq), B, C self-adjoint >= gamma.

    ``l`` is the half-gap: r_{k+1} - r_k >= 2 l > 2 b with b = max(||B||,||C||).
    """

    r_seq: tuple[float, ...]
    b_mat: np.ndarray
    c_mat: np.ndarray
    gamma: float
    l: float
    #: b = max(||B||, ||C||), computed once in __post_init__
    subordination_norm: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < float(self.gamma) < np.inf:
            raise InputError("gamma must be positive and finite")
        r = tuple(float(x) for x in self.r_seq)
        if not r or any(y <= x for x, y in zip(r, r[1:])):
            raise InputError("r_seq must be nonempty and strictly increasing")
        bm = numerics.as_matrix(self.b_mat)
        cm = numerics.as_matrix(self.c_mat)
        n = len(r)
        if bm.shape != (n, n) or cm.shape != (n, n):
            raise DimensionError("B and C must be %dx%d" % (n, n))
        norms = []
        for name, m in (("B", bm), ("C", cm)):
            norms.append(numerics.opnorm(m))
            if numerics.opnorm(m - m.conj().T) > 1e-12 * max(norms[-1], 1.0):
                raise InputError("%s must be self-adjoint" % name)
            low = float(np.min(np.linalg.eigvalsh(m)))
            if low < float(self.gamma) - 1e-12:
                raise InputError("%s has eigenvalue %.6g below gamma=%.6g" % (name, low, self.gamma))
        bound = max(norms)
        if not (float(self.l) > bound):
            raise InputError("need l > max(||B||, ||C||) = %.6g" % bound)
        offenders = [k for k in range(n - 1) if r[k + 1] - r[k] < 2.0 * float(self.l) - 1e-12]
        if offenders:
            raise InputError("gap condition r_{k+1}-r_k >= 2l fails at k in %r" % offenders)
        object.__setattr__(self, "r_seq", r)
        object.__setattr__(self, "b_mat", bm)
        object.__setattr__(self, "c_mat", cm)
        object.__setattr__(self, "subordination_norm", bound)

    @property
    def n(self) -> int:
        return len(self.r_seq)


def build_hamiltonian(model: HamiltonianModel) -> operators.PerturbedSystem:
    """Assemble the Hamiltonian block system (p = 0): G = diag(A, A) with
    A = i diag(r_seq) and S = [[0, B], [C, 0]], on the rays pi/2 (r >= 0) and
    3 pi/2 (r < 0)."""
    r = np.asarray(model.r_seq + model.r_seq)
    rays = [operators.Ray(theta, np.abs(r[side])) for theta, side in
            ((np.pi / 2.0, r >= 0.0), (1.5 * np.pi, r < 0.0)) if side.any()]
    return operators.assemble(1j * r,
                              operators.offdiagonal_block(model.b_mat, model.c_mat), 0.0,
                              operators.RaySpectrumSpec(tuple(rays)))


@dataclass(frozen=True)
class SymmetryReport:
    j1_skew_residual: float
    pairing_defects: tuple[complex, ...]
    real_part_floor_violations: tuple[complex, ...]
    disc_violations: tuple[complex, ...]
    per_disc_counts: tuple[int, ...]
    disc_simple: tuple[bool, ...]
    eigenvector_condition: float

    @property
    def clean(self) -> bool:
        return (not self.pairing_defects and not self.real_part_floor_violations
                and not self.disc_violations)


def verify_hamiltonian(system: operators.PerturbedSystem, model: HamiltonianModel,
                       tol: float = 1e-8) -> SymmetryReport:
    """Check the structural spectral properties of the Hamiltonian system.

    - T is skew-adjoint for the indefinite product J1 (residual reported);
    - spectrum symmetric about the imaginary axis: a maximum matching pairs
      each z with an eigenvalue within tol * scale of -conj(z) (z itself on
      the axis); the unmatched eigenvalues, in eigenvalue order, are the
      pairing defects;
    - |Re z| >= gamma for every eigenvalue;
    - every eigenvalue lies in some disc |z - i r_k| <= b, counted per disc.

    A ``tol`` that is negative or not finite raises InputError.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InputError("need a finite tol >= 0, got %r" % tol)
    n = model.n
    t = system.t
    t11, t12, t21, t22 = t[:n, :n], t[:n, n:], t[n:, :n], t[n:, n:]
    # J1 T + (J1 T)* = diag(-iI, iI) K for J1 = [[0, -iI], [iI, 0]]; diag(-iI, iI) is unitary
    j1_res = numerics.opnorm(np.block([[t21 - t21.conj().T, t22 + t11.conj().T],
                                       [t11 + t22.conj().T, t12 - t12.conj().T]]))
    dec = numerics.eig(t)
    values = dec.values
    scale = max(float(np.max(np.abs(values), initial=0.0)), 1.0)
    mate = scipy.sparse.csgraph.maximum_bipartite_matching(
        scipy.sparse.csr_array(np.abs(values[:, None] + values.conj()) <= tol * scale),
        perm_type="column")
    defects = tuple(complex(z) for z in values[mate < 0])
    floor = tuple(complex(z) for z in values if abs(z.real) < float(model.gamma) - tol * scale)
    b = model.subordination_norm
    centers = 1j * np.asarray(model.r_seq, dtype=float)
    dist = np.abs(values[:, None] - centers[None, :])
    inside = dist <= b + tol * scale
    disc_violations = tuple(complex(z) for z, row in zip(values, inside) if not row.any())
    counts = tuple(int(x) for x in inside.sum(axis=0))
    # a disc is simple when no pair of eigenvalues within tol * scale lies in it
    i, j = np.nonzero(np.triu(np.abs(values[:, None] - values) <= tol * scale, 1))
    simple = ~(inside[i] & inside[j]).any(axis=0)
    return SymmetryReport(
        j1_skew_residual=float(j1_res),
        pairing_defects=defects,
        real_part_floor_violations=floor,
        disc_violations=disc_violations,
        per_disc_counts=counts,
        disc_simple=tuple(simple.tolist()),
        eigenvector_condition=dec.condition_estimate,
    )
