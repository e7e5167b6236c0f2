"""Block operator matrices T = [[A, B], [C, D]] with normal diagonal part,
and the Hamiltonian special case T = [[A, B], [C, A]] with A skew-adjoint.

A block operator is the model T = G + S with G = diag(A, D) and
S = [[0, B], [C, 0]]: ``assemble_block`` checks the block split and the
normality of A and D one block at a time (a test on G alone is looser), then
builds the system through ``operators.assemble``.  S is p-subordinate to G
with constant max of the individual subordination constants of B relative to
D and C relative to A.  For the Hamiltonian case (p = 0) the spectrum is
symmetric about the imaginary axis, confined to discs |z - i r_k| <= b, and
kept away from the imaginary axis by the positivity floor gamma of B and C.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import numerics, operators
from .errors import DimensionError, InputError


def assemble_block(a, b, c, d, p: float) -> operators.PerturbedSystem:
    """Assemble T = [[A, B], [C, D]] as the perturbed system G + S with
    G = diag(A, D) and S = [[0, B], [C, 0]].

    A and D must each be normal, with spectra on rays; B must be
    dim A x dim D and C dim D x dim A.
    """
    a = numerics.as_matrix(a)
    d = numerics.as_matrix(d)
    s = operators.offdiagonal_block(b, c)
    if np.shape(b) != (a.shape[0], d.shape[0]):
        raise DimensionError("off-diagonal blocks do not match A (%d) and D (%d)"
                             % (a.shape[0], d.shape[0]))
    operators.require_normal(a, "A")
    operators.require_normal(d, "D")
    return operators.assemble(scipy.linalg.block_diag(a, d), s, p)


# ---------------------------------------------------------------------------
# Hamiltonian case


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


def fundamental_symmetries(n: int):
    """J1 = [[0, -iI], [iI, 0]] and J2 = [[0, I], [I, 0]] on C^{2n}."""
    ident = np.eye(n, dtype=complex)
    return (operators.offdiagonal_block(-1j * ident, 1j * ident),
            operators.offdiagonal_block(ident, ident))


def build_hamiltonian(model: HamiltonianModel) -> operators.PerturbedSystem:
    """Assemble the Hamiltonian block system (p = 0)."""
    a = 1j * np.diag(np.asarray(model.r_seq, dtype=float)).astype(complex)
    return assemble_block(a, model.b_mat, model.c_mat, a, p=0.0)


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
    - spectrum symmetric about the imaginary axis (z <-> -conj(z) pairing);
    - |Re z| >= gamma for every eigenvalue;
    - every eigenvalue lies in some disc |z - i r_k| <= b, counted per disc.

    A ``tol`` that is negative or not finite raises InputError.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InputError("need a finite tol >= 0, got %r" % tol)
    n = model.n
    j1, _ = fundamental_symmetries(n)
    m = j1 @ system.t
    j1_res = numerics.opnorm(m + m.conj().T)
    dec = numerics.eig(system.t)
    values = dec.values
    # pairing z <-> -conj(z) by greedy matching
    unmatched = list(range(len(values)))
    defects = []
    scale = max(float(np.max(np.abs(values), initial=0.0)), 1.0)
    while unmatched:
        i = unmatched.pop(0)
        target = -np.conj(values[i])
        if abs(values[i] - target) <= tol * scale:
            continue  # on the imaginary axis, self-paired
        best = None
        for j in unmatched:
            d = abs(values[j] - target)
            if best is None or d < best[1]:
                best = (j, d)
        if best is not None and best[1] <= tol * scale:
            unmatched.remove(best[0])
        else:
            defects.append(complex(values[i]))
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
        pairing_defects=tuple(defects),
        real_part_floor_violations=floor,
        disc_violations=disc_violations,
        per_disc_counts=counts,
        disc_simple=tuple(simple.tolist()),
        eigenvector_condition=dec.condition_estimate,
    )
