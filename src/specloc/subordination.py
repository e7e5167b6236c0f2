"""p-subordination: ratios, the certified minimal bound b, and sampling checks.

S is p-subordinate to G with bound b when

    ||S u|| <= b ||u||^(1-p) ||G u||^p        for all u,  0 <= p < 1.

By weighted AM-GM, ||u||^(2-2p) ||G u||^(2p) is the minimum over t > 0 of
u* ((1-p) t^p + p t^(p-1) G*G) u, attained at t = ||G u||^2 / ||u||^2.
Swapping the two suprema turns the minimal b into a one-parameter pencil
problem.  G is its diagonal g (a normal G is unitarily diagonal and b is
unitarily invariant), so G = U diag(sigma) V* with sigma = |g_i| sorted down,
V a permutation and S V a column selection of S; with H = (S V)* (S V),

    b^2 = max over t in [sigma_min^2, sigma_max^2] of lambda_max(H, D(t)),
    D(t) = diag((1-p) t^p + p t^(p-1) sigma_i^2).

``subordination_bound`` brackets b by branch-and-bound over cells of log t.
In log t each diagonal entry d_i of D is convex with its minimum at sigma_i^2,
so on a cell [a, c] its tangent at clip(sigma_i^2, a, c) is a minorant that is
linear in log t and never below the cell minimum.  lambda_max(H, D) decreases
as D grows, so lambda_max of the minorant pencil at the two cell ends bounds
the whole cell from above, to second order in the cell width.  Only the top
eigenpair of each scaled pencil is computed, one LAPACK zheevr call each.
Its eigenvectors are witnesses; the best witness's ratio, evaluated directly
and rounded down by 4 (n + 1) eps, is the lower end.

For p > 0 the kernel of G is decided exactly, with no tolerance: it is
{i : g_i == 0}, and b is infinite if and only if S has a nonzero entry in
one of those columns.  A near-kernel modulus is a modulus like any other, so
the bracket stays true however many decades the nonzero moduli span, up to
a range guard: they must keep the pencil weights finite and positive.
``verify_bound`` probes random unit vectors and G's eigenvectors e_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import numerics
from .errors import ConvergenceError, InputError

#: relative width of the certified bracket: bound <= lower (1 + BRACKET_RTOL)
BRACKET_RTOL = 1e-6

#: relative rounding pad on the upper end.  sigma is |g_i| to an ulp and S V
#: is a column selection, so each entry of the scaled pencil D^(-1/2) H D^(-1/2)
#: is a dot product off by at most n eps times the norms of its two columns.
#: That moves the pencil by at most n^2 eps of its norm.  zheevr reduces the pencil with the same zhetrd as a
#: full eigh, and its top eigenvalue carries the same O(n eps) backward error;
#: with the minorant's powers and logs that adds O(n eps).  At the dimension
#: cap n = 512 the sum stays below 6e-11.
ROUNDING_PAD = 1e-10

#: the bracket gives up (ConvergenceError) after MAX_DEPTH bisection levels
#: in log t, or when a level would hold more than MAX_CELLS cells
MAX_DEPTH = 60
MAX_CELLS = 4096

#: LAPACK's MRRR Hermitian eigensolver, asked for the top eigenpair only
_HEEVR = scipy.linalg.get_lapack_funcs("heevr", dtype=complex)


def _check_pair(s, g):
    g = numerics.as_diagonal(g)
    s = np.array(s, dtype=complex)
    if s.ndim != 2 or s.shape[1] != len(g):
        raise InputError("S must have %d columns, got shape %r" % (len(g), s.shape))
    if s.size and not np.all(np.isfinite(s)):
        raise InputError("S contains non-finite entries")
    return s, g


def _ratios(s, g, p, u):
    """||S u_j|| / (||u_j||^(1-p) ||G u_j||^p), G = diag(g), for each column u_j of u,
    with 0/0 -> 0 and x/0 -> inf (p > 0, G u_j = 0 and S u_j != 0: no bound holds)."""
    su = np.linalg.norm(s @ u, axis=0)
    gp = np.linalg.norm(g[:, None] * u, axis=0) ** p if p else 1.0
    den = np.linalg.norm(u, axis=0) ** (1.0 - p) * gp
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(su == 0.0, 0.0, su / den)


def subordination_ratio(s, g, p: float, u) -> float:
    """The subordination ratio of one nonzero vector u (``_ratios``)."""
    s, g = _check_pair(s, g)
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("p must lie in [0, 1)")
    u = np.asarray(u, dtype=complex).reshape(-1, 1)
    if not np.any(u):
        raise InputError("u must be nonzero")
    return float(_ratios(s, g, p, u)[0])


@dataclass(frozen=True)
class SubordinationResult:
    #: certified upper end of the bracket [lower, bound] around the minimal b
    bound: float
    #: the witness's subordination ratio rounded down by 4 (n + 1) eps:
    #: lower <= b <= bound <= lower (1 + BRACKET_RTOL)
    lower: float
    witness: np.ndarray | None


def _round_down(ratio: float, n: int) -> float:
    """A computed witness ratio on C^n, rounded down to a lower end for b.

    With unit roundoff eps/2, the norm of an n-term matrix-vector product
    whose terms do not cancel is within (3n/2) eps/2 of the exact one, so
    ||S u||, ||G u||^p and ||u||^(1-p) put the ratio within (7n/4 + O(1)) eps.
    The pad 4 (n + 1) eps covers that and is 4.6e-13 at n = 512.  Where b is
    known exactly (diagonal S and G, where nothing cancels) that is a bound;
    for any other witness it is the usual forward-error allowance.
    """
    return ratio * (1.0 - 4.0 * (n + 1) * np.finfo(float).eps)


def _round_up(x: float, n: int) -> float:
    """A computed norm on C^n, rounded up to an upper end for b: the mirror of
    ``_round_down``, the same 4 (n + 1) eps allowance for gesdd's O(n eps)
    error in sigma_1 (for S = cI at n = 26..28, sigma_1 came out an ulp below c)."""
    return x * (1.0 + 4.0 * (n + 1) * np.finfo(float).eps)


def _weights(sigma2, p, t):
    """Diagonal of D(t): d_i(t) = (1-p) t^p + p t^(p-1) sigma_i^2."""
    return (1.0 - p) * t**p + p * t ** (p - 1.0) * sigma2


def _minorant(sigma2, p, a, c):
    """Diagonals below D(t) on each cell [a, c] of t, at t = a and at t = c.

    In s = log t each d_i is convex with its minimum at t = sigma_i^2, so its
    tangent at clip(sigma_i^2, a, c) lies below it and stays above that cell
    minimum on the whole cell.  The tangent is within O(log(c/a)^2) of d_i.
    Returns the rows for all a ends, then those for all c ends.
    """
    t = np.clip(sigma2, a[:, None], c[:, None])
    d = _weights(sigma2, p, t)
    slope = p * (1.0 - p) * t ** (p - 1.0) * (t - sigma2)
    return np.concatenate([d + slope * np.log(a[:, None] / t), d + slope * np.log(c[:, None] / t)])


def _pencil_tops(h, sigma2, p, diags):
    """Top eigenpairs of the pencils (H, diag(d)) for the rows d of diags.

    One zheevr call per scaled pencil D^(-1/2) H D^(-1/2), asking for the
    largest eigenpair only.  Returns (lam, u, ratio2): the largest
    eigenvalues, their eigenvectors u in V coordinates, and the squared
    subordination ratio of each u.
    """
    n = len(sigma2)
    scale = diags**-0.5
    lam, u = np.empty(len(diags)), np.empty(diags.shape, dtype=complex)
    for i, sc in enumerate(scale):
        w, z, _, _, info = _HEEVR(sc[:, None] * h * sc, range="I", lower=1, il=n, iu=n)
        if info:
            raise ConvergenceError("zheevr failed with info %d" % info)
        lam[i], u[i] = w[0], sc * z[:, 0]
    w = np.abs(u) ** 2
    # u* diag(d) u = 1, so ||S V u||^2 = u* H u = lam
    return lam, u, lam / (w.sum(axis=1) ** (1.0 - p) * (w @ sigma2) ** p)


def subordination_bound(s, g, p: float) -> SubordinationResult:
    """Certified bracket lower <= b <= bound around the minimal constant b.

    G is given by its diagonal g (InputError otherwise).  p = 0 reduces to the
    operator norm of S, whose upper end is sigma_1 rounded up by 4 (n + 1)
    eps (``_round_up``).  When p > 0, ker G is exactly {i : g_i == 0}: if S
    has a nonzero entry in one of those columns the bound is infinite at both
    ends, and otherwise those columns drop out and every nonzero modulus,
    however small or large, enters the branch-and-bound.  Nonzero moduli that
    leave a pencil weight at either end of [sigma_min^2, sigma_max^2] other
    than a finite positive float raise InputError.  The upper end carries the
    rounding pad ROUNDING_PAD.  Raises ConvergenceError if the bracket is not
    within BRACKET_RTOL after MAX_DEPTH bisection levels or within MAX_CELLS
    cells per level.
    """
    s, g = _check_pair(s, g)
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("p must lie in [0, 1)")
    n = len(g)
    if n == 0:
        return SubordinationResult(0.0, 0.0, None)
    if not np.any(s):
        e = np.zeros(n, dtype=complex)
        e[0] = 1.0
        return SubordinationResult(0.0, 0.0, e)

    if p == 0.0:
        _, sv, vh = np.linalg.svd(s)
        witness = vh[0].conj()
        ratio = subordination_ratio(s, g, p, witness)
        return SubordinationResult(max(_round_up(float(sv[0]), n), ratio),
                                   _round_down(ratio, n), witness)

    # G is its own SVD: sigma = |g_i| and V the permutation ``order``
    order = np.argsort(-np.abs(g), kind="stable")
    sg = np.abs(g)[order]
    # ker G is where g is zero, and with p > 0 S must vanish there exactly
    kernel = sg == 0.0
    if np.any(s[:, order[kernel]]):
        return SubordinationResult(math.inf, math.inf, None)

    # S vanishes on the kernel, so only the range of G* carries the ratio
    cols, sg = order[~kernel], sg[~kernel]
    with np.errstate(all="ignore"):
        sigma2 = sg**2
        ends = _weights(sigma2, p, sigma2[[-1, 0], None])
    if not np.all(np.isfinite(ends) & (ends > 0.0)):
        raise InputError("the nonzero moduli of G, from %g to %g, put the pencil weights"
                         " outside the floating-point range at p = %g" % (sg[-1], sg[0], p))
    sv = s[:, cols]
    h = sv.conj().T @ sv
    cells = np.array([[sigma2[-1], sigma2[0]]])
    lower, best, upper = -math.inf, None, 0.0
    for depth in range(MAX_DEPTH + 1):
        # the minorant is linear in log t, so lambda_max(H, minorant) peaks at
        # a cell end and there bounds lambda_max(H, D(t)) over the whole cell
        lam, u, ratio2 = _pencil_tops(h, sigma2, p, _minorant(sigma2, p, cells[:, 0], cells[:, 1]))
        k = int(np.argmax(ratio2))
        w = np.zeros(n, dtype=complex)
        w[cols] = u[k]  # back from V coordinates into T's
        cand = _round_down(float(_ratios(s, g, p, w[:, None])[0]), n)
        if cand > lower:
            lower, best = cand, w
        lam = np.maximum(lam[:len(cells)], lam[len(cells):])
        cell_bounds = np.sqrt(lam) * (1.0 + ROUNDING_PAD)
        closed = cell_bounds <= lower * (1.0 + BRACKET_RTOL)
        upper = max(upper, float(np.max(cell_bounds[closed], initial=0.0)))
        cells = cells[~closed]
        if not len(cells):
            break
        if depth == MAX_DEPTH or 2 * len(cells) > MAX_CELLS:
            top = float(np.max(cell_bounds))
            raise ConvergenceError(
                "subordination bracket [%.10e, %.10e] still wider than %g after %d levels"
                " with %d open cells" % (lower, top, BRACKET_RTOL, depth, len(cells)),
                residual=top / lower - 1.0,
            )
        mid = np.sqrt(cells[:, 0] * cells[:, 1])
        cells = np.concatenate([np.stack([cells[:, 0], mid], axis=1),
                                np.stack([mid, cells[:, 1]], axis=1)])

    return SubordinationResult(upper, lower, best)


def verify_bound(s, g, p: float, b: float, sample_count: int = 1000, seed: int = 0):
    """Probe unit vectors and report any with ratio > b (1 + 1e-9).

    The probes are ``sample_count`` random unit vectors, then the n
    coordinate vectors e_i, G's eigenvectors (index sample_count + i), which
    see a bound that fails near ker G where random vectors miss it.
    Returns a list of {'index', 'ratio', 'vector'} dicts; empty list means no
    probed violation.
    """
    s, g = _check_pair(s, g)
    if sample_count < 0:
        raise InputError("sample_count must be non-negative")
    n = len(g)
    u = np.hstack([numerics.unit_columns(numerics.subrng(seed, 2), n, sample_count), np.eye(n)])
    r = _ratios(s, g, float(p), u)
    bad = np.flatnonzero(r > float(b) * (1.0 + 1e-9))
    return [{"index": int(i), "ratio": float(r[i]), "vector": u[:, i].copy()} for i in bad]
