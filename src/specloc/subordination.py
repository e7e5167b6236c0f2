"""p-subordination: ratios, the certified minimal bound b, and sampling checks.

S is p-subordinate to G with bound b when

    ||S u|| <= b ||u||^(1-p) ||G u||^p        for all u,  0 <= p < 1.

By weighted AM-GM, ||u||^(2-2p) ||G u||^(2p) is the minimum over t > 0 of
u* ((1-p) t^p + p t^(p-1) G*G) u, attained at t = ||G u||^2 / ||u||^2.
Swapping the two suprema turns the minimal b into a one-parameter pencil
problem.  With G = U diag(sigma) V* and H = (S V)* (S V),

    b^2 = max over t in [sigma_min^2, sigma_max^2] of lambda_max(H, D(t)),
    D(t) = diag((1-p) t^p + p t^(p-1) sigma_i^2).

``subordination_bound`` brackets b by branch-and-bound over cells of log t.
In log t each diagonal entry d_i of D is convex with its minimum at sigma_i^2,
so on a cell [a, c] its tangent at clip(sigma_i^2, a, c) is a minorant that is
linear in log t and never below the cell minimum.  lambda_max(H, D) decreases
as D grows, so lambda_max of the minorant pencil at the two cell ends bounds
the whole cell from above, to second order in the cell width.  Top
eigenvectors of the same pencils are witnesses; the best witness's ratio,
evaluated directly, is the lower end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConvergenceError, InputError

#: relative width of the certified bracket: bound <= lower (1 + BRACKET_RTOL)
BRACKET_RTOL = 1e-6

#: relative rounding pad on the upper end.  For a diagonal G (every assembled
#: system) the SVD returns sigma to a few ulps and V is a phase permutation, so
#: each entry of the scaled pencil D^(-1/2) H D^(-1/2) is a dot product off by
#: at most n eps times the norms of its two columns.  That moves the pencil by
#: at most n^2 eps of its norm; eigh and the minorant's powers and logs add
#: O(n eps).  At the dimension cap n = 512 the sum stays below 6e-11.
#: For any other G, H carries an absolute error of order n eps ||S||^2, which
#: the scaling by D >= sigma_min^(2p) and b^2 >= ||S||^2 / sigma_max^(2p) turn
#: into n eps cond(G)^(2p) relative; the SVD's backward error n eps ||G|| adds
#: p n eps cond(G).  The pad is then scaled by cond(G)^max(1, 2p).
ROUNDING_PAD = 1e-10

#: the bracket gives up (ConvergenceError) after MAX_DEPTH bisection levels
#: in log t, or when a level would hold more than MAX_CELLS cells
MAX_DEPTH = 60
MAX_CELLS = 4096


def _check_pair(s, g):
    g = numerics.as_matrix(g)
    s = np.array(s, dtype=complex)
    if s.ndim != 2 or s.shape[1] != g.shape[0]:
        raise InputError("S must have %d columns, got shape %r" % (g.shape[0], s.shape))
    if s.size and not np.all(np.isfinite(s)):
        raise InputError("S contains non-finite entries")
    return s, g


def subordination_ratio(s, g, p: float, u) -> float:
    """||S u|| / (||u||^(1-p) ||G u||^p) with the 0/0 -> 0 convention.

    Returns inf when p > 0, G u = 0 and S u != 0 (the bound cannot hold).
    """
    s, g = _check_pair(s, g)
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("p must lie in [0, 1)")
    u = np.asarray(u, dtype=complex).reshape(-1)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        raise InputError("u must be nonzero")
    su = float(np.linalg.norm(s @ u))
    if p == 0.0:
        return su / nu
    gu = float(np.linalg.norm(g @ u))
    if gu == 0.0:
        return 0.0 if su == 0.0 else math.inf
    return su / (nu ** (1.0 - p) * gu**p)


@dataclass(frozen=True)
class SubordinationResult:
    p: float
    #: certified upper end of the bracket [lower, bound] around the minimal b
    bound: float
    #: subordination_ratio of the witness: lower <= b <= bound <= lower (1 + BRACKET_RTOL)
    lower: float
    witness: np.ndarray | None


def _column_ratios(s, g, p, u):
    """Ratio for each unit column of u (columns assumed normalized)."""
    su = np.linalg.norm(s @ u, axis=0)
    if p == 0.0:
        return su
    gu = np.linalg.norm(g @ u, axis=0)
    out = np.full(u.shape[1], np.inf)
    ok = gu > 0.0
    out[ok] = su[ok] / gu[ok] ** p
    out[(~ok) & (su == 0.0)] = 0.0
    return out


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

    Batched eigh over ``numerics.batches`` of the pencils.  Returns
    (lam, u, ratio2): the largest eigenvalues, their eigenvectors u in V
    coordinates, and the squared subordination ratio of each u.
    """
    scale = diags**-0.5
    lam, u = np.empty(len(diags)), np.empty(diags.shape, dtype=complex)
    for batch in numerics.batches(len(diags), h.size):
        sc = scale[batch]
        w, vec = np.linalg.eigh(sc[:, :, None] * h * sc[:, None, :])
        lam[batch], u[batch] = w[:, -1], sc * vec[:, :, -1]
    w = np.abs(u) ** 2
    # u* diag(d) u = 1, so ||S V u||^2 = u* H u = lam
    return lam, u, lam / (w.sum(axis=1) ** (1.0 - p) * (w @ sigma2) ** p)


def subordination_bound(s, g, p: float) -> SubordinationResult:
    """Certified bracket lower <= b <= bound around the minimal constant b.

    p = 0 reduces to the operator norm of S.  When p > 0 and G has a
    numerical kernel that S does not annihilate, the bound is infinite.
    The upper end carries the rounding pad ROUNDING_PAD for a diagonal G and
    ROUNDING_PAD cond(G)^max(1, 2p) for any other G.  Raises ConvergenceError
    if that pad alone exceeds BRACKET_RTOL, or if the bracket is not within
    BRACKET_RTOL after MAX_DEPTH bisection levels or within MAX_CELLS cells
    per level.
    """
    s, g = _check_pair(s, g)
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise InputError("p must lie in [0, 1)")
    n = g.shape[0]
    if n == 0:
        return SubordinationResult(p, 0.0, 0.0, None)
    if not np.any(s):
        e = np.zeros(n, dtype=complex)
        e[0] = 1.0
        return SubordinationResult(p, 0.0, 0.0, e)

    if p == 0.0:
        _, sv, vh = np.linalg.svd(s)
        witness = vh[0].conj()
        lower = subordination_ratio(s, g, p, witness)
        return SubordinationResult(p, max(float(sv[0]), lower), lower, witness)

    # unboundedness: S must vanish on ker G when p > 0
    _, sg, vgh = np.linalg.svd(g)
    kernel = sg <= 1e-12 * max(sg[0], 1.0)
    if np.any(kernel):
        kvecs = vgh[kernel].conj().T
        if np.all(kernel) or numerics.opnorm(s @ kvecs) > 1e-10 * max(numerics.opnorm(s), 1.0):
            return SubordinationResult(p, math.inf, math.inf, None)

    # S vanishes on the kernel, so only the range of G* carries the ratio
    v = vgh[~kernel].conj().T
    sigma2 = sg[~kernel] ** 2
    pad = ROUNDING_PAD
    if np.any(g - np.diag(np.diagonal(g))):
        pad *= (sigma2[0] / sigma2[-1]) ** max(0.5, p)
    if pad >= BRACKET_RTOL:
        raise ConvergenceError("G is too ill-conditioned for a %g bracket: rounding pad %.3g"
                               % (BRACKET_RTOL, pad), residual=pad)
    sv = s @ v
    h = sv.conj().T @ sv
    cells = np.array([[sigma2[-1], sigma2[0]]])
    lower, best, upper = -math.inf, None, 0.0
    for depth in range(MAX_DEPTH + 1):
        # the minorant is linear in log t, so lambda_max(H, minorant) peaks at
        # a cell end and there bounds lambda_max(H, D(t)) over the whole cell
        lam, u, ratio2 = _pencil_tops(h, sigma2, p, _minorant(sigma2, p, cells[:, 0], cells[:, 1]))
        k = int(np.argmax(ratio2))
        cand = subordination_ratio(s, g, p, v @ u[k])
        if cand > lower:
            lower, best = cand, u[k]
        lam = np.maximum(lam[:len(cells)], lam[len(cells):])
        cell_bounds = np.sqrt(lam) * (1.0 + pad)
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

    return SubordinationResult(p, upper, lower, v @ best)


def verify_bound(s, g, p: float, b: float, sample_count: int = 1000, seed: int = 0):
    """Sample unit vectors and report any with ratio > b (1 + 1e-9).

    Returns a list of {'index', 'ratio', 'vector'} dicts; empty list means no
    sampled violation.
    """
    s, g = _check_pair(s, g)
    if sample_count < 0:
        raise InputError("sample_count must be non-negative")
    n = g.shape[0]
    u = numerics.unit_columns(numerics.subrng(seed, 2), n, sample_count)
    r = _column_ratios(s, g, float(p), u)
    bad = np.flatnonzero(r > float(b) * (1.0 + 1e-9))
    return [{"index": int(i), "ratio": float(r[i]), "vector": u[:, i].copy()} for i in bad]
