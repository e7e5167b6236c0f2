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
as D grows, and tau M - H >= 0 at both ends of a linear M holds between them,
so a cell closes when ``numerics.below`` certifies, by one Cholesky
factorization of each end's scaled pencil D^(-1/2) H D^(-1/2), that both lie
below fl(lower (1 + BRACKET_RTOL))^2: the upper end is that certificate at
the contract width, not the eigensolver's tighter but uncertified bound.
Only the ends that the test leaves open take one LAPACK zheevr call for
their top eigenpair; its eigenvectors are witnesses, and the best witness's
ratio, evaluated directly and rounded down by 4 (n + 1) eps, is the lower end.

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

#: relative width of the certified bracket: for p > 0,
#: bound = fl(lower (1 + BRACKET_RTOL))
BRACKET_RTOL = 1e-6

#: the bracket gives up (ConvergenceError) after MAX_DEPTH bisection levels
#: in log t, or when a level would hold more than MAX_CELLS cells
MAX_DEPTH = 60
MAX_CELLS = 4096

#: LAPACK's MRRR Hermitian eigensolver, asked for the top eigenpair only
_HEEVR = scipy.linalg.get_lapack_funcs("heevr", dtype=complex)


def _check(s, g, p):
    g = numerics.as_diagonal(g)
    s = np.array(s, dtype=complex)
    if s.ndim != 2 or s.shape[1] != len(g):
        raise InputError("S must have %d columns, got shape %r" % (len(g), s.shape))
    if s.size and not np.all(np.isfinite(s)):
        raise InputError("S contains non-finite entries")
    if not 0.0 <= float(p) < 1.0:
        raise InputError("p must lie in [0, 1)")
    return s, g, float(p)


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
    s, g, p = _check(s, g, p)
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
    """A computed witness ratio on C^n, rounded down to a lower end for b:
    with unit roundoff eps/2, ||S u||, ||G u||^p and ||u||^(1-p), norms of
    n-term products whose terms do not cancel, put it within (7n/4 + O(1))
    eps, and the pad 4 (n + 1) eps (4.6e-13 at n = 512) covers that.  Where
    b is known exactly (diagonal S and G) that is a bound; for any other
    witness it is the usual forward-error allowance.
    """
    return ratio * (1.0 - 4.0 * (n + 1) * numerics.EPS)


def _round_up(x: float, n: int) -> float:
    """A computed norm on C^n, rounded up to an upper end for b: the mirror of
    ``_round_down``, the same 4 (n + 1) eps allowance for gesdd's O(n eps)
    error in sigma_1 (for S = cI at n = 26..28, sigma_1 came out an ulp below c)."""
    return x * (1.0 + 4.0 * (n + 1) * numerics.EPS)


def _weights(sigma2, p, t):
    """Diagonal of D(t): d_i(t) = (1-p) t^p + p t^(p-1) sigma_i^2."""
    return (1.0 - p) * t**p + p * t ** (p - 1.0) * sigma2


def _minorant(sigma2, p, a, c):
    """Diagonals below D(t) on each cell [a, c] of t, at t = a and at t = c:
    the tangents in s = log t at clip(sigma_i^2, a, c), within
    O(log(c/a)^2) of d_i.  Returns the rows for all a ends, then the c ends.
    """
    t = np.clip(sigma2, a[:, None], c[:, None])
    d = _weights(sigma2, p, t)
    slope = p * (1.0 - p) * t ** (p - 1.0) * (t - sigma2)
    return np.concatenate([d + slope * np.log(a[:, None] / t), d + slope * np.log(c[:, None] / t)])


def _pencil_rho(rows: int, sigma2) -> float:
    """The upstream error (``numerics.below``) of the bracket's test for S V
    with ``rows`` rows and k columns and weights built from ``sigma2``, with
    u = EPS, pow, log and hypot within 4 ulps, and L = max |ln t| over
    [sigma_min^2, sigma_max^2]: fl(|g_i|)^2 is within 9u of |g_i|^2, which
    moves each weight d_i (linear in sigma_i^2, share at most 1) and, its
    log-derivative in log t lying in [p - 1, p], the ends of the t range by
    at most 9u; the tangent at t* = clip(sigma_i^2, a, c) of the weight from
    the computed sigma_i^2 is a minorant with non-negative terms d_i(t*) and
    slope ln(x / t*), |slope| <= d_i(t*), so with p - 1 rounded (L u / 4) a
    computed row is within (12 + L / 4) u of it; the scales d^(-1/2) move
    the weights by 8u.  So lambda_max(H, D(t)) <= (1 + (38 + L / 4) u)
    lambda_max(X) on a cell, X = Sigma H Sigma for the computed scales Sigma,
    and the rounded H = fl((S V)* S V) and A = fl(Sigma H Sigma) lie within
    (gamma_{rows+2} + u) |S V Sigma|* |S V Sigma| of X, of norm at most
    tr X <= k ||A||: lambda_max(X) <= lambda_max(A) + k gamma_{rows+3} ||A||.
    """
    logs = float(np.abs(np.log(sigma2[[0, -1]])).max())
    return len(sigma2) * numerics.gamma(rows + 3) + (40.0 + logs / 4.0) * numerics.EPS


def _below(a, lower: float, rho: float) -> np.ndarray:
    """``numerics.below`` for the scaled pencils ``a`` at a level at most
    fl(lower (1 + BRACKET_RTOL))^2; none pass while lower is not positive."""
    top = lower * (1.0 + BRACKET_RTOL)
    return (numerics.below(a, top * top * (1.0 - numerics.EPS), rho) if top > 0.0
            else np.zeros(len(a), dtype=bool))


def _pencil_tops(scale, a) -> np.ndarray:
    """Top eigenvectors, in V coordinates, of the pencils (H, D) scaled to the
    stack ``a`` by diag(D)^(-1/2) = the rows of ``scale``: one zheevr call
    each, asking for the largest eigenpair only."""
    n = a.shape[-1]
    u = np.empty(scale.shape, dtype=complex)
    for i, (sc, ai) in enumerate(zip(scale, a)):
        _, z, _, _, info = _HEEVR(ai, range="I", lower=1, il=n, iu=n)
        if info:
            raise ConvergenceError("zheevr failed with info %d" % info)
        u[i] = sc * z[:, 0]
    return u


def subordination_bound(s, g, p: float) -> SubordinationResult:
    """Certified bracket lower <= b <= bound around the minimal constant b.

    G is given by its diagonal g (InputError otherwise).  p = 0 reduces to the
    operator norm of S, whose upper end is sigma_1 rounded up by 4 (n + 1)
    eps (``_round_up``).  When p > 0, ker G is exactly {i : g_i == 0}: if S
    has a nonzero entry in one of those columns the bound is infinite at both
    ends, and otherwise those columns drop out and every nonzero modulus,
    however small or large, enters the branch-and-bound.  Nonzero moduli that
    leave a pencil weight at either end of [sigma_min^2, sigma_max^2] other
    than a finite positive float raise InputError.  The upper end, fl(lower
    (1 + BRACKET_RTOL)), is certified by ``numerics.below``; ConvergenceError
    if a cell is open after MAX_DEPTH levels or a level would hold more than
    MAX_CELLS cells.
    """
    s, g, p = _check(s, g, p)
    n = len(g)
    if n == 0:
        return SubordinationResult(0.0, 0.0, None)
    if not np.any(s):
        return SubordinationResult(0.0, 0.0, np.eye(1, n, dtype=complex)[0])

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
    rho = _pencil_rho(len(s), sigma2)
    cells = np.array([[sigma2[-1], sigma2[0]]])
    lower, best = -math.inf, None
    for depth in range(MAX_DEPTH + 1):
        # a failing end gives a witness, and a raised lower end retests the open ends
        rows = _minorant(sigma2, p, cells[:, 0], cells[:, 1])
        passed = np.empty(len(rows), dtype=bool)
        for b in numerics.batches(len(rows), len(cols) ** 2):
            scale = rows[b] ** -0.5
            a = scale[:, :, None] * h * scale[:, None, :]
            ok = _below(a, lower, rho)
            if not ok.all():
                a_open = a[~ok]
                w = np.zeros((n, len(a_open)), dtype=complex)
                w[cols] = _pencil_tops(scale[~ok], a_open).T  # back into T's coordinates
                ratios = _round_down(_ratios(s, g, p, w), n)
                k = int(np.argmax(ratios))
                if ratios[k] > lower:
                    lower, best = float(ratios[k]), w[:, k]
                    ok[~ok] = _below(a_open, lower, rho)
            passed[b] = ok
        top = lower * (1.0 + BRACKET_RTOL)
        cells = cells[~(passed[:len(cells)] & passed[len(cells):])]
        if not len(cells):
            break
        if depth == MAX_DEPTH or 2 * len(cells) > MAX_CELLS:
            raise ConvergenceError("subordination bracket: %d cells not certified below"
                                   " %.10e after %d levels" % (len(cells), top, depth))
        mid = np.sqrt(cells[:, 0]) * np.sqrt(cells[:, 1])  # no underflow of the product
        cells = np.concatenate([np.stack([cells[:, 0], mid], axis=1),
                                np.stack([mid, cells[:, 1]], axis=1)])

    # every cell closed at a level at most top^2, lower's last value
    return SubordinationResult(top, lower, best)


def verify_bound(s, g, p: float, b: float, sample_count: int = 1000, seed: int = 0):
    """Probe unit vectors and report any with ratio > b (1 + 1e-9).

    The probes are ``sample_count`` random unit vectors, then the n
    coordinate vectors e_i, G's eigenvectors (index sample_count + i), which
    see a bound that fails near ker G where random vectors miss it.
    Returns a list of {'index', 'ratio', 'vector'} dicts; empty list means no
    probed violation.
    """
    s, g, p = _check(s, g, p)
    if sample_count < 0:
        raise InputError("sample_count must be non-negative")
    n = len(g)
    u = np.hstack([numerics.unit_columns(numerics.subrng(seed, 2), n, sample_count), np.eye(n)])
    r = _ratios(s, g, p, u)
    bad = np.flatnonzero(r > float(b) * (1.0 + 1e-9))
    return [{"index": int(i), "ratio": float(r[i]), "vector": u[:, i].copy()} for i in bad]
