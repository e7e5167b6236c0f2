"""Riesz basis constants for subspace families and skew projection families.

A family of subspaces is the n x k matrix W = [F_1 ... F_m] of its stacked
orthonormal frames F_k, and is quantified by the best constant c with

    c^-1 sum ||x_k||^2  <=  || sum x_k ||^2  <=  c sum ||x_k||^2,

x_k ranging over the subspaces: c = max(sigma_max(W)^2, sigma_min(W)^-2),
from one SVD of W (``riesz_constant``); a projection family's ranges are the
frames of its ``factors`` (``range_family``).  Families of pairwise-disjoint
projections are quantified through the sign-pattern norm
C = max_eps || sum eps_k P_k || over members of nonzero rank and the derived
basis constant 4 C^2; a screen built from W and the adjoint of the stacked
weighted coframes, W^-1 up to rounding, bounds every pattern's norm (most by
a Cholesky test in place of an eigensolve), so only the patterns that can be
the maximum are normed exactly, and kappa(W) bounds them all.  The singular
values of W, taken once per family, also decide the two-sided estimate
C^-2 sum ||P_k x||^2 <= || sum P_k x ||^2 <= C^2 sum ||P_k x||^2
for every x at once, with no probe vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import InputError
from .projections import ProjectionFamily

#: exhaustive sign-pattern search cap; beyond this, random patterns are used
SIGN_EXHAUSTIVE_MAX = 12

#: sampled sign patterns above the exhaustive cap
SIGN_SAMPLES = 4096

#: the screen caps bounds only from this many patterns on (``_pattern_bounds``);
#: below it, a sample of every CAP_STRIDE-th pattern is too small to pay
CAP_MIN_PATTERNS = 1024

#: the screen's exact sample for the cap level: every CAP_STRIDE-th pattern
CAP_STRIDE = 32

#: the cap level sits this far below the largest sampled lambda~, relatively:
#: far above a bound's slack over its norm (about 1.4e-9 on the Hamiltonian
#: families), so the caps stay below the top norm
CAP_RTOL = 1e-6

@dataclass(frozen=True)
class RieszConstantReport:
    constant: float
    complete: bool


def _constant(s) -> float:
    """max(sigma_max^2, sigma_min^-2) for the singular values ``s``, largest first."""
    return math.inf if s[-1] == 0.0 else max(float(s[0]) ** 2, float(s[-1]) ** -2)


def riesz_constant(frames: np.ndarray) -> RieszConstantReport:
    """Best two-sided constant of the family whose orthonormal frames stack to
    the n x k matrix ``frames``, k >= 1, from one SVD of it; infinite for
    k > n, as the columns are then dependent."""
    n, k = frames.shape
    s = np.linalg.svd(frames, compute_uv=False)
    return RieszConstantReport(constant=math.inf if k > n else _constant(s), complete=k == n)


# ---------------------------------------------------------------------------
# sign patterns for disjoint projection families


@dataclass(frozen=True)
class SignPatternSearch:
    #: the largest exact norm || sum eps_k P_k || over the searched patterns
    constant: float
    #: above every sign pattern's computed norm (``_Screen.upper``); None
    #: without a screen
    upper: float | None
    #: exact pattern norms taken
    normed: int
    #: exact lambda~ the screen took by eigvalsh (``_pattern_bounds``); 0
    #: without a screen
    eigensolves: int
    #: every pattern was searched (m <= SIGN_EXHAUSTIVE_MAX), not a sample
    exhaustive: bool


@dataclass(frozen=True)
class _Screen:
    m_gram: np.ndarray
    n_gram: np.ndarray
    rho: float
    tau: float
    r: float
    delta: float
    upper: float


def _screen(family: ProjectionFamily) -> _Screen | None:
    """Rounding-error bounds for every sign pattern of a complete family.

    W = F = [F_1 ... F_m] stacks the range frames (``ProjectionFamily.factors``,
    square as the ranks sum to n), Y = W^-1, and Q_k = F_k Y_k (Y_k the rows of
    member k) are disjoint projections summing to I.  For a pattern eps, let S be
    the columns of its smaller sign side: sum eps_k Q_k = +-(2 Q_S - I) with
    Q_S = W_S Y_S idempotent, so its norm is est(x) = x + sqrt(x^2 - 1) with
    x = ||Q_S|| (Szyld 2006), and x^2 = lambda_max(M_SS N_SS) with M = W*W, N = YY*.

    The computed lambda~ (``_pattern_bounds``) is bounded step by step, with
    u = 2^-52 (twice the unit roundoff, so the first-order bounds below also
    cover the second-order terms, each relative term being kept below 1e-3,
    and the few extra roundings of complex arithmetic and of the norms),
    g = gamma_{n+2} = (n+2)u / (1 - (n+2)u), the bound for complex inner
    products of length n (Higham, Lemma 3.5 and section 3.6), w = ||W||_F^2,
    y = ||Y~||_F^2, and 2-norms of |A||B| bounded by ||A||_F ||B||_F:

    * Y~ = C*, the stacked weighted coframes of ``factors`` (F C* = sum P~_k
      is I up to rounding), leaves R = W Y~ - I with ||R|| <= r, the computed
      Frobenius norm plus g sqrt(w y); for r < 1, W is invertible and
      Y~ = Y (I + R), so N_SS <= (Y~Y~*)_SS / (1 - r)^2;
    * N~ = fl(Y~Y~*) is off by at most g y; lambda moves by ||M|| g y <= g w y;
    * M~ = fl(W*W) is off by at most g w; lambda moves by ||N~|| g w <= g w y;
    * the Cholesky factor has L L* = M~_SS + E, |E| <= g |L||L*| (Higham,
      Theorem 10.3) and ||L||_F^2 <= w: at most g w y;
    * H = L* (N~_SS L) is two products, off by at most 2 g |L*||N~||L|: 2 g w y;
    * eigvalsh, and the gesdd of ``numerics.opnorm`` later on, are backward
      stable with error p(n) eps ||A|| for LAPACK's "modestly growing" p(n),
      taken here as n^2: rho = n^2 u.

    So x^2 <= ((1 + rho) lambda~ + tau) / (1 - r)^2 with tau = 5 g w y.  With
    D = diag(eps) on the columns of F, the thin factors P~_k = F_k C_k* give
    sum eps_k P~_k = F D Y~ = (sum eps_k Q_k)(I + R) exactly, and the sum's GEMM
    F (D C*) on the exact D C* rounds by at most delta = g sqrt(w y); so a
    pattern's computed norm is at most (1 + rho)((1 + r) est + delta).  Every
    ||sum eps_k Q_k|| = ||W D Y|| is at most kappa(W), which the computed
    singular values (``ProjectionFamily.frame_singular_values``) give within
    kappa (1 + rho) / (1 - rho kappa): ``upper`` is that in place of est.
    Past est, only ||D|| = 1 enters, so ``upper`` bounds || sum_k w_k P~_k ||
    for every unimodular w too (``projections.projection_sum_bound``).

    None unless the ranks sum to n, s_min(W) > 0, and r, rho kappa and tau are
    below 1e-3.
    """
    w, c = family.factors
    n = w.shape[0]
    if w.shape[1] != n:
        return None
    s = family.frame_singular_values
    if not s[-1] > 0.0:
        return None
    y = c.conj().T
    g = numerics.gamma(n + 2)
    w2 = float(np.linalg.norm(w)) ** 2
    y2 = float(np.linalg.norm(c)) ** 2
    delta = g * math.sqrt(w2 * y2)
    r = float(np.linalg.norm(w @ y - np.eye(n))) + delta
    rho = n * n * numerics.EPS
    kappa = float(s[0]) / float(s[-1])
    tau = 5.0 * g * w2 * y2
    if max(r, rho * kappa, tau) >= 1e-3:
        return None
    top = kappa * (1.0 + rho) / (1.0 - rho * kappa)
    return _Screen(m_gram=w.conj().T @ w, n_gram=y @ c, rho=rho, tau=tau, r=r,
                   delta=delta, upper=(1.0 + rho) * ((1.0 + r) * top + delta))


def _bound(lam, screen: _Screen):
    """The bound on a computed norm (``_screen``) for lambda~ = ``lam``; it
    does not decrease as lam grows, every step being a monotone rounding."""
    x2 = ((1.0 + screen.rho) * lam + screen.tau) / (1.0 - screen.r) ** 2
    x = np.sqrt(x2)
    return (1.0 + screen.rho) * ((1.0 + screen.r) * (x + np.sqrt(np.maximum(x2 - 1.0, 0.0)))
                                 + screen.delta)


def _grams(cols, screen: _Screen) -> np.ndarray:
    """H = L* N_SS L with M_SS = LL*, one for each row of column indices S."""
    c = cols[:, :, None], cols[:, None, :]
    chol = np.linalg.cholesky(screen.m_gram[c])
    h = screen.n_gram[c] @ chol
    return np.conj(chol, out=chol).transpose(0, 2, 1) @ h


def _pattern_bounds(patterns, ranks,
                    screen: _Screen) -> tuple[np.ndarray, int] | None:
    """An upper bound on each pattern's computed norm (``_screen``), with the
    count of eigvalsh calls; None when a Cholesky factorization of M_SS or an
    eigvalsh fails, or a bound is not finite.

    With M_SS = LL*, the exact bound comes from lambda~ = lambda_max(H) by
    eigvalsh, H = L* N_SS L: one batched Cholesky and eigvalsh per size of S
    (at most n/2), in batches of ``numerics.map_batches``.  From
    CAP_MIN_PATTERNS patterns on, eigvalsh runs only on every CAP_STRIDE-th
    pattern and on the patterns that ``numerics.below``, with eigvalsh's
    backward error rho (``_screen``) as the upstream error, cannot place
    below mu' = (1 - CAP_RTOL) mu, mu the largest sampled lambda~: every
    other pattern gets the bound of lambda~ = mu', at least its exact bound.
    H's eigenvalues, the squared nonzero singular values of the idempotent
    Q_S, are at least 1, so the pad passes its check.  The top pattern is
    never capped (its lambda~ >= mu > mu'), and there is no cap when the
    bound of mu' does not lie below that of mu (a NaN sample included).
    """
    minus = np.repeat(patterns < 0.0, ranks, axis=1)
    n = minus.shape[1]
    side = np.where((minus.sum(1) * 2 <= n)[:, None], minus, ~minus)
    size = side.sum(1)

    def tops(idx, level=None):
        """lambda~ of the patterns ``idx``, or ``level`` where it is capped."""
        lam, capped = np.empty(len(idx)), np.zeros(len(idx), dtype=bool)
        for s in np.unique(size[idx]):
            at = np.flatnonzero(size[idx] == s)
            cols = np.nonzero(side[idx[at]])[1].reshape(-1, s)

            def lam_max(b, cols=cols):
                h = _grams(cols[b], screen)
                if level is None:
                    return np.linalg.eigvalsh(h)[:, -1], np.zeros(len(h), dtype=bool)
                low = numerics.below(h, level, screen.rho)
                top = np.full(len(h), level)
                top[~low] = np.linalg.eigvalsh(h[~low])[:, -1]
                return top, low

            parts = numerics.map_batches(lam_max, len(at), s * s)
            lam[at] = np.concatenate([top for top, _ in parts])
            capped[at] = np.concatenate([low for _, low in parts])
        return lam, capped

    lam, capped = np.ones(len(patterns)), np.zeros(len(patterns), dtype=bool)
    todo = np.flatnonzero(size > 0)
    level = None
    try:
        if len(patterns) >= CAP_MIN_PATTERNS:
            sample = todo[todo % CAP_STRIDE == 0]
            lam[sample] = tops(sample)[0]
            todo = todo[todo % CAP_STRIDE != 0]
            mu = lam[sample].max() if sample.size else np.nan
            if _bound((1.0 - CAP_RTOL) * mu, screen) < _bound(mu, screen):
                level = (1.0 - CAP_RTOL) * mu
        lam[todo], capped[todo] = tops(todo, level)
    except np.linalg.LinAlgError:
        return None
    bound = _bound(lam, screen)
    if not np.all(np.isfinite(bound)):
        return None
    return bound, int(np.count_nonzero(size > 0) - np.count_nonzero(capped))


def _pattern_norms(rows, family: ProjectionFamily) -> np.ndarray:
    """|| sum_k eps_k P~_k || for each row, one stacked ``numerics.opnorm`` per
    batch of at most numerics.BATCH_ENTRIES entries on the per-core pool.  Each
    sum is F (D C*) of the family's ``factors``, D = diag(eps) on member k's
    columns: D C* is exact, and numpy's matmul runs one GEMM per matrix of a
    stack, chosen by that matrix's shape and strides alone, so a pattern's sum
    has the same bits alone as inside a batch."""
    f, c = family.factors
    signs = np.repeat(rows, [e.rank for e in family.entries], axis=1)[:, :, None]
    ch = np.ascontiguousarray(c.conj().T)
    return np.concatenate([np.zeros(0)] + numerics.map_batches(
        lambda b: numerics.opnorm(f @ (signs[b] * ch)), len(rows), f.shape[0] ** 2))


def sign_pattern_constant(family: ProjectionFamily, seed: int = 0, report: bool = False):
    """C = max over sign vectors eps of || sum_k eps_k P_k ||; with ``report``,
    the ``SignPatternSearch`` holding C, its upper end, the counts of exact
    norms and eigensolves, and whether the search was exhaustive.

    Exhaustive for at most SIGN_EXHAUSTIVE_MAX projections, over the 2^(m-1)
    patterns with eps_0 = +1 since ||-A|| = ||A||; randomized (SIGN_SAMPLES
    patterns) beyond that.  For a complete family (``_screen``),
    ``_pattern_bounds`` bounds every pattern's norm, the pattern with the top
    bound is normed exactly, and then only the patterns whose bound reaches
    that norm; a cap is a bound too, so a capped pattern that reaches it is
    normed like any other.
    Without a screen (an incomplete family, a singular frame,
    ||F C* - I|| >= 1e-3, a failed Cholesky or a non-finite bound), or when a
    normed pattern exceeds its own bound, every pattern is normed.  Either
    way C is the maximum of exact norms taken by ``_pattern_norms``, the same
    bit for bit as norming every pattern.  The batches of both stages run
    through ``numerics.map_batches`` on one worker thread per usable core:
    keep BLAS at one thread.

    The norms are of the members' thin factors P~_k, within sum_k tail_k of
    those of the P_k (0 for gap families); cross_talk <= 1e-6 bounds every pad
    tail_j ||P_k|| + ||P_j|| tail_k by 1e-6 before any pattern is normed, and
    an empty family, a rank-zero member or ranks above n raise InputError
    (``_check_ranks``) before the search too.
    """
    es = family.entries
    if not family.cross_talk <= 1e-6:
        raise InputError("projections are not pairwise disjoint (P_j P_k != 0)")
    _check_ranks(family)
    m = len(es)
    if m <= SIGN_EXHAUSTIVE_MAX:
        patterns = np.array([(1.0,) + rest
                             for rest in itertools.product((1.0, -1.0), repeat=m - 1)])
    else:
        patterns = numerics.subrng(seed, 4).choice((1.0, -1.0), size=(SIGN_SAMPLES, m))
    screen = _screen(family)
    screened = None if screen is None else _pattern_bounds(patterns, [e.rank for e in es], screen)
    norms = np.full(len(patterns), -1.0)  # -1: not normed
    eigensolves = 0
    if screened is not None:
        bound, eigensolves = screened
        top = int(np.argmax(bound))
        norms[top] = _pattern_norms(patterns[top:top + 1], family)[0]
        keep = np.flatnonzero(bound >= norms[top])
        keep = keep[keep != top]
        norms[keep] = _pattern_norms(patterns[keep], family)
        if np.any(norms > bound):  # a normed pattern above its bound voids the screen
            screened = None
    if screened is None:
        rest = np.flatnonzero(norms < 0.0)
        norms[rest] = _pattern_norms(patterns[rest], family)
    search = SignPatternSearch(constant=float(norms.max()),
                               upper=None if screen is None else screen.upper,
                               normed=int(np.count_nonzero(norms >= 0.0)),
                               eigensolves=eigensolves, exhaustive=m <= SIGN_EXHAUSTIVE_MAX)
    return search if report else search.constant


@dataclass(frozen=True)
class ProjectionEstimateReport:
    constant: float
    two_sided_holds: bool
    worst_lower_slack: float
    worst_upper_slack: float
    basis_constant: float
    #: the ranges span the whole space
    complete: bool
    chain_holds: bool


def _check_ranks(family: ProjectionFamily) -> tuple[int, int]:
    """(n, sum of the ranks); InputError at an empty family, a rank-zero member
    or ranks above n."""
    if not family.entries:
        raise InputError("family is empty")
    for e in family.entries:
        if e.rank == 0:
            raise InputError("projection %r has rank zero" % (e.label,))
    n, total = family.factors[0].shape
    if total > n:
        raise InputError("total dimension %d exceeds ambient dimension %d" % (total, n))
    return n, total


def range_family(family: ProjectionFamily) -> np.ndarray:
    """The ranges as the stacked frames F of ``factors``, the frames
    ``make_family`` took from each projection's SVD."""
    _check_ranks(family)
    return family.factors[0]


def verify_projection_estimate(family: ProjectionFamily, constant: float,
                               seed: int = 0) -> ProjectionEstimateReport:
    """Decide the two-sided estimate

        C^-2 sum ||P_k x||^2 <= || sum P_k x ||^2 <= C^2 sum ||P_k x||^2

    for every x, and check the derived basis-constant chain c(ranges) <= 4 C^2;
    ``seed`` is not read, as the check draws no random numbers.

    With P~_k = F_k C_k* (``ProjectionFamily.factors``) and z = C* x,
    sum_k ||P~_k x||^2 = ||z||^2 (orthonormal frames) and sum_k P~_k x = F z,
    so the ratio of the sides lies in [s_min^2, s_max^2], s the singular values
    of F (``ProjectionFamily.frame_singular_values``, which give c(ranges) too),
    attained when the ranks sum to n (Gohberg and Krein, ch. VI): with every
    tail t_k >= ||P_k - P~_k|| 0, the slacks relative to sum ||P_k x||^2 are
    s_min^2 - C^-2 and C^2 - s_max^2.  Else ||P_k x|| lies within t_k ||x|| of
    ||z_k||, ||sum P_k x|| within T ||x|| of ||F z|| (T = sum t_k), and if the
    ranks sum to n, ||x|| <= ||z|| / gamma, gamma = sigma_min(C): with
    g = T / gamma, (s_min - g)_+^2 / (1 + g)^2 - C^-2 and
    C^2 - (s_max + g)^2 / (1 - g)^2 lie below every slack of the P_k.  Both
    slacks are -inf for g >= 1 and when the ranks sum to less than n, as the
    factors bound nothing on the kernel of C*.  So the check is never looser
    than one on the P_k, and with no tail it takes no SVD of C.
    """
    c = float(constant)
    if not 0.0 < c < math.inf:
        raise InputError("constant must be positive and finite, got %r" % (constant,))
    n, total = _check_ranks(family)
    s = family.frame_singular_values
    basis = _constant(s)
    tail = sum(e.tail for e in family.entries)
    gamma = math.inf
    if tail > 0.0:
        gamma = float(np.linalg.svd(family.factors[1], compute_uv=False)[-1]) if total == n else 0.0
    lower = upper = -math.inf
    if gamma > tail:
        g = tail / gamma
        lower = max(float(s[-1]) - g, 0.0) ** 2 / (1.0 + g) ** 2 - c**-2
        upper = c**2 - (float(s[0]) + g) ** 2 / (1.0 - g) ** 2
    return ProjectionEstimateReport(
        constant=c, two_sided_holds=bool(lower >= -1e-9 and upper >= -1e-9),
        worst_lower_slack=lower, worst_upper_slack=upper, basis_constant=basis,
        complete=total == n, chain_holds=bool(basis <= 4.0 * c**2 * (1.0 + 1e-9)))
