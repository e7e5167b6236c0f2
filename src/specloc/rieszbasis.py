"""Riesz basis constants for subspace families and skew projection families.

A family of subspaces with orthonormal frames F_k is quantified by the best
constant c with

    c^-1 sum ||x_k||^2  <=  || sum x_k ||^2  <=  c sum ||x_k||^2,

x_k ranging over the subspaces.  For stacked frames W = [F_1 ... F_m] this is
c = max(sigma_max(W)^2, sigma_min(W)^-2).  Families of pairwise-disjoint
projections are quantified through the sign-pattern norm
C = max_eps || sum eps_k P_k || and the derived basis constant 4 C^2; a
screen built from the stacked range frames W bounds every pattern's norm
(most of them by a Cholesky test in place of an eigensolve), so only the
patterns that can be the maximum are normed exactly, and kappa(W) bounds
them all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

#: LAPACK's Cholesky factorization, one matrix per call with its own info
_POTRF = scipy.linalg.get_lapack_funcs("potrf", dtype=complex)


@dataclass(frozen=True)
class SubspaceFamily:
    """Orthonormal frames (columns) of finitely many subspaces of C^n."""

    frames: tuple[np.ndarray, ...]

    def __post_init__(self):
        frames = tuple(np.asarray(f, dtype=complex) for f in self.frames)
        if not frames:
            raise InputError("need at least one subspace")
        n = frames[0].shape[0]
        total = 0
        for f in frames:
            if f.ndim != 2 or f.shape[0] != n or f.shape[1] == 0:
                raise InputError("frames must be nonempty column blocks of equal height")
            gram = f.conj().T @ f
            if numerics.opnorm(gram - np.eye(f.shape[1])) > 1e-12:
                raise InputError("frame columns must be orthonormal")
            total += f.shape[1]
        if total > n:
            raise InputError("total dimension %d exceeds ambient dimension %d" % (total, n))
        object.__setattr__(self, "frames", frames)

    @property
    def ambient_dimension(self) -> int:
        return self.frames[0].shape[0]

    @property
    def total_dimension(self) -> int:
        return sum(f.shape[1] for f in self.frames)

    @property
    def stacked(self) -> np.ndarray:
        return np.hstack(self.frames)


@dataclass(frozen=True)
class RieszConstantReport:
    constant: float
    sigma_max: float
    sigma_min: float
    complete: bool


def riesz_constant(family: SubspaceFamily) -> RieszConstantReport:
    """Best two-sided constant of the family, from the stacked-frame SVD."""
    w = family.stacked
    s = np.linalg.svd(w, compute_uv=False)
    smax = float(s[0])
    smin = float(s[-1])
    constant = math.inf if smin == 0.0 else max(smax**2, smin**-2)
    return RieszConstantReport(
        constant=constant, sigma_max=smax, sigma_min=smin,
        complete=family.total_dimension == family.ambient_dimension,
    )


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
    #: the range frames' Riesz constant, from the SVD that sized the screen;
    #: None when the family is incomplete or has a rank-zero member
    basis: RieszConstantReport | None


@dataclass(frozen=True)
class _Screen:
    m_gram: np.ndarray
    n_gram: np.ndarray
    rho: float
    tau: float
    r: float
    delta: float
    upper: float


def _screen(family: ProjectionFamily, basis: RieszConstantReport) -> _Screen | None:
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

    * Y~ = inv(W) leaves R = W Y~ - I with ||R|| <= r, the computed Frobenius
      norm plus g sqrt(w y); Y~ = Y (I + R), so N_SS <= (Y~Y~*)_SS / (1 - r)^2;
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
    sum eps_k P~_k = F D Y~ + F D (C* - Y~) and F D Y~ = (sum eps_k Q_k)(I + R),
    so the sum's norm is at most (1 + r) est(x) + sum_k ||F_k|| ||C_k* - Y~_k||_F,
    where ||F_k||^2 <= 1 + o pads the frames' loss of orthonormality, o the
    computed Frobenius norm of the diagonal blocks of M~ - I plus g w; the sum's
    GEMM F (D C*) on the exact D C* rounds by at most g sqrt(w) ||C||_F.
    delta = (1 + rho) sqrt(1 + o) sum_k d_k + g sqrt(w) ||C||_F, d_k the computed
    ||C_k* - Y~_k||_F (one rounded subtraction, inside 1 + rho), covers both, and
    a pattern's computed norm is at most (1 + rho)((1 + r) est + delta).  Every
    ||sum eps_k Q_k|| = ||W D Y|| is at most kappa(W), which the computed
    singular values give within kappa (1 + rho) / (1 - rho kappa): ``upper``
    is that in place of est.

    None unless W is invertible and r, rho kappa and tau are below 1e-3.
    """
    w, c = family.factors
    n = w.shape[0]
    if not basis.sigma_min > 0.0:
        return None
    try:
        y = np.linalg.inv(w)
    except np.linalg.LinAlgError:
        return None
    g = numerics.gamma(n + 2)
    w2 = float(np.linalg.norm(w)) ** 2
    y2 = float(np.linalg.norm(y)) ** 2
    r = float(np.linalg.norm(w @ y - np.eye(n))) + g * math.sqrt(w2 * y2)
    rho = n * n * numerics.EPS
    kappa = basis.sigma_max / basis.sigma_min
    tau = 5.0 * g * w2 * y2
    if max(r, rho * kappa, tau) >= 1e-3:
        return None
    m_gram = w.conj().T @ w
    owners = family.owners
    o = float(np.linalg.norm((m_gram - np.eye(n)) * (owners.T @ owners))) + g * w2
    d = float(np.sum(np.sqrt(owners @ np.sum(np.abs(c.conj().T - y) ** 2, axis=1))))
    delta = (1.0 + rho) * math.sqrt(1.0 + o) * d + g * math.sqrt(w2) * float(np.linalg.norm(c))
    top = kappa * (1.0 + rho) / (1.0 - rho * kappa)
    return _Screen(m_gram=m_gram, n_gram=y @ y.conj().T, rho=rho, tau=tau, r=r,
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


def _below(h, level: float, rho: float) -> np.ndarray:
    """Whether a Cholesky factorization of (level - pad) I - H certifies that
    eigvalsh puts lambda~ below ``level``, for each H of the stack ``h``
    (``_pattern_bounds``); H is read from its lower triangle, as eigvalsh
    and LAPACK potrf read it."""
    s = h.shape[-1]
    u = numerics.EPS
    g = numerics.gamma(s + 1)
    pad = 2.0 * rho * (s + 1) * abs(level)
    shift = level - pad
    a = np.negative(h)
    d = np.arange(s)
    a[:, d, d] += shift
    diag = a[:, d, d].real
    info = np.array([_POTRF(ai, lower=1, clean=0)[1] for ai in a])
    r2 = diag.sum(axis=1) / (1.0 - g)
    e = g * r2 + u * np.abs(diag).max(axis=1)
    return (info == 0) & (e + rho * (abs(shift) + r2 + e) + u * abs(level) < pad)


def _pattern_bounds(patterns, ranks, screen: _Screen,
                    cap: bool = True) -> tuple[np.ndarray, np.ndarray, int] | None:
    """An upper bound on each pattern's computed norm (``_screen``), with the
    mask of the bounds that are caps and the count of eigvalsh calls; None
    when a Cholesky factorization of M_SS or an eigvalsh fails, or a bound is
    not finite.

    With M_SS = LL*, the exact bound comes from lambda~ = lambda_max(H) by
    eigvalsh, H = L* N_SS L: one batched Cholesky and eigvalsh per size of S
    (at most n/2), in batches of ``numerics.map_batches``.  With ``cap`` and
    at least CAP_MIN_PATTERNS patterns, eigvalsh runs only on every
    CAP_STRIDE-th pattern and on the patterns that LAPACK potrf cannot cap:
    mu' = (1 - CAP_RTOL) mu sits below the largest sampled lambda~ mu, and a
    pattern whose factorization (mu' - pad) I - H = R*R succeeds gets the
    bound of lambda~ = mu', which is at least its exact bound.  In the
    conventions of ``_screen`` (u = 2^-52, gamma_k = ku / (1 - ku)), with
    H = cI - A + D, c = fl(mu' - pad) and |D_ii| <= u |a_ii| the rounding of
    the shifted diagonal:

    * R*R = A + dA with |dA| <= gamma_{s+1} |R*||R| (Higham, Theorem 10.3),
      so ||dA|| <= gamma_{s+1} ||R||_F^2, and on the diagonal
      ||R||_F^2 = tr(A + dA) <= tr A + gamma_{s+1} ||R||_F^2: ||R||_F^2 is at
      most t = tr A / (1 - gamma_{s+1}), read without R;
    * A + dA >= 0 gives lambda_max(H) <= c + e, e = gamma_{s+1} t
      + u max |a_ii|, and ||H|| <= |c| + ||A|| + ||D|| <= |c| + t + e;
      eigvalsh's backward error moves lambda_max by at most rho ||H||
      (``_screen``), so every lambda~ it can return is at most
      c + e + rho (|c| + t + e);
    * the cap holds when e + rho (|c| + t + e) + u |mu'| < pad, checked
      after the factorization; u |mu'| covers the rounding of c, of tr A and
      of the check.

    The eigenvalues of H are the squared nonzero singular values of the
    idempotent Q_S, at least 1, so tr A <= s c nearly, and
    pad = 2 rho (s + 1) |mu'| passes the check.  The top pattern is never
    capped: its lambda~ is at least mu > mu'.  No cap when the bound of mu'
    does not lie below the bound of mu (a NaN sample included).
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
                low = _below(h, level, screen.rho)
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
        if cap and len(patterns) >= CAP_MIN_PATTERNS:
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
    return bound, capped, int(np.count_nonzero(size > 0) - np.count_nonzero(capped))


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
    the ``SignPatternSearch`` holding C, its upper end and the count of exact
    norms.

    Exhaustive for at most SIGN_EXHAUSTIVE_MAX projections, over the 2^(m-1)
    patterns with eps_0 = +1 since ||-A|| = ||A||; randomized (SIGN_SAMPLES
    patterns) beyond that.  For a complete family (``_screen``),
    ``_pattern_bounds`` bounds every pattern's norm, the pattern with the top
    bound is normed exactly, and then only the patterns whose bound reaches
    that norm; a capped bound that reaches it first gives way to the exact
    one, so the normed patterns are those of exact bounds throughout.
    Without a screen (an incomplete family, a singular frame, a
    failed Cholesky or a non-finite bound), or when a normed pattern exceeds
    its own bound, every pattern is normed.  Either way C is the maximum of
    exact norms taken by ``_pattern_norms``, the same bit for bit as norming
    every pattern.  The batches of both stages run through
    ``numerics.map_batches`` on one worker thread per usable core: keep BLAS
    at one thread.

    The norms are of the members' thin factors P~_k, within sum_k tail_k of
    those of the P_k (0 for gap families); cross_talk <= 1e-6 bounds every pad
    tail_j ||P_k|| + ||P_j|| tail_k by 1e-6 before any pattern is normed.
    """
    es = family.entries
    if not es:
        raise InputError("family is empty")
    if not family.cross_talk <= 1e-6:
        raise InputError("projections are not pairwise disjoint (P_j P_k != 0)")
    m = len(es)
    if m <= SIGN_EXHAUSTIVE_MAX:
        patterns = np.array([(1.0,) + rest
                             for rest in itertools.product((1.0, -1.0), repeat=m - 1)])
    else:
        patterns = numerics.subrng(seed, 4).choice((1.0, -1.0), size=(SIGN_SAMPLES, m))
    ranks = [e.rank for e in es]
    basis = screen = screened = None
    if sum(ranks) == family.factors[0].shape[0] and min(ranks) > 0:
        basis = riesz_constant(range_family(family))
        screen = _screen(family, basis)
    if screen is not None:
        screened = _pattern_bounds(patterns, ranks, screen)
    norms = np.full(len(patterns), -1.0)  # -1: not normed
    eigensolves = 0
    if screened is not None:
        bound, capped, eigensolves = screened
        top = int(np.argmax(bound))
        norms[top] = _pattern_norms(patterns[top:top + 1], family)[0]
        reach = np.flatnonzero(capped & (bound >= norms[top]))
        if reach.size:  # caps that reach the top norm give way to exact bounds
            screened = _pattern_bounds(patterns[reach], ranks, screen, cap=False)
            if screened is not None:
                bound[reach], _, more = screened
                eigensolves += more
    if screened is not None:
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
                               eigensolves=eigensolves, basis=basis)
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


def range_family(family: ProjectionFamily) -> SubspaceFamily:
    """The range frames ``make_family`` took from each projection's SVD."""
    for e in family.entries:
        if e.rank == 0:
            raise InputError("projection %r has rank zero" % (e.label,))
    return SubspaceFamily(frames=tuple(e.frame for e in family.entries))


def verify_projection_estimate(family: ProjectionFamily, constant: float, probe_count: int = 1000,
                               seed: int = 0,
                               basis: RieszConstantReport | None = None) -> ProjectionEstimateReport:
    """Probe the two-sided estimate

        C^-2 sum ||P_k x||^2 <= || sum P_k x ||^2 <= C^2 sum ||P_k x||^2

    on random unit vectors, and check the derived basis-constant chain
    c(ranges) <= 4 C^2; ``basis`` is c(ranges) when already at hand (the
    ``SignPatternSearch.basis`` of the same family).

    The probes read the thin factors P~_k = F_k C_k* (``ProjectionFamily.factors``):
    with z = C* x, ||P~_k x|| is the norm of member k's rows of z, as F_k is
    orthonormal, and sum_k P~_k x = F z, so two GEMMs serve every member.  As
    ||P_k - P~_k|| <= t_k = tail_k, each ||P_k x|| lies within t_k of ||P~_k x|| and
    ||sum P_k x|| within T = sum_k t_k of ||F z||: the squares move by at most
    d_sq = sum_k t_k (2 ||P~_k x|| + t_k) and d_mid = T (2 ||F z|| + T).  Each slack
    is taken less its bound and over the scale sum ||P~_k x||^2 - d_sq, so the check
    is never looser than one on the P_k (no pad where every tail is 0).
    """
    es = family.entries
    if not es:
        raise InputError("family is empty")
    c = float(constant)
    if c <= 0.0:
        raise InputError("constant must be positive")
    if probe_count < 1:
        raise InputError("probe_count must be at least 1, got %d" % probe_count)
    f, coframes = family.factors
    # the probe block is not kept: one n x probe_count block less at the peak of F z
    z = coframes.conj().T @ numerics.unit_columns(numerics.subrng(seed, 5), f.shape[0],
                                                  probe_count)
    parts = family.owners @ np.abs(z) ** 2
    sq = parts.sum(axis=0)
    mid = np.sum(np.abs(f @ z) ** 2, axis=0)
    tail = np.array([e.tail for e in es])
    d_sq = tail @ (2.0 * np.sqrt(parts) + tail[:, None])
    d_mid = tail.sum() * (2.0 * np.sqrt(mid) + tail.sum())
    lower_slack = mid - sq / c**2 - (d_mid + d_sq / c**2)
    upper_slack = c**2 * sq - mid - (c**2 * d_sq + d_mid)
    scale = np.maximum(sq - d_sq, 1e-300)
    ok = np.all(lower_slack >= -1e-9 * scale) and np.all(upper_slack >= -1e-9 * scale)
    if basis is None:
        basis = riesz_constant(range_family(family))
    return ProjectionEstimateReport(
        constant=c,
        two_sided_holds=bool(ok),
        worst_lower_slack=float(np.min(lower_slack / scale)),
        worst_upper_slack=float(np.min(upper_slack / scale)),
        basis_constant=basis.constant,
        complete=basis.complete,
        chain_holds=bool(basis.constant <= 4.0 * c**2 * (1.0 + 1e-9)),
    )
