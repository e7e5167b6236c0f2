"""A 50-digit audit of the subordination bracket on adversarial moduli.

Each drawn G mixes exact zeros, near-kernel moduli (1e-14 to 1e-8), regular
ones (0.5 to 2) and large ones up to 1e13; S is Gaussian, and on the columns
where g is zero it is either exactly zero or of size 1e-11.  The float
bracket must say "unbounded" exactly when S has a nonzero entry on ker G
(p > 0), and otherwise lie on the safe side of the ratios recomputed in
mpmath from the same floats: no coordinate vector and not the witness beats
the upper end, and the lower end does not beat the witness.  For p > 0
every level at which the bracket closed a cell end must lie above
lambda_max of the exact minorant pencil at that end, the tangents
recomputed in mpmath from the same floats.  These moduli keep the pencil
weights in the float range, so the range guard, which
``test_subordination.py`` pins, never fires here.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from specloc import subordination

DIGITS = 50


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


MODULI = st.one_of(st.just(0.0), decades(-14.0, -8.0), st.floats(0.5, 2.0), decades(0.3, 13.0))


@st.composite
def instances(draw):
    """(S, g, p) with n <= 5, the moduli as in the module docstring."""
    n = draw(st.integers(1, 5))
    moduli = np.array(draw(st.lists(MODULI, min_size=n, max_size=n)))
    phases = np.array(draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.sampled_from([0.1, 1.0, 10.0])) * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s[:, moduli == 0.0] *= draw(st.sampled_from([0.0, 1e-11]))
    p = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    return s, moduli * np.exp(1j * phases), p


def exact_ratio(s, g, p, u):
    """||S u|| / (||u||^(1-p) ||G u||^p) at DIGITS digits from the floats
    as given, with 0/0 -> 0 and x/0 -> inf."""
    with mpmath.workdps(DIGITS):
        s = [[mpmath.mpc(complex(x)) for x in row] for row in s]
        g = [mpmath.mpc(complex(x)) for x in g]
        u = [mpmath.mpc(complex(x)) for x in u]
        su = mpmath.sqrt(mpmath.fsum(abs(mpmath.fdot(row, u)) ** 2 for row in s))
        if su == 0:
            return mpmath.mpf(0)
        gu = mpmath.sqrt(mpmath.fsum(abs(x * y) ** 2 for x, y in zip(g, u)))
        nu = mpmath.sqrt(mpmath.fsum(abs(y) ** 2 for y in u))
        p = mpmath.mpf(p)
        den = nu ** (1 - p) * gu**p
        return mpmath.inf if den == 0 else su / den


def closed_cells(s, g, p):
    """Run the bracket and return its result with each cell end it closed, as
    (top, a, c, x): the end x of the cell [a, c] that ``_below`` passed at a
    level at most top^2.  At n <= 5 a level's pencils form one batch, so its
    first test covers every end and a second one the ends the first left
    open."""
    levels = []
    minorant, below = subordination._minorant, subordination._below

    def record_cells(sigma2, p, a, c):
        levels.append((a, c, []))
        return minorant(sigma2, p, a, c)

    def record_tests(a, lower, rho):
        ok = below(a, lower, rho)
        levels[-1][2].append((lower * (1.0 + subordination.BRACKET_RTOL), ok.copy()))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subordination, "_minorant", record_cells)
        mp.setattr(subordination, "_below", record_tests)
        res = subordination.subordination_bound(s, g, p)
    closed = []
    for a, c, tests in levels:
        ends = np.concatenate([a, c])
        top = np.full(len(ends), np.nan)
        (first, ok), *retest = tests
        assert len(ok) == len(ends) and len(retest) <= 1
        top[ok] = first
        for again, passed in retest:
            open_ = np.flatnonzero(~ok)
            top[open_[passed]] = again
        shut = ~np.isnan(top[:len(a)]) & ~np.isnan(top[len(a):])
        closed += [(top[i], a[i % len(a)], c[i % len(a)], ends[i])
                   for i in np.flatnonzero(np.concatenate([shut, shut]))]
    return res, closed


def positive_definite(a):
    """Whether the Hermitian mpmath matrix (list of rows) has positive pivots
    in Gaussian elimination, that is, is positive definite."""
    a = [row[:] for row in a]
    for j in range(len(a)):
        if not a[j][j].real > 0:
            return False
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            for k in range(j + 1, len(a)):
                a[i][k] -= f * a[j][k]
    return True


def certified_above(s, g, p, top, a, c, x):
    """Whether top^2 M(x) - H is positive definite at DIGITS digits, for
    H = S* S on the nonzero moduli sorted down and M(x) the exact tangents of
    d_i(t) = (1-p) t^p + p t^(p-1) |g_i|^2 at clip(|g_i|^2, a, c) in log t:
    top^2 lies above lambda_max(H, M(x))."""
    order = np.argsort(-np.abs(g), kind="stable")
    cols = order[np.abs(g)[order] != 0.0]
    with mpmath.workdps(DIGITS):
        sv = [[mpmath.mpc(complex(z)) for z in row] for row in s[:, cols]]
        p, a, c, x = (mpmath.mpf(v) for v in (p, a, c, x))
        level = mpmath.mpf(top) ** 2
        m = []
        for i in cols:
            sigma2 = abs(mpmath.mpc(complex(g[i]))) ** 2
            t = min(max(sigma2, a), c)
            d = (1 - p) * t**p + p * t ** (p - 1) * sigma2
            m.append(d + p * (1 - p) * t ** (p - 1) * (t - sigma2) * mpmath.log(x / t))
        return positive_definite([[level * m[i] * (i == j) - mpmath.fsum(
            mpmath.conj(r[i]) * r[j] for r in sv) for j in range(len(m))] for i in range(len(m))])


@given(instances())
def test_bracket_is_safe_at_fifty_digits(case):
    s, g, p = case
    res, closed = closed_cells(s, g, p)
    unbounded = p > 0.0 and bool(np.any(s[:, g == 0.0]))
    assert math.isinf(res.bound) == unbounded
    if unbounded:
        assert res.lower == math.inf and res.witness is None
        return
    assert res.lower <= res.bound <= res.lower * (1.0 + subordination.BRACKET_RTOL)
    for e in np.eye(len(g)):
        assert exact_ratio(s, g, p, e) <= res.bound
    witness = exact_ratio(s, g, p, res.witness)
    assert res.lower <= witness <= res.bound
    for top, a, c, x in closed:
        assert top <= res.bound
        assert certified_above(s, g, p, top, a, c, x)
