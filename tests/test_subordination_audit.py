"""A 50-digit audit of the subordination bracket on adversarial moduli.

Each drawn G mixes exact zeros, near-kernel moduli (1e-14 to 1e-8), regular
ones (0.5 to 2) and large ones up to 1e13; S is Gaussian, and on the columns
where g is zero it is either exactly zero or of size 1e-11.  The float
bracket must say "unbounded" exactly when S has a nonzero entry on ker G
(p > 0), and otherwise lie on the safe side of the ratios recomputed in
mpmath from the same floats: no coordinate vector and not the witness beats
the upper end, and the lower end does not beat the witness.  These moduli
keep the pencil weights in the float range, so the range guard, which
``test_subordination.py`` pins, never fires here.
"""

import math

import mpmath
import numpy as np
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


@given(instances())
def test_bracket_is_safe_at_fifty_digits(case):
    s, g, p = case
    res = subordination.subordination_bound(s, g, p)
    unbounded = p > 0.0 and bool(np.any(s[:, g == 0.0]))
    assert math.isinf(res.bound) == unbounded
    if unbounded:
        assert res.lower == math.inf and res.witness is None
        return
    assert res.lower <= res.bound <= (res.lower * (1.0 + subordination.BRACKET_RTOL)
                                      * (1.0 + subordination.ROUNDING_PAD))
    for e in np.eye(len(g)):
        assert exact_ratio(s, g, p, e) <= res.bound
    witness = exact_ratio(s, g, p, res.witness)
    assert res.lower <= witness <= res.bound
