"""Tests for subordination ratios and the certified minimal-bound bracket."""

import math
import re

import mpmath
import numpy as np
import pytest
import scipy.linalg

from specloc import numerics, subordination
from specloc.errors import ConvergenceError, InputError

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def assert_certified(res, s, g, p):
    """The bracket contract: lower = ratio(witness) <= bound <= lower (1 + BRACKET_RTOL),
    and no sampled unit vector beats the upper end."""
    ratio = subordination.subordination_ratio(s, g, p, res.witness)
    np.testing.assert_allclose(ratio, res.lower, rtol=1e-12)
    assert res.lower <= res.bound <= res.lower * (1.0 + subordination.BRACKET_RTOL)
    assert subordination.verify_bound(s, g, p, res.bound, sample_count=100_000) == []


def multiscale_instance(seed, p, n=24):
    """Moduli log-uniform in [1, 1e4] and a rank-2 coupling scaled by |g|^(p/2)."""
    rng = np.random.default_rng(seed)
    g = np.exp(rng.uniform(0.0, np.log(1e4), n)).astype(complex)
    low = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) @ (
        rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    w = np.abs(g) ** (p / 2.0)
    return w[:, None] * low * w[None, :], g


def near_kernel_case():
    """G = diag(1e-13, 1, 2) and S with one entry 1e-11 on e_1: at p = 0.9 the
    ratio at e_1 is 1e-11 / 1e-13^0.9 = 10^0.7 = 5.0118723..."""
    g = np.array([1e-13, 1.0, 2.0])
    rng = np.random.default_rng(3)
    s = np.zeros((3, 3), dtype=complex)
    s[:, 1:] = 0.2 * (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    s[1, 0] = 1e-11
    return s, g


def closed_form_case(seed, p):
    """S = c |G|^p with diagonal G, so b = c exactly; odd seeds tie moduli."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 33))
    moduli = np.exp(rng.uniform(0.0, np.log(1e4), n))
    if seed % 2:
        moduli = rng.choice(moduli[:max(1, n // 3)], size=n)
    g = moduli * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    c = float(rng.uniform(0.1, 2.0))
    return c * np.diag(np.abs(g) ** p), g, c


class TestRatio:
    def test_analytic_two_by_two(self):
        # max of ||Su|| / (||u||^(1/2) ||Gu||^(1/2)) sits at u = e2
        g = [1.0, 4.0]
        r = subordination.subordination_ratio(E12, g, 0.5, [0.0, 1.0])
        np.testing.assert_allclose(r, 0.5)

    def test_p_zero_is_plain_ratio(self):
        r = subordination.subordination_ratio(E12, [0.0, 0.0], 0.0, [0.0, 2.0])
        np.testing.assert_allclose(r, 1.0)

    def test_kernel_conventions(self):
        g = [0.0, 1.0]
        assert subordination.subordination_ratio(np.zeros((2, 2)), g, 0.5, [1.0, 0.0]) == 0.0
        assert subordination.subordination_ratio(np.eye(2), g, 0.5, [1.0, 0.0]) == math.inf

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            subordination.subordination_ratio(E12, [1.0, 1.0], 0.5, [0.0, 0.0])


class TestBound:
    def test_p_zero_is_operator_norm(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        res = subordination.subordination_bound(s, np.arange(1.0, 7.0), 0.0)
        np.testing.assert_allclose(res.bound, numerics.opnorm(s), rtol=1e-12)
        assert_certified(res, s, np.arange(1.0, 7.0), 0.0)

    def test_analytic_half(self):
        res = subordination.subordination_bound(E12, [1.0, 4.0], 0.5)
        np.testing.assert_allclose(res.bound, 0.5, rtol=1e-6)
        ratio = subordination.subordination_ratio(E12, [1.0, 4.0], 0.5, res.witness)
        np.testing.assert_allclose(ratio, res.bound, rtol=1e-8)

    def test_zero_perturbation(self):
        res = subordination.subordination_bound(np.zeros((3, 3)), [1.0, 2.0, 3.0], 0.5)
        assert res.bound == 0.0

    def test_unbounded_on_kernel(self):
        # the second case is all kernel, and one entry of 1e-12 in S is enough
        for s, g in ((np.eye(2), [0.0, 1.0]), (1e-12 * E12, [0.0, 0.0])):
            res = subordination.subordination_bound(s, g, 0.5)
            assert res.bound == math.inf
            assert res.witness is None

    def test_small_column_on_an_exact_kernel_is_unbounded(self):
        # S e_1 = 1e-11 e_2 while G e_1 = 0, so no finite b holds
        res = subordination.subordination_bound([[0.0, 0.0], [1e-11, 0.0]], [0.0, 1.0], 0.5)
        assert res.bound == res.lower == math.inf
        assert res.witness is None

    def test_near_kernel_modulus_enters_the_bracket(self):
        # 1e-13 is a modulus like any other: the bracket must reach the ratio at e_1
        s, g = near_kernel_case()
        res = subordination.subordination_bound(s, g, 0.9)
        with mpmath.workdps(50):
            at_e1 = mpmath.mpf(1e-11) / mpmath.mpf(1e-13) ** mpmath.mpf(0.9)
            assert res.bound >= at_e1
        assert res.lower <= res.bound <= res.lower * (1.0 + 1e-6) * (1.0 + 1e-10)
        assert_certified(res, s, g, 0.9)

    def test_kernel_columns_drop_out(self):
        # S vanishes on ker G = {0}, so b is that of the 2 x 2 block on {1, 2}
        s, g = near_kernel_case()
        s[1, 0] = 0.0
        res = subordination.subordination_bound(s, np.array([0.0, 1.0, 2.0]), 0.9)
        block = subordination.subordination_bound(s[:, 1:], g[1:], 0.9)
        np.testing.assert_allclose(res.bound, block.bound, rtol=1e-15)
        assert res.witness[0] == 0.0

    @pytest.mark.parametrize("modulus", [1e-200, 1e200])
    def test_rejects_moduli_beyond_the_float_range(self, modulus):
        # sigma^2 under- or overflows: the pencil weights would turn to NaN
        g = [modulus, 1.0, 2.0]
        with pytest.raises(InputError, match=re.escape("%g" % modulus)):
            subordination.subordination_bound(np.ones((3, 3)), g, 0.5)

    def test_scaling_invariance(self):
        # bound(t^p S, t G, p) = bound(S, G, p)
        rng = np.random.default_rng(2)
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = np.array([1.0, 2.0, 5.0])
        p, t = 0.5, 10.0
        base = subordination.subordination_bound(s, g, p)
        scaled = subordination.subordination_bound(t**p * s, t * g, p)
        np.testing.assert_allclose(scaled.bound, base.bound, rtol=1e-6)

    def test_monotone_in_p_when_g_expansive(self):
        # sigma_min(G) >= 1 makes the ratio pointwise non-increasing in p
        rng = np.random.default_rng(8)
        s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g = [1.0, 3.0, 9.0]
        bounds = [subordination.subordination_bound(s, g, p).bound
                  for p in (0.0, 0.25, 0.5, 0.75)]
        for lo, hi in zip(bounds[1:], bounds):
            assert lo <= hi * (1.0 + 1e-8)

    def test_oracle_agreement_small_dims(self):
        rng = np.random.default_rng(21)
        for n in (2, 3):
            for _ in range(3):
                s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                g = rng.uniform(1.0, 5.0, n).astype(complex)
                res = subordination.subordination_bound(s, g, 0.4)
                assert_certified(res, s, g, 0.4)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_closed_form_power_of_g(self, p):
        # S = c |G|^p gives b = c exactly: by Hoelder,
        # sum |g_i|^(2p) |u_i|^2 <= ||u||^(2-2p) ||G u||^(2p), with equality at e_k
        rng = np.random.default_rng(31)
        g = (np.exp(rng.uniform(0.0, np.log(1e4), 16))
             * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 16)))
        c = 0.3
        s = c * np.diag(np.abs(g) ** p)
        res = subordination.subordination_bound(s, g, p)
        assert res.lower <= c <= res.bound
        assert res.bound <= res.lower * (1.0 + subordination.BRACKET_RTOL)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8])
    def test_closed_form_bracket_holds_with_tied_moduli(self, p):
        # the witness ratio is rounded down, so ties broken at rounding level
        # cannot lift the lower end above b = c
        for seed in range(60):
            s, g, c = closed_form_case(seed, p)
            res = subordination.subordination_bound(s, g, p)
            assert res.lower <= c <= res.bound, seed

    def test_p_zero_upper_end_is_padded(self):
        # S = cI with n = 28, 27, 26: gesdd's sigma_1 has been seen an ulp below c
        for seed in (0, 2, 10):
            s, g, c = closed_form_case(seed, 0.0)
            sigma1 = float(np.linalg.svd(s)[1][0])
            res = subordination.subordination_bound(s, g, 0.0)
            assert res.bound >= subordination._round_up(sigma1, len(s)), seed
            assert c <= res.bound <= c * (1.0 + subordination.BRACKET_RTOL), seed

    def test_diagonal_g_takes_no_svd(self, count_calls):
        s, g = multiscale_instance(3, 0.5, n=12)
        svds = count_calls(np.linalg, "svd")
        res = subordination.subordination_bound(s, g, 0.5)
        assert svds == []
        assert_certified(res, s, g, 0.5)

    @pytest.mark.parametrize("p", [0.0, 0.5])
    @pytest.mark.parametrize("g, match", [
        (np.diag([1.0, 4.0]), "diagonal"),
        ([1.0], "columns"),
        ([1.0, 4.0, 9.0], "columns"),
        ([1.0, np.nan], "non-finite"),
        ([np.inf, 4.0], "non-finite"),
    ], ids=["matrix", "short", "long", "nan", "inf"])
    def test_rejects_malformed_g(self, g, match, p):
        # G enters as the vector of its n eigenvalues, finite, in every public call
        with pytest.raises(InputError, match=match):
            subordination.subordination_bound(E12, g, p)
        with pytest.raises(InputError, match=match):
            subordination.subordination_ratio(E12, g, p, [1.0, 1.0])
        with pytest.raises(InputError, match=match):
            subordination.verify_bound(E12, g, p, 1.0, sample_count=10)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_multiscale_beats_coordinate_vectors(self, p):
        s, g = multiscale_instance(6, p)
        res = subordination.subordination_bound(s, g, p)
        best_coordinate = max(subordination.subordination_ratio(s, g, p, e) for e in np.eye(24))
        assert res.bound >= best_coordinate
        assert_certified(res, s, g, p)
        # weighted AM-GM: every t gives lambda_max(S*S, D(t)) <= b^2
        sigma2 = np.abs(g) ** 2
        for t in np.geomspace(sigma2.min(), sigma2.max(), 400):
            d = np.diag((1.0 - p) * t**p + p * t ** (p - 1.0) * sigma2)
            assert scipy.linalg.eigh(s.conj().T @ s, d, eigvals_only=True)[-1] <= res.bound**2

    def test_rejects_bad_p(self):
        with pytest.raises(InputError):
            subordination.subordination_bound(E12, [1.0, 1.0], 1.0)


class TestVerifyBound:
    def test_true_bound_has_no_violations(self):
        g = [1.0, 4.0]
        assert subordination.verify_bound(E12, g, 0.5, 0.5, sample_count=500, seed=0) == []

    def test_undersized_bound_is_caught(self):
        g = [1.0, 4.0]
        violations = subordination.verify_bound(E12, g, 0.5, 0.2, sample_count=2000, seed=0)
        assert violations
        worst = max(v["ratio"] for v in violations)
        assert worst <= 0.5 * (1.0 + 1e-9)
        for v in violations:
            r = subordination.subordination_ratio(E12, g, 0.5, v["vector"])
            np.testing.assert_allclose(r, v["ratio"], rtol=1e-10)

    def test_coordinate_probes_follow_the_samples(self):
        # b = 0 reports every probe with a nonzero ratio: all 7 here
        s = np.arange(1.0, 10.0).reshape(3, 3)
        violations = subordination.verify_bound(s, [1.0, 2.0, 3.0], 0.5, 0.0, sample_count=4,
                                                seed=5)
        assert [v["index"] for v in violations] == list(range(7))
        probes = np.column_stack([v["vector"] for v in violations])
        np.testing.assert_array_equal(
            probes[:, :4], numerics.unit_columns(numerics.subrng(5, 2), 3, 4))
        np.testing.assert_array_equal(probes[:, 4:], np.eye(3))

    def test_coordinate_probe_catches_a_near_kernel_failure(self):
        # the ratio at e_1 is 5.01; 1000 random unit vectors all stay below 1
        s, g = near_kernel_case()
        violations = subordination.verify_bound(s, g, 0.9, 1.0, 1000, 0)
        assert [v["index"] for v in violations] == [1000]
        np.testing.assert_allclose(violations[0]["ratio"], 10.0**0.7, rtol=1e-12)

    def test_zero_samples(self):
        assert subordination.verify_bound(E12, [1.0, 1.0], 0.5, 1.0, sample_count=0) == []


class TestPencilTops:
    @pytest.mark.parametrize("n", [1, 2, 16, 64])
    def test_agrees_with_full_eigh(self, n):
        rng = np.random.default_rng(n)
        s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = np.exp(rng.uniform(0.0, np.log(1e3), n))
        p = 0.4
        h = s.conj().T @ s
        diags = rng.uniform(0.1, 10.0, (5, n))
        lam, u, ratio2 = subordination._pencil_tops(h, sigma**2, p, diags)
        for d, top, vec, r2 in zip(diags, lam, u, ratio2):
            scaled = h / np.sqrt(np.outer(d, d))
            ref = np.linalg.eigh(scaled)[0][-1]
            assert abs(top - ref) <= 1e-14 * ref
            # u is the pencil eigenvector, z = D^(1/2) u the unit one of the scaled matrix
            z = np.sqrt(d) * vec
            np.testing.assert_allclose(np.linalg.norm(z), 1.0, rtol=1e-14)
            assert np.linalg.norm(scaled @ z - top * z) <= 1e-13 * numerics.opnorm(scaled)
            ratio = subordination.subordination_ratio(s, sigma, p, vec)
            np.testing.assert_allclose(r2, ratio**2, rtol=1e-12)

    def test_lapack_failure_raises(self, monkeypatch):
        heevr = subordination._HEEVR
        monkeypatch.setattr(subordination, "_HEEVR", lambda *a, **kw: (*heevr(*a, **kw)[:4], 3))
        with pytest.raises(ConvergenceError, match="info 3"):
            subordination.subordination_bound(E12, [1.0, 4.0], 0.5)
