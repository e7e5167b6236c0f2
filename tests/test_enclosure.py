"""Tests for enclosure regions, certified ball radii and resolvent
diagnostics."""

import math

import numpy as np
import pytest

from specloc import enclosure, instances, numerics, operators, subordination
from specloc.errors import InputError


class TestContains:
    def region(self, alpha=1.0, p=0.5, r0=2.0, thetas=(0.0,), **kw):
        return enclosure.build_enclosure(thetas, alpha, p, r0, **kw)

    def test_ball_membership(self):
        region = self.region()
        assert enclosure.contains(region, 1.0 + 1.0j)
        assert enclosure.contains(region, -2.0)  # boundary of the ball
        assert not enclosure.contains(region, -2.1)

    def test_lobe_membership_closed_boundary(self):
        region = self.region(alpha=1.0, p=0.5, r0=0.5)
        assert enclosure.contains(region, 4.0 + 2.0j)  # |y| = alpha x^p exactly
        assert enclosure.contains(region, 4.0 + 1.9j)
        assert not enclosure.contains(region, 4.0 + 2.01j)
        assert not enclosure.contains(region, -4.0 + 0.1j)

    def test_origin_with_zero_r0(self):
        region = self.region(r0=0.0)
        assert enclosure.contains(region, 0.0)

    def test_rotated_lobe(self):
        region = self.region(thetas=(np.pi / 2,), r0=0.1)
        assert enclosure.contains(region, 4.0j + 1.5)
        assert not enclosure.contains(region, 4.0 + 1.5j)

    def test_p_zero_strip(self):
        region = self.region(alpha=1.0, p=0.0, r0=0.1)
        assert enclosure.contains(region, 10.0 + 1.0j)
        assert not enclosure.contains(region, 10.0 + 1.1j)

    def test_refined_p_zero_reduces_to_b_below_y(self):
        region = self.region(alpha=3.0, p=0.0, r0=0.1, refined=True, b=1.0)
        # |y| <= b stays, b < |y| <= alpha is carved out by the refined test
        assert enclosure.contains(region, 5.0 + 1.0j)
        assert not enclosure.contains(region, 5.0 + 2.0j)
        assert not enclosure.contains(region, 123.0 + 1.5j)

    def test_refined_needs_b(self):
        with pytest.raises(InputError):
            self.region(refined=True)

    def test_refined_subset_of_standard(self):
        rng = np.random.default_rng(1)
        std = self.region(alpha=1.5, p=0.5, r0=1.0)
        ref = self.region(alpha=1.5, p=0.5, r0=1.0, refined=True, b=1.0)
        for _ in range(300):
            z = complex(rng.uniform(-5, 40), rng.uniform(-8, 8))
            if enclosure.contains(ref, z):
                assert enclosure.contains(std, z)

    def test_refined_keeps_narrow_core(self):
        # points with |y| well below b x^p survive the refined carve-out
        ref = self.region(alpha=1.5, p=0.5, r0=0.5, refined=True, b=1.0)
        assert enclosure.contains(ref, 9.0 + 2.0j)  # b x^p = 3 > |y|


class TestCertifiedR0:
    def test_frozen_sector_value(self):
        # with a huge alpha the sector condition dominates:
        # r0 = (b (1+1/sin psi)^p / eps)^(1/(1-p)) / sin psi
        psi = math.pi / 4
        r0 = enclosure.certified_r0(1.0, 0.5, 50.0, 0.9, psi)
        expect = (1.0 * (1.0 + 1.0 / math.sin(psi)) ** 0.5 / 0.9) ** 2 / math.sin(psi)
        np.testing.assert_allclose(r0, expect, rtol=1e-6)
        np.testing.assert_allclose(r0, 4.215078, rtol=1e-5)

    def test_zero_b(self):
        assert enclosure.certified_r0(0.0, 0.5, 1.0, 0.5, 0.3) == 0.0

    def test_p_zero_closed_form(self):
        # p = 0: only the outer and sector conditions constrain r0
        psi = 0.5
        r0 = enclosure.certified_r0(0.4, 0.0, 1.0, 0.8, psi)
        expect = max(0.4 / 0.8, (0.4 / 0.8) / math.sin(psi))
        np.testing.assert_allclose(r0, expect, rtol=1e-6)

    def test_monotone_in_b(self):
        r_small = enclosure.certified_r0(0.5, 0.5, 50.0, 0.9, 0.6)
        r_large = enclosure.certified_r0(1.0, 0.5, 50.0, 0.9, 0.6)
        assert r_large > r_small

    def test_conditions_hold_at_and_above_r0(self):
        b, p, alpha, eps, psi = 0.7, 0.3, 1.0, 0.9, 0.4
        r0 = enclosure.certified_r0(b, p, alpha, eps, psi)
        outer, sector, parabolic = enclosure._region_conditions(b, p, alpha, eps, psi)
        for factor in (1.0 + 1e-6, 2.0, 10.0):
            r = r0 * factor
            assert outer(r) and sector(r) and parabolic(r)
        r = r0 * (1.0 - 1e-3)
        assert not (outer(r) and sector(r) and parabolic(r))

    def test_threshold_on_a_random_grid(self):
        # r0 is the largest power-law threshold rounded up in ulps: the three
        # conditions hold at r0 and fail 1e-10 below it
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = rng.uniform(0.01, 0.99)
            b = 10 ** rng.uniform(-2, 1)
            alpha = b * rng.uniform(1.05, 4.0)
            eps = rng.uniform(b / alpha + 0.01 * (1 - b / alpha), 0.99)
            psi = rng.uniform(0.05, 1.5)
            r0 = enclosure.certified_r0(b, p, alpha, eps, psi)
            conditions = enclosure._region_conditions(b, p, alpha, eps, psi)
            assert all(c(r0) for c in conditions)
            assert not all(c(r0 * (1.0 - 1e-10)) for c in conditions)

    def test_radius_beyond_float_range(self):
        # at p = 0.001 the parabolic threshold is k^(1/(p(1-p))) with k ~ 40
        with pytest.raises(InputError, match="floating-point range"):
            enclosure.certified_r0(0.3, 0.001, 0.33, 0.95, math.pi / 4)

    def test_preconditions(self):
        with pytest.raises(InputError):
            enclosure.certified_r0(1.0, 0.5, 0.9, 0.95, 0.5)  # b >= alpha
        with pytest.raises(InputError):
            enclosure.certified_r0(1.0, 0.5, 1.1, 0.5, 0.5)  # eps <= b/alpha
        with pytest.raises(InputError):
            enclosure.certified_r0(1.0, 0.5, 2.0, 0.9, 2.0)  # psi >= pi/2


class TestEnclose:
    def test_sweep_cases_report_the_certified_tuple(self):
        # r0 recomputed from a case's reported (b, p, alpha, epsilon, psi) is
        # its reported r0, bit for bit
        drift = []
        for seed in range(36):
            case = instances.run_enclosure_case(seed)
            r0 = enclosure.certified_r0(case["b"], case["p"], case["alpha"], case["epsilon"],
                                        case["psi"])
            if r0 != case["r0"]:
                drift.append((seed, case["psi"], r0, case["r0"]))
        assert drift == []

    def test_given_epsilon_and_psi_are_used(self):
        system, _ = instances.enclosure_instance(5)
        run = enclosure.enclose(system, 1.1, epsilon=0.99, psi=0.2)
        par = run.parameters
        assert (par["epsilon"], par["psi"]) == (0.99, 0.2)
        assert par["r0"] == enclosure.certified_r0(par["b"], system.p, par["alpha"], 0.99, 0.2)
        assert run.region.r0 == par["r0"]
        assert run.report.all_inside


class TestVerifySpectrum:
    def test_unperturbed_spectrum_inside(self):
        spec = operators.RaySpectrumSpec(rays=(
            operators.Ray(theta=0.3, radii=(1.0, 5.0, 9.0)),
            operators.Ray(theta=2.5, radii=(2.0, 4.0)),
        ))
        g = operators.build_normal(spec)
        system = operators.assemble(g, np.zeros_like(g), 0.5, ray_spec=spec)
        region = enclosure.build_enclosure(spec.thetas, 0.5, 0.5, 0.0)
        report = enclosure.verify_spectrum_enclosure(system, region)
        assert report.all_inside
        assert report.violators == ()

    def test_violators_reported_with_distance(self):
        g = np.diag([1.0, 10.0])
        s = np.array([[0.0, 0.0], [0.0, 2.0j]])
        system = operators.assemble(g, s, 0.0)
        region = enclosure.build_enclosure([0.0], 1.0, 0.0, 2.0)
        report = enclosure.verify_spectrum_enclosure(system, region)
        assert not report.all_inside
        assert len(report.violators) == 1
        v = report.violators[0]
        np.testing.assert_allclose(v["value"], 10.0 + 2.0j)
        np.testing.assert_allclose(v["distance"], 1.0, atol=1e-12)

    def test_lobe_boundary_rows(self):
        region = enclosure.build_enclosure([0.0, 1.0], 2.0, 0.5, 1.0)
        rows = list(enclosure.lobe_boundary(region, 4.0, count=5))
        assert len(rows) == 10
        theta, x, y_up, y_lo = rows[-1]
        np.testing.assert_allclose([theta, x, y_up, y_lo], [1.0, 4.0, 4.0, -4.0])


class TestResolventDiagnostic:
    def system(self):
        g = np.diag([0.0, 10.0])
        s = np.array([[0.0, 1.0], [0.0, 0.0]])
        return operators.assemble(g, s, 0.0)

    def test_bounds_hold(self):
        diag = enclosure.resolvent_diagnostic(self.system(), 5.0, 0.25)
        assert diag.applicable
        np.testing.assert_allclose(diag.dist_to_sigma_g, 5.0)
        np.testing.assert_allclose(diag.norm_g_resolvent, 0.2)
        np.testing.assert_allclose(diag.norm_sg_resolvent, 0.2)
        assert diag.in_resolvent_set
        assert diag.t_bound_ok and diag.st_bound_ok
        assert diag.norm_t_resolvent <= 0.2 / 0.75 * (1 + 1e-12)

    def test_norm_t_is_inverse_sigma_min(self):
        system = self.system()
        diag = enclosure.resolvent_diagnostic(system, 5.0, 0.25)
        _, smin = numerics.svd_extremes(system.t - 5.0 * np.eye(2))
        np.testing.assert_allclose(diag.norm_t_resolvent, 1.0 / smin, rtol=1e-12)

    def test_not_applicable_when_epsilon_too_small(self):
        diag = enclosure.resolvent_diagnostic(self.system(), 5.0, 0.1)
        assert not diag.applicable
        assert diag.norm_t_resolvent is None

    def test_zero_perturbation_tight(self):
        g = np.diag([1.0, 3.0])
        system = operators.assemble(g, np.zeros((2, 2)), 0.0)
        diag = enclosure.resolvent_diagnostic(system, 2.0, 0.5)
        assert diag.applicable and diag.t_bound_ok and diag.st_bound_ok
        np.testing.assert_allclose(diag.norm_t_resolvent, 1.0, rtol=1e-12)

    def test_one_svd_of_t_minus_z_and_no_solve_against_t(self, monkeypatch):
        system = self.system()
        tz = system.t - 5.0 * np.eye(2)
        svd, solve = np.linalg.svd, np.linalg.solve
        full_svds, solved = [], []

        def counting_svd(a, *args, compute_uv=True, **kwargs):
            if compute_uv:
                full_svds.append(np.array(a))
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        def recording_solve(a, b):
            solved.append(np.array(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        assert enclosure.resolvent_diagnostic(system, 5.0, 0.25).applicable
        assert len(full_svds) == 1 and np.array_equal(full_svds[0], tz)
        assert not any(np.array_equal(a, tz) for a in solved)

    def test_rejects_spectrum_point(self):
        with pytest.raises(InputError):
            enclosure.resolvent_diagnostic(self.system(), 10.0, 0.5)

    def test_randomized_lemma_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = 8
            g = np.diag(rng.uniform(1.0, 9.0, n).astype(complex))
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s *= 0.5 / numerics.opnorm(s)
            system = operators.assemble(g, s, 0.0)
            z = complex(rng.uniform(10.5, 20.0), rng.uniform(-5.0, 5.0))
            diag = enclosure.resolvent_diagnostic(system, z, 0.9)
            if diag.applicable:
                assert diag.in_resolvent_set
                assert diag.t_bound_ok and diag.st_bound_ok


class TestRefinedRejectionsAreResolvent:
    def test_sampled_rejections(self):
        # points inside the standard lobe but excluded by the refined test
        # must be genuine resolvent points of T
        rng = np.random.default_rng(23)
        g = np.diag(np.concatenate([rng.uniform(1.0, 30.0, 14), [40.0, 40.0]]).astype(complex))
        s = np.zeros((16, 16), dtype=complex)
        b = 0.4
        strength = b * math.sqrt(40.0)
        s[14, 15] = strength
        s[15, 14] = -strength
        system = operators.assemble(g, s, 0.5)
        res = subordination.subordination_bound(s, g, 0.5)
        checked = 0
        for _ in range(200):
            x = float(rng.uniform(5.0, 60.0))
            y = float(rng.uniform(1.3, 1.6) * res.bound * math.sqrt(x))
            if not enclosure._refined_excluded(res.bound, 0.5, x, y):
                continue
            _, smin = numerics.svd_extremes(system.t - complex(x, y) * np.eye(16))
            assert smin > 1e-10
            checked += 1
        assert checked > 50
