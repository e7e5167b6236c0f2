"""Tests for enclosure regions, certified ball radii and the enclosure
verdict."""

import cmath
import math

import numpy as np
import pytest

from specloc import enclosure, instances, operators, subordination
from specloc.errors import InputError

from reference_linalg import r0_conditions, refined_excluded, svd_extremes


def on_one_ray(radii, s, p):
    """The system G + S with G = diag(radii) on the ray theta = 0."""
    spec = operators.RaySpectrumSpec((operators.Ray(0.0, tuple(radii)),))
    return operators.assemble(spec.eigenvalues(), s, p, spec)


class TestContains:
    def region(self, alpha=1.0, p=0.5, r0=2.0, thetas=(0.0,)):
        return enclosure.EnclosureRegion(r0, thetas, alpha, p)

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


def reference_contains(region, z) -> bool:
    """The region's definition one lobe at a time, in Python scalars."""
    if abs(z) <= region.r0:
        return True
    for theta in region.thetas:
        w = complex(z) * cmath.exp(-1j * theta)
        if w.real < 0.0 or abs(w.imag) > region.alpha * w.real**region.p:
            continue
        return True
    return False


class TestArrayMembership:
    """contains on arrays: one pass that agrees with the same call point by
    point."""

    THETAS = (0.0, 2.0, 4.0)

    def points(self, alpha, p, r0):
        rng = np.random.default_rng(31)
        cloud = rng.uniform(-30.0, 30.0, 400) + 1j * rng.uniform(-30.0, 30.0, 400)
        h = alpha * 4.0**p  # the theta = 0 lobe's half-width at x = 4
        special = [r0, -r0, 1j * r0, -1j * r0,  # ball boundary
                   4.0 + 1j * h, 4.0 - 1j * h, 4.0 + 1j * np.nextafter(h, np.inf),  # lobe boundary
                   -5.0 + 0.1j, -12.0 - 1.0j, -0.0 + 30.0j, 0.0]  # x < 0 on the theta = 0 lobe
        return np.concatenate([special, cloud])

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_contains_equals_pointwise(self, p):
        region = enclosure.EnclosureRegion(2.0, self.THETAS, 1.5, p)
        z = self.points(1.5, p, 2.0)
        inside = enclosure.contains(region, z)
        assert inside.shape == z.shape and inside.dtype == bool
        assert inside.tolist() == [bool(enclosure.contains(region, w)) for w in z]
        assert inside.tolist() == [reference_contains(region, w) for w in z]
        assert inside[:4].all()  # the ball is closed
        assert inside[4:6].all() and not inside[6]  # so is the lobe
        assert 0 < inside.sum() < len(z)
        np.testing.assert_array_equal(enclosure.contains(region, z.reshape(3, -1)),
                                      inside.reshape(3, -1))

    def test_violators_in_eigenvalue_order(self):
        s = np.diag([0.0, 2.0j, -4.0j, 3.0j])
        system = on_one_ray([1.0, 10.0, 20.0, 30.0], s, 0.0)
        region = enclosure.EnclosureRegion(2.0, [0.0], 1.0, 0.0)
        report = enclosure.verify_spectrum_enclosure(system, region)
        values = [z for z in report.eigenvalues if not enclosure.contains(region, z)]
        assert report.violators.tolist() == [complex(z) for z in values]
        assert {complex(np.round(v, 9)) for v in report.violators} == {
            10.0 + 2.0j, 20.0 - 4.0j, 30.0 + 3.0j}

    @pytest.mark.parametrize("args", [(1.0, [0.0], math.nan, 0.5), (math.nan, [0.0], 1.0, 0.5),
                                      (1.0, [0.0, math.nan], 1.0, 0.5),
                                      (1.0, [math.inf], 1.0, 0.5),
                                      (1.0, [0.0], math.inf, 0.5), (math.inf, [0.0], 1.0, 0.5)])
    def test_rejects_non_finite_parameters(self, args):
        with pytest.raises(InputError):
            enclosure.EnclosureRegion(*args)

    def test_normalizes_its_parameters(self):
        region = enclosure.EnclosureRegion(np.float64(2), np.float64(0.5), 1, np.float64(0.5))
        assert region.thetas == (0.5,) and type(region.thetas[0]) is float
        assert [type(v) for v in (region.r0, region.alpha, region.p)] == [float] * 3
        with pytest.raises(InputError):
            enclosure.EnclosureRegion(1.0, [0.0], -1.0, 0.5)
        with pytest.raises(InputError):
            enclosure.EnclosureRegion(1.0, [0.0], 1.0, 1.0)


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
        outer, sector, parabolic = r0_conditions(b, p, alpha, eps, psi)
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
            conditions = r0_conditions(b, p, alpha, eps, psi)
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
        system = operators.assemble(spec.eigenvalues(), np.zeros((5, 5)), 0.5, ray_spec=spec)
        region = enclosure.EnclosureRegion(0.0, spec.thetas, 0.5, 0.5)
        report = enclosure.verify_spectrum_enclosure(system, region)
        assert report.all_inside
        assert report.violators.shape == (0,)

    def test_violator_reported(self):
        s = np.array([[0.0, 0.0], [0.0, 2.0j]])
        system = on_one_ray([1.0, 10.0], s, 0.0)
        region = enclosure.EnclosureRegion(2.0, [0.0], 1.0, 0.0)
        report = enclosure.verify_spectrum_enclosure(system, region)
        assert not report.all_inside
        assert len(report.violators) == 1
        np.testing.assert_allclose(report.violators[0], 10.0 + 2.0j)

    def test_lobe_boundary_rows(self):
        region = enclosure.EnclosureRegion(1.0, [0.0, 1.0], 2.0, 0.5)
        rows = np.array(list(enclosure.lobe_boundary(region, 4.0)))
        assert rows.shape == (2 * enclosure.LOBE_POINTS, 4) and enclosure.LOBE_POINTS == 200
        np.testing.assert_array_equal(rows[:, 0], np.repeat([0.0, 1.0], 200))
        np.testing.assert_array_equal(rows[:200, 1:], rows[200:, 1:])
        np.testing.assert_allclose(rows[:200, 1], np.linspace(0.0, 4.0, 200), rtol=1e-15)
        np.testing.assert_allclose(rows[:200, 2], 2.0 * np.sqrt(rows[:200, 1]), rtol=1e-15)
        np.testing.assert_array_equal(rows[:, 3], -rows[:, 2])
        np.testing.assert_allclose(rows[-1], [1.0, 4.0, 4.0, -4.0])


class TestRefinedRejectionsAreResolvent:
    def test_sampled_rejections(self):
        # points inside the standard lobe but excluded by the refined test
        # must be genuine resolvent points of T
        rng = np.random.default_rng(23)
        radii = np.concatenate([rng.uniform(1.0, 30.0, 14), [40.0, 40.0]])
        s = np.zeros((16, 16), dtype=complex)
        b = 0.4
        strength = b * math.sqrt(40.0)
        s[14, 15] = strength
        s[15, 14] = -strength
        system = on_one_ray(radii, s, 0.5)
        res = subordination.subordination_bound(s, system.g, 0.5)
        checked = 0
        for _ in range(200):
            x = float(rng.uniform(5.0, 60.0))
            y = float(rng.uniform(1.3, 1.6) * res.bound * math.sqrt(x))
            if not refined_excluded(res.bound, 0.5, x, y):
                continue
            _, smin = svd_extremes(system.t - complex(x, y) * np.eye(16))
            assert smin > 1e-10
            checked += 1
        assert checked > 50
