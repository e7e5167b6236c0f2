"""Tests for contour construction and quadrature."""

import numpy as np
import pytest

from specloc import contours
from specloc.errors import InputError


class TestCircle:
    def test_cauchy_integral(self):
        c = contours.circle(0.0, 1.0, 64)
        integral = np.sum(c.weights / (c.nodes - 0.3))
        np.testing.assert_allclose(integral, 2j * np.pi, atol=1e-12)

    def test_no_pole_inside(self):
        c = contours.circle(0.0, 1.0, 64)
        integral = np.sum(c.weights / (c.nodes - 5.0))
        np.testing.assert_allclose(integral, 0.0, atol=1e-12)

    def test_winding_number(self):
        c = contours.circle(1.0, 1.0, 64)
        np.testing.assert_allclose(contours.winding_number(c, 1.2), 1.0, atol=1e-12)
        np.testing.assert_allclose(contours.winding_number(c, 4.0), 0.0, atol=1e-12)

    def test_nodes_on_circle(self):
        c = contours.circle(2.0 + 1.0j, 3.0, 32)
        np.testing.assert_allclose(np.abs(c.nodes - (2.0 + 1.0j)), 3.0, rtol=1e-14)

    def test_refined_doubles(self):
        c = contours.circle(0.0, 1.0, 32)
        assert c.refined().total_nodes == 64

    def test_rejects_bad_radius(self):
        with pytest.raises(InputError):
            contours.circle(0.0, 0.0)


class TestGapContour:
    def test_closes_up(self):
        c = contours.gap_contour(3.0, 7.0, 1.0, 0.5)
        ends = [(s.start, s.end) for s in c.segments]
        for (_, e), (s, _) in zip(ends, ends[1:] + ends[:1]):
            assert abs(e - s) <= 1e-12 * 10

    def test_winding_inside_and_outside(self):
        c = contours.gap_contour(3.0, 7.0, 1.0, 0.5, nodes_per_segment=128)
        np.testing.assert_allclose(contours.winding_number(c, 5.0), 1.0, atol=1e-6)
        np.testing.assert_allclose(contours.winding_number(c, 9.0), 0.0, atol=1e-6)
        np.testing.assert_allclose(contours.winding_number(c, 5.0 + 3.0j), 0.0, atol=1e-6)

    def test_rectangle_nodes_when_p_zero(self):
        c = contours.gap_contour(2.0, 4.0, 1.5, 0.0)
        z = c.nodes
        on_boundary = (
            (np.abs(z.imag - 1.5) < 1e-12) | (np.abs(z.imag + 1.5) < 1e-12)
            | (np.abs(z.real - 2.0) < 1e-12) | (np.abs(z.real - 4.0) < 1e-12)
        )
        assert np.all(on_boundary)
        assert np.all((z.real >= 2.0 - 1e-12) & (z.real <= 4.0 + 1e-12))

    def test_parabola_nodes_on_arcs(self):
        c = contours.gap_contour(3.0, 7.0, 0.8, 0.5)
        for seg in c.segments:
            if seg.kind.startswith("arc"):
                x = seg.nodes.real
                np.testing.assert_allclose(np.abs(seg.nodes.imag), 0.8 * np.sqrt(x), rtol=1e-12)

    def test_rotation_equivariance_exact(self):
        theta = 2.0
        base = contours.gap_contour(3.0, 7.0, 1.0, 0.5, theta=0.0)
        rot = contours.gap_contour(3.0, 7.0, 1.0, 0.5, theta=theta)
        factor = np.exp(1j * theta)
        np.testing.assert_array_equal(rot.nodes, base.nodes * factor)
        np.testing.assert_array_equal(rot.weights, base.weights * factor)

    def test_minimum_nodes_enforced(self):
        with pytest.raises(InputError):
            contours.gap_contour(1.0, 2.0, 1.0, 0.5, nodes_per_segment=8)

    @pytest.mark.parametrize("m", [24, 33, 40])
    def test_nodes_must_fill_whole_panels(self, m):
        with pytest.raises(InputError):
            contours.gap_contour(1.0, 2.0, 1.0, 0.5, nodes_per_segment=m)

    def test_rectangle_area_exact(self):
        # conj(z) is linear along each side, so one 16-node panel is exact:
        # the contour integral of conj(z) dz is 2i times the enclosed area
        c = contours.gap_contour(2.0, 4.0, 1.5, 0.0, nodes_per_segment=16)
        area = np.sum(np.conj(c.nodes) * c.weights) / 2j
        np.testing.assert_allclose(area, 2.0 * 3.0, rtol=0.0, atol=1e-14)

    def test_rejects_bad_abscissae(self):
        with pytest.raises(InputError):
            contours.gap_contour(5.0, 3.0, 1.0, 0.5)
        with pytest.raises(InputError):
            contours.gap_contour(0.0, 3.0, 1.0, 0.5)

    def test_quadrature_converges_under_doubling(self):
        errors = []
        for m in (16, 32, 64, 128):
            c = contours.gap_contour(3.0, 7.0, 1.0, 0.5, nodes_per_segment=m)
            errors.append(abs(contours.winding_number(c, 5.0) - 1.0))
        assert max(errors[1:]) < 1e-12
        assert errors[-1] < errors[0]

    def test_refined_doubles_panels(self):
        c = contours.gap_contour(3.0, 7.0, 1.0, 0.5)
        fine = c.refined()
        assert fine.total_nodes == 2 * c.total_nodes == 256
        assert len(fine.gate_points) == 256 + 4 * 4


def dense_points(contour, m=1024):
    """The contour traced by 4 m points, 1 / m of each segment apart."""
    return contour.refined(m // contour.nodes_per_segment).nodes


class TestGapRegion:
    @pytest.mark.parametrize("p, theta", [(0.0, 0.0), (0.0, np.pi / 2.0), (0.5, 0.0),
                                          (0.5, 2.0), (0.9, -1.0)])
    def test_distance_bound_below_the_distance(self, p, theta):
        region = contours.GapRegion(3.0, 7.0, 1.5, p, theta)
        rng = np.random.default_rng(5)
        z = (rng.uniform(0.0, 10.0, 500) + 1j * rng.uniform(-6.0, 6.0, 500)) * np.exp(1j * theta)
        traced = np.min(np.abs(z[:, None] - dense_points(region.contour())[None, :]), axis=1)
        bound = region.distance_bound(z)
        assert np.all(bound <= traced)
        # exact at p = 0, up to the tracing's resolution; for x in [3, 7],
        # within the slope factor sqrt(1 + s^2) otherwise
        if p == 0.0:
            assert np.all(traced <= bound + 1e-2)
        else:
            x = (z * np.exp(-1j * theta)).real
            slope = 1.5 * p * 3.0 ** (p - 1.0)
            within = (3.0 <= x) & (x <= 7.0)
            assert np.all(traced[within] <= np.sqrt(1.0 + slope**2) * bound[within] + 1e-2)

    def test_distance_bound_exact_values(self):
        region = contours.GapRegion(3.0, 7.0, 1.0, 0.0)
        z = np.array([5.0, 3.0, 1.0 + 1.0j, 8.0 - 3.0j, 5.0 + 4.0j])
        np.testing.assert_allclose(region.distance_bound(z),
                                   [1.0, 0.0, 2.0, np.hypot(1.0, 2.0), 3.0], rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("p, theta", [(0.0, 0.3), (0.5, 0.0), (0.5, -2.5)])
    def test_contains_matches_the_winding_number(self, p, theta):
        region = contours.GapRegion(3.0, 7.0, 1.5, p, theta)
        rng = np.random.default_rng(8)
        z = (rng.uniform(0.0, 10.0, 400) + 1j * rng.uniform(-6.0, 6.0, 400)) * np.exp(1j * theta)
        z = z[region.distance_bound(z) > 0.05]
        winding = np.array([contours.winding_number(region.contour(), w).real for w in z])
        np.testing.assert_array_equal(region.contains(z), np.round(winding) == 1.0)

    def test_contour_is_the_gap_contour(self):
        region = contours.GapRegion(3.0, 7.0, 1.5, 0.5, 0.4)
        reference = contours.gap_contour(3.0, 7.0, 1.5, 0.5, theta=0.4, nodes_per_segment=48)
        contour = region.contour(48)
        assert contour.params == reference.params
        np.testing.assert_array_equal(contour.nodes, reference.nodes)
        np.testing.assert_array_equal(contour.weights, reference.weights)

    @pytest.mark.parametrize("args", [(5.0, 3.0, 1.0, 0.5), (0.0, 3.0, 1.0, 0.5),
                                      (1.0, 3.0, 0.0, 0.5), (1.0, 3.0, 1.0, 1.0)])
    def test_rejects_what_gap_contour_rejects(self, args):
        with pytest.raises(InputError):
            contours.GapRegion(*args)


class TestMargin:
    def test_diagonal_example(self):
        t = np.diag([1.0, 5.0])
        margin = contours.min_resolvent_margin(t, contours.circle(1.0, 1.0, 64))
        np.testing.assert_allclose(margin, 1.0, rtol=1e-12)

    def test_contour_through_eigenvalue(self):
        t = np.diag([2.0, 5.0])
        margin = contours.min_resolvent_margin(t, contours.circle(1.0, 1.0, 64))
        assert margin < 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        shift = 2.0 - 1.5j
        c0 = contours.circle(0.0, 1.0, 32)
        c1 = contours.circle(shift, 1.0, 32)
        m0 = contours.min_resolvent_margin(a, c0)
        m1 = contours.min_resolvent_margin(a + shift * np.eye(5), c1)
        np.testing.assert_allclose(m0, m1, rtol=1e-10)
