"""Tests for eigenvalue counting, gap sequences and the asymptotic classifier."""

import numpy as np
import pytest

from specloc import spectra
from specloc.errors import InputError
from specloc.operators import Ray, RaySpectrumSpec


def spec_squares(k_max=100):
    return RaySpectrumSpec(rays=(Ray(theta=0.0, radii=tuple(float(k * k) for k in range(1, k_max + 1))),))


class TestCounting:
    def test_count_radius_closed_ball(self):
        spec = spec_squares(10)
        assert spectra.count_radius(spec, 0.5) == 0
        assert spectra.count_radius(spec, 1.0) == 1  # boundary included
        assert spectra.count_radius(spec, 99.9) == 9
        assert spectra.count_radius(spec, 100.0) == 10

    def test_count_radius_multiplicity(self):
        spec = RaySpectrumSpec(rays=(Ray(theta=0.0, radii=(2.0, 2.0, 3.0)),))
        assert spectra.count_radius(spec, 2.0) == 2

    def test_count_interval_open(self):
        spec = spec_squares(10)
        assert spectra.count_interval(spec, 0.0, 1.0, 4.0) == 0  # endpoints excluded
        assert spectra.count_interval(spec, 0.0, 0.9, 4.1) == 2

    def test_count_interval_unknown_ray(self):
        with pytest.raises(InputError):
            spectra.count_interval(spec_squares(3), 1.0, 0.0, 10.0)

    def test_count_region_predicate(self):
        spec = RaySpectrumSpec(rays=(Ray(theta=0.0, radii=(1.0, 2.0)),
                                     Ray(theta=np.pi / 2, radii=(3.0,))))
        assert spectra.count_region(spec, lambda z: z.imag > 1.0) == 1

    def test_counts_are_monotone_with_unit_jumps(self):
        spec = spec_squares(20)
        grid = np.linspace(0.5, 420.0, 500)
        counts = [spectra.count_radius(spec, r) for r in grid]
        diffs = np.diff(counts)
        assert np.all(diffs >= 0)
        assert set(diffs.tolist()) <= {0, 1}


class TestGapSequence:
    def test_squares_reduce_to_l_condition(self):
        # r_k = k^2, p = 1/2: condition is l (2k+1) <= 2k+1, i.e. l <= 1
        for l, expected in ((0.5, True), (1.0, True), (1.2, False)):
            model = spectra.from_asymptotic(c=1.0, q=2.0, l=l, p=0.5, k_max=200)
            report = spectra.check_gap_sequence(model)
            assert report.all_hold is expected

    def test_entries_and_first_hold_index(self):
        model = spectra.GapSequenceModel(radii=(1.0, 2.0, 10.0, 20.0), l=1.0, p=0.0)
        report = spectra.check_gap_sequence(model)
        assert report.holds.tolist() == [False, True, True]
        assert report.first_hold_index == 2
        assert (report.lhs[0], report.rhs[0]) == (2.0, 1.0)

    def test_first_hold_none_when_failing_at_end(self):
        model = spectra.GapSequenceModel(radii=(1.0, 10.0, 10.5), l=1.0, p=0.0)
        assert spectra.check_gap_sequence(model).first_hold_index is None

    def test_k_range_window(self):
        model = spectra.from_asymptotic(c=1.0, q=2.0, l=0.5, p=0.5, k_max=50)
        report = spectra.check_gap_sequence(model, k_range=(10, 20))
        assert report.k.tolist() == list(range(10, 21))
        with pytest.raises(InputError):
            spectra.check_gap_sequence(model, k_range=(0, 10))

    def test_rejects_non_increasing_radii(self):
        with pytest.raises(InputError):
            spectra.GapSequenceModel(radii=(1.0, 1.0), l=0.1, p=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_or_negative_radii(self, bad):
        # checked before monotonicity: (bad, 1.0, 0.5) is not increasing either
        with pytest.raises(InputError, match="finite and non-negative"):
            spectra.GapSequenceModel(radii=(bad, 1.0, 0.5), l=0.1, p=0.0)


class TestAsymptoticClassifier:
    def test_squares_flip_at_one(self):
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 0.999, 0.5) == spectra.HOLDS_EVENTUALLY
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 1.0, 0.5) == spectra.BOUNDARY_HOLDS
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 1.001, 0.5) == spectra.FAILS

    def test_subcritical_exponent_always_holds(self):
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 5.0, 0.3) == spectra.HOLDS_EVENTUALLY

    def test_supercritical_exponent_fails(self):
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 0.1, 0.6) == spectra.FAILS

    def test_zero_l_always_holds(self):
        assert spectra.classify_asymptotic_gap(1.0, 2.0, 0.0, 0.9) == spectra.HOLDS_EVENTUALLY

    def test_threshold_scales_with_c(self):
        # threshold = q c^(1/q) / 2 = 3 at c = 9, q = 2
        assert spectra.classify_asymptotic_gap(9.0, 2.0, 2.99, 0.5) == spectra.HOLDS_EVENTUALLY
        assert spectra.classify_asymptotic_gap(9.0, 2.0, 3.01, 0.5) == spectra.FAILS

    def test_agrees_with_finite_check(self):
        rng = np.random.default_rng(17)
        k_max = 10_000
        for _ in range(60):
            q = float(rng.uniform(1.5, 3.5))
            c = float(rng.uniform(0.5, 4.0))
            critical_p = 1.0 - 1.0 / q
            if rng.random() < 0.5:
                p = critical_p
                threshold = q * c ** (1.0 / q) / 2.0
                l = float(rng.uniform(0.1, 2.0)) * threshold
                if abs(l - threshold) < 1e-3 * threshold:
                    continue
            else:
                # keep the exponent well away from critical so the finite-scale
                # crossover happens inside the inspected k-range
                while True:
                    p = float(rng.uniform(0.0, 0.95))
                    if abs(p - critical_p) >= 0.2:
                        break
                l = float(rng.uniform(0.5, 2.0))
            verdict = spectra.classify_asymptotic_gap(c, q, l, p)
            model = spectra.from_asymptotic(c=c, q=q, l=l, p=p, k_max=k_max)
            tail = spectra.check_gap_sequence(model, k_range=(k_max // 2, k_max - 1))
            finite = tail.all_hold
            if verdict == spectra.HOLDS_EVENTUALLY:
                assert finite, (c, q, l, p)
            elif verdict == spectra.FAILS:
                assert not finite, (c, q, l, p)


class TestDensity:
    def test_squares_proxy_near_one(self):
        curve = spectra.liminf_density(spec_squares(100), 0.5, np.linspace(1.0, 1e4, 400))
        assert abs(curve.proxy - 1.0) <= 0.1
        assert np.all(np.diff(curve.running_min[::-1]) <= 1e-15)

    def test_linear_ray_p_zero(self):
        spec = RaySpectrumSpec(rays=(Ray(theta=0.0, radii=tuple(float(k) for k in range(1, 101))),))
        curve = spectra.liminf_density(spec, 0.0, np.linspace(1.0, 100.0, 200))
        assert abs(curve.proxy - 1.0) <= 0.1

    def test_empty_tail_is_small(self):
        spec = RaySpectrumSpec(rays=(Ray(theta=0.0, radii=(1.0,)),))
        curve = spectra.liminf_density(spec, 0.0, np.linspace(1.0, 1000.0, 100))
        assert curve.proxy <= 0.02

    def test_rejects_bad_grid(self):
        with pytest.raises(InputError):
            spectra.liminf_density(spec_squares(3), 0.5, [2.0, 1.0])
