"""Tests for gap sequences and the asymptotic classifier."""

import numpy as np
import pytest

from specloc import spectra
from specloc.errors import InputError


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

    @pytest.mark.parametrize("c, q, l", [(np.nan, 2.0, 0.5), (np.inf, 2.0, 0.5),
                                         (1.0, np.nan, 0.5), (1.0, np.inf, 0.5),
                                         (1.0, 2.0, np.nan), (1.0, 2.0, np.inf)])
    def test_rejects_non_finite_parameters(self, c, q, l):
        with pytest.raises(InputError, match="finite"):
            spectra.classify_asymptotic_gap(c, q, l, 0.5)

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
            # the window k_max / 2 .. k_max - 1 of the full report
            finite = bool(spectra.check_gap_sequence(model).holds[k_max // 2 - 1:].all())
            if verdict == spectra.HOLDS_EVENTUALLY:
                assert finite, (c, q, l, p)
            elif verdict == spectra.FAILS:
                assert not finite, (c, q, l, p)

