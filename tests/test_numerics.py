"""Tests for the dense linear-algebra kernel."""

import numpy as np
import pytest

from specloc import numerics
from specloc.errors import InputError

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


class TestEig:
    def test_diagonal_values_sorted_by_modulus(self):
        dec = numerics.eig(np.diag([5.0, 1.0, 3.0]))
        np.testing.assert_allclose(dec.values, [1.0, 3.0, 5.0])
        np.testing.assert_allclose(np.abs(np.linalg.norm(dec.vectors, axis=0)), 1.0)

    def test_angle_buckets_before_modulus(self):
        # +/- i go to different half planes; 1 and 5 share the angle-0 bucket
        dec = numerics.eig(np.diag([5.0, -1j, 1.0, 1j]))
        np.testing.assert_allclose(dec.values, [1.0, 5.0, 1j, -1j], atol=1e-14)

    def test_swap_matrix(self):
        dec = numerics.eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(sorted(dec.values.real), [-1.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(dec.condition_estimate, 1.0, rtol=1e-12)

    def test_jordan_block_flags_huge_condition(self):
        dec = numerics.eig(np.array([[2.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_allclose(dec.values, [2.0, 2.0], atol=1e-7)
        assert dec.condition_estimate > 1e6

    def test_reconstruction_on_random_diagonalizable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = 12
            values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = v @ np.diag(values) @ np.linalg.inv(v)
            dec = numerics.eig(a)
            recon = dec.vectors @ np.diag(dec.values) @ np.linalg.inv(dec.vectors)
            assert numerics.opnorm(recon - a) <= 1e-8 * numerics.opnorm(a)

    def test_deterministic_ordering(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        d1 = numerics.eig(a)
        d2 = numerics.eig(a.copy())
        np.testing.assert_array_equal(d1.values, d2.values)
        np.testing.assert_array_equal(d1.vectors, d2.vectors)

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            numerics.eig(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            numerics.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSvdExtremes:
    def test_identity(self):
        assert numerics.svd_extremes(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        smax, smin = numerics.svd_extremes(np.diag([3.0, 0.5]))
        np.testing.assert_allclose([smax, smin], [3.0, 0.5])

    def test_shear_golden_ratio(self):
        smax, smin = numerics.svd_extremes(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose([smax, smin], [GOLDEN, 1.0 / GOLDEN], rtol=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
        smax, smin = numerics.svd_extremes(a)
        inv_smax, _ = numerics.svd_extremes(np.linalg.inv(a))
        np.testing.assert_allclose(smin, 1.0 / inv_smax, rtol=1e-10)
