"""Tests for the dense linear-algebra kernel."""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from specloc import numerics
from specloc.errors import ConvergenceError, InputError

from reference_linalg import svd_extremes

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

    def test_condition_svd_runs_only_when_read(self, count_calls):
        svd = np.linalg.svd
        calls = count_calls(np.linalg, "svd")
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        dec = numerics.eig(a)
        assert len(calls) == 0  # the residual gate's scale is a column norm
        cond = dec.condition_estimate
        assert len(calls) == 1
        assert dec.condition_estimate == cond
        assert len(calls) == 1
        sv = svd(dec.vectors, compute_uv=False)
        assert cond == max(float(sv[0] / sv[-1]), 1.0)

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            numerics.eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @staticmethod
    def plant(monkeypatch, delta):
        """Make scipy's eig return the eigenvector (1, 1, 1, 1)/2 of the value 4
        of ones(4, 4) moved by delta along (1, -1, 0, 0)/sqrt(2), a null vector:
        the residual of that pair is 4 delta, after normalization 4 delta to
        within 1e-20."""
        original = scipy.linalg.eig

        def planted(a):
            values, vectors = original(a)
            k = int(np.argmax(values.real))
            vectors[:, k] = 0.5 + delta * np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2.0)
            return values, vectors

        monkeypatch.setattr(scipy.linalg, "eig", planted)

    def test_planted_bad_eigenpair_raises(self, monkeypatch):
        self.plant(monkeypatch, 1e-6)
        with pytest.raises(ConvergenceError, match="residual") as err:
            numerics.eig(np.ones((4, 4)))
        assert err.value.residual == pytest.approx(4e-6, rel=1e-6)

    def test_gate_scale_is_the_largest_column_norm(self, monkeypatch):
        # ||A|| = 4 and every column norm is 2: a residual of 3e-10 lies above
        # EIG_RESIDUAL_RTOL times the column norm and below it times ||A||
        a = np.ones((4, 4))
        self.plant(monkeypatch, 0.0)
        assert numerics.eig(a).values.real.max() == pytest.approx(4.0)
        self.plant(monkeypatch, 0.75e-10)
        with pytest.raises(ConvergenceError) as err:
            numerics.eig(a)
        assert (2.0 * numerics.EIG_RESIDUAL_RTOL < err.value.residual
                < 4.0 * numerics.EIG_RESIDUAL_RTOL)


class TestSvdExtremes:
    def test_identity(self):
        assert svd_extremes(np.eye(4)) == (1.0, 1.0)

    def test_diagonal(self):
        smax, smin = svd_extremes(np.diag([3.0, 0.5]))
        np.testing.assert_allclose([smax, smin], [3.0, 0.5])

    def test_shear_golden_ratio(self):
        smax, smin = svd_extremes(np.array([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_allclose([smax, smin], [GOLDEN, 1.0 / GOLDEN], rtol=1e-12)

    def test_inverse_consistency(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)) + 3 * np.eye(6)
        smax, smin = svd_extremes(a)
        inv_smax, _ = svd_extremes(np.linalg.inv(a))
        np.testing.assert_allclose(smin, 1.0 / inv_smax, rtol=1e-10)


class TestMapBatches:
    def test_results_in_batch_order(self, monkeypatch):
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", 3 * 4)
        parts = numerics.batches(10, 4)
        assert len(parts) == 4

        def span(b):
            time.sleep(0.01 * (len(parts) - b.start // 3))  # early batches finish last
            return b.start, b.stop

        assert numerics.map_batches(span, 10, 4) == [(b.start, b.stop) for b in parts]

    def test_single_batch_runs_inline(self, count_calls):
        pool = count_calls(numerics, "_pool")

        def ident(b):
            return threading.get_ident()

        assert numerics.map_batches(ident, 5, 4) == [threading.get_ident()]
        assert numerics.map_batches(ident, 0, 4) == []
        assert pool == []

    def test_import_starts_no_thread(self):
        code = ("import pkgutil, threading, specloc\n"
                "for m in pkgutil.iter_modules(specloc.__path__):\n"
                "    __import__('specloc.' + m.name)\n"
                "print(threading.active_count())\n")
        src = os.path.dirname(os.path.dirname(numerics.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "1"

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", 4)

        def fail_on_third(b):
            if b.start == 2:
                raise ValueError("batch 2")
            return b.start

        with pytest.raises(ValueError, match="batch 2"):
            numerics.map_batches(fail_on_third, 6, 4)
