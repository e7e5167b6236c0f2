"""Tests for Riesz projections and projection families."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from specloc import contours, instances, numerics, projections
from specloc.errors import AmbiguousClusterError, ContourSpectrumError, InputError


class TestRieszProjection:
    def test_diagonal_example(self):
        t = np.diag([1.0, 5.0])
        p = projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        np.testing.assert_allclose(p, np.diag([1.0, 0.0]), atol=1e-10)

    def test_upper_triangular_example(self):
        t = np.array([[1.0, 1.0], [0.0, 5.0]])
        p = projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        np.testing.assert_allclose(p, [[1.0, -0.25], [0.0, 0.0]], atol=1e-10)

    def test_jordan_block_full_projection(self):
        t = np.array([[2.0, 1.0], [0.0, 2.0]])
        p = projections.riesz_projection(t, contours.circle(2.0, 1.0, 64))
        np.testing.assert_allclose(p, np.eye(2), atol=1e-8)

    def test_contour_near_eigenvalue_rejected(self):
        t = np.diag([1.0, 5.0])
        contour = contours.circle(1.0 + 1e-10, 1e-10, 32)
        with pytest.raises(ContourSpectrumError) as info:
            projections.riesz_projection(t, contour)
        assert info.value.margin <= projections.MARGIN_GATE

    def test_refined_node_on_eigenvalue_gated(self):
        # the eigenvalue sits between the 32 nodes and on a node of the 64-node pass
        t = np.diag([1.0, contours.circle(1.0, 1.0, 64).nodes[1], 9.0])
        with pytest.raises(ContourSpectrumError) as info:
            projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        assert info.value.margin == 0.0

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(6)
        a = np.diag([0.5, 1.0, 1.5, 4.0, 5.0, 6.0]).astype(complex)
        a += 0.2 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        contour = contours.circle(1.0, 1.7, 64)
        p_contour = projections.riesz_projection(a, contour)
        p_oracle = projections.spectral_projector_oracle(a, lambda z: abs(z - 1.0) < 1.7)
        np.testing.assert_allclose(p_contour, p_oracle, atol=1e-7)

    def test_projection_sums_to_identity(self):
        t = np.diag([1.0, 5.0, 9.0])
        mats = [projections.riesz_projection(t, contours.circle(c, 1.0, 32))
                for c in (1.0, 5.0, 9.0)]
        family = projections.make_family([("c%d" % k, m) for k, m in enumerate(mats)])
        assert family.sum_residual <= 1e-8
        assert family.cross_talk <= 1e-8


def lu_reference(t, contour, tol=1e-8):
    """The quadrature with one LU solve of T - z against I per gate point:
    (projection, margins of every pass)."""
    ident = np.eye(len(t), dtype=complex)
    margins = []
    while True:
        acc = np.zeros_like(ident)
        for k, z in enumerate(contour.gate_points):
            resolvent = np.linalg.solve(t - z * ident, ident)
            margins.append(1.0 / np.linalg.norm(resolvent))
            if k < len(contour.weights):
                acc += contour.weights[k] * resolvent
        proj = (1j / (2.0 * np.pi)) * acc
        if np.linalg.norm(proj @ proj - proj) <= tol:
            return proj, margins
        contour = contour.refined(2)


class TestTriangularPath:
    @staticmethod
    def contours_for(values):
        # the circle |z| = 2 separates the groups; the gap contour boxes the
        # largest eigenvalue
        top = values[np.argmax(abs(values))]
        return [contours.circle(0.0, 2.0, 64),
                contours.gap_contour(abs(top) - 0.25, abs(top) + 0.25, 1.0, 0.5,
                                     theta=float(np.angle(top)))]

    def test_agrees_with_lu_reference(self, monkeypatch):
        t, values, _, _ = instances.diagonalizable_instance(0)
        margins = []
        resolve = projections._triangular_resolvent

        def recording(r, z):
            inverse, margin = resolve(r, z)
            margins.append(margin)
            return inverse, margin

        monkeypatch.setattr(projections, "_triangular_resolvent", recording)
        for contour in self.contours_for(values):
            margins.clear()
            p = projections.riesz_projection(t, contour)
            p_ref, margins_ref = lu_reference(t, contour)
            assert np.linalg.norm(p) > 0.5
            assert np.linalg.norm(p - p_ref) <= 1e-12 * np.linalg.norm(p_ref)
            assert len(margins) == len(margins_ref)
            np.testing.assert_allclose(margins, margins_ref, rtol=1e-12, atol=0.0)

    def test_one_schur_form_per_family(self, count_calls):
        calls = count_calls(scipy.linalg, "schur")
        t = np.diag([1.0, 5.0, 9.0, 13.0])
        family = projections.family_from_gaps(t, [3.0, 7.0, 11.0, 15.0], 1.0, 0.5)
        assert len(family.entries) == 3
        assert len(calls) == 1
        # a plain call computes its own form
        projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        assert len(calls) == 2


class TestOracle:
    def test_ambiguous_cluster(self):
        t = np.diag([1.0, 1.0 + 1e-12])
        with pytest.raises(AmbiguousClusterError):
            projections.spectral_projector_oracle(t, lambda z: z.real <= 1.0)
        # chained: the ends are 1.2e-8 apart and linked only through the middle one
        t = np.diag([1.0, 1.0 + 0.6e-8, 1.0 + 1.2e-8])
        with pytest.raises(AmbiguousClusterError) as info:
            projections.spectral_projector_oracle(t, lambda z: z.real < 1.0 + 1e-8)
        assert str(info.value).count("+0j)") == 3

    def test_rank(self):
        t = np.diag([1.0, 2.0, 5.0])
        p = projections.spectral_projector_oracle(t, lambda z: z.real < 3.0)
        assert projections.rank_of_projection(p) == 2


def skew_projections(k, n, seed):
    """k labelled disjoint skew projections of C^n onto eigenvector blocks."""
    rng = np.random.default_rng(seed)
    v = np.eye(n, dtype=complex) + 0.3 * (rng.standard_normal((n, n))
                                          + 1j * rng.standard_normal((n, n)))
    vi = np.linalg.inv(v)
    return [(str(j), v[:, j::k] @ vi[j::k, :]) for j in range(k)]


class TestMakeFamily:
    def test_one_opnorm_per_projection_until_cross_talk_is_read(self, monkeypatch):
        normed = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm",
                            lambda a: normed.append(len(a) if np.ndim(a) == 3 else 1) or opnorm(a))
        family = projections.make_family(skew_projections(4, 8, 2))
        assert sum(normed) == 4
        assert family.cross_talk <= 1e-10
        assert sum(normed) == 4 + 4 * 3

    def test_one_svd_per_projection_gives_the_range_frame(self, count_calls):
        # opnorm's singular-value-only SVDs are counted apart from the frames
        svds = count_calls(np.linalg, "svd")
        family = projections.make_family(skew_projections(3, 7, 4))
        uv_flags = [kw.get("compute_uv", True) for _, kw in svds]
        assert uv_flags.count(True) == 3
        # and one singular-value-only opnorm per idempotency residual
        assert uv_flags.count(False) == 3
        assert [e.rank for e in family.entries] == [3, 2, 2]
        for e in family.entries:
            np.testing.assert_allclose(e.frame.conj().T @ e.frame, np.eye(e.rank), atol=1e-12)
            np.testing.assert_allclose(e.matrix @ e.frame, e.frame, atol=1e-10)

    @pytest.mark.parametrize("budget", [numerics.BATCH_ENTRIES, 2 * 8 * 8])
    @pytest.mark.parametrize("position", [0, 3])
    def test_cross_talk_with_planted_overlap(self, monkeypatch, budget, position):
        # a skew rank-one projection u w* / (w* u) overlaps all three disjoint
        # members, and ||P_j Q|| != ||Q P_j||, so one ordered pair holds the max
        rng = np.random.default_rng(9)
        u, w = rng.standard_normal((2, 8, 1)) + 1j * rng.standard_normal((2, 8, 1))
        labelled = skew_projections(3, 8, 5)
        labelled.insert(position, ("overlap", u @ w.conj().T / (w.conj().T @ u)))
        family = projections.make_family(labelled)
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", budget)
        expect = max(numerics.opnorm(a @ b)
                     for a, b in itertools.permutations(family.matrices, 2))
        assert expect > 0.1
        assert family.cross_talk == expect

    def test_empty_family_diagnostics(self):
        family = projections.make_family([])
        assert family.cross_talk == 0.0
        assert family.sum_residual == 0.0


class TestFamilyFromGaps:
    def test_three_eigenvalue_family(self):
        t = np.diag([1.0, 5.0, 9.0])
        family = projections.family_from_gaps(t, [3.0, 7.0, 11.0], 1.0, 0.5)
        assert [e.label for e in family.entries] == ["gap[3,7]", "gap[7,11]"]
        assert [e.rank for e in family.entries] == [1, 1]
        assert family.cross_talk <= 1e-8
        assert all(e.idempotency_residual <= 1e-8 for e in family.entries)

    def test_abscissa_on_eigenvalue_gated(self):
        t = np.diag([1.0, 5.0, 9.0])
        with pytest.raises(ContourSpectrumError) as info:
            projections.family_from_gaps(t, [5.0, 7.0], 1.0, 0.5)
        assert info.value.abscissae == (5.0, 7.0)

    def test_needs_increasing_abscissae(self):
        with pytest.raises(InputError):
            projections.family_from_gaps(np.diag([1.0, 5.0]), [3.0, 3.0], 1.0, 0.5)

    def test_invariant_under_small_perturbation(self):
        rng = np.random.default_rng(11)
        t = np.diag([1.0, 5.0, 9.0]).astype(complex)
        t += 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        family = projections.family_from_gaps(t, [3.0, 7.0, 11.0], 1.0, 0.5)
        assert [e.rank for e in family.entries] == [1, 1]


class TestSumBound:
    def orthogonal_family(self):
        mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        return projections.make_family([(str(k), m) for k, m in enumerate(mats)])

    def test_orthogonal_probe_below_one(self):
        family = self.orthogonal_family()
        c_hat, c_upper = projections.projection_sum_bound(family)
        assert c_hat <= 1.0 + 1e-10
        np.testing.assert_allclose(c_upper, 3.0)

    def test_hat_below_upper(self):
        rng = np.random.default_rng(3)
        mats = []
        v = np.eye(4, dtype=complex) + 0.3 * rng.standard_normal((4, 4))
        vi = np.linalg.inv(v)
        for k in range(4):
            ind = np.zeros(4)
            ind[k] = 1.0
            mats.append(v @ np.diag(ind) @ vi)
        family = projections.make_family([(str(k), m) for k, m in enumerate(mats)])
        c_hat, c_upper = projections.projection_sum_bound(family, probe_count=64)
        assert 0.0 < c_hat <= c_upper

    def test_empty_family(self):
        family = projections.make_family([])
        assert projections.projection_sum_bound(family) == (0.0, 0.0)

