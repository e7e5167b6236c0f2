"""Tests for Riesz projections and projection families."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from reference_linalg import cross_talk_pad, max_cross_product_norm
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

    def test_chain_across_the_eigenvalue_order(self):
        # 1 - 0.6e-8 j sorts last (its angle is just below 2 pi), after 3j; it
        # reaches 1 + 0.6e-8 j, 1.2e-8 away, only through 1
        t = np.diag([1.0 + 0.6e-8j, 3.0j, 1.0 - 0.6e-8j, 1.0])
        with pytest.raises(AmbiguousClusterError) as info:
            projections.spectral_projector_oracle(t, lambda z: z.imag > 0.0)
        assert str(info.value).count("j)") == 3
        p = projections.spectral_projector_oracle(t, lambda z: abs(z) < 2.0)
        np.testing.assert_allclose(p, np.diag([1.0, 0.0, 1.0, 1.0]), atol=1e-12)

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


def assert_cross_talk_brackets(family):
    """exact <= cross_talk <= exact + pad + 1e-13 max ||P_k||^2, the last term
    the scale of the rounding in forming either side."""
    mats = family.matrices
    exact = max_cross_product_norm(mats)
    scale = max(np.linalg.svd(a, compute_uv=False)[0] for a in mats) ** 2
    assert exact <= family.cross_talk <= exact + cross_talk_pad(mats) + 1e-13 * scale
    return exact


def hamiltonian_gap_family(n, seed):
    """Gap family of T = [[iR, B], [C, iR]], R = diag(4, ..., 4n), with B and C
    Hermitian of norm about 1, cut at 4k + 2 (every gap holds two eigenvalues)."""
    rng = np.random.default_rng(seed)

    def hermitian():
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return (a + a.conj().T) / (2.0 * np.sqrt(n))

    r = np.diag(4.0 * np.arange(1, n + 1))
    t = np.block([[1j * r, hermitian()], [hermitian(), 1j * r]])
    return projections.family_from_gaps(t, [4.0 * k + 2.0 for k in range(n + 1)], 2.0, 0.0,
                                        theta=np.pi / 2.0)


def shifted_hamiltonian(n, seed):
    """T = [[iR, B], [C, iR]], R = diag(4, ..., 4n), with B and C Hermitian with
    spectrum in [0.5, 1.3], as in the benchmark's Hamiltonian: every gap contour
    at 4k + 2, alpha 2, passes the closed-form gate."""
    rng = np.random.default_rng(seed)

    def hermitian():
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m = (q * rng.uniform(0.5, 1.3, n)) @ q.conj().T
        return 0.5 * (m + m.conj().T)

    r = np.diag(4.0 * np.arange(1, n + 1))
    return np.block([[1j * r, hermitian()], [hermitian(), 1j * r]])


HAMILTONIAN_REGION = dict(alpha=2.0, p=0.0, theta=np.pi / 2.0)


class TestMakeFamily:
    def test_residual_on_first_read_and_cross_talk_from_the_factors(self, monkeypatch):
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        family = projections.make_family(skew_projections(4, 8, 2))
        assert shapes == []
        # the cross talk reads only the factors, never an n x n matrix: every
        # rank is 2, so one stacked norm of the 4 x 4 rank-2 blocks
        factors_only = projections.ProjectionFamily(
            tuple(dataclasses.replace(e, matrix=None) for e in family.entries))
        assert factors_only.cross_talk <= 1e-10
        assert shapes == [(4, 4, 2, 2)]
        assert factors_only.cross_talk == family.cross_talk
        # each idempotency residual is one opnorm of P^2 - P, on first read only
        for e in family.entries * 2:
            assert e.idempotency_residual == opnorm(e.matrix @ e.matrix - e.matrix) <= 1e-10
        assert shapes[3:] == [(8, 8)] * 4

    def test_one_svd_per_projection_gives_the_range_frame(self, count_calls):
        # opnorm's singular-value-only SVDs are counted apart from the frames
        svds = count_calls(np.linalg, "svd")
        family = projections.make_family(skew_projections(3, 7, 4))
        uv_flags = [kw.get("compute_uv", True) for _, kw in svds]
        assert uv_flags == [True] * 3
        # the idempotency residual's singular-value-only opnorm runs on first read
        assert all(e.idempotency_residual <= 1e-10 for e in family.entries)
        assert [kw.get("compute_uv", True) for _, kw in svds[3:]] == [False] * 3
        assert [e.rank for e in family.entries] == [3, 2, 2]
        for e in family.entries:
            np.testing.assert_allclose(e.frame.conj().T @ e.frame, np.eye(e.rank), atol=1e-12)
            np.testing.assert_allclose(e.matrix @ e.frame, e.frame, atol=1e-10)
            # the thin factors are within the tail of P, and the norm is sigma_1
            s = np.linalg.svd(e.matrix, compute_uv=False)
            thin = (e.frame * e.singular_values) @ e.coframe.conj().T
            assert np.linalg.norm(e.matrix - thin, 2) <= e.tail + 1e-13 * s[0]
            np.testing.assert_allclose([e.norm, e.tail], [s[0], s[e.rank]], rtol=1e-13)

    @pytest.mark.parametrize("budget", [numerics.BATCH_ENTRIES, 2 * 8 * 8])
    @pytest.mark.parametrize("position", [0, 3])
    def test_cross_talk_with_planted_overlap(self, monkeypatch, budget, position):
        # a skew rank-one projection u w* / (w* u) overlaps all three disjoint
        # members, and ||P_j Q|| != ||Q P_j||, so one ordered pair holds the max
        rng = np.random.default_rng(9)
        u, w = rng.standard_normal((2, 8, 1)) + 1j * rng.standard_normal((2, 8, 1))
        labelled = skew_projections(3, 8, 5)
        labelled.insert(position, ("overlap", u @ w.conj().T / (w.conj().T @ u)))
        unbatched = projections.make_family(labelled).cross_talk
        family = projections.make_family(labelled)
        # the cross talk reads no batch budget: a small one leaves it as it was
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", budget)
        assert family.cross_talk == unbatched
        assert assert_cross_talk_brackets(family) > 0.1
        assert not family.disjoint(1e-6)

    def test_unbalanced_family_norms_no_padding(self, monkeypatch):
        # one rank-6 member beside six rank-1 members: the stacked blocks hold
        # the 12 x 12 GEMM entries once, not 7 * 6 blocks padded to 6 x 6
        rng = np.random.default_rng(4)
        v = np.eye(12) + 0.2 * rng.standard_normal((12, 12))
        vi = np.linalg.inv(v)
        groups = [list(range(6))] + [[k] for k in range(6, 12)]
        family = projections.make_family([(str(k), v[:, g] @ vi[g, :])
                                          for k, g in enumerate(groups)])
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        assert assert_cross_talk_brackets(family) <= 1e-12
        assert sum(np.prod(s) for s in shapes) == 12 * 12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cross_talk_brackets_exact_on_hamiltonian_family(self, seed):
        family = hamiltonian_gap_family(8, seed)
        assert [e.rank for e in family.entries] == [2] * 8
        assert assert_cross_talk_brackets(family) <= 1e-12
        assert family.disjoint(1e-6)

    def test_tail_enters_the_pad(self):
        # diag(0, 0.4) has rank 0 and tail 0.4; P_a P_b = 0 exactly, but the
        # pad ||P_a|| tail_b = 0.4 is the cross talk
        family = projections.make_family([("a", np.diag([1.0, 0.0])),
                                          ("b", np.diag([0.0, 0.4]))])
        assert [(e.rank, e.norm, e.tail) for e in family.entries] == [(1, 1.0, 0.0),
                                                                      (0, 0.4, 0.4)]
        assert max_cross_product_norm(family.matrices) == 0.0
        assert family.cross_talk == 0.4
        assert not family.disjoint(1e-6)

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

    def test_eigenvalue_on_a_side_raises_at_once(self, count_calls):
        # 5 + 0.3j lies on the left side x = 5, between the sampled gate points
        resolvents = count_calls(projections, "_triangular_resolvent")
        with pytest.raises(ContourSpectrumError) as info:
            projections.family_from_gaps(np.diag([1.0, 5.0 + 0.3j, 9.0]), [5.0, 7.0], 1.0, 0.5)
        assert info.value.abscissae == (5.0, 7.0)
        assert info.value.margin <= projections.MARGIN_GATE
        assert resolvents == []

    @pytest.mark.parametrize("offset", [-1e-12, 0.0, 1e-12])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_eigenvalue_next_to_an_arc_raises(self, offset, sign):
        # next to the arc y = +-sqrt(x) at x = 6.3, inside, on or outside it
        z = 6.3 + sign * 1j * np.sqrt(6.3) * (1.0 + offset)
        with pytest.raises(ContourSpectrumError) as info:
            projections.family_from_gaps(np.diag([1.0, z, 9.0]), [3.0, 5.0, 7.0], 1.0, 0.5)
        assert info.value.abscissae == (5.0, 7.0)

    @pytest.mark.parametrize("n", [8, 24])
    def test_closed_form_gate_matches_the_quadrature(self, count_calls, n):
        t = shifted_hamiltonian(n, 0)
        cuts = [4.0 * k + 2.0 for k in range(n + 1)]
        resolvents = count_calls(projections, "_triangular_resolvent")
        family = projections.family_from_gaps(t, cuts, **HAMILTONIAN_REGION)
        assert resolvents == []
        assert [e.rank for e in family.entries] == [2] * n
        assert all(e.gate_margin > 0.25 for e in family.entries)
        for e, xl, xr in zip(family.entries, cuts, cuts[1:]):
            contour = contours.gap_contour(xl, xr, **HAMILTONIAN_REGION)
            p_quad = projections.riesz_projection(t, contour)
            assert np.linalg.norm(e.matrix - p_quad, 2) <= 1e-12 * np.linalg.norm(e.matrix, 2)

    def test_non_normal_form_takes_the_sampled_gate(self, count_calls):
        # diag R sits 2 away from every contour, but ||N|| is about 4.2
        t = np.array([[1.0, 3.0, 0.0], [0.0, 5.0, 3.0], [0.0, 0.0, 9.0]])
        cuts = [3.0, 7.0, 11.0]
        resolvents = count_calls(projections, "_triangular_resolvent")
        family = projections.family_from_gaps(t, cuts, 1.0, 0.5)
        assert [e.gate_margin for e in family.entries] == [None, None]
        gate_points = [contours.gap_contour(xl, xr, 1.0, 0.5).gate_points
                       for xl, xr in zip(cuts, cuts[1:])]
        assert [z for (_, z), _ in resolvents] == list(np.concatenate(gate_points))
        for e, xl, xr in zip(family.entries, cuts, cuts[1:]):
            p_quad = projections.riesz_projection(t, contours.gap_contour(xl, xr, 1.0, 0.5))
            assert e.rank == 1
            assert np.linalg.norm(e.matrix - p_quad, 2) <= 1e-10 * np.linalg.norm(e.matrix, 2)

    def test_empty_gap_and_whole_spectrum(self, count_calls):
        lapack = [count_calls(scipy.linalg.lapack, name) for name in ("ztrsen", "ztrsyl")]
        t = np.array([[1.0, 0.2, 0.0], [0.0, 5.0, 0.2], [0.0, 0.0, 9.0]])
        (empty,) = projections.family_from_gaps(t, [10.0, 12.0], 20.0, 0.0).entries
        (whole,) = projections.family_from_gaps(t, [0.5, 10.0], 20.0, 0.0).entries
        assert lapack == [[], []]
        assert empty.gate_margin > 0.5 and whole.gate_margin > 0.1
        assert (empty.rank, empty.norm, empty.tail) == (0, 0.0, 0.0)
        assert not np.any(empty.matrix)
        assert whole.rank == 3
        np.testing.assert_allclose(whole.matrix, np.eye(3), atol=1e-14)

    def test_factored_entries(self, count_calls):
        svds = count_calls(np.linalg, "svd")
        reorders = count_calls(scipy.linalg.lapack, "ztrsen")
        family = projections.family_from_gaps(shifted_hamiltonian(8, 1),
                                              [4.0 * k + 2.0 for k in range(9)],
                                              **HAMILTONIAN_REGION)
        # one reordering and one thin SVD of Y_k per gap, and one
        # singular-value SVD of N for the gate
        assert len(reorders) == 8
        assert sorted(a[0].shape for a, _ in svds) == [(2, 16)] * 8 + [(16, 16)]
        for e in family.entries:
            np.testing.assert_allclose(e.frame.conj().T @ e.frame, np.eye(2), atol=1e-13)
            np.testing.assert_allclose(e.matrix @ e.frame, e.frame, atol=1e-13)
            s = np.linalg.svd(e.matrix, compute_uv=False)
            np.testing.assert_allclose(e.norm, s[0], rtol=1e-13)
            assert e.tail == 0.0
        assert assert_cross_talk_brackets(family) <= 1e-12


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

    def test_upper_from_the_family_svds(self, count_calls):
        family = hamiltonian_gap_family(8, 0)
        svds = count_calls(np.linalg, "svd")
        _, c_upper = projections.projection_sum_bound(family)
        assert svds == []
        expect = sum(np.linalg.svd(a, compute_uv=False)[0] for a in family.matrices)
        np.testing.assert_allclose(c_upper, expect, rtol=1e-13)

