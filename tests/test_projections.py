"""Tests for Riesz projections and projection families."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import reference_linalg
from reference_linalg import cross_talk_pad, entry_matrix, lu_reference, max_cross_product_norm
from specloc import contours, instances, numerics, projections, rieszbasis
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

    def test_eigenvalue_on_the_circle_raises_at_once(self, count_calls):
        # 1 + e^i lies on |z - 1| = 1 and on no node of any refinement
        resolvents = count_calls(projections, "_triangular_resolvent")
        t = np.diag([1.0, 1.0 + np.exp(1j), 9.0])
        with pytest.raises(ContourSpectrumError) as info:
            projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        assert info.value.margin == 0.0
        assert resolvents == []

    def test_circle_around_no_eigenvalue_or_all(self, count_calls):
        lapack = [count_calls(scipy.linalg.lapack, name) for name in ("ztrsen", "ztrsyl")]
        t = np.array([[1.0, 0.2, 0.0], [0.0, 5.0, 0.2], [0.0, 0.0, 9.0]])
        none = projections.riesz_projection(t, contours.circle(20.0, 2.0, 32))
        every = projections.riesz_projection(t, contours.circle(5.0, 6.0, 32))
        assert lapack == [[], []]
        np.testing.assert_array_equal(none, np.zeros((3, 3)))
        np.testing.assert_allclose(every, np.eye(3), atol=1e-14)

    def test_failing_closed_form_takes_no_svd(self, count_calls):
        # diag R lies 1 from the circle |z - 1| = 1, and N has a column of norm
        # 3 > 1: the closed form fails without the SVD of N, and the sampled
        # gate decides
        svds = count_calls(np.linalg, "svd")
        resolvents = count_calls(projections, "_triangular_resolvent")
        t = np.array([[1.0, 3.0, 0.0], [0.0, 5.0, 3.0], [0.0, 0.0, 9.0]])
        p = projections.riesz_projection(t, contours.circle(1.0, 1.0, 32))
        assert svds == [] and len(resolvents) > 0
        np.testing.assert_allclose(p, projections.spectral_projector_oracle(
            t, lambda z: abs(z - 1.0) < 1.0), atol=1e-12)

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
        # the projection within 1e-12 of the oracle, the quadrature reference
        # within its own stopping tolerance of it; ||N|| is above the distance
        # from diag R to either contour, so the sampled gate runs, and its
        # margins are those of the reference's first pass
        t, values, _, _ = instances.diagonalizable_instance(0)
        margins = []
        resolve = projections._triangular_resolvent

        def recording(r, z):
            margins.append(resolve(r, z))
            return margins[-1]

        monkeypatch.setattr(projections, "_triangular_resolvent", recording)
        for contour in self.contours_for(values):
            margins.clear()
            p = projections.riesz_projection(t, contour)
            p_ref, margins_ref = lu_reference(t, contour)
            p_oracle = projections.spectral_projector_oracle(t, contour.region.contains)
            assert np.linalg.norm(p) > 0.5
            assert np.linalg.norm(p - p_oracle) <= 1e-12 * np.linalg.norm(p_oracle)
            assert np.linalg.norm(p_ref - p_oracle) <= 1e-8
            first_pass = margins_ref[:len(contour.gate_points)]
            np.testing.assert_allclose(margins, first_pass, rtol=1e-12, atol=0.0)

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

    def test_chain_of_five_needs_two_squarings(self):
        # neighbours 0.6e-8 apart, ends 2.4e-8 apart: one squaring of the
        # within-1e-8 relation links points two steps apart, the second four
        t = np.diag(1.0 + 0.6e-8 * np.arange(5.0))
        with pytest.raises(AmbiguousClusterError) as info:
            projections.spectral_projector_oracle(t, lambda z: z.real < 1.0 + 2.1e-8)
        assert str(info.value).count("+0j)") == 5

    def test_names_the_cluster_with_the_lowest_index(self):
        # both clusters straddle; the one at 3 sorts first, so it is named
        t = np.diag([5.0, 3.0 + 1e-12, 5.0 + 1e-12, 3.0])
        with pytest.raises(AmbiguousClusterError) as info:
            projections.spectral_projector_oracle(t, lambda z: z.real in (3.0, 5.0))
        assert str(info.value) == ("eigenvalue cluster %r straddles the region boundary"
                                   % ([3.0 + 0j, 3.0 + 1e-12 + 0j],))

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


def assert_cross_talk_brackets(family, mats=None):
    """exact <= cross_talk <= exact + pad + 1e-13 max ||P_k||^2, the last term
    the scale of the rounding in forming either side; ``mats`` are the family's
    input matrices, else its dense members F S B*."""
    if mats is None:
        mats = [entry_matrix(e) for e in family.entries]
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
        mats = [m for _, m in skew_projections(4, 8, 2)]
        family = projections.make_family(skew_projections(4, 8, 2))
        assert shapes == []
        # the cross talk reads only the factors, never an n x n matrix: every
        # rank is 2, so one stacked norm of the 4 x 4 rank-2 blocks
        assert family.cross_talk <= 1e-10
        assert shapes == [(4, 4, 2, 2)]
        assert max_cross_product_norm(mats) <= family.cross_talk
        assert shapes == [(4, 4, 2, 2)] * 2
        # each idempotency residual is one opnorm of an r x r product, on first
        # read only; it is that of P~, within (2 ||P|| + 1) tail of the dense
        # ||P^2 - P|| of the input, up to the rounding of forming either side,
        # taken as 8 n eps ||P||^2
        for e, mat in zip(family.entries * 2, mats * 2):
            dense = reference_linalg.idempotency_residual(mat)
            slack = (2.0 * e.norm + 1.0) * e.tail + 8 * 8 * numerics.EPS * e.norm**2
            assert abs(e.idempotency_residual - dense) <= slack
            assert e.idempotency_residual <= 1e-10
        assert shapes[2:] == [(2, 2)] * 4

    def test_one_svd_per_projection_gives_the_range_frame(self, count_calls):
        # opnorm's singular-value-only SVDs are counted apart from the frames
        svds = count_calls(np.linalg, "svd")
        mats = [m for _, m in skew_projections(3, 7, 4)]
        family = projections.make_family(skew_projections(3, 7, 4))
        uv_flags = [kw.get("compute_uv", True) for _, kw in svds]
        assert uv_flags == [True] * 3
        # the idempotency residual's singular-value-only opnorm runs on first read
        assert all(e.idempotency_residual <= 1e-10 for e in family.entries)
        assert [kw.get("compute_uv", True) for _, kw in svds[3:]] == [False] * 3
        assert [e.rank for e in family.entries] == [3, 2, 2]
        for e, mat in zip(family.entries, mats):
            np.testing.assert_allclose(e.frame.conj().T @ e.frame, np.eye(e.rank), atol=1e-12)
            np.testing.assert_allclose(mat @ e.frame, e.frame, atol=1e-10)
            # the thin factors are within the tail of P, and the norm is sigma_1
            s = np.linalg.svd(mat, compute_uv=False)
            assert np.linalg.norm(mat - entry_matrix(e), 2) <= e.tail + 1e-13 * s[0]
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
        assert assert_cross_talk_brackets(family, [m for _, m in labelled]) > 0.1
        assert not family.cross_talk <= 1e-6

    def test_unbalanced_family_norms_no_padding(self, monkeypatch):
        # one rank-6 member beside six rank-1 members: the stacked blocks hold
        # the 12 x 12 GEMM entries once, not 7 * 6 blocks padded to 6 x 6
        rng = np.random.default_rng(4)
        v = np.eye(12) + 0.2 * rng.standard_normal((12, 12))
        vi = np.linalg.inv(v)
        groups = [list(range(6))] + [[k] for k in range(6, 12)]
        mats = [v[:, g] @ vi[g, :] for g in groups]
        family = projections.make_family([(str(k), m) for k, m in enumerate(mats)])
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        assert assert_cross_talk_brackets(family, mats) <= 1e-12
        assert sum(np.prod(s) for s in shapes) == 12 * 12

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cross_talk_brackets_exact_on_hamiltonian_family(self, seed):
        family = hamiltonian_gap_family(8, seed)
        assert [e.rank for e in family.entries] == [2] * 8
        assert assert_cross_talk_brackets(family) <= 1e-12
        assert family.cross_talk <= 1e-6

    def test_tail_enters_the_pad(self):
        # diag(0, 0.4) has rank 0 and tail 0.4; P_a P_b = 0 exactly, but the
        # pad ||P_a|| tail_b = 0.4 is the cross talk
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 0.4])]
        family = projections.make_family(zip("ab", mats))
        assert [(e.rank, e.norm, e.tail) for e in family.entries] == [(1, 1.0, 0.0),
                                                                      (0, 0.4, 0.4)]
        assert max_cross_product_norm(mats) == 0.0
        assert family.cross_talk == 0.4
        assert not family.cross_talk <= 1e-6

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
            p_quad, _ = lu_reference(t, contours.gap_contour(xl, xr, **HAMILTONIAN_REGION))
            p = entry_matrix(e)
            assert np.linalg.norm(p - p_quad, 2) <= 1e-12 * np.linalg.norm(p, 2)

    @pytest.mark.parametrize("n", [8, 24])
    def test_commutator_residuals_from_the_factors(self, monkeypatch, n):
        # ||T P - P T|| from the n x 4 factors matches the dense commutator of
        # F S B* within the rounding of forming it, in one stacked opnorm
        t = shifted_hamiltonian(n, 0)
        family = projections.family_from_gaps(t, [4.0 * k + 2.0 for k in range(n + 1)],
                                              **HAMILTONIAN_REGION)
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        residuals = family.commutator_residuals(t)
        assert shapes == [(n, 4, 4)]
        dense = [opnorm(t @ p - p @ t) for p in map(entry_matrix, family.entries)]
        scale = np.linalg.norm(t, 2) * max(e.norm for e in family.entries)
        np.testing.assert_allclose(residuals, dense, rtol=0.0, atol=1e-14 * scale)
        assert max(residuals) <= 1e-11

    def test_commutator_residuals_of_mixed_ranks(self):
        # ranks 0, 1 and 2 of a non-normal T: the empty gap gives 0
        t = np.array([[1.0, 0.2, 0.1, 0.0], [0.0, 5.0, 0.2, 0.1],
                      [0.0, 0.0, 5.5, 0.2], [0.0, 0.0, 0.0, 9.0]])
        family = projections.family_from_gaps(t, [0.5, 3.0, 7.0, 8.0, 10.0], 1.0, 0.0)
        assert [e.rank for e in family.entries] == [1, 2, 0, 1]
        dense = [numerics.opnorm(t @ p - p @ t) for p in map(entry_matrix, family.entries)]
        np.testing.assert_allclose(family.commutator_residuals(t), dense, rtol=0.0, atol=1e-13)
        assert family.commutator_residuals(t)[2] == 0.0
        assert projections.make_family([]).commutator_residuals(t).shape == (0,)

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
            p_quad, _ = lu_reference(t, contours.gap_contour(xl, xr, 1.0, 0.5))
            assert e.rank == 1
            p = entry_matrix(e)
            assert np.linalg.norm(p - p_quad, 2) <= 1e-10 * np.linalg.norm(p, 2)

    def test_empty_gap_and_whole_spectrum(self, count_calls):
        lapack = [count_calls(scipy.linalg.lapack, name) for name in ("ztrsen", "ztrsyl")]
        t = np.array([[1.0, 0.2, 0.0], [0.0, 5.0, 0.2], [0.0, 0.0, 9.0]])
        (empty,) = projections.family_from_gaps(t, [10.0, 12.0], 20.0, 0.0).entries
        (whole,) = projections.family_from_gaps(t, [0.5, 10.0], 20.0, 0.0).entries
        assert lapack == [[], []]
        assert empty.gate_margin > 0.5 and whole.gate_margin > 0.1
        assert (empty.rank, empty.norm, empty.tail) == (0, 0.0, 0.0)
        assert not np.any(entry_matrix(empty))
        assert whole.rank == 3
        np.testing.assert_allclose(entry_matrix(whole), np.eye(3), atol=1e-14)

    def test_factored_entries(self, count_calls):
        svds = count_calls(np.linalg, "svd")
        reorders = count_calls(scipy.linalg.lapack, "ztrsen")
        t, cuts = shifted_hamiltonian(8, 1), [4.0 * k + 2.0 for k in range(9)]
        family = projections.family_from_gaps(t, cuts, **HAMILTONIAN_REGION)
        # one reordering and one thin SVD of Y_k per gap, and one
        # singular-value SVD of N for the gate
        assert len(reorders) == 8
        assert sorted(a[0].shape for a, _ in svds) == [(2, 16)] * 8 + [(16, 16)]
        # against the dense U Y that riesz_projection gives for the same contour
        for e, xl, xr in zip(family.entries, cuts, cuts[1:]):
            p = projections.riesz_projection(t, contours.gap_contour(xl, xr, **HAMILTONIAN_REGION))
            np.testing.assert_allclose(e.frame.conj().T @ e.frame, np.eye(2), atol=1e-13)
            np.testing.assert_allclose(p @ e.frame, e.frame, atol=1e-13)
            s = np.linalg.svd(p, compute_uv=False)
            np.testing.assert_allclose(e.norm, s[0], rtol=1e-13)
            assert np.linalg.norm(p - entry_matrix(e), 2) <= 1e-13 * s[0]
            assert e.tail == 0.0
        assert assert_cross_talk_brackets(family) <= 1e-12

    def test_sum_and_idempotency_residuals_from_the_factors(self):
        # both residuals of the factors agree with the dense residuals of the
        # U Y that riesz_projection gives, within the rounding of forming
        # either side, taken as 8 n eps ||P||^2 per member
        t, cuts = shifted_hamiltonian(8, 1), [4.0 * k + 2.0 for k in range(9)]
        family = projections.family_from_gaps(t, cuts, **HAMILTONIAN_REGION)
        dense = [projections.riesz_projection(t, contours.gap_contour(xl, xr, **HAMILTONIAN_REGION))
                 for xl, xr in zip(cuts, cuts[1:])]
        scale = 8 * 16 * numerics.EPS * max(e.norm for e in family.entries) ** 2
        for e, p in zip(family.entries, dense):
            assert abs(e.idempotency_residual - reference_linalg.idempotency_residual(p)) <= scale
        residual = reference_linalg.sum_residual(dense)
        assert abs(family.sum_residual - residual) <= len(dense) * scale
        assert family.sum_residual <= 1e-12

    @pytest.mark.parametrize("build", ["gaps", "make_family", "empty-gap"])
    def test_entries_hold_no_n_by_n_array(self, build):
        # no array of an entry is wider than its rank: the frame, the coframe
        # and the singular values only
        family = {
            "gaps": lambda: projections.family_from_gaps(
                shifted_hamiltonian(8, 1), [4.0 * k + 2.0 for k in range(9)], **HAMILTONIAN_REGION),
            "make_family": lambda: projections.make_family(skew_projections(3, 7, 4)),
            "empty-gap": lambda: projections.family_from_gaps(
                np.array([[1.0, 0.2, 0.1, 0.0], [0.0, 5.0, 0.2, 0.1],
                          [0.0, 0.0, 5.5, 0.2], [0.0, 0.0, 0.0, 9.0]]),
                [0.5, 3.0, 7.0, 8.0, 10.0], 1.0, 0.0),
        }[build]()
        for e in family.entries:
            arrays = [a for a in vars(e).values() if isinstance(a, np.ndarray)]
            assert len(arrays) == 3
            assert all(a.shape[-1] == e.rank for a in arrays)

    def test_family_memory_is_not_one_matrix_per_member(self):
        # dimension 128 and 64 members: a dense n x n matrix per member would
        # be 64 arrays (16.8 MB); the peak holds T, the Schur form, the copies
        # that ztrsen reorders and the temporaries of the Schur residual,
        # about 9 n x n arrays, and the thin factors
        t = shifted_hamiltonian(64, 0)
        cuts = [4.0 * k + 2.0 for k in range(65)]
        tracemalloc.start()
        try:
            family = projections.family_from_gaps(t, cuts, **HAMILTONIAN_REGION)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(family.entries) == 64
        assert peak < 16 * t.nbytes


class TestSumBound:
    @staticmethod
    def ends(family):
        """``projection_sum_bound`` from the family's own sign-pattern search."""
        search = rieszbasis.sign_pattern_constant(family, report=True)
        return projections.projection_sum_bound(family, search.constant, search.upper)

    def test_orthogonal_family_is_one(self):
        mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        c_hat, c_upper = self.ends(projections.make_family(
            [(str(k), m) for k, m in enumerate(mats)]))
        assert c_hat <= c_upper
        np.testing.assert_allclose([c_hat, c_upper], 1.0, rtol=1e-12)

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
        c_hat, c_upper = self.ends(family)
        assert 1.0 < c_hat <= c_upper

    def test_empty_family(self):
        family = projections.make_family([])
        assert projections.projection_sum_bound(family, 0.0, None) == (0.0, 0.0)

    def test_upper_from_the_family_svds(self, count_calls):
        # without the search's upper end, c_upper is sum_k sigma_1(P_k), read
        # from the entries with no SVD; the smaller end wins
        family = hamiltonian_gap_family(8, 0)
        svds = count_calls(np.linalg, "svd")
        c_hat, c_upper = projections.projection_sum_bound(family, 0.0, None)
        assert svds == []
        expect = sum(np.linalg.svd(entry_matrix(e), compute_uv=False)[0]
                     for e in family.entries)
        np.testing.assert_allclose(c_upper, expect, rtol=1e-13)
        assert c_hat == max(e.norm for e in family.entries)
        assert projections.projection_sum_bound(family, 0.0, 1.5) == (c_hat, 1.5)
