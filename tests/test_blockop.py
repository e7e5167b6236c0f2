"""Tests for block operator assembly and the Hamiltonian special case."""

import cmath
import types

import numpy as np
import pytest

from specloc import blockop, numerics, subordination
from specloc.errors import DimensionError, InputError


class TestAssembleBlock:
    def test_spectrum_union_without_coupling(self):
        a = np.diag([1.0, 2.0])
        d = np.diag([3.0j])
        system = blockop.assemble_block(a, np.zeros((2, 1)), np.zeros((1, 2)), d, 0.0)
        values = sorted(np.linalg.eigvals(system.t), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(values, [3.0j, 1.0, 2.0], atol=1e-12)
        thetas = sorted(system.ray_spec.thetas)
        np.testing.assert_allclose(thetas, [0.0, np.pi / 2], atol=1e-12)

    def test_off_diagonal_layout(self):
        a = np.diag([1.0])
        d = np.diag([2.0])
        b = np.array([[5.0]])
        c = np.array([[7.0]])
        system = blockop.assemble_block(a, b, c, d, 0.0)
        np.testing.assert_array_equal(system.s, [[0.0, 5.0], [7.0, 0.0]])
        np.testing.assert_array_equal(system.g, np.diag([1.0, 2.0]).astype(complex))

    def test_p_zero_bound_is_max_of_block_norms(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        system = blockop.assemble_block(np.diag([1.0, 2.0, 3.0]), b, c,
                                        np.diag([4.0, 5.0, 6.0]), 0.0)
        res = subordination.subordination_bound(system.s, system.g, 0.0)
        np.testing.assert_allclose(res.bound, max(numerics.opnorm(b), numerics.opnorm(c)),
                                   rtol=1e-12)

    def test_rejects_non_normal_diagonal_block(self):
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        with pytest.raises(InputError):
            blockop.assemble_block(a, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2), 0.0)

    def test_rejects_block_shape_mismatch(self):
        with pytest.raises(DimensionError):
            blockop.assemble_block(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)),
                                   np.eye(3), 0.0)

    def test_rejects_off_ray_eigenvalue(self):
        a = np.diag([10.0, 10.0 * cmath.exp(1e-9j)])
        with pytest.raises(InputError):
            blockop.assemble_block(a, np.zeros((2, 1)), np.zeros((1, 2)), np.diag([1.0]), 0.0)

    def test_normal_non_diagonal_block(self):
        # A = Q diag(1, 2) Q* for a unitary Q: normal, not diagonal
        q = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
        a = q @ np.diag([1.0, 2.0]) @ q.conj().T
        assert not numerics.is_diagonal(a)
        d = np.diag([3.0j])
        system = blockop.assemble_block(a, np.zeros((2, 1)), np.zeros((1, 2)), d, 0.0)
        np.testing.assert_allclose(sorted(system.ray_spec.thetas), [0.0, np.pi / 2], atol=1e-12)
        got = sorted(system.ray_spec.eigenvalues(), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, [3.0j, 1.0, 2.0], atol=1e-12)

    def test_normality_is_checked_per_block(self):
        # diag(A, D) passes the commutator test at the scale of ||D|| = 100,
        # but A alone is not normal at its own scale
        a = np.array([[1.0, 1e-4], [0.0, 1.0]])
        d = 100.0 * np.eye(2)
        with pytest.raises(InputError):
            blockop.assemble_block(a, np.zeros((2, 2)), np.zeros((2, 2)), d, 0.0)

    def test_rejects_wrong_block_split(self):
        # total size 3 either way, but B must be 1x2 for A 1x1 and D 2x2
        with pytest.raises(DimensionError):
            blockop.assemble_block(np.eye(1), np.zeros((2, 1)), np.zeros((1, 2)),
                                   np.eye(2), 0.0)


class TestHamiltonianModel:
    def model(self, **kw):
        args = dict(r_seq=(4.0, 8.0, 12.0), b_mat=np.eye(3), c_mat=np.eye(3),
                    gamma=1.0, l=1.5)
        args.update(kw)
        return blockop.HamiltonianModel(**args)

    def test_valid(self):
        model = self.model()
        assert model.n == 3
        np.testing.assert_allclose(model.subordination_norm, 1.0)

    def test_rejects_non_selfadjoint(self):
        b = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            self.model(r_seq=(4.0, 8.0), b_mat=b, c_mat=np.eye(2))

    def test_rejects_eigenvalue_below_gamma(self):
        with pytest.raises(InputError):
            self.model(gamma=2.0)

    def test_rejects_l_below_norm(self):
        with pytest.raises(InputError):
            self.model(l=0.9)

    def test_gap_offenders_listed(self):
        with pytest.raises(InputError) as info:
            self.model(r_seq=(4.0, 10.0, 12.0), l=2.5,
                       b_mat=2.0 * np.eye(3), c_mat=2.0 * np.eye(3), gamma=2.0)
        assert "[1]" in str(info.value)

    def test_rejects_decreasing_r_seq(self):
        with pytest.raises(InputError):
            self.model(r_seq=(8.0, 4.0), b_mat=np.eye(2), c_mat=np.eye(2))


class TestFundamentalSymmetries:
    def test_shapes_and_involutions(self):
        j1, j2 = blockop.fundamental_symmetries(2)
        for j in (j1, j2):
            np.testing.assert_allclose(j @ j, np.eye(4), atol=1e-15)
            np.testing.assert_allclose(j, j.conj().T, atol=1e-15)


class TestHamiltonianSpectrum:
    def model(self, n=4):
        r = tuple(4.0 * k for k in range(1, n + 1))
        return blockop.HamiltonianModel(r_seq=r, b_mat=np.eye(n), c_mat=np.eye(n),
                                        gamma=1.0, l=1.5)

    def test_identity_coupling_closed_form(self):
        model = self.model()
        system = blockop.build_hamiltonian(model)
        assert model.subordination_norm == 1.0
        values = np.linalg.eigvals(system.t)
        expect = np.array([r * 1j + s for r in model.r_seq for s in (1.0, -1.0)])
        got = sorted(values, key=lambda z: (round(z.imag, 6), z.real))
        want = sorted(expect, key=lambda z: (round(z.imag, 6), z.real))
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_verify_clean(self):
        model = self.model()
        system = blockop.build_hamiltonian(model)
        report = blockop.verify_hamiltonian(system, model)
        assert report.clean
        assert report.j1_skew_residual <= 1e-12
        assert report.per_disc_counts == (2, 2, 2, 2)
        assert all(report.disc_simple)
        assert report.eigenvector_condition <= np.sqrt(2.0) + 1e-6

    @pytest.mark.parametrize("diagonal, expect", [
        (None, (True, False, True, True)),
        # 4i + 2.1 is outside the first disc but close to its member 4i + 1.5
        ([4j + 1.5, 4j + 2.1, 8j, 12j + 0.5, 12j - 0.5, 16j + 0.2, 16j - 0.2, 8j + 0.01],
         (True, False, True, False)),
    ], ids=["hamiltonian", "diagonal"])
    def test_disc_simple_matches_the_pairwise_loop(self, diagonal, expect):
        # B = C = diag(c): eigenvalues i r_k +- c_k, a pair 2 c_k apart in disc k;
        # tol * scale is about 0.8, so only pairs closer than that are not simple
        c = np.diag([1.0, 0.3, 1.0, 0.5])
        model = blockop.HamiltonianModel(r_seq=(4.0, 8.0, 12.0, 16.0), b_mat=c, c_mat=c,
                                         gamma=0.3, l=1.5)
        system = (blockop.build_hamiltonian(model) if diagonal is None
                  else types.SimpleNamespace(t=np.diag(diagonal)))
        tol = 0.05
        report = blockop.verify_hamiltonian(system, model, tol=tol)
        values = numerics.eig(system.t).values
        scale = max(float(np.max(np.abs(values))), 1.0)
        simple = []
        for center in 1j * np.asarray(model.r_seq):
            members = values[np.abs(values - center) <= model.subordination_norm + tol * scale]
            simple.append(all(abs(members[i] - members[j]) > tol * scale
                              for i in range(len(members)) for j in range(i + 1, len(members))))
        assert report.disc_simple == tuple(simple) == expect

    def test_floor_violation_detected(self):
        model = self.model()
        # weaken the coupling after the fact: eigenvalues move to i r_k +- 1/2,
        # below the declared floor gamma = 1
        bad = blockop.assemble_block(1j * np.diag(model.r_seq), 0.5 * np.eye(4),
                                     0.5 * np.eye(4), 1j * np.diag(model.r_seq), 0.0)
        report = blockop.verify_hamiltonian(bad, model)
        assert report.real_part_floor_violations
        assert not report.clean
        assert not report.pairing_defects  # symmetry itself still holds

    def test_disc_violation_detected(self):
        model = self.model()
        # an operator whose spectrum sits far from every disc center
        rogue = blockop.assemble_block(np.diag([100.0 + 0.0j] * 4), np.zeros((4, 4)),
                                       np.zeros((4, 4)), np.diag([100.0 + 0.0j] * 4), 0.0)
        report = blockop.verify_hamiltonian(rogue, model)
        assert report.disc_violations
        assert not report.clean
