"""Tests for block operator assembly and the Hamiltonian special case."""

import cmath
import types

import numpy as np
import pytest
import scipy.linalg

from specloc import blockop, numerics, operators, subordination
from specloc.errors import DimensionError, InputError


def rays(*pairs):
    """The ray spectrum of (theta, radii) pairs."""
    return operators.RaySpectrumSpec(tuple(operators.Ray(theta, radii) for theta, radii in pairs))


def block_system(a, b, c, d, p, spec):
    """T = [[A, B], [C, D]] with A and D diagonal (given by their diagonals),
    assembled as G + S with G = diag(A, D) on the declared rays."""
    return operators.assemble(np.concatenate([a, d]), operators.offdiagonal_block(b, c), p, spec)


class TestAssembleBlock:
    """Block systems [[A, B], [C, D]] through ``operators.assemble``."""

    def test_spectrum_union_without_coupling(self):
        system = block_system([1.0, 2.0], np.zeros((2, 1)), np.zeros((1, 2)), [3.0j], 0.0,
                              rays((0.0, (1.0, 2.0)), (np.pi / 2, (3.0,))))
        values = sorted(np.linalg.eigvals(system.t), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(values, [3.0j, 1.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(sorted(system.ray_spec.thetas), [0.0, np.pi / 2], atol=1e-12)

    def test_off_diagonal_layout(self):
        system = block_system([1.0], [[5.0]], [[7.0]], [2.0], 0.0, rays((0.0, (1.0, 2.0))))
        np.testing.assert_array_equal(system.s, [[0.0, 5.0], [7.0, 0.0]])
        np.testing.assert_array_equal(system.g, [1.0, 2.0])
        assert system.g.ndim == 1

    def test_p_zero_bound_is_max_of_block_norms(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        system = block_system([1.0, 2.0, 3.0], b, c, [4.0, 5.0, 6.0], 0.0,
                              rays((0.0, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))))
        res = subordination.subordination_bound(system.s, system.g, 0.0)
        np.testing.assert_allclose(res.bound, max(numerics.opnorm(b), numerics.opnorm(c)),
                                   rtol=1e-12)

    def test_rejects_non_normal_diagonal_block(self):
        g = np.zeros((4, 4))
        g[:2, :2] = [[1.0, 1.0], [0.0, 2.0]]
        g[2:, 2:] = np.eye(2)
        with pytest.raises(InputError, match="diagonal"):
            operators.assemble(g, np.zeros((4, 4)), 0.0, rays((0.0, (1.0, 2.0, 1.0, 1.0))))

    def test_rejects_block_shape_mismatch(self):
        with pytest.raises(DimensionError):
            block_system([1.0, 1.0], np.zeros((2, 2)), np.zeros((2, 2)), [1.0, 1.0, 1.0], 0.0,
                         rays((0.0, (1.0,) * 5)))

    def test_rejects_off_ray_eigenvalue(self):
        with pytest.raises(InputError):
            block_system([10.0, 10.0 * cmath.exp(1e-9j)], np.zeros((2, 1)), np.zeros((1, 2)),
                         [1.0], 0.0, rays((0.0, (10.0, 10.0, 1.0))))


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

    def test_mixed_sign_r_seq(self):
        # G = diag(A, A) with A = i diag(r), given by its diagonal i (r, r); T
        # bit for bit the dense block-diagonal assembly G + S; r < 0 sits on
        # the ray 3 pi/2, r >= 0 on pi/2
        r = (-12.0, -8.0, -4.0, 0.0, 4.0, 8.0)
        model = blockop.HamiltonianModel(r_seq=r, b_mat=np.eye(6), c_mat=np.eye(6),
                                         gamma=1.0, l=1.5)
        system = blockop.build_hamiltonian(model)
        assert system.g.tobytes() == (1j * np.asarray(r + r)).tobytes()
        a = 1j * np.diag(np.asarray(r)).astype(complex)
        s = operators.offdiagonal_block(np.eye(6), np.eye(6))
        np.testing.assert_array_equal(system.s, s)
        assert system.t.tobytes() == (scipy.linalg.block_diag(a, a) + s).tobytes()
        spec = system.ray_spec
        assert [(ray.theta, ray.radii) for ray in spec.rays] == [
            (np.pi / 2, (0.0, 4.0, 8.0) * 2), (1.5 * np.pi, (12.0, 8.0, 4.0) * 2)]
        # each eigenvalue of G once: the declared multiset is the diagonal's
        np.testing.assert_allclose(np.sort_complex(spec.eigenvalues()),
                                   np.sort_complex(system.g), atol=1e-14)
        assert blockop.verify_hamiltonian(system, model).clean

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
        r = model.r_seq * 2
        bad = block_system(1j * np.array(model.r_seq), 0.5 * np.eye(4), 0.5 * np.eye(4),
                           1j * np.array(model.r_seq), 0.0, rays((np.pi / 2, r)))
        report = blockop.verify_hamiltonian(bad, model)
        assert report.real_part_floor_violations
        assert not report.clean
        assert not report.pairing_defects  # symmetry itself still holds

    def test_disc_violation_detected(self):
        model = self.model()
        # an operator whose spectrum sits far from every disc center
        rogue = block_system([100.0] * 4, np.zeros((4, 4)), np.zeros((4, 4)), [100.0] * 4, 0.0,
                             rays((0.0, (100.0,) * 8)))
        report = blockop.verify_hamiltonian(rogue, model)
        assert report.disc_violations
        assert not report.clean

    def test_clustered_mirror_is_a_perfect_pairing(self):
        # -1 + 10i pairs with 1.2 + 10i or 0.8 + 10i, and -1.6 + 10i only with
        # 1.2 + 10i (tol * scale is about 0.5): a nearest-neighbour pass gives
        # -1 the first of the two at distance 0.2, 1.2, and leaves 0.8 and -1.6
        # without partners
        system = types.SimpleNamespace(t=np.diag(np.array([-1.0, 1.2, 0.8, -1.6]) + 10j))
        report = blockop.verify_hamiltonian(system, self.model(n=2), tol=0.05)
        assert report.pairing_defects == ()

    def test_pairing_defects_are_the_unmatched_eigenvalues_in_order(self):
        # 3 + 8i and -3 + 8i mirror each other; 5i sits on the imaginary axis
        # and is its own mirror; 2 + 4i, 1 + 12i and -7 + 16i have no mirror
        values = np.array([2.0 + 4j, 3.0 + 8j, 5j, 1.0 + 12j, -3.0 + 8j, -7.0 + 16j])
        report = blockop.verify_hamiltonian(types.SimpleNamespace(t=np.diag(values)),
                                            self.model(n=3))
        order = numerics.eig(np.diag(values)).values
        expect = [z for z in order if z in (2.0 + 4j, 1.0 + 12j, -7.0 + 16j)]
        assert report.pairing_defects == tuple(expect)
        assert len(expect) == 3

    def test_j1_residual_from_the_blocks(self):
        rng = np.random.default_rng(3)
        t = numerics.gaussian(rng, (6, 6))
        ident, zero = np.eye(3), np.zeros((3, 3))
        j1 = np.block([[zero, -1j * ident], [1j * ident, zero]])
        m = j1 @ t
        report = blockop.verify_hamiltonian(types.SimpleNamespace(t=t), self.model(n=3))
        expect = numerics.opnorm(m + m.conj().T)
        assert expect > 1.0  # T is not J1-skew
        np.testing.assert_allclose(report.j1_skew_residual, expect, rtol=1e-12)
