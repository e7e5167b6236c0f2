"""Tests for ray-localized normal operators and perturbation builders."""

import numpy as np
import pytest

from specloc import cli, numerics, operators
from specloc.errors import DimensionError, InputError


def two_ray_spec():
    return operators.RaySpectrumSpec(rays=(
        operators.Ray(theta=0.0, radii=(1.0, 4.0)),
        operators.Ray(theta=np.pi / 2, radii=(2.0,)),
    ))


class TestBuildNormal:
    def test_diagonal_entries(self):
        g = operators.build_normal(two_ray_spec())
        np.testing.assert_allclose(np.diag(g), [1.0, 4.0, 2.0j], atol=1e-15)
        assert numerics.opnorm(g - np.diag(np.diag(g))) == 0.0

    def test_is_normal(self):
        g = operators.build_normal(two_ray_spec())
        comm = g @ g.conj().T - g.conj().T @ g
        assert numerics.opnorm(comm) <= 1e-14

    def test_eigenvalue_multiset(self):
        spec = operators.RaySpectrumSpec(rays=(
            operators.Ray(theta=np.pi, radii=(3.0, 3.0, 1.0)),))
        g = operators.build_normal(spec)
        got = sorted(np.diag(g), key=lambda z: (z.real, z.imag))
        want = sorted([-3.0 + 0j, -3.0 + 0j, -1.0 + 0j], key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_dimension_cap(self):
        spec = operators.RaySpectrumSpec(rays=(
            operators.Ray(theta=0.0, radii=tuple(float(k) for k in range(1, 514))),))
        with pytest.raises(DimensionError):
            operators.build_normal(spec)

    def test_rejects_duplicate_ray_angles(self):
        with pytest.raises(InputError):
            operators.RaySpectrumSpec(rays=(
                operators.Ray(theta=0.0, radii=(1.0,)),
                operators.Ray(theta=2 * np.pi, radii=(2.0,)),
            ))

    def test_rejects_negative_radius(self):
        with pytest.raises(InputError):
            operators.Ray(theta=0.0, radii=(-1.0,))


class TestBuildPerturbation:
    def test_dense_passthrough(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        s = cli.perturbation_from_json({"S": {"kind": "dense", "entries": m.tolist()}}, 2)
        np.testing.assert_array_equal(s, m.astype(complex))

    def test_dense_pairs_bit_exact(self):
        m = numerics.gaussian(np.random.default_rng(3), (3, 3)) * 1e-3
        pairs = [[[z.real, z.imag] for z in row] for row in m.tolist()]
        s = cli.perturbation_from_json({"S": {"kind": "dense", "entries": pairs}}, 3)
        np.testing.assert_array_equal(s, m)
        assert s.flags.c_contiguous

    @pytest.mark.parametrize("entries", [
        [[1.0, [0.0, 1.0]], [0.0, 1.0]], [[1.0, None], [0.0, 1.0]], [[1.0, "2"], [0.0, 1.0]],
        [[[1.0, 0.0, 0.0]]], [1.0, 2.0], [[[1.0, 0.0]], [1.0]],
    ], ids=["mixed", "null", "string", "triple", "vector", "ragged"])
    def test_dense_rejects_malformed_entries(self, entries):
        with pytest.raises(InputError, match=r"expected a number or \[re, im\] pair"):
            cli.perturbation_from_json({"S": {"kind": "dense", "entries": entries}}, 2)

    def test_gaussian_norm_matches_scale(self):
        s = operators.random_gaussian(16, seed=42, scale=0.37)
        np.testing.assert_allclose(numerics.opnorm(s), 0.37, atol=1e-10)

    def test_gaussian_deterministic(self):
        s1 = operators.random_gaussian(8, seed=9, scale=1.0)
        s2 = operators.random_gaussian(8, seed=9, scale=1.0)
        np.testing.assert_array_equal(s1, s2)

    def test_gaussian_zero_scale(self):
        s = operators.random_gaussian(4, seed=1, scale=0.0)
        assert not np.any(s)

    def test_banded_pattern(self):
        s = operators.banded(6, seed=3, scale=1.0, bandwidth=1)
        i, j = np.indices((6, 6))
        assert not np.any(s[np.abs(i - j) > 1])
        assert np.all(s[np.abs(i - j) <= 1] != 0.0)
        np.testing.assert_allclose(numerics.opnorm(s), 1.0, atol=1e-10)

    def test_offdiagonal_block_layout(self):
        b = np.array([[1.0]])
        c = np.array([[2.0]])
        s = operators.offdiagonal_block(b, c)
        np.testing.assert_array_equal(s, [[0.0, 1.0], [2.0, 0.0]])

    def test_dense_wrong_shape(self):
        with pytest.raises(DimensionError):
            cli.perturbation_from_json({"S": {"kind": "dense", "entries": np.eye(3).tolist()}}, 2)


class TestAssemble:
    def test_basic(self):
        spec = two_ray_spec()
        g = operators.build_normal(spec)
        s = 0.1 * np.ones((3, 3), dtype=complex)
        system = operators.assemble(g, s, 0.5, ray_spec=spec)
        np.testing.assert_array_equal(system.t, g + s)
        assert system.p == 0.5
        np.testing.assert_allclose(system.ray_spec.eigenvalues(), np.diag(g))

    def test_infers_ray_spec(self):
        g = np.diag([1.0, 2.0, 3.0j])
        system = operators.assemble(g, np.zeros((3, 3)), 0.0)
        thetas = sorted(system.ray_spec.thetas)
        np.testing.assert_allclose(thetas, [0.0, np.pi / 2], atol=1e-12)

    def test_inferred_rays_count_each_eigenvalue_once(self):
        # angles 6e-10 rad apart: one ray by angle, but the second and third
        # eigenvalues sit more than 1e-10 (relative) off it; each eigenvalue
        # must land on exactly one ray, so this is rejected, not double-counted
        g = np.diag([np.exp(0.5j), 2.0 * np.exp(1j * (0.5 + 6e-10)),
                     3.0 * np.exp(1j * (0.5 + 1.2e-9))])
        with pytest.raises(InputError):
            operators.assemble(g, np.zeros((3, 3)), 0.0)

    def test_rejects_p_out_of_range(self):
        g = np.diag([1.0, 2.0])
        for bad in (1.0, -0.1, 2.0):
            with pytest.raises(InputError):
                operators.assemble(g, np.zeros((2, 2)), bad)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DimensionError):
            operators.assemble(np.diag([1.0, 2.0]), np.zeros((3, 3)), 0.5)

    def test_accepts_normal_non_diagonal_g(self):
        # G = Q diag(1, 2, 3i) Q* with a real rotation Q in the first two coordinates
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        g = q @ np.diag([1.0, 2.0, 3.0j]) @ q.T
        system = operators.assemble(g, np.zeros((3, 3)), 0.5)
        np.testing.assert_allclose(sorted(system.ray_spec.thetas), [0.0, np.pi / 2], atol=1e-12)
        got = sorted(system.ray_spec.eigenvalues(), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, [3.0j, 1.0, 2.0], atol=1e-12)

    def test_diagonal_g_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("assemble took an SVD of a diagonal G")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        system = operators.assemble(np.diag([1.0, 2.0, 3.0j]), np.ones((3, 3)), 0.5)
        # 3i sits on the inferred ray pi/2, where e^{i pi/2} has a real part of 6e-17
        np.testing.assert_array_equal(system.ray_spec.eigenvalues(),
                                      [1.0, 2.0, 3.0 * np.exp(0.5j * np.pi)])

    def test_rejects_non_diagonal_g(self):
        g = np.array([[1.0, 0.5], [0.0, 2.0]])
        with pytest.raises(InputError):
            operators.assemble(g, np.zeros((2, 2)), 0.5)

    def test_rejects_mismatched_declared_spectrum(self):
        spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=(1.0, 2.0)),))
        g = np.diag([1.0, 3.0])
        with pytest.raises(InputError):
            operators.assemble(g, np.zeros((2, 2)), 0.5, ray_spec=spec)
