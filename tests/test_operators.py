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
    """The normal G of a ray spectrum: its eigenvalues, in declaration order."""

    def test_diagonal_entries(self):
        g = two_ray_spec().eigenvalues()
        assert g.shape == (3,)
        np.testing.assert_allclose(g, [1.0, 4.0, 2.0j], atol=1e-15)

    def test_is_normal(self):
        spec = two_ray_spec()
        system = operators.assemble(spec.eigenvalues(), np.zeros((3, 3)), 0.5, spec)
        comm = system.t @ system.t.conj().T - system.t.conj().T @ system.t
        assert numerics.opnorm(comm) <= 1e-14

    def test_eigenvalue_multiset(self):
        spec = operators.RaySpectrumSpec(rays=(
            operators.Ray(theta=np.pi, radii=(3.0, 3.0, 1.0)),))
        got = sorted(spec.eigenvalues(), key=lambda z: (z.real, z.imag))
        want = sorted([-3.0 + 0j, -3.0 + 0j, -1.0 + 0j], key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_dimension_cap(self):
        spec = operators.RaySpectrumSpec(rays=(
            operators.Ray(theta=0.0, radii=tuple(float(k) for k in range(1, 514))),))
        with pytest.raises(DimensionError):
            operators.assemble(spec.eigenvalues(), np.zeros((513, 513)), 0.5, spec)

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
        g = spec.eigenvalues()
        s = 0.1 * np.ones((3, 3), dtype=complex)
        system = operators.assemble(g, s, 0.5, ray_spec=spec)
        np.testing.assert_array_equal(system.g, g)
        np.testing.assert_array_equal(system.t, np.diag(g) + s)
        assert system.p == 0.5
        np.testing.assert_allclose(system.ray_spec.eigenvalues(), system.g)

    def test_rejects_p_out_of_range(self):
        spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=(1.0, 2.0)),))
        for bad in (1.0, -0.1, 2.0):
            with pytest.raises(InputError):
                operators.assemble([1.0, 2.0], np.zeros((2, 2)), bad, spec)

    def test_rejects_dim_mismatch(self):
        spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=(1.0, 2.0)),))
        with pytest.raises(DimensionError):
            operators.assemble([1.0, 2.0], np.zeros((3, 3)), 0.5, spec)

    def test_diagonal_g_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("assemble took an SVD of a diagonal G")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        spec = two_ray_spec()
        system = operators.assemble([1.0, 4.0, 2.0j], np.ones((3, 3)), 0.5, spec)
        assert system.ray_spec is spec

    @pytest.mark.parametrize("g, match", [
        (np.diag([1.0, 4.0, 2.0j]), "diagonal"),
        ([1.0, 4.0], "eigenvalues"),
        ([1.0, 4.0, 2.0j, 0.0], "eigenvalues"),
        ([1.0, np.nan, 2.0j], "non-finite"),
        ([1.0, np.inf, 2.0j], "non-finite"),
    ], ids=["matrix", "short", "long", "nan", "inf"])
    def test_rejects_malformed_g(self, g, match):
        # G enters as the vector of its n eigenvalues, finite
        with pytest.raises(InputError, match=match):
            operators.assemble(g, np.zeros((3, 3)), 0.5, two_ray_spec())

    def test_rejects_mismatched_declared_spectrum(self):
        spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=(1.0, 2.0)),))
        g = [1.0, 3.0]
        with pytest.raises(InputError):
            operators.assemble(g, np.zeros((2, 2)), 0.5, ray_spec=spec)

    def test_rejects_zero_dimension(self):
        # an empty ray spectrum with an empty G and S is refused before the
        # multiset check, whose maximum has nothing to reduce
        spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=()),))
        with pytest.raises(InputError, match="dimension zero"):
            operators.assemble(np.zeros(0), np.zeros((0, 0)), 0.5, spec)
