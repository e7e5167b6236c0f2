"""Tests for Riesz basis constants, joins and sign-pattern norms."""

import itertools
import math
import os
import threading

import numpy as np
import pytest

from specloc import numerics, projections, rieszbasis
from specloc.errors import InputError


def coordinate_family(splits, n):
    frames = []
    start = 0
    for width in splits:
        f = np.zeros((n, width), dtype=complex)
        f[start:start + width] = np.eye(width)
        frames.append(f)
        start += width
    return rieszbasis.SubspaceFamily(frames=tuple(frames))


def skew_projection_pair(t):
    p1 = np.array([[1.0, t], [0.0, 0.0]], dtype=complex)
    p2 = np.array([[0.0, -t], [0.0, 1.0]], dtype=complex)
    return projections.make_family([("p1", p1), ("p2", p2)])


def skew_family(k, n, seed):
    """k disjoint skew projections of C^n onto spans of eigenvector blocks."""
    rng = np.random.default_rng(seed)
    v = np.eye(n, dtype=complex) + 0.4 * (rng.standard_normal((n, n))
                                          + 1j * rng.standard_normal((n, n)))
    vi = np.linalg.inv(v)
    return projections.make_family([(str(j), v[:, j::k] @ vi[j::k, :]) for j in range(k)])


class TestRieszConstant:
    def test_orthogonal_family_is_one(self):
        report = rieszbasis.riesz_constant(coordinate_family((1, 2, 1), 4))
        np.testing.assert_allclose(report.constant, 1.0, rtol=1e-12)
        assert report.complete

    def test_two_lines_at_sixty_degrees(self):
        phi = math.pi / 3
        family = rieszbasis.SubspaceFamily(frames=(
            np.array([[1.0], [0.0]], dtype=complex),
            np.array([[math.cos(phi)], [math.sin(phi)]], dtype=complex),
        ))
        report = rieszbasis.riesz_constant(family)
        np.testing.assert_allclose(report.constant, 2.0, atol=1e-10)
        assert report.complete

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        base = coordinate_family((2, 2), 5)
        tilted = rieszbasis.SubspaceFamily(frames=tuple(q @ f for f in base.frames))
        c0 = rieszbasis.riesz_constant(base).constant
        c1 = rieszbasis.riesz_constant(tilted).constant
        np.testing.assert_allclose(c0, c1, atol=1e-10)

    def test_repeated_line_is_unbounded(self):
        f = np.array([[1.0], [0.0]], dtype=complex)
        family = rieszbasis.SubspaceFamily(frames=(f, f.copy()))
        assert rieszbasis.riesz_constant(family).constant == math.inf

    def test_two_sided_inequality_sampled(self):
        rng = np.random.default_rng(7)
        frames = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
            frames.append(q)
        family = rieszbasis.SubspaceFamily(frames=tuple(frames))
        c = rieszbasis.riesz_constant(family).constant
        w = family.stacked
        a = rng.standard_normal((6, 4000)) + 1j * rng.standard_normal((6, 4000))
        sum_sq = np.linalg.norm(a, axis=0) ** 2  # = sum_k ||x_k||^2 (orthonormal frames)
        mid = np.linalg.norm(w @ a, axis=0) ** 2
        assert np.all(mid <= c * sum_sq * (1.0 + 1e-10))
        assert np.all(mid >= sum_sq / c * (1.0 - 1e-10))

    def test_mild_family_sampled_within_one_percent(self):
        # gently tilted lines: the sampled Rayleigh-quotient extremes of the
        # stacked frame certify the reported constant to 1%
        rng = np.random.default_rng(9)
        frames = []
        for k in range(4):
            v = np.zeros((4, 1), dtype=complex)
            v[k, 0] = 1.0
            v += 0.03 * (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
            frames.append(v / np.linalg.norm(v))
        family = rieszbasis.SubspaceFamily(frames=tuple(frames))
        report = rieszbasis.riesz_constant(family)
        w = family.stacked
        a = rng.standard_normal((4, 100_000)) + 1j * rng.standard_normal((4, 100_000))
        quot = (np.linalg.norm(w @ a, axis=0) / np.linalg.norm(a, axis=0)) ** 2
        c_mc = max(quot.max(), 1.0 / quot.min())
        assert c_mc <= report.constant * (1.0 + 1e-12)
        assert c_mc >= report.constant * 0.99

    def test_validation(self):
        with pytest.raises(InputError):
            rieszbasis.SubspaceFamily(frames=())
        with pytest.raises(InputError):
            rieszbasis.SubspaceFamily(frames=(np.array([[2.0], [0.0]]),))  # not unit
        with pytest.raises(InputError):
            rieszbasis.SubspaceFamily(frames=(np.eye(2), np.eye(2)))  # 4 > 2


class TestJoin:
    def test_join_of_coordinate_splits(self):
        outer = coordinate_family((2, 2), 4)
        inner = coordinate_family((1, 1), 2)
        joined = rieszbasis.join_families(outer, [inner, inner])
        assert len(joined.frames) == 4
        np.testing.assert_allclose(rieszbasis.riesz_constant(joined).constant, 1.0, rtol=1e-12)

    def test_join_constant_bound_holds(self):
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        outer = rieszbasis.SubspaceFamily(frames=(q[:, :3], q[:, 3:]))

        def tilted_pair(seed):
            r = np.random.default_rng(seed)
            f = []
            for k in range(3):
                v = np.zeros((3, 1), dtype=complex)
                v[k, 0] = 1.0
                v += 0.3 * (r.standard_normal((3, 1)) + 1j * r.standard_normal((3, 1)))
                f.append(v / np.linalg.norm(v))
            return rieszbasis.SubspaceFamily(frames=tuple(f))

        check = rieszbasis.join_constant_check(outer, [tilted_pair(1), tilted_pair(2)])
        assert check.holds
        assert check.combined_constant <= check.bound * (1.0 + 1e-8)

    def test_join_dimension_mismatch(self):
        outer = coordinate_family((2, 2), 4)
        inner_bad = coordinate_family((1, 1, 1), 3)
        with pytest.raises(InputError):
            rieszbasis.join_families(outer, [inner_bad, inner_bad])
        with pytest.raises(InputError):
            rieszbasis.join_families(outer, [coordinate_family((1, 1), 2)])


class TestSignPatterns:
    def test_orthogonal_projections_give_one(self):
        mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        family = projections.make_family([(str(k), m) for k, m in enumerate(mats)])
        np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), 1.0, rtol=1e-12)

    def test_skew_pair_matches_brute_force(self):
        family = skew_projection_pair(0.7)
        mats = family.matrices
        expect = max(numerics.opnorm(e1 * mats[0] + e2 * mats[1])
                     for e1, e2 in itertools.product((1.0, -1.0), repeat=2))
        np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), expect, rtol=1e-12)
        assert rieszbasis.sign_pattern_constant(family) > 1.0
        # five members: the search fixes eps_0 = +1, and ||-A|| == ||A|| bit for bit
        family = skew_family(5, 7, 15)
        mats = family.matrices
        expect = max(numerics.opnorm(sum(e * m for e, m in zip(eps, mats)))
                     for eps in itertools.product((1.0, -1.0), repeat=5))
        assert rieszbasis.sign_pattern_constant(family) == expect

    def test_exhaustive_search_opnorms(self, monkeypatch):
        family = skew_family(5, 7, 15)
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        rieszbasis.sign_pattern_constant(family)
        # the cross talk norms the 5 x 5 blocks in one stack per pair of ranks
        # (ranks 2, 2, 1, 1, 1), then come the 2^4 pattern sums
        assert [e.rank for e in family.entries] == [2, 2, 1, 1, 1]
        assert sorted(shapes[:4]) == [(2, 2, 2, 2), (2, 3, 2, 1), (3, 2, 1, 2), (3, 3, 1, 1)]
        assert [s[1:] for s in shapes[4:]] == [(7, 7)] * (len(shapes) - 4)
        assert sum(s[0] for s in shapes[4:]) == 2**4

    @staticmethod
    def sampled_norms(family, seed):
        """Reference: the per-pattern loop, one draw of m signs per pattern."""
        mats = family.matrices
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
        return [numerics.opnorm(sum(e * p for e, p in zip(rng.choice((1.0, -1.0), size=len(mats)),
                                                          mats)))
                for _ in range(rieszbasis.SIGN_SAMPLES)]

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_sampled_search_matches_per_pattern_loop(self, seed):
        family = skew_family(14, 16, 3)
        assert len(family.entries) > rieszbasis.SIGN_EXHAUSTIVE_MAX
        expect = max(self.sampled_norms(family, seed))
        assert rieszbasis.sign_pattern_constant(family, seed=seed) == expect

    def test_maximum_in_last_partial_batch(self, monkeypatch):
        family = skew_family(14, 16, 3)
        norms = self.sampled_norms(family, 0)
        best = int(np.argmax(norms))
        count = len(norms)
        # a batch size that leaves a partial last batch holding the maximum
        step = next(c for c in range(2, count) if count % c and count - count % c <= best)
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", step * 16 * 16)
        sizes = [len(range(count)[b]) for b in numerics.batches(count, 16 * 16)]
        assert sizes[-1] < sizes[0] == step
        assert rieszbasis.sign_pattern_constant(family) == norms[best]

    def test_threaded_batches_match_per_pattern_loop(self, monkeypatch):
        family = skew_family(16, 16, 5)
        expect = max(self.sampled_norms(family, 0))
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", 8 * 16 * 16)
        threads = {}
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: threads.setdefault(
            np.shape(a)[-2:], set()).add(threading.get_ident()) or opnorm(a))
        assert rieszbasis.sign_pattern_constant(family) == expect
        # the disjointness check norms the rank-1 cross-talk blocks inline;
        # every pattern sum is normed on a worker
        assert threads.pop((1, 1)) == {threading.get_ident()}
        workers = threads.pop((16, 16))
        assert not threads and threading.get_ident() not in workers
        assert len(workers) > 1 or len(os.sched_getaffinity(0)) == 1

    def test_rejects_overlapping_projections(self):
        mats = [np.diag([1.0, 0.0]), np.diag([1.0, 0.0])]
        family = projections.make_family([("a", mats[0]), ("b", mats[1])])
        with pytest.raises(InputError):
            rieszbasis.sign_pattern_constant(family)

    @pytest.mark.parametrize("eps, disjoint", [(0.9e-6, True), (1.1e-6, False)])
    def test_inconclusive_frobenius_falls_back_to_exact(self, monkeypatch, eps, disjoint):
        # P_a P_b = [[0, eps I], [0, 0]] has ||.|| = eps but ||.||_F = eps sqrt(2)
        # > 1e-6, and P_b P_a = 0: the cross talk of the factors decides either
        # way, in one stacked norm of the 2 x 2 rank-2 blocks
        e = np.eye(2)
        family = projections.make_family([
            ("a", np.block([[e, 0 * e], [0 * e, 0 * e]])),
            ("b", np.block([[0 * e, eps * e], [0 * e, e]]))])
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        if disjoint:
            np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), 1.0, rtol=1e-5)
            assert shapes == [(2, 2, 2, 2), (2**1, 4, 4)]
        else:
            with pytest.raises(InputError, match="not pairwise disjoint"):
                rieszbasis.sign_pattern_constant(family)
            assert shapes == [(2, 2, 2, 2)]

    def test_rejects_a_tail_in_the_pad(self):
        # diag(0, 0.4) has no singular value above 1/2; its tail 0.4 pads the
        # cross talk although the product with diag(1, 0) is exactly 0
        family = projections.make_family([("a", np.diag([1.0, 0.0])),
                                          ("b", np.diag([0.0, 0.4]))])
        assert not np.any(family.matrices[0] @ family.matrices[1])
        assert not family.disjoint(1e-6)
        with pytest.raises(InputError, match="not pairwise disjoint"):
            rieszbasis.sign_pattern_constant(family)

    def test_accepts_overlap_below_tolerance(self):
        # P_a P_b = [[0, 1e-8], [0, 0]] and P_b P_a = 0: the cross talk 1e-8
        # is below the 1e-6 disjointness tolerance
        family = projections.make_family([("a", np.diag([1.0, 0.0])),
                                          ("b", np.array([[0.0, 1e-8], [0.0, 1.0]]))])
        np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), 1.0, rtol=1e-6)

    def test_sign_average_identity(self):
        # averaging || sum eps_k P_k x ||^2 over all sign patterns kills the
        # cross terms for disjoint projections: the mean is sum_k ||P_k x||^2
        rng = np.random.default_rng(14)
        v = np.eye(5, dtype=complex) + 0.4 * rng.standard_normal((5, 5))
        vi = np.linalg.inv(v)
        mats = []
        for k in range(4):
            ind = np.zeros(5)
            ind[k] = 1.0
            mats.append(v @ np.diag(ind) @ vi)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        acc = 0.0
        for eps in itertools.product((1.0, -1.0), repeat=4):
            acc += np.linalg.norm(sum(e * m for e, m in zip(eps, mats)) @ x) ** 2
        mean = acc / 16.0
        direct = sum(np.linalg.norm(m @ x) ** 2 for m in mats)
        np.testing.assert_allclose(mean, direct, rtol=1e-10)


class TestVerifyEstimate:
    def family(self):
        rng = np.random.default_rng(20)
        v = np.eye(6, dtype=complex) + 0.3 * (rng.standard_normal((6, 6))
                                              + 1j * rng.standard_normal((6, 6)))
        vi = np.linalg.inv(v)
        mats = []
        for k in range(3):
            ind = np.zeros(6)
            ind[2 * k] = ind[2 * k + 1] = 1.0
            mats.append(v @ np.diag(ind) @ vi)
        return projections.make_family([(str(k), m) for k, m in enumerate(mats)])

    def test_estimate_holds_with_sign_constant(self):
        family = self.family()
        c = rieszbasis.sign_pattern_constant(family)
        report = rieszbasis.verify_projection_estimate(family, c)
        assert report.two_sided_holds
        assert report.chain_holds
        assert report.basis_constant <= 4.0 * c**2 * (1.0 + 1e-9)

    def test_tiny_constant_fails(self):
        family = self.family()
        report = rieszbasis.verify_projection_estimate(family, 1e-3)
        assert not report.two_sided_holds

    def test_range_family_ranks(self):
        ranges = rieszbasis.range_family(self.family())
        assert [f.shape[1] for f in ranges.frames] == [2, 2, 2]
        assert rieszbasis.riesz_constant(ranges).complete

    def test_range_family_reuses_the_frames(self, count_calls):
        family = self.family()
        svds = count_calls(np.linalg, "svd")
        ranges = rieszbasis.range_family(family)
        uv_flags = [kw.get("compute_uv", True) for _, kw in svds]
        assert all(f is e.frame for f, e in zip(ranges.frames, family.entries))
        # no frame SVD: only SubspaceFamily's orthonormality opnorm per frame
        assert uv_flags == [False] * len(family.entries)

    def test_range_family_rejects_rank_zero(self):
        family = projections.make_family([("a", np.diag([1.0, 0.0])), ("z", np.zeros((2, 2)))])
        with pytest.raises(InputError, match="rank zero"):
            rieszbasis.range_family(family)

    def test_report_complete(self):
        family = self.family()
        assert rieszbasis.verify_projection_estimate(family, 2.0).complete
        partial = projections.make_family([(e.label, e.matrix) for e in family.entries[:2]])
        assert not rieszbasis.verify_projection_estimate(partial, 2.0).complete

    def test_invalid_constant(self):
        with pytest.raises(InputError):
            rieszbasis.verify_projection_estimate(self.family(), 0.0)
