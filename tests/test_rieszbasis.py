"""Tests for Riesz basis constants and sign-pattern norms."""

import dataclasses
import itertools
import json
import math
import os
import threading

import numpy as np
import pytest

import reference_linalg
from specloc import cli, numerics, projections, rieszbasis
from specloc.errors import InputError
from test_golden import GOLDEN, hamiltonian_spec
from test_projections import HAMILTONIAN_REGION, hamiltonian_gap_family, shifted_hamiltonian


def coordinate_family(splits, n):
    frames = []
    start = 0
    for width in splits:
        f = np.zeros((n, width), dtype=complex)
        f[start:start + width] = np.eye(width)
        frames.append(f)
        start += width
    return np.hstack(frames)


def skew_pair_matrices(t):
    return [np.array([[1.0, t], [0.0, 0.0]], dtype=complex),
            np.array([[0.0, -t], [0.0, 1.0]], dtype=complex)]


def skew_matrices(k, n, seed, scale=0.4):
    """k disjoint skew projections of C^n onto spans of eigenvector blocks of
    v = I + scale G."""
    rng = np.random.default_rng(seed)
    v = np.eye(n, dtype=complex) + scale * (rng.standard_normal((n, n))
                                            + 1j * rng.standard_normal((n, n)))
    vi = np.linalg.inv(v)
    return [v[:, j::k] @ vi[j::k, :] for j in range(k)]


def skew_family(k, n, seed, scale=0.4):
    """The family of ``skew_matrices``, through make_family."""
    return projections.make_family((str(j), m) for j, m in enumerate(skew_matrices(k, n, seed,
                                                                                   scale)))


class TestRieszConstant:
    def test_orthogonal_family_is_one(self):
        report = rieszbasis.riesz_constant(coordinate_family((1, 2, 1), 4))
        np.testing.assert_allclose(report.constant, 1.0, rtol=1e-12)
        assert report.complete

    def test_two_lines_at_sixty_degrees(self):
        phi = math.pi / 3
        report = rieszbasis.riesz_constant(np.array([[1.0, math.cos(phi)],
                                                     [0.0, math.sin(phi)]], dtype=complex))
        np.testing.assert_allclose(report.constant, 2.0, atol=1e-10)
        assert report.complete

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        base = coordinate_family((2, 2), 5)
        tilted = q @ base
        c0 = rieszbasis.riesz_constant(base).constant
        c1 = rieszbasis.riesz_constant(tilted).constant
        np.testing.assert_allclose(c0, c1, atol=1e-10)

    def test_repeated_line_is_unbounded(self):
        f = np.array([[1.0], [0.0]], dtype=complex)
        assert rieszbasis.riesz_constant(np.hstack((f, f))).constant == math.inf
        # 4 > 2 columns are dependent, though both singular values of the
        # 2 x 4 matrix are sqrt(2)
        report = rieszbasis.riesz_constant(np.hstack((np.eye(2), np.eye(2))))
        assert report.constant == math.inf and not report.complete

    def test_two_sided_inequality_sampled(self):
        rng = np.random.default_rng(7)
        frames = []
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))
            frames.append(q)
        w = np.hstack(frames)
        c = rieszbasis.riesz_constant(w).constant
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
        w = np.hstack(frames)
        report = rieszbasis.riesz_constant(w)
        a = rng.standard_normal((4, 100_000)) + 1j * rng.standard_normal((4, 100_000))
        quot = (np.linalg.norm(w @ a, axis=0) / np.linalg.norm(a, axis=0)) ** 2
        c_mc = max(quot.max(), 1.0 / quot.min())
        assert c_mc <= report.constant * (1.0 + 1e-12)
        assert c_mc >= report.constant * 0.99


class TestSignPatterns:
    def test_orthogonal_projections_give_one(self):
        mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        family = projections.make_family([(str(k), m) for k, m in enumerate(mats)])
        np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), 1.0, rtol=1e-12)

    def test_skew_pair_matches_brute_force(self):
        mats = skew_pair_matrices(0.7)
        family = projections.make_family(zip(("p1", "p2"), mats))
        expect = max(numerics.opnorm(e1 * mats[0] + e2 * mats[1])
                     for e1, e2 in itertools.product((1.0, -1.0), repeat=2))
        np.testing.assert_allclose(rieszbasis.sign_pattern_constant(family), expect, rtol=1e-12)
        assert rieszbasis.sign_pattern_constant(family) > 1.0
        # five members: the search fixes eps_0 = +1, and ||-A|| == ||A|| bit for
        # bit over the thin factors; the dense inputs' maximum lies within the
        # tails, up to the rounding of forming either sum
        mats = skew_matrices(5, 7, 15)
        family = skew_family(5, 7, 15)
        every = list(itertools.product((1.0, -1.0), repeat=5))
        expect = max(reference_linalg.factored_pattern_norms(family, np.array(every)))
        assert rieszbasis.sign_pattern_constant(family) == expect
        dense = max(numerics.opnorm(sum(e * m for e, m in zip(eps, mats))) for eps in every)
        slack = sum(e.tail for e in family.entries) + 1e-13 * sum(e.norm for e in family.entries)
        assert abs(expect - dense) <= slack

    def test_exhaustive_search_opnorms(self, monkeypatch):
        # four of the five members span 6 of 7 dimensions: an incomplete
        # family has no screen, so every one of the 2^3 patterns is normed
        family = projections.ProjectionFamily(entries=skew_family(5, 7, 15).entries[:4])
        shapes = []
        opnorm = numerics.opnorm
        monkeypatch.setattr(numerics, "opnorm", lambda a: shapes.append(np.shape(a)) or opnorm(a))
        search = rieszbasis.sign_pattern_constant(family, report=True)
        # the cross talk norms the 5 x 5 blocks in one stack per pair of ranks
        # (ranks 2, 2, 1, 1), then come the 2^3 pattern sums
        assert [e.rank for e in family.entries] == [2, 2, 1, 1]
        assert sorted(shapes[:4]) == [(2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2)]
        assert [s[1:] for s in shapes[4:]] == [(7, 7)] * (len(shapes) - 4)
        assert sum(s[0] for s in shapes[4:]) == search.normed == 2**3
        assert search.upper is None

    @staticmethod
    def sampled_patterns(m, seed):
        """Reference draw: one draw of m signs per pattern."""
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(4,)))
        return np.array([rng.choice((1.0, -1.0), size=m) for _ in range(rieszbasis.SIGN_SAMPLES)])

    @staticmethod
    def pattern_norms(family, patterns):
        """Reference: the per-pattern loop."""
        return reference_linalg.factored_pattern_norms(family, patterns)

    def sampled_norms(self, family, seed):
        return self.pattern_norms(family, self.sampled_patterns(len(family.entries), seed))

    def searched_patterns(self, family, seed=0):
        m = len(family.entries)
        if m > rieszbasis.SIGN_EXHAUSTIVE_MAX:
            return self.sampled_patterns(m, seed)
        return np.array([(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=m - 1)])

    @staticmethod
    def record_search(monkeypatch, family, seed=0):
        """The search's report, the (bound, eigensolves) of its one
        ``_pattern_bounds`` call and the patterns it normed, one row each."""
        screened, normed = [], []
        pattern_bounds, pattern_norms = rieszbasis._pattern_bounds, rieszbasis._pattern_norms
        monkeypatch.setattr(rieszbasis, "_pattern_bounds", lambda *args, **kwargs: screened.append(
            pattern_bounds(*args, **kwargs)) or screened[-1])
        monkeypatch.setattr(rieszbasis, "_pattern_norms", lambda rows, family: normed.append(
            rows) or pattern_norms(rows, family))
        search = rieszbasis.sign_pattern_constant(family, seed, report=True)
        [screened] = screened
        return search, screened, np.concatenate(normed)

    def assert_reference_flow(self, monkeypatch, family, seed=0, norms=None):
        """Against the all-eigvalsh reference bounds: every bound the search
        uses is at least the reference (equal where it took an eigvalsh), the
        search norms the top pattern, then every pattern whose bound, cap or
        not, reaches that norm (or every pattern when one exceeds its bound),
        which includes every pattern the reference flow norms; so C, its upper
        end and the count of exact norms are those of the reference flow but
        for the capped patterns that reach the top norm.  The capped patterns
        are those whose bound is not the reference's."""
        patterns = self.searched_patterns(family, seed)
        ranks = [e.rank for e in family.entries]
        search, (bound, eigensolves), rows = self.record_search(monkeypatch, family, seed)
        screen = rieszbasis._screen(family)
        reference = reference_linalg.pattern_bounds(patterns, ranks, screen)
        assert np.all(bound >= reference)
        capped = bound != reference
        assert np.array_equal(bound[~capped], reference[~capped])
        known = np.full(len(patterns), np.nan) if norms is None else norms

        def norms_of(mask):
            todo = np.flatnonzero(mask & np.isnan(known))
            known[todo] = self.pattern_norms(family, patterns[todo])
            return known[mask]

        # the top pattern is never capped, so both flows start from its norm
        top = int(np.argmax(reference))
        assert top == int(np.argmax(bound)) and not capped[top]
        top_norm = norms_of(np.arange(len(patterns)) == top)[0]

        def flow(bounds):
            normed = bounds >= top_norm
            normed[top] = True
            if np.any(norms_of(normed) > bounds[normed]):
                normed[:] = True
            return normed

        normed, expect = flow(bound), flow(reference)
        assert not np.any(expect & ~normed)
        normed_rows = (patterns[:, None, :] == rows[None]).all(axis=2).any(axis=1)
        assert len(rows) == np.count_nonzero(normed) and normed_rows[normed].all()
        assert (search.constant, search.upper, search.normed) == (
            norms_of(expect).max(), screen.upper, np.count_nonzero(normed))
        # an eigvalsh for every uncapped pattern but +-(1, ..., 1), whose sum is +-I
        plain = np.all(patterns == patterns[:, :1], axis=1)
        assert search.eigensolves == eigensolves == np.count_nonzero(~capped & ~plain)
        return search, capped, reference

    def assert_screen_certified(self, monkeypatch, family, seed=0):
        """The search equals the per-pattern loop bit for bit, every pattern's
        norm lies below its reference bound, the search keeps the reference
        flow, and C <= signPatternUpper."""
        norms = np.array(self.pattern_norms(family, self.searched_patterns(family, seed)))
        search, capped, reference = self.assert_reference_flow(monkeypatch, family, seed,
                                                               norms.copy())
        assert np.all(norms <= reference)
        assert search.constant == norms.max()
        assert search.constant <= search.upper
        return search, len(norms), capped

    @pytest.mark.parametrize("scale", [0.4, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("k, n, seed", [(5, 7, 15), (6, 8, 0), (14, 16, 3)])
    def test_ill_conditioned_families_are_screened(self, monkeypatch, k, n, seed, scale):
        # v = I + scale G: kappa(W) runs from 5.8 to 138 over these families,
        # and the screen still norms only a few of the patterns; the 16 and 32
        # patterns of the small families are capped here from a sample of
        # every fourth pattern, below CAP_MIN_PATTERNS
        monkeypatch.setattr(rieszbasis, "CAP_MIN_PATTERNS", 2)
        if k < rieszbasis.SIGN_EXHAUSTIVE_MAX:
            monkeypatch.setattr(rieszbasis, "CAP_STRIDE", 4)
        search, count, capped = self.assert_screen_certified(monkeypatch,
                                                             skew_family(k, n, seed, scale))
        assert search.normed < count

    def test_sampled_hamiltonian_family_is_screened(self, monkeypatch):
        family = hamiltonian_gap_family(16, 0)
        assert len(family.entries) > rieszbasis.SIGN_EXHAUSTIVE_MAX
        search, count, capped = self.assert_screen_certified(monkeypatch, family)
        assert search.normed < count
        # eigvalsh on the 128 sampled patterns and on fewer than 100 others
        assert np.count_nonzero(capped) > count - count // rieszbasis.CAP_STRIDE - 100

    @pytest.mark.parametrize("seed", [0, 3, 7919])
    def test_caps_keep_the_reference_flow_at_n24(self, monkeypatch, seed):
        search, _, _ = self.assert_reference_flow(monkeypatch, hamiltonian_gap_family(24, seed),
                                                  seed)
        assert search.normed == 1
        assert search.eigensolves < rieszbasis.SIGN_SAMPLES // 10

    def test_caps_that_reach_the_top_norm_give_way(self, monkeypatch):
        # caps lifted between the top norm and the top bound: a cap bounds its
        # pattern's norm like an exact bound, so one bounding pass, every
        # lifted pattern gives way to its exact norm, and C keeps its bits
        family = skew_family(14, 16, 3)
        before = rieszbasis.sign_pattern_constant(family, report=True)
        patterns = self.searched_patterns(family)
        ranks = [e.rank for e in family.entries]
        screen = rieszbasis._screen(family)
        reference = reference_linalg.pattern_bounds(patterns, ranks, screen)
        top = int(np.argmax(reference))
        top_norm = self.pattern_norms(family, patterns[top:top + 1])[0]
        lifted = (top_norm + reference[top]) / 2
        calls = []
        pattern_bounds = rieszbasis._pattern_bounds

        def lift(*args):
            bound, eigensolves = pattern_bounds(*args)
            assert np.all(bound >= reference)
            capped = bound != reference
            calls.append(capped)
            bound[capped] = lifted
            return bound, eigensolves

        monkeypatch.setattr(rieszbasis, "_pattern_bounds", lift)
        search = rieszbasis.sign_pattern_constant(family, report=True)
        [capped] = calls
        assert capped.any()
        plain = np.all(patterns == patterns[:, :1], axis=1)
        assert search.eigensolves == before.eigensolves == np.count_nonzero(~capped & ~plain)
        normed = (reference >= top_norm) | capped
        normed[top] = True
        assert search.normed == np.count_nonzero(normed) > before.normed
        assert search.constant == before.constant == max(
            self.pattern_norms(family, patterns[normed]))

    def test_small_families_are_not_capped(self, monkeypatch):
        # 2^(6-1) patterns, below CAP_MIN_PATTERNS: eigvalsh for all but (1, ..., 1)
        search, capped, _ = self.assert_reference_flow(monkeypatch, skew_family(6, 8, 0))
        assert not capped.any()
        assert search.eigensolves == 2**5 - 1

    @pytest.mark.parametrize("eps", [1e-9, 1e-6, 1e-2])
    def test_coframes_off_the_inverse_are_screened(self, eps):
        # the screen takes the coframes C* as W's inverse: with F C* - I well
        # above the rounding level, r still bounds it and every pattern's norm
        # lies below its bound and below the upper end; far off, no screen
        family = skew_family(6, 8, 0)
        rng = np.random.default_rng(11)
        family = projections.ProjectionFamily(entries=tuple(
            dataclasses.replace(e, coframe=e.coframe + eps * numerics.gaussian(
                rng, e.coframe.shape)) for e in family.entries))
        screen = rieszbasis._screen(family)
        if eps == 1e-2:
            assert screen is None
            return
        f, c = family.factors
        assert screen.r >= numerics.opnorm(f @ c.conj().T - np.eye(8)) > eps
        patterns = self.searched_patterns(family)
        norms = np.array(self.pattern_norms(family, patterns))
        bound = reference_linalg.pattern_bounds(patterns, [e.rank for e in family.entries], screen)
        assert np.all(norms <= bound) and np.all(norms <= screen.upper)

    @pytest.mark.parametrize("offset", [0.0, 1e-15, 1e-12, 1e-9])
    def test_a_top_eigenvalue_at_or_above_the_level_is_never_capped(self, offset):
        # H = V diag(1, ..., 1.2, lambda) V* with lambda at or just above the
        # level, and the exact diagonal one: no Cholesky certifies them
        rng = np.random.default_rng(3)
        level, rho = 1.25, 48**2 * np.finfo(float).eps
        v, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        top = level * (1.0 + offset)
        diag = np.append(np.linspace(1.0, 1.2, 11), top)
        h = np.stack([np.diag(diag).astype(complex), (v * diag) @ v.conj().T])
        assert not numerics.below(h, level, rho).any()
        # well below the level, the same matrices are capped
        low = np.append(np.linspace(1.0, 1.2, 11), level * (1.0 - 1e-9))
        h = np.stack([np.diag(low).astype(complex), (v * low) @ v.conj().T])
        assert numerics.below(h, level, rho).all()

    def test_caps_lie_above_every_eigvalsh(self):
        # top eigenvalues spread across the level: whatever is capped has its
        # eigvalsh below the level, and the caps stop within 1e-10 of it
        rng = np.random.default_rng(5)
        level, rho = 1.25, 48**2 * np.finfo(float).eps
        tops = level * (1.0 + np.linspace(-1e-9, 1e-9, 201))
        v, _ = np.linalg.qr(rng.standard_normal((201, 16, 16))
                            + 1j * rng.standard_normal((201, 16, 16)))
        diag = np.concatenate([np.tile(np.linspace(1.0, 1.2, 15), (201, 1)), tops[:, None]], 1)
        h = (v * diag[:, None, :]) @ v.conj().transpose(0, 2, 1)
        capped = numerics.below(h, level, rho)
        assert np.all(np.linalg.eigvalsh(h[capped])[:, -1] < level)
        assert capped[tops < level * (1.0 - 1e-10)].all()
        assert not capped[tops >= level].any()

    @pytest.mark.parametrize("breaks", ["incomplete", "cholesky", "eigvalsh"])
    def test_without_a_screen_every_pattern_is_normed(self, monkeypatch, breaks):
        family = skew_family(5, 7, 15)
        # every other pattern in the cap sample: a failed Cholesky of M_SS or
        # a NaN sample must not cap anything
        monkeypatch.setattr(rieszbasis, "CAP_MIN_PATTERNS", 2)
        monkeypatch.setattr(rieszbasis, "CAP_STRIDE", 2)
        if breaks == "incomplete":
            family = projections.ProjectionFamily(entries=family.entries[:4])
        elif breaks == "cholesky":
            def fail(a):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            monkeypatch.setattr(np.linalg, "cholesky", fail)
        else:
            monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(np.shape(a)[:-1], np.nan))
        patterns = self.searched_patterns(family)
        search = rieszbasis.sign_pattern_constant(family, report=True)
        assert search.constant == max(self.pattern_norms(family, patterns))
        assert search.normed == len(patterns)
        assert search.eigensolves == 0
        assert (search.upper is None) == (breaks == "incomplete")

    @pytest.mark.parametrize("low", ["top", "survivor"])
    def test_a_norm_above_its_bound_voids_the_screen(self, monkeypatch, low):
        family = skew_family(6, 8, 0)
        patterns = self.searched_patterns(family)
        norms = np.array(self.pattern_norms(family, patterns))
        order = np.argsort(norms)
        # every bound below its norm, the top pattern's first
        bound = norms / 2
        if low == "survivor":
            # the smallest norm has the top bound and the largest is dropped;
            # the runner-up survives at the top norm and exceeds its bound,
            # the only sign that the screen is wrong
            bound = np.zeros(len(norms))
            bound[order[0]] = 10.0 * norms.max()
            bound[order[-2]] = norms[order[0]]
            assert norms[order[0]] < norms[order[-2]] < norms.max()
        monkeypatch.setattr(rieszbasis, "_pattern_bounds",
                            lambda *args: (bound, 0))
        search = rieszbasis.sign_pattern_constant(family, report=True)
        assert search.normed == len(patterns)
        assert search.constant == norms.max()

    @pytest.mark.parametrize("seed", [0, 7919])
    def test_sampled_search_matches_per_pattern_loop(self, seed):
        family = skew_family(14, 16, 3)
        assert len(family.entries) > rieszbasis.SIGN_EXHAUSTIVE_MAX
        expect = max(self.sampled_norms(family, seed))
        assert rieszbasis.sign_pattern_constant(family, seed=seed) == expect

    @pytest.mark.parametrize("name", ["hamiltonian", "mixed-rank"])
    def test_a_pattern_norm_has_the_same_bits_alone_and_in_a_batch(self, monkeypatch, name):
        # every pattern of an exhaustive search, normed in one call, in
        # batches of 3 patterns on the pool, and one call per pattern
        family = {"hamiltonian": lambda: hamiltonian_gap_family(8, 0),
                  "mixed-rank": lambda: chain_family(5)}[name]()
        patterns = self.searched_patterns(family)
        n = family.factors[0].shape[0]
        if name == "mixed-rank":
            assert len({e.rank for e in family.entries}) > 1
        whole = rieszbasis._pattern_norms(patterns, family)
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", 3 * n * n)
        batched = rieszbasis._pattern_norms(patterns, family)
        alone = [rieszbasis._pattern_norms(patterns[i:i + 1], family)[0]
                 for i in range(len(patterns))]
        assert len(patterns) == 2 ** (len(family.entries) - 1)
        assert np.array_equal(whole, alone) and np.array_equal(batched, alone)
        assert np.array_equal(whole, reference_linalg.factored_pattern_norms(family, patterns))

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

    def test_maximum_in_last_partial_batch_without_a_screen(self, monkeypatch):
        # 13 of the 14 members span 15 of 16 dimensions: every sampled pattern
        # is summed and normed, in batches of exact norms
        family = projections.ProjectionFamily(entries=skew_family(14, 16, 3).entries[:13])
        norms = self.sampled_norms(family, 0)
        best, count = int(np.argmax(norms)), len(norms)
        step = next(c for c in range(2, count) if count % c and count - count % c <= best)
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", step * 16 * 16)
        search = rieszbasis.sign_pattern_constant(family, report=True)
        assert search.constant == norms[best]
        assert search.normed == count and search.upper is None

    def test_threaded_batches_match_per_pattern_loop(self, monkeypatch):
        family = skew_family(16, 16, 5)
        expect = max(self.sampled_norms(family, 0))
        monkeypatch.setattr(numerics, "BATCH_ENTRIES", 8 * 16 * 16)
        factored = {}
        cholesky = np.linalg.cholesky
        # the first two size-8 factorizations on worker threads wait for each
        # other, so two workers must each hold one batch, however the pool
        # hands them out; on one usable core there is one worker, and no wait
        barrier = threading.Barrier(2, timeout=30)
        waits = itertools.count() if len(os.sched_getaffinity(0)) > 1 else iter(())

        def record(a):
            if (np.shape(a)[-1] == 8 and threading.current_thread().name.startswith(
                    "specloc-batch") and next(waits, 2) < 2):
                barrier.wait()
            factored.setdefault((np.shape(a)[-1], threading.get_ident()), []).append(len(a))
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", record)
        assert rieszbasis.sign_pattern_constant(family) == expect
        # the screen's largest group, |S| = n/2 = 8, spans many batches of at
        # most 32 patterns, and every one of them runs on a worker; only the
        # cap sample, every CAP_STRIDE-th pattern, is factored inline first
        inline = factored.pop((8, threading.get_ident()), [])
        assert sum(inline) <= rieszbasis.SIGN_SAMPLES // rieszbasis.CAP_STRIDE
        workers = {thread for size, thread in factored if size == 8}
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
            # then come the top pattern (+1, -1) and (+1, +1) after it: the
            # family lies 9e-7 sqrt(2) (Frobenius) from the exact projections
            # onto its ranges, and that pad lifts the bound of (+1, +1) above
            # the top norm 1 + 9e-7
            assert shapes == [(2, 2, 2, 2), (1, 4, 4), (1, 4, 4)]
        else:
            with pytest.raises(InputError, match="not pairwise disjoint"):
                rieszbasis.sign_pattern_constant(family)
            assert shapes == [(2, 2, 2, 2)]

    def test_rejects_a_tail_in_the_pad(self):
        # diag(0, 0.4) has no singular value above 1/2; its tail 0.4 pads the
        # cross talk although the product with diag(1, 0) is exactly 0
        mats = [np.diag([1.0, 0.0]), np.diag([0.0, 0.4])]
        family = projections.make_family(zip("ab", mats))
        assert not np.any(mats[0] @ mats[1])
        assert not family.cross_talk <= 1e-6
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
    @staticmethod
    def inputs():
        rng = np.random.default_rng(20)
        v = np.eye(6, dtype=complex) + 0.3 * (rng.standard_normal((6, 6))
                                              + 1j * rng.standard_normal((6, 6)))
        vi = np.linalg.inv(v)
        mats = []
        for k in range(3):
            ind = np.zeros(6)
            ind[2 * k] = ind[2 * k + 1] = 1.0
            mats.append(v @ np.diag(ind) @ vi)
        return mats

    def family(self):
        return projections.make_family([(str(k), m) for k, m in enumerate(self.inputs())])

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
        family = self.family()
        ranges = rieszbasis.range_family(family)
        assert [e.rank for e in family.entries] == [2, 2, 2]
        assert ranges.shape == (6, 6)
        assert rieszbasis.riesz_constant(ranges).complete

    def test_range_family_reuses_the_frames(self, count_calls):
        family = self.family()
        svds = count_calls(np.linalg, "svd")
        opnorms = count_calls(numerics, "opnorm")
        ranges = rieszbasis.range_family(family)
        assert ranges is family.factors[0]
        for k, e in enumerate(family.entries):
            np.testing.assert_array_equal(ranges[:, 2 * k:2 * k + 2], e.frame)
        # the stacked frames are the family's own: no SVD and no norm of them
        assert svds == [] and opnorms == []

    def test_empty_family_rejected(self):
        family = projections.make_family([])
        with pytest.raises(InputError, match="family is empty"):
            rieszbasis.range_family(family)
        with pytest.raises(InputError, match="family is empty"):
            rieszbasis.verify_projection_estimate(family, 1.0)

    def test_range_family_rejects_rank_zero(self):
        family = projections.make_family([("a", np.diag([1.0, 0.0])), ("z", np.zeros((2, 2)))])
        with pytest.raises(InputError, match="rank zero"):
            rieszbasis.range_family(family)

    def test_report_complete(self):
        family = self.family()
        assert rieszbasis.verify_projection_estimate(family, 2.0).complete
        partial = projections.make_family([(str(k), m) for k, m in enumerate(self.inputs()[:2])])
        assert not rieszbasis.verify_projection_estimate(partial, 2.0).complete

    def test_invalid_constant(self):
        with pytest.raises(InputError):
            rieszbasis.verify_projection_estimate(self.family(), 0.0)

    @pytest.mark.parametrize("constant", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_rejected(self, constant):
        with pytest.raises(InputError, match="positive and finite"):
            rieszbasis.verify_projection_estimate(self.family(), constant)

    def test_draws_no_random_numbers(self, count_calls):
        draws = [count_calls(numerics, name) for name in ("subrng", "unit_columns")]
        family = self.family()
        report = rieszbasis.verify_projection_estimate(family, 2.0)
        assert draws == [[], []]
        assert report == rieszbasis.verify_projection_estimate(family, 2.0, seed=7)

    def test_narrow_worst_direction_is_caught(self):
        # P = I but for the skew block [[1, 10], [0, 0]] on the first two
        # coordinates: sum ||P_k x||^2 / ||x||^2 reaches the top eigenvalue
        # mu = 101 + sqrt(10100) of [[1, 10], [10, 201]] only near e_2, which
        # 1000 random unit probes of C^64 barely see, so they pass C = 10
        # (C^-2 = 0.01 above the worst ratio 1 / mu); the exact check does not
        n = 64
        p = np.eye(n, dtype=complex)
        p[:2, :2] = [[1.0, 10.0], [0.0, 0.0]]
        mats = [p, np.eye(n) - p]
        family = projections.make_family(zip("ab", mats))
        assert reference_linalg.probe_estimate_slacks(mats, 10.0)[0]
        holds, lower, upper = reference_linalg.exact_estimate_slacks(mats, 10.0)
        report = rieszbasis.verify_projection_estimate(family, 10.0)
        assert not holds and not report.two_sided_holds
        np.testing.assert_allclose(lower, 1.0 / (101.0 + math.sqrt(10100.0)) - 0.01, rtol=1e-10)
        assert report.worst_lower_slack <= lower and report.worst_upper_slack <= upper


def chain_family(seed):
    """A family of acceptance test_07 through make_family (tails at rounding
    level): the family of ``chain_matrices``."""
    return projections.make_family((str(k), m) for k, m in enumerate(chain_matrices(seed)))


def chain_matrices(seed):
    """m = 2 + seed % 7 disjoint skew projections of C^n, n = max(8, m), onto
    contiguous eigenvector blocks of I + 0.4 G."""
    rng = np.random.default_rng(1000 + seed)
    m = 2 + seed % 7
    n = max(8, m)
    v = np.eye(n, dtype=complex) + 0.4 * (rng.standard_normal((n, n))
                                          + 1j * rng.standard_normal((n, n)))
    vi = np.linalg.inv(v)
    split = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False))
    bounds = [0] + [int(x) for x in split] + [n]
    return [v[:, lo:hi] @ vi[lo:hi, :] for lo, hi in zip(bounds, bounds[1:])]


def hamiltonian_family(n):
    """The gap family of ``shifted_hamiltonian(n, 0)`` cut at 4k + 2 (tail 0)."""
    return projections.family_from_gaps(shifted_hamiltonian(n, 0),
                                        [4.0 * k + 2.0 for k in range(n + 1)],
                                        **HAMILTONIAN_REGION)


def with_members(family):
    """The family and its dense members F S B*."""
    return family, [reference_linalg.entry_matrix(e) for e in family.entries]


def with_inputs(mats):
    """The make_family family of ``mats`` and the input matrices themselves."""
    return projections.make_family((str(k), m) for k, m in enumerate(mats)), mats


#: builders of the estimate's and the sum bound's families, each with its
#: dense matrices (the inputs of a make_family family): Hamiltonian gap
#: families (tail 0), acceptance-style skew families (tail > 0), a family
#: with an empty gap (rank 0) of a non-normal T, and an incomplete family
PROBE_FAMILIES = {
    **{"hamiltonian%d" % n: lambda n=n: with_members(hamiltonian_family(n)) for n in (8, 24, 64)},
    **{"chain%d" % seed: lambda seed=seed: with_inputs(chain_matrices(seed))
       for seed in range(7)},
    "empty-gap": lambda: with_members(projections.family_from_gaps(
        np.array([[1.0, 0.2, 0.1, 0.0], [0.0, 5.0, 0.2, 0.1],
                  [0.0, 0.0, 5.5, 0.2], [0.0, 0.0, 0.0, 9.0]]),
        [0.5, 3.0, 7.0, 8.0, 10.0], 1.0, 0.0)),
    "incomplete": lambda: with_inputs(
        [reference_linalg.entry_matrix(e) for e in hamiltonian_gap_family(8, 1).entries[2:5]]),
}


def sum_bound(family):
    """``projection_sum_bound`` from the family's own sign-pattern search."""
    search = rieszbasis.sign_pattern_constant(family, report=True)
    return search, projections.projection_sum_bound(family, search.constant, search.upper)


#: complete families of at most three members, each with its dense matrices:
#: Hamiltonian gap families (tail 0; the 4-block one of the benchmark's
#: generator with a gap of rank 4) and acceptance test_07 families (tails > 0)
PHASE_FAMILIES = {
    "hamiltonian3": lambda: with_members(hamiltonian_family(3)),
    **{"ham4-%s" % "-".join(map(str, cuts)): lambda cuts=cuts: with_members(
        projections.family_from_gaps(cli.system_from_json(hamiltonian_spec(0, 4)).t, cuts,
                                     **HAMILTONIAN_REGION))
       for cuts in ((2, 10, 18), (2, 6, 10, 18))},
    **{"chain%d" % seed: lambda seed=seed: with_inputs(chain_matrices(seed))
       for seed in (0, 1, 7, 8)},
}


class TestProbesFromFactors:
    """The estimate, decided from the thin factors, against the dense exact
    reference and the dense probes of ``reference_linalg``, which multiply
    every P_k into the probe block; the sum bound's ends against the dense
    members."""

    @pytest.mark.parametrize("name", list(PROBE_FAMILIES))
    def test_agree_with_the_dense_reference(self, name):
        family, mats = PROBE_FAMILIES[name]()
        if name.startswith("chain"):
            assert max(e.tail for e in family.entries) > 0.0
        if name == "empty-gap":  # both the search and the estimate reject a rank-zero member
            for check in (sum_bound, lambda f: rieszbasis.verify_projection_estimate(f, 1.1)):
                with pytest.raises(InputError, match="'gap\\[7,8\\]' has rank zero"):
                    check(family)
            return
        # each sigma_1(P_k) is a lower end of C and their sum an upper end
        search, (c_hat, c_upper) = sum_bound(family)
        norms = [reference_linalg.svd_extremes(m)[0] for m in mats]
        tail = sum(e.tail for e in family.entries)
        assert max(norms) - tail - 1e-12 <= c_hat <= c_upper <= sum(norms) + 1e-12
        if name.startswith("hamiltonian"):  # tail 0, and the sign patterns decide both ends
            assert (c_hat, c_upper) == (search.constant, search.upper)
        for c, seed in [(1.1, 0), (3.0, 2)]:
            report = rieszbasis.verify_projection_estimate(family, c)
            slacks = [report.worst_lower_slack, report.worst_upper_slack]
            # never looser than the probes it replaces
            _, *probed = reference_linalg.probe_estimate_slacks(mats, c, seed=seed)
            assert slacks[0] <= probed[0] and slacks[1] <= probed[1]
            if name == "incomplete":
                assert not report.two_sided_holds and slacks == [-math.inf, -math.inf]
                continue
            holds, *exact = reference_linalg.exact_estimate_slacks(mats, c)
            assert report.two_sided_holds == holds
            if name.startswith("hamiltonian"):  # tail 0: the same extremes
                np.testing.assert_allclose(slacks, exact, rtol=0.0, atol=1e-12)
            else:
                assert slacks[0] <= exact[0] and slacks[1] <= exact[1]

    @pytest.mark.parametrize("name", list(PHASE_FAMILIES))
    def test_phase_grid_lies_between_the_ends(self, name):
        # C is the largest || sum_k w_k P_k || over unimodular w, not only
        # over signs: a 64-point phase grid per member lies within the ends
        family, mats = PHASE_FAMILIES[name]()
        search, (c_hat, c_upper) = sum_bound(family)
        assert search.upper is not None and len(mats) <= 3
        if name.startswith("chain"):
            assert max(e.tail for e in family.entries) > 0.0
        assert c_hat - 1e-12 <= reference_linalg.phase_grid_constant(mats) <= c_upper

    def test_read_no_matrix(self):
        # the entries hold no dense matrix, and the checks read their thin
        # factors only as the stacked ``factors``: entries whose frames and
        # coframes are NaN, beside the original's stacked factors, give the
        # same reports
        family = chain_family(4)
        nan = projections.ProjectionFamily(tuple(
            dataclasses.replace(e, frame=np.full(e.frame.shape, np.nan),
                                coframe=np.full(e.coframe.shape, np.nan))
            for e in family.entries))
        nan.__dict__["factors"] = family.factors  # the cached_property's slot
        assert (rieszbasis.verify_projection_estimate(nan, 1.5)
                == rieszbasis.verify_projection_estimate(family, 1.5))
        assert sum_bound(nan) == sum_bound(family)

    def test_tail_pads_are_never_looser(self):
        # diag(0, 0.4) has rank 0 and tail 0.4: its factors drop it, the pad
        # keeps the sum bound's lower end below the dense C, and the estimate
        # rejects the rank-zero member
        mats = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.4, 0.0]), np.diag([0.0, 0.0, 1.0])]
        family = projections.make_family(zip("abc", mats))
        with pytest.raises(InputError, match="'b' has rank zero"):
            rieszbasis.verify_projection_estimate(family, 1.2)
        # the same tail on a member of rank 1: the ranks sum to 2 < 3, and the
        # factors bound nothing on the kernel of C*, where the dense members
        # give P_a x = (0, 0.4 x_2, 0) and hold the estimate: both slacks are -inf
        tailed = [np.diag([1.0, 0.4, 0.0]), np.diag([0.0, 0.0, 1.0])]
        report = rieszbasis.verify_projection_estimate(projections.make_family(zip("ab", tailed)),
                                                       1.2)
        assert reference_linalg.probe_estimate_slacks(tailed, 1.2)[0]
        assert not report.two_sided_holds
        assert [report.worst_lower_slack, report.worst_upper_slack] == [-math.inf, -math.inf]
        # the pad fails the search's disjointness test, so the factors' own
        # sign-pattern constant stands in for its result
        patterns = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        constant = max(reference_linalg.factored_pattern_norms(family, patterns))
        c_hat, c_upper = projections.projection_sum_bound(family, constant, None)
        assert c_upper == 2.4
        assert 0.0 <= c_hat <= reference_linalg.phase_grid_constant(mats) - 0.4 + 1e-15


class TestOracleChain:
    """``riesz_constant(range_family(f))``, the chain of the benchmark's
    set-up check, on the gap families of the ham24 goldens."""

    @staticmethod
    def spec_t(seed):
        return cli.system_from_json(hamiltonian_spec(seed, 24)).t

    @pytest.mark.parametrize("seed", [0, 3, 7919])
    def test_gap_family_chain_is_the_golden_basis_constant(self, seed, count_calls):
        golden = json.loads((GOLDEN / ("rieszconst-ham24-%d.json" % seed)).read_text())
        cuts = [4.0 * k + 2.0 for k in range(25)]
        family = projections.family_from_gaps(self.spec_t(seed), cuts, **HAMILTONIAN_REGION)
        svds = count_calls(np.linalg, "svd")
        opnorms = count_calls(numerics, "opnorm")
        frames = rieszbasis.range_family(family)
        assert frames is family.factors[0]
        assert svds == [] and opnorms == []
        chain = rieszbasis.riesz_constant(frames).constant
        estimate = rieszbasis.verify_projection_estimate(family, golden["signPatternConstant"])
        assert chain == estimate.basis_constant == golden["basisConstant"]

    @pytest.mark.parametrize("seed", [0, 3, 7919])
    def test_oracle_family_chain_matches_the_golden(self, seed):
        # the benchmark's expected value: the ranges of the eigendecomposition
        # oracle's projectors onto the gaps, to its relative 1e-6
        golden = json.loads((GOLDEN / ("rieszconst-ham24-%d.json" % seed)).read_text())
        t = self.spec_t(seed)
        cuts = [4.0 * k + 2.0 for k in range(25)]
        family = projections.make_family(
            ("gap%d" % k, projections.spectral_projector_oracle(
                t, lambda z, lo=lo, hi=hi: lo < z.imag < hi))
            for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])))
        chain = rieszbasis.riesz_constant(rieszbasis.range_family(family)).constant
        assert abs(chain - golden["basisConstant"]) <= 1e-6 * golden["basisConstant"]
