"""Acceptance suite: one top-level check per shipped guarantee.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
on success).  The tests regenerate every reference quantity through an
independent route: eigendecomposition oracles for contour projections,
Monte-Carlo sampling for extremal constants, and direct inequality checking
for the asymptotic classifier.
"""

import itertools
import json
import math
import time

import numpy as np

from specloc import (blockop, cli, contours, instances, numerics, operators, projections,
                     rieszbasis, spectra, subordination)

from reference_linalg import refined_excluded, svd_extremes


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = "ACCEPTANCE %2d %-34s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_projection_oracle_equivalence(self):
        start = time.monotonic()
        worst = 0.0
        for seed in range(100):
            n = 8 + (seed % 25)
            matrix, values, _, inner = instances.diagonalizable_instance(seed, n=n)
            contour = contours.circle(0.0, 2.0, 64)
            p_riesz = projections.riesz_projection(matrix, contour)
            p_orac = projections.spectral_projector_oracle(matrix, lambda z: abs(z) < 2.0)
            error = numerics.opnorm(p_riesz - p_orac)
            worst = max(worst, error)
            assert error <= 1e-12 * numerics.opnorm(p_riesz)
            assert projections.rank_of_projection(p_riesz) == inner
        elapsed = time.monotonic() - start
        _verdict(1, "projection oracle equivalence", worst <= 1e-7 and elapsed < 60.0,
                 "worst %.2e, %.1fs" % (worst, elapsed))

    def test_02_enclosure_sweep(self):
        cases = [instances.run_enclosure_case(seed) for seed in range(200)]
        violators = sum(len(c["violators"]) for c in cases)
        neg_frac = sum(1 for c in cases
                       if c["negativeControl"]["violatorCount"] > 0) / len(cases)
        # the negative-control fraction is recorded, not gated
        _verdict(2, "certified enclosure sweep", violators == 0,
                 "0 violators expected, got %d; negative-control fraction %.2f"
                 % (violators, neg_frac))

    def test_03_refined_boundary_resolvent(self):
        # p = 0 reduction: the refined carve-out is exactly b < |y|
        exact = all(
            refined_excluded(b, 0.0, x, y) == (b < abs(y))
            for b in (0.0, 0.3, 1.0, 2.5)
            for x in (0.5, 3.0, 50.0)
            for y in (-3.0, -0.31, 0.0, 0.29, 0.3, 1.0)
        )
        seeds = [s for s in range(200) if (s // 4) % 3 == 0][:50]
        rng = np.random.default_rng(100)
        checked = 0
        min_sigma = math.inf
        for seed in seeds:
            system, info = instances.enclosure_instance(seed)
            res = subordination.subordination_bound(system.s, system.g, system.p)
            n = len(system.g)
            ident = np.eye(n)
            for _ in range(8):
                x = float(np.exp(rng.uniform(np.log(2.0), np.log(info["rMax"]))))
                y = float(rng.uniform(1.2, 1.6)) * res.bound * x**system.p
                if not refined_excluded(res.bound, system.p, x, y):
                    continue
                _, smin = svd_extremes(system.t - complex(x, y) * ident)
                min_sigma = min(min_sigma, smin / (1.0 + abs(complex(x, y))))
                checked += 1
        _verdict(3, "refined rejections are resolvent",
                 exact and checked >= 100 and min_sigma > 1e-10,
                 "%d points, min scaled sigma %.2e" % (checked, min_sigma))

    def test_04_resolvent_perturbation_bounds(self):
        rng = np.random.default_rng(44)
        worst_slack = math.inf
        pairs = 0
        while pairs < 10_000:
            n = 8
            moduli = rng.uniform(1.0, 9.0, n)
            angles = rng.uniform(0.0, 2.0 * np.pi, n)
            g = np.diag(moduli.astype(complex) * np.exp(1j * angles))
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            s *= rng.uniform(0.05, 0.3) / numerics.opnorm(s)
            spec = operators.RaySpectrumSpec(tuple(operators.Ray(theta, (r,))
                                                   for theta, r in zip(angles, moduli)))
            sigma = np.diag(g)
            system = operators.assemble(sigma, s, 0.0, spec)
            ident = np.eye(n)
            for _ in range(100):
                z = complex(rng.uniform(-12.0, 12.0), rng.uniform(-12.0, 12.0))
                dist = float(np.min(np.abs(sigma - z)))
                if dist < 0.5:
                    continue
                norm_sg = numerics.opnorm(s @ np.linalg.inv(g - z * ident))
                if norm_sg >= 0.9:
                    continue
                eps = 0.9
                _, smin_t = svd_extremes(system.t - z * ident)
                norm_t = 1.0 / smin_t
                norm_st = numerics.opnorm(s @ np.linalg.inv(system.t - z * ident))
                bound_t = (1.0 / dist) / (1.0 - eps)
                bound_st = eps / (1.0 - eps)
                worst_slack = min(worst_slack,
                                  (bound_t - norm_t) / bound_t,
                                  (bound_st - norm_st) / bound_st)
                pairs += 1
                if pairs >= 10_000:
                    break
        _verdict(4, "resolvent perturbation bounds",
                 pairs >= 10_000 and worst_slack >= -1e-10,
                 "%d pairs, worst relative slack %.2e" % (pairs, worst_slack))

    def test_05_gap_classifier_vs_brute_force(self):
        flips = (spectra.classify_asymptotic_gap(1.0, 2.0, 0.999, 0.5) == spectra.HOLDS_EVENTUALLY
                 and spectra.classify_asymptotic_gap(1.0, 2.0, 1.0, 0.5) == spectra.BOUNDARY_HOLDS
                 and spectra.classify_asymptotic_gap(1.0, 2.0, 1.001, 0.5) == spectra.FAILS)
        rng = np.random.default_rng(55)
        k_max = 10_000
        agree = True
        tuples = 0
        while tuples < 1000:
            q = float(rng.uniform(1.5, 3.5))
            c = float(rng.uniform(0.5, 4.0))
            critical_p = 1.0 - 1.0 / q
            if rng.random() < 0.5:
                p = critical_p
                threshold = q * c ** (1.0 / q) / 2.0
                l = float(rng.uniform(0.1, 2.0)) * threshold
                if abs(l - threshold) < 1e-3 * threshold:
                    continue  # excluded band at the l-threshold
            else:
                p = float(rng.uniform(0.0, 0.95))
                if abs(p - critical_p) < 0.2:
                    continue
                l = float(rng.uniform(0.5, 2.0))
            tuples += 1
            verdict = spectra.classify_asymptotic_gap(c, q, l, p)
            model = spectra.from_asymptotic(c=c, q=q, l=l, p=p, k_max=k_max)
            tail = bool(spectra.check_gap_sequence(model).holds[k_max - 1001:].all())
            if verdict == spectra.HOLDS_EVENTUALLY and not tail:
                agree = False
            if verdict == spectra.FAILS and tail:
                agree = False
        _verdict(5, "gap classifier vs brute force", flips and agree,
                 "%d tuples" % tuples)

    def test_06_riesz_constant_exactness(self):
        # two lines at pi/3
        phi = math.pi / 3
        two_lines = np.hstack((
            np.array([[1.0], [0.0]], dtype=complex),
            np.array([[math.cos(phi)], [math.sin(phi)]], dtype=complex),
        ))
        c_lines = rieszbasis.riesz_constant(two_lines).constant
        lines_ok = abs(c_lines - 2.0) <= 1e-10

        # Monte-Carlo extremal-ratio oracle on mild n = 4 families
        mc_ok = True
        for seed in range(5):
            rng = np.random.default_rng(seed)
            frames = []
            for k in range(4):
                v = np.zeros((4, 1), dtype=complex)
                v[k, 0] = 1.0
                v += 0.03 * (rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1)))
                frames.append(v / np.linalg.norm(v))
            w = np.hstack(frames)
            c = rieszbasis.riesz_constant(w).constant
            a = rng.standard_normal((4, 100_000)) + 1j * rng.standard_normal((4, 100_000))
            quot = (np.linalg.norm(w @ a, axis=0) / np.linalg.norm(a, axis=0)) ** 2
            c_mc = max(float(quot.max()), 1.0 / float(quot.min()))
            if not (0.99 * c <= c_mc <= c * (1.0 + 1e-12)):
                mc_ok = False

        # product bound for joined families, ambient dimension up to 10
        join_ok = True
        for n, seed in ((4, 1), (6, 2), (10, 3)):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            half = n // 2
            outer = q  # the frames q[:, :half] and q[:, half:]

            def tilted(m, s):
                r = np.random.default_rng(s)
                f = []
                for k in range(m):
                    v = np.zeros((m, 1), dtype=complex)
                    v[k, 0] = 1.0
                    v += 0.3 * (r.standard_normal((m, 1)) + 1j * r.standard_normal((m, 1)))
                    f.append(v / np.linalg.norm(v))
                return np.hstack(f)

            # join: refine each outer frame f by an inner family in its coordinates
            inners = [tilted(half, 10 + seed), tilted(n - half, 20 + seed)]
            joined = np.hstack((q[:, :half] @ inners[0], q[:, half:] @ inners[1]))
            bound = (rieszbasis.riesz_constant(outer).constant
                     * max(rieszbasis.riesz_constant(inner).constant for inner in inners))
            if not rieszbasis.riesz_constant(joined).constant <= bound * (1.0 + 1e-8):
                join_ok = False

        # sign-average identity, exhaustive over all 2^m patterns, m up to 10
        identity_ok = True
        for m in (4, 7, 10):
            rng = np.random.default_rng(m)
            v = np.eye(m, dtype=complex) + 0.4 * rng.standard_normal((m, m))
            vi = np.linalg.inv(v)
            mats = []
            for k in range(m):
                ind = np.zeros(m)
                ind[k] = 1.0
                mats.append(v @ np.diag(ind) @ vi)
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            acc = 0.0
            for eps in itertools.product((1.0, -1.0), repeat=m):
                acc += np.linalg.norm(sum(e * p for e, p in zip(eps, mats)) @ x) ** 2
            mean = acc / 2.0**m
            direct = sum(np.linalg.norm(p @ x) ** 2 for p in mats)
            if abs(mean - direct) > 1e-10 * max(direct, 1.0):
                identity_ok = False

        _verdict(6, "Riesz constant exactness",
                 lines_ok and mc_ok and join_ok and identity_ok,
                 "two-line c %.12f" % c_lines)

    def test_07_projection_family_chain(self):
        ok = True
        for seed in range(50):
            rng = np.random.default_rng(1000 + seed)
            m = 2 + seed % 7  # family sizes 2..8
            n = max(8, m)
            v = np.eye(n, dtype=complex) + 0.4 * (rng.standard_normal((n, n))
                                                  + 1j * rng.standard_normal((n, n)))
            vi = np.linalg.inv(v)
            split = sorted(rng.choice(np.arange(1, n), size=m - 1, replace=False))
            bounds = [0] + [int(x) for x in split] + [n]
            mats = []
            for lo, hi in zip(bounds, bounds[1:]):
                ind = np.zeros(n)
                ind[lo:hi] = 1.0
                mats.append(v @ np.diag(ind) @ vi)
            family = projections.make_family([(str(k), p) for k, p in enumerate(mats)])
            search = rieszbasis.sign_pattern_constant(family, report=True)  # exhaustive, m <= 8
            report = rieszbasis.verify_projection_estimate(family, search.constant)
            _, c_upper = projections.projection_sum_bound(family, search.constant, search.upper)
            if not (report.two_sided_holds and report.chain_holds
                    and report.basis_constant <= 4.0 * c_upper**2 * (1.0 + 1e-9)):
                ok = False
        _verdict(7, "skew projection family chain", ok)

    def test_08_hamiltonian_closed_form(self):
        ok = True
        detail = []
        for n in (8, 64):
            model = blockop.HamiltonianModel(
                r_seq=tuple(4.0 * k for k in range(1, n + 1)),
                b_mat=np.eye(n), c_mat=np.eye(n), gamma=1.0, l=1.5)
            system = blockop.build_hamiltonian(model)
            values = numerics.eig(system.t).values
            expect = np.array([4.0 * k * 1j + s for k in range(1, n + 1)
                               for s in (1.0, -1.0)])
            # greedy nearest matching (sorting is unstable under 1e-15 noise)
            remaining = list(expect)
            worst_match = 0.0
            for z in values:
                j = int(np.argmin([abs(z - w) for w in remaining]))
                worst_match = max(worst_match, abs(z - remaining.pop(j)))
            report = blockop.verify_hamiltonian(system, model)
            scale = 4.0 * n
            family = projections.family_from_gaps(
                system.t, [4.0 * k + 2.0 for k in range(0, n + 1)], 2.0, 0.0,
                theta=np.pi / 2.0)
            oracle = projections.make_family([
                (e.label, projections.spectral_projector_oracle(
                    system.t, lambda z, lo=lo, hi=hi: lo < z.imag < hi))
                for e, (lo, hi) in zip(
                    family.entries,
                    [(4.0 * k + 2.0, 4.0 * k + 6.0) for k in range(0, n)])
            ])
            ranks_equal = ([e.rank for e in family.entries]
                           == [e.rank for e in oracle.entries])
            case_ok = (worst_match <= 1e-10 * scale
                       and report.j1_skew_residual <= 1e-12 * scale
                       and float(np.min(np.abs(values.real))) >= 1.0 - 1e-10
                       and report.per_disc_counts == tuple([2] * n)
                       and report.eigenvector_condition <= math.sqrt(2.0) + 1e-6
                       and ranks_equal)
            detail.append("n=%d match %.1e cond %.6f" %
                          (n, worst_match, report.eigenvector_condition))
            ok = ok and case_ok
        _verdict(8, "Hamiltonian closed-form instance", ok, "; ".join(detail))

    def test_09_homotopy_rank_stability(self):
        ok = True
        contour = contours.circle(0.0, 2.0, 64)
        for seed in range(50):
            rng = np.random.default_rng(2000 + seed)
            _, values, _, inner = instances.diagonalizable_instance(seed, n=16)
            g = np.diag(values)
            s = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            s *= 0.3 / numerics.opnorm(s)
            # contour-wise gate: ||S (G - z)^-1|| <= 0.3 on |z| = 2 by construction
            gate = max(numerics.opnorm(s @ np.linalg.inv(g - z * np.eye(16)))
                       for z in contour.nodes[::8])
            if gate >= 1.0:
                ok = False
                continue
            ranks = []
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                proj = projections.riesz_projection(g + r * s, contour)
                ranks.append(projections.rank_of_projection(proj))
            if ranks != [inner] * 5:
                ok = False
        _verdict(9, "homotopy rank stability", ok)

    def test_10_sweep_determinism(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = cli.main(["sweep", "--seeds", "0..3", "--out", str(out),
                             "--no-timestamp"])
            assert code == 0
            outputs.append(out.read_bytes())
        identical = outputs[0] == outputs[1]
        report = json.loads(outputs[0])
        _verdict(10, "sweep report determinism",
                 identical and report["allInside"] is True,
                 "%d bytes" % len(outputs[0]))
