"""End-to-end tests of the command-line interface."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import test_golden
from specloc import cli, enclosure, numerics, projections, rieszbasis, subordination

E12 = np.array([[0.0, 1.0], [0.0, 0.0]])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def read_report(path):
    return json.loads(path.read_text())


@pytest.fixture
def basic_spec(tmp_path):
    return write_json(tmp_path / "spec.json", {
        "schemaVersion": 1,
        "G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0]}]},
        "S": {"kind": "dense", "entries": E12.tolist()},
        "p": 0.5,
    })


@pytest.fixture
def triple_spec(tmp_path):
    return write_json(tmp_path / "triple.json", {
        "G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
        "S": {"kind": "randomGaussian", "seed": 7, "scale": 0.2},
        "p": 0.5,
    })


@pytest.fixture
def hamiltonian_spec(tmp_path):
    """T = [[iR, B], [C, iR]], R = diag(4, 8, 12), as G.rays plus S."""
    b = [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.1]]
    c = [[0.9, -0.1, 0.0], [-0.1, 1.2, 0.2], [0.0, 0.2, 0.7]]
    return write_json(tmp_path / "ham.json", {
        "G": {"rays": [{"theta": math.pi / 2, "radii": [4.0, 8.0, 12.0] * 2}]},
        "S": {"kind": "offdiagonalBlock", "B": b, "C": c},
        "p": 0.0,
    })


HAMILTONIAN_GAPS = ["--abscissas", "2,6,10,14", "--alpha", "2"]

TRIPLE = {"G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
          "S": {"kind": "randomGaussian", "seed": 7, "scale": 0.2}, "p": 0.5}
# non-finite gap region parameters, each for project and rieszconst
NON_FINITE_GAPS = {
    "alpha-nan": ["--abscissas", "3,7", "--alpha", "nan"],
    "alpha-inf": ["--abscissas", "3,7", "--alpha", "inf"],
    "theta-nan": ["--abscissas", "3,7", "--alpha", "2", "--theta", "nan"],
    "theta-inf": ["--abscissas", "3,7", "--alpha", "2", "--theta", "inf"],
    "abscissa-inf": ["--abscissas", "3,inf", "--alpha", "2"],
}
NON_FINITE_CASES = [(TRIPLE, [command] + argv) for command in ("project", "rieszconst")
                    for argv in NON_FINITE_GAPS.values()]
NON_FINITE_IDS = ["%s-%s" % (command, name) for command in ("project", "rieszconst")
                  for name in NON_FINITE_GAPS]
# non-finite or out-of-range gap and Hamiltonian model parameters, keyed
# <command>-<parameter>-<value>
NAN, INF = float("nan"), float("inf")
RADII = [1.0, 4.0, 9.0, 16.0]
IDENTITY = {"kind": "identity"}
NON_FINITE_MODELS = {
    "gaps-l-nan": {"gapModel": {"radii": RADII, "l": NAN, "p": 0.5}},
    "gaps-l-inf": {"gapModel": {"radii": RADII, "l": INF, "p": 0.5}},
    "gaps-c-nan": {"gapModel": {"radii": RADII, "asymptotic": {"c": NAN, "q": 2.0},
                                "l": 0.5, "p": 0.5}},
    "gaps-q-nan": {"gapModel": {"radii": RADII, "asymptotic": {"c": 1.0, "q": NAN},
                                "l": 0.5, "p": 0.5}},
    "gaps-d-tail-nan": {"gapModel": {"radii": RADII,
                                     "asymptotic": {"c": 1.0, "q": 2.0, "dTail": [NAN]},
                                     "l": 0.5, "p": 0.5}},
    "gaps-q-inf": {"gapModel": {"asymptotic": {"c": 1.0, "q": INF}, "l": 0.5, "p": 0.5,
                                "kMax": 50}},
    "gaps-radii-overflow": {"gapModel": {"asymptotic": {"c": 1.0, "q": 400.0}, "l": 0.5,
                                         "p": 0.5, "kMax": 50}},
    "blockop-gamma-nan": {"hamiltonian": {"rSeq": [4.0, 8.0, 12.0], "B": IDENTITY,
                                          "C": IDENTITY, "gamma": NAN, "l": 1.5}},
    "blockop-gamma-inf": {"hamiltonian": {"rSeq": [4.0, 8.0, 12.0], "B": IDENTITY,
                                          "C": IDENTITY, "gamma": INF, "l": 1.5}},
    "blockop-randomspd-spread-inf": {"hamiltonian": {
        "rSeq": [4.0, 8.0, 12.0], "B": {"kind": "randomSpd", "gamma": 0.5, "spread": INF},
        "C": IDENTITY, "gamma": 0.5, "l": 1.5}},
    "blockop-randomspd-spread-nan": {"hamiltonian": {
        "rSeq": [4.0, 8.0, 12.0], "B": {"kind": "randomSpd", "gamma": 0.5, "spread": NAN},
        "C": IDENTITY, "gamma": 0.5, "l": 1.5}},
    "blockop-randomspd-spread-negative": {"hamiltonian": {
        "rSeq": [4.0, 8.0, 12.0], "B": {"kind": "randomSpd", "gamma": 0.5, "spread": -0.1},
        "C": IDENTITY, "gamma": 0.5, "l": 1.5}},
    # 1e10 radii would take 80 GB; an infinite kMax is no integer
    "gaps-kmax-huge": {"gapModel": {"asymptotic": {"c": 1.0, "q": 2.0}, "l": 0.5, "p": 0.5,
                                    "kMax": 1e10}},
    "gaps-kmax-inf": {"gapModel": {"asymptotic": {"c": 1.0, "q": 2.0}, "l": 0.5, "p": 0.5,
                                   "kMax": INF}},
    "subord-seed-inf": {"G": {"rays": [{"theta": 0.0, "radii": [1.0, 2.0]}]},
                        "S": {"kind": "randomGaussian", "seed": INF, "scale": 0.1}, "p": 0.5},
    # (1e-200)^2 underflows, so the pencil weights of the bracket would be NaN
    "subord-radius-underflow": {"G": {"rays": [{"theta": 0.0, "radii": [1e-200, 1.0, 2.0]}]},
                                "S": {"kind": "randomGaussian", "seed": 1, "scale": 0.3},
                                "p": 0.5},
}
NON_FINITE_MODEL_CASES = [(spec, [name.split("-")[0]]) for name, spec in NON_FINITE_MODELS.items()]


class TestSubord:
    def test_basic(self, basic_spec, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["subord", "--input", basic_spec, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["command"] == "subord"
        assert abs(report["bound"] - 0.5) < 1e-5
        lower, bound = report["lowerBound"], report["bound"]
        assert lower <= bound <= lower * (1.0 + subordination.BRACKET_RTOL)
        witness = [complex(re, im) for re, im in report["witness"]]
        g = [1.0, 4.0]
        np.testing.assert_allclose(subordination.subordination_ratio(E12, g, 0.5, witness),
                                   lower, rtol=1e-12)
        assert subordination.verify_bound(E12, g, 0.5, bound, sample_count=100_000) == []
        assert report["sampleViolations"] == 0
        assert len(report["input"]["digest"]) == 64

    def test_multiscale_moduli_have_no_kernel(self, tmp_path):
        # moduli 1, 2 and 1e13 span 13 decades, but none is zero: G has no kernel
        spec = write_json(tmp_path / "multiscale.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [1.0, 2.0, 1e13]}]},
            "S": {"kind": "randomGaussian", "seed": 1, "scale": 0.3},
            "p": 0.5,
        })
        out = tmp_path / "report.json"
        assert cli.main(["subord", "--input", spec, "--out", str(out)]) == 0
        report = read_report(out)
        lower, bound = report["lowerBound"], report["bound"]
        assert lower <= 0.2242721 <= bound <= lower * (1.0 + subordination.BRACKET_RTOL)
        assert report["sampleViolations"] == 0
        assert cli.main(["enclosure", "--input", spec, "--out", str(tmp_path / "e.json")]) == 0


class TestEnclosure:
    def test_all_inside_with_artifacts(self, triple_spec, tmp_path):
        out = tmp_path / "report.json"
        points = tmp_path / "points.csv"
        lobes = tmp_path / "lobes.csv"
        code = cli.main(["enclosure", "--input", triple_spec, "--out", str(out),
                         "--points", str(points), "--lobes", str(lobes)])
        assert code == 0
        report = read_report(out)
        assert report["allInside"] is True
        assert report["violators"] == []
        with open(points) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["re", "im", "inside"]
        assert len(rows) == 4
        assert all(r[2] == "1" for r in rows[1:])
        with open(lobes) as fh:
            assert next(csv.reader(fh)) == ["theta", "x", "y_upper", "y_lower"]

    @pytest.mark.parametrize("given", [{}, {"epsilon": 0.95, "psi": 0.3}])
    def test_reports_the_shared_chain(self, triple_spec, tmp_path, given):
        out = tmp_path / "report.json"
        options = [x for k, v in given.items() for x in ("--" + k, repr(v))]
        assert cli.main(["enclosure", "--input", triple_spec, "--out", str(out),
                         "--no-timestamp", *options]) == 0
        report = read_report(out)
        run = enclosure.enclose(cli.system_from_json(cli.load_spec(triple_spec)), 1.1, **given)
        assert {k: report[k] for k in run.parameters} == run.parameters


class TestGaps:
    def test_asymptotic_model(self, tmp_path):
        spec = write_json(tmp_path / "gaps.json", {
            "gapModel": {"asymptotic": {"c": 1.0, "q": 2.0}, "l": 0.5, "p": 0.5,
                         "kMax": 100},
        })
        out = tmp_path / "report.json"
        assert cli.main(["gaps", "--input", spec, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["allHold"] is True
        assert report["asymptoticVerdict"] == "holdsEventually"

    def test_explicit_radii(self, tmp_path):
        spec = write_json(tmp_path / "gaps.json", {
            "gapModel": {"radii": [1.0, 2.0, 10.0, 20.0], "l": 1.0, "p": 0.0},
        })
        out = tmp_path / "report.json"
        assert cli.main(["gaps", "--input", spec, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["allHold"] is False
        assert report["failures"] == [1]
        assert report["asymptoticVerdict"] is None

    @pytest.mark.parametrize("model, count", [
        ({"radii": [1.0]}, 1),
        ({"radii": []}, 0),
        ({"asymptotic": {"c": 1.0, "q": 2.0, "dTail": [0.5, 0.2]}, "kMax": -1}, 0),
    ], ids=["one-radius", "no-radii", "negative-kMax"])
    def test_too_few_radii(self, tmp_path, capsys, model, count):
        spec = write_json(tmp_path / "gaps.json", {"gapModel": {**model, "l": 0.5, "p": 0.5}})
        assert cli.main(["gaps", "--input", spec, "--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err == (
            "specloc: input error: a gap sequence needs at least two radii, got %d\n" % count)


class TestProject:
    def test_family_report(self, triple_spec, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["project", "--input", triple_spec, "--out", str(out),
                         "--abscissas", "3,7,11", "--alpha", "1.0"])
        assert code == 0
        report = read_report(out)
        assert [p["rank"] for p in report["projections"]] == [1, 1]
        assert report["crossTalk"] <= 1e-6
        labels = [p["label"] for p in report["projections"]]
        assert labels == ["gap[3,7]", "gap[7,11]"]


    def test_commutator_residual(self, hamiltonian_spec, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["project", "--input", hamiltonian_spec, "--out", str(out),
                         *HAMILTONIAN_GAPS]) == 0
        report = read_report(out)
        assert [p["rank"] for p in report["projections"]] == [2, 2, 2]
        for p in report["projections"]:
            assert p["idempotencyResidual"] <= 1e-8
            assert p["commutatorResidual"] <= 1e-8
            # every contour passes the closed-form gate and reports its bound
            assert 0.25 < p["gateMargin"] < 1.0

    def test_sampled_gate_reports_no_margin(self, tmp_path):
        # diag(1, 5, 9) with 3 above the diagonal: ||N|| about 4.2 exceeds the distance 2
        spec = write_json(tmp_path / "nonnormal.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
            "S": {"kind": "dense", "entries": [[0.0, 3.0, 0.0], [0.0, 0.0, 3.0], [0.0] * 3]},
            "p": 0.0,
        })
        out = tmp_path / "report.json"
        assert cli.main(["project", "--input", spec, "--out", str(out),
                         "--abscissas", "3,7,11", "--alpha", "1.0"]) == 0
        report = read_report(out)
        assert [(p["rank"], p["gateMargin"]) for p in report["projections"]] == [(1, None)] * 2

    def test_empty_gap(self, tmp_path, capsys, monkeypatch):
        # no eigenvalue of T lies in the gap (2, 3): project reports its member
        # with rank zero, and rieszconst rejects the family before it bounds
        # or norms any sign pattern
        def searched(*args):
            raise AssertionError("the sign-pattern search ran")

        monkeypatch.setattr(rieszbasis, "_pattern_bounds", searched)
        monkeypatch.setattr(rieszbasis, "_pattern_norms", searched)
        spec = write_json(tmp_path / "empty.json", dict(TRIPLE, p=0.0))
        gaps = ["--input", spec, "--abscissas", "0.5,2,3,7,11", "--alpha", "1.0"]
        out = tmp_path / "report.json"
        assert cli.main(["project", *gaps, "--out", str(out)]) == 0
        assert {p["label"]: p["rank"] for p in read_report(out)["projections"]} == {
            "gap[0.5,2]": 1, "gap[2,3]": 0, "gap[3,7]": 1, "gap[7,11]": 1}
        assert cli.main(["rieszconst", *gaps, "--out", str(tmp_path / "riesz.json")]) == 2
        assert capsys.readouterr().err == (
            "specloc: input error: projection 'gap[2,3]' has rank zero\n")
        assert not (tmp_path / "riesz.json").exists()

    @pytest.mark.parametrize("command", ["project", "rieszconst"])
    def test_no_tolerance_flag(self, hamiltonian_spec, command):
        assert cli.main([command, "--input", hamiltonian_spec, *HAMILTONIAN_GAPS,
                         "--tol", "1e-8"]) == 2


class TestRieszConst:
    def test_chain_holds(self, triple_spec, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["rieszconst", "--input", triple_spec, "--out", str(out),
                         "--abscissas", "3,7,11", "--alpha", "1.0"])
        assert code == 0
        report = read_report(out)
        assert report["twoSidedHolds"] is True
        assert report["chainHolds"] is True
        assert report["cHat"] <= report["cUpper"]
        assert report["basisConstant"] >= 1.0

    def test_sign_pattern_bracket(self, hamiltonian_spec, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["rieszconst", "--input", hamiltonian_spec, "--out", str(out),
                         *HAMILTONIAN_GAPS]) == 0
        report = read_report(out)
        assert report["complete"] is True
        assert 1.0 <= report["signPatternConstant"] <= report["signPatternUpper"]
        # three gaps: 2^2 patterns, of which the screen norms the top one;
        # too few to cap, so each pattern but (+, +, +) = I takes an eigvalsh
        assert report["signPatternsNormed"] == 1
        assert report["signPatternEigensolves"] == 3
        # the gap family has no tail: C's ends are the search's
        assert report["cHat"] == report["signPatternConstant"]
        assert report["cUpper"] == report["signPatternUpper"]

    def test_incomplete_family_has_no_upper(self, triple_spec, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["rieszconst", "--input", triple_spec, "--out", str(out),
                         "--abscissas", "3,7", "--alpha", "1.0"]) == 0
        report = read_report(out)
        assert report["complete"] is False
        assert report["signPatternUpper"] is None
        assert report["signPatternsNormed"] == 1
        assert report["signPatternEigensolves"] == 0
        assert report["cHat"] <= report["cUpper"]

    @staticmethod
    def four_blocks(tmp_path, cuts, *options):
        """rieszconst on the 4-block Hamiltonian of the benchmark's generator
        (eigenvalues near +-1 + 4ki, k = 1..4): (exit code, report, T)."""
        payload = test_golden.hamiltonian_spec(0, 4)
        spec, out = write_json(tmp_path / "ham4.json", payload), tmp_path / "r.json"
        code = cli.main(["rieszconst", "--input", spec, "--out", str(out), "--abscissas", cuts,
                         "--alpha", "2", *options])
        return code, read_report(out), cli.system_from_json(payload).t

    def test_one_member_bounds_c_by_its_norm(self, tmp_path):
        # m = 1: C = sigma_1(P) = 1.0032 for the skew projection onto the
        # eigenvalues near 4i, which the search's one pattern norms
        code, report, t = self.four_blocks(tmp_path, "2,6")
        p = projections.spectral_projector_oracle(t, lambda z: 2.0 < z.imag < 6.0)
        norm = float(np.linalg.svd(p, compute_uv=False)[0])
        assert code == 0 and report["complete"] is False and norm > 1.003
        assert report["cHat"] == report["cUpper"]
        np.testing.assert_allclose([report["cHat"], report["signPatternConstant"]], norm,
                                   rtol=1e-10)

    def test_the_identity_bounds_c_by_one(self, tmp_path):
        # every eigenvalue lies in one gap: P = I, and C = 1
        code, report, _ = self.four_blocks(tmp_path, "0.5,18")
        assert code == 0 and report["complete"] is True
        assert abs(report["cHat"] - 1.0) <= 1e-12
        assert report["cHat"] <= report["cUpper"]

    def test_an_exhaustive_search_draws_no_random_numbers(self, tmp_path, count_calls):
        draws = count_calls(numerics, "subrng")
        code, report, _ = self.four_blocks(tmp_path, "2,6,10,14,18", "--seed", "5")
        assert code == 0 and report["signPatternsExhaustive"] is True
        assert draws == []

    def test_a_sampled_search_draws_its_patterns_from_the_seed(self, tmp_path, count_calls):
        # 13 gaps: above SIGN_EXHAUSTIVE_MAX, so 4096 patterns from spawn key 4
        payload = test_golden.hamiltonian_spec(0, 13)
        spec, out = write_json(tmp_path / "ham13.json", payload), tmp_path / "r.json"
        draws = count_calls(numerics, "subrng")
        assert cli.main(["rieszconst", "--input", spec, "--out", str(out), "--abscissas",
                         ",".join(str(4 * k + 2) for k in range(14)), "--alpha", "2",
                         "--seed", "5"]) == 0
        report = read_report(out)
        assert report["signPatternsExhaustive"] is False
        assert draws == [((5, 4), {})]
        assert report["cHat"] == report["signPatternConstant"]
        assert report["cUpper"] == report["signPatternUpper"]

    def test_one_riesz_constant(self, hamiltonian_spec, tmp_path, count_calls):
        # the screen and the estimate share one SVD of the stacked frames F,
        # and riesz_constant, which would take a second, is not called
        calls = count_calls(rieszbasis, "riesz_constant")
        estimates = count_calls(rieszbasis, "verify_projection_estimate")
        svds = count_calls(np.linalg, "svd")
        out = tmp_path / "r.json"
        assert cli.main(["rieszconst", "--input", hamiltonian_spec, "--out", str(out),
                         *HAMILTONIAN_GAPS]) == 0
        assert read_report(out)["signPatternUpper"] is not None  # the screen ran
        [((family, _), _)] = estimates
        assert calls == []
        assert [a is family.factors[0] for (a, *_), _ in svds].count(True) == 1


class TestBlockop:
    def test_identity_coupling(self, tmp_path):
        spec = write_json(tmp_path / "ham.json", {
            "hamiltonian": {"rSeq": [4.0, 8.0, 12.0], "B": {"kind": "identity"},
                            "C": {"kind": "identity"}, "gamma": 1.0, "l": 1.5},
        })
        out = tmp_path / "report.json"
        assert cli.main(["blockop", "--input", spec, "--out", str(out)]) == 0
        report = read_report(out)
        assert report["perDiscCounts"] == [2, 2, 2]
        assert report["pairingDefects"] == []
        assert report["j1SkewResidual"] <= 1e-12
        # blockop is the one subcommand with a tolerance
        assert cli.main(["blockop", "--input", spec, "--out", str(out), "--tol", "1e-6"]) == 0

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tol_must_be_finite_and_non_negative(self, tmp_path, capsys, tol):
        spec = write_json(tmp_path / "ham.json", {
            "hamiltonian": {"rSeq": [4.0, 8.0, 12.0], "B": {"kind": "identity"},
                            "C": {"kind": "identity"}, "gamma": 1.0, "l": 1.5},
        })
        out = tmp_path / "report.json"
        assert cli.main(["blockop", "--input", spec, "--out", str(out), "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith("specloc: input error: need a finite tol")
        assert not out.exists()

    def test_random_spd_blocks(self, tmp_path):
        spec = write_json(tmp_path / "ham.json", {
            "hamiltonian": {"rSeq": [10.0, 20.0, 30.0],
                            "B": {"kind": "randomSpd", "seed": 1, "gamma": 0.5, "spread": 0.5},
                            "C": {"kind": "randomSpd", "seed": 2, "gamma": 0.5, "spread": 0.5},
                            "gamma": 0.5, "l": 1.5},
        })
        out = tmp_path / "report.json"
        assert cli.main(["blockop", "--input", spec, "--out", str(out)]) == 0

    def test_one_norm_each_of_b_and_c(self, tmp_path, count_calls):
        b, c = np.diag([1.0, 1.2, 0.9]), np.diag([0.8, 0.7, 1.1])
        spec = write_json(tmp_path / "ham.json", {
            "hamiltonian": {"rSeq": [10.0, 20.0, 30.0], "B": b.tolist(), "C": c.tolist(),
                            "gamma": 0.5, "l": 1.5},
        })
        normed = count_calls(numerics, "opnorm")
        out = tmp_path / "report.json"
        assert cli.main(["blockop", "--input", spec, "--out", str(out)]) == 0
        assert [sum(np.array_equal(args[0], m) for args, _ in normed) for m in (b, c)] == [1, 1]
        assert read_report(out)["b"] == 1.2


class TestSweepAndDemo:
    def test_sweep_small(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["sweep", "--seeds", "0,1", "--out", str(out), "--no-timestamp"])
        assert code == 0
        report = read_report(out)
        assert [c["seed"] for c in report["cases"]] == [0, 1]
        assert report["allInside"] is True
        assert report["negativeControlViolatorFraction"] == 1.0

    def test_sweep_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            assert cli.main(["sweep", "--seeds", "3", "--out", str(out),
                             "--no-timestamp"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("command", ["project", "rieszconst"])
    def test_gap_family_deterministic_bytes(self, hamiltonian_spec, tmp_path, command):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert cli.main([command, "--input", hamiltonian_spec, "--out", str(out),
                             *HAMILTONIAN_GAPS, "--no-timestamp"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_seed_range_parsing(self):
        assert cli._parse_seed_range("2..5") == [2, 3, 4, 5]
        assert cli._parse_seed_range("7,1,3") == [7, 1, 3]

    def test_demo_points(self, tmp_path):
        out = tmp_path / "report.json"
        points = tmp_path / "demo.csv"
        code = cli.main(["demo", "figure4", "--out", str(out), "--points", str(points)])
        assert code == 0
        report = read_report(out)
        with open(points) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "x", "y"]
        assert len(rows) - 1 == report["pointRows"]
        kinds = {r[0] for r in rows[1:]}
        assert "eigenvalue" in kinds and "parabola_upper" in kinds


class TestBlasThreads:
    def test_unset_thread_variables_give_the_pinned_report(self, tmp_path):
        # dimension 128: zgees orders the Schur diagonal by the BLAS thread
        # count here, so a second thread moves every gateMargin
        n = 64
        rng = np.random.default_rng(128)

        def hermitian():
            q, _ = np.linalg.qr(numerics.gaussian(rng, (n, n)))
            m = (q * rng.uniform(0.5, 1.3, n)) @ q.conj().T
            return 0.5 * (m + m.conj().T)

        pairs = [[[[z.real, z.imag] for z in row] for row in hermitian()] for _ in "BC"]
        r_seq = [4.0 * k for k in range(1, n + 1)]
        spec = write_json(tmp_path / "ham128.json", {
            "G": {"rays": [{"theta": math.pi / 2, "radii": r_seq + r_seq}]},
            "S": {"kind": "offdiagonalBlock", "B": pairs[0], "C": pairs[1]},
            "p": 0.0,
        })
        argv = ["project", "--input", spec, "--alpha", "2", "--no-timestamp", "--abscissas",
                ",".join(repr(4.0 * k + 2.0) for k in range(n + 1))]
        pinned, unset = tmp_path / "pinned.json", tmp_path / "unset.json"
        assert cli.main(argv + ["--out", str(pinned)]) == 0
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-m", "specloc.cli", *argv, "--out", str(unset)],
                       env=env, check=True, capture_output=True)
        assert unset.read_bytes() == pinned.read_bytes()


class TestErrorPaths:
    def test_missing_file(self, tmp_path):
        assert cli.main(["subord", "--input", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["subord", "--input", str(bad)]) == 2

    def test_unsupported_schema_version(self, tmp_path):
        spec = write_json(tmp_path / "v9.json", {"schemaVersion": 9})
        assert cli.main(["subord", "--input", spec]) == 2

    def test_missing_p(self, tmp_path):
        spec = write_json(tmp_path / "nop.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [1.0]}]},
            "S": {"kind": "dense", "entries": [[0.0]]},
        })
        assert cli.main(["subord", "--input", spec]) == 2

    @pytest.mark.parametrize("spec, argv", [
        ({"G": {"rays": [{"radii": [1.0]}]}, "S": {"kind": "dense", "entries": [[0.0]]},
          "p": 0.5}, ["subord"]),
        ({"G": {"rays": [{"theta": 0.0, "radii": [1.0]}]},
          "S": {"kind": "randomGaussian", "seed": 1}, "p": 0.5}, ["subord"]),
        ({"G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0, 9.0, 16.0]}]},
          "S": {"kind": "randomGaussian", "seed": 1, "scale": 0.3}, "p": 0.001}, ["enclosure"]),
        ({"G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
          "S": {"kind": "randomGaussian", "seed": 7, "scale": 0.2}, "p": 0.5},
         ["project", "--abscissas", "2,x", "--alpha", "1.0"]),
        (None, ["sweep", "--seeds", "a..b"]),
        (None, ["sweep", "--seeds", "5..3"]),
        (None, ["sweep", "--seeds=-2..-1"]),
        (None, ["demo", "--seed=-1"]),
        ({"G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0, 9.0, 16.0]}]},
          "S": {"kind": "randomGaussian", "seed": 1, "scale": 0.3}, "p": 0.5},
         ["enclosure", "--alpha-factor", "0"]),
        (None, ["sweep", "--seeds", "0..0", "--alpha-factor", "0"]),
        (TRIPLE, ["enclosure", "--alpha-factor", "inf"]),
        (None, ["sweep", "--seeds", "0..2", "--alpha-factor", "inf"]),
    ] + NON_FINITE_CASES + NON_FINITE_MODEL_CASES,
        ids=["ray-without-theta", "gaussian-without-scale", "r0-beyond-float-range",
             "abscissa-not-a-number", "seeds-not-integers", "empty-seed-range",
             "negative-sweep-seeds", "negative-seed", "enclosure-alpha-factor-zero",
             "sweep-alpha-factor-zero", "enclosure-alpha-factor-inf",
             "sweep-alpha-factor-inf"] + NON_FINITE_IDS + list(NON_FINITE_MODELS))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_input(self, tmp_path, capsys, spec, argv):
        if spec is not None:
            argv = argv + ["--input", write_json(tmp_path / "spec.json", spec)]
        assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        assert capsys.readouterr().err.startswith("specloc: input error: ")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv", [["sweep", "--suite", "other"], ["demo", "figure5"]],
                             ids=["sweep-suite", "demo-what"])
    def test_unknown_choice(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_infinite_bound_blames_the_kernel(self, tmp_path, capsys):
        # G has the eigenvalue 0 and p > 0: S does not vanish on ker G
        spec = write_json(tmp_path / "kernel.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [0.0, 1.0, 4.0]}]},
            "S": {"kind": "randomGaussian", "seed": 1, "scale": 0.3},
            "p": 0.5,
        })
        assert cli.main(["enclosure", "--input", spec]) == 2
        err = capsys.readouterr().err
        assert "not p-subordinate" in err and "ker G" in err
        assert "alpha" not in err

    @pytest.mark.parametrize("s", [
        {"kind": "dense", "entries": np.eye(3).tolist()},
        {"kind": "offdiagonalBlock", "B": [[1.0]], "C": [[1.0]]},
    ], ids=["dense", "offdiagonal-block"])
    def test_perturbation_size_must_match_rays(self, tmp_path, capsys, s):
        spec = write_json(tmp_path / "size.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0, 9.0, 16.0]}]}, "S": s, "p": 0.5})
        assert cli.main(["subord", "--input", spec]) == 2
        assert capsys.readouterr().err.startswith("specloc: input error: ")

    def test_unknown_flag(self, basic_spec):
        assert cli.main(["subord", "--input", basic_spec, "--bogus"]) == 2

    def test_parser_built_once_keeps_no_parse_state(self):
        # build_parser is cached, so one parse must not leak into the next
        assert cli.build_parser() is cli.build_parser()
        parse = cli.build_parser().parse_args
        first = parse(["rieszconst", "--input", "a.json", "--abscissas", "1,2", "--alpha", "2",
                       "--theta", "0.5", "--seed", "3"])
        second = parse(["project", "--input", "b.json", "--abscissas", "1,2", "--alpha", "1"])
        assert (first.theta, first.seed, first.func) == (0.5, 3, cli.cmd_rieszconst)
        assert (second.theta, second.func, second.input) == (None, cli.cmd_project, "b.json")
        assert "seed" not in second

    def test_contour_through_spectrum_is_check_failure(self, tmp_path):
        spec = write_json(tmp_path / "exact.json", {
            "G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
            "S": {"kind": "randomGaussian", "seed": 0, "scale": 0.0},
            "p": 0.5,
        })
        assert cli.main(["project", "--input", spec,
                         "--abscissas", "5,7", "--alpha", "1.0"]) == 1
