"""The benchmark's three workloads.

Each workload turns the run seed into one round of ops.  An op is a pair
``(run, check)``: ``run()`` calls the program and returns its output, and
``check(output)`` returns True when that output is correct.  The runner
times ``run`` only, and repeats the round until the run's time is up, so a
traced run sees the same inputs in every round and its counts per op repeat
exactly.  The program receives generated inputs only; the seed stays in the
benchmark.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from specloc import cli, contours, instances, numerics, projections, rieszbasis

#: enclosure-sweep cases per round; a multiple of 36 covers every
#: (p, n, rays) cell of the instance grid equally
SWEEP_BLOCK = 288

#: projection-oracle instances per round: 175 = lcm(25, 7) consecutive seeds
#: cover every (n, m) = (8 + seed % 25, 2 + seed % 7) pair once
ORACLE_BLOCK = 175

#: Hamiltonian block size n (dimension 2n, n gap contours)
HAMILTONIAN_N = 24

#: acceptance test_01 gate on ||P_quad - P_oracle||
ORACLE_GATE = 1e-7

#: relative agreement required between the reported basis constant and the
#: constant of the eigendecomposition-oracle projector ranges
BASIS_RTOL = 1e-6

#: spawn key that separates the benchmark's Hamiltonian stream from specloc's
_HAMILTONIAN_KEY = 90


# ---------------------------------------------------------------------------
# enclosure-sweep


def _sweep_check(case) -> bool:
    return (case["allInside"] and math.isfinite(case["b"])
            and math.isfinite(case["r0"]))


def enclosure_sweep(seed: int, workdir: str):
    """One op per seed of a block of consecutive sweep seeds: the per-seed
    body of ``specloc sweep``."""
    first = seed * SWEEP_BLOCK
    return [(lambda s=s: instances.run_enclosure_case(s), _sweep_check)
            for s in range(first, first + SWEEP_BLOCK)]


# ---------------------------------------------------------------------------
# hamiltonian-family


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Hermitian matrix with spectrum in [0.5, 1.3]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * rng.uniform(0.5, 1.3, n)) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def _pairs(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def hamiltonian_spec(seed: int, n: int) -> dict:
    """Spec file holding the Hamiltonian T = [[iR, B], [C, iR]] twice: as a
    ``hamiltonian`` section for ``blockop`` and as G.rays plus an
    off-diagonal block S for ``rieszconst``."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed),
                                                       spawn_key=(_HAMILTONIAN_KEY,)))
    b_mat = _pairs(_hermitian(rng, n))
    c_mat = _pairs(_hermitian(rng, n))
    r_seq = [4.0 * k for k in range(1, n + 1)]
    return {
        "schemaVersion": 1,
        "hamiltonian": {"rSeq": r_seq, "B": b_mat, "C": c_mat, "gamma": 0.5, "l": 1.5},
        "G": {"rays": [{"theta": math.pi / 2.0, "radii": r_seq + r_seq}]},
        "S": {"kind": "offdiagonalBlock", "B": b_mat, "C": c_mat},
        "p": 0.0,
    }


def _oracle_basis_constant(spec_path: str, cuts) -> float:
    """Riesz constant of the eigendecomposition-oracle projector ranges."""
    system = cli.system_from_json(cli.load_spec(spec_path))
    family = projections.make_family([
        ("gap%d" % k, projections.spectral_projector_oracle(
            system.t, lambda z, lo=lo, hi=hi: lo < z.imag < hi))
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:]))])
    return rieszbasis.riesz_constant(rieszbasis.range_family(family)).constant


def hamiltonian_family(seed: int, workdir: str):
    """One op: ``specloc blockop`` then ``specloc rieszconst`` on one spec."""
    n = HAMILTONIAN_N
    spec = os.path.join(workdir, "hamiltonian-%d.json" % seed)
    blockop_out = os.path.join(workdir, "blockop-%d.json" % seed)
    riesz_out = os.path.join(workdir, "rieszconst-%d.json" % seed)
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump(hamiltonian_spec(seed, n), fh)
    cuts = [4.0 * k + 2.0 for k in range(n + 1)]
    expected = _oracle_basis_constant(spec, cuts)
    abscissas = ",".join(repr(x) for x in cuts)

    def run():
        for path in (blockop_out, riesz_out):
            if os.path.exists(path):
                os.remove(path)
        return (cli.main(["blockop", "--input", spec, "--out", blockop_out, "--no-timestamp"]),
                cli.main(["rieszconst", "--input", spec, "--out", riesz_out,
                          "--abscissas", abscissas, "--alpha", "2",
                          "--seed", str(seed), "--no-timestamp"]))

    def check(codes) -> bool:
        if codes != (0, 0):
            return False
        with open(riesz_out, encoding="utf-8") as fh:
            report = json.load(fh)
        return (report["complete"] and report["twoSidedHolds"] and report["chainHolds"]
                and abs(report["basisConstant"] - expected) <= BASIS_RTOL * expected)

    return [(run, check)]


# ---------------------------------------------------------------------------
# projection-oracle


def _projection_op(seed: int):
    n = 8 + seed % 25
    m = 2 + seed % 7
    matrix, _, vectors, inner = instances.diagonalizable_instance(seed, n=n)
    p_quad = projections.riesz_projection(matrix, contours.circle(0.0, 2.0, 64))
    p_oracle = projections.spectral_projector_oracle(matrix, lambda z: abs(z) < 2.0)
    # skew family: eigenvector j goes to projector j % m
    inverse = np.linalg.inv(vectors)
    family = projections.make_family([
        ("P%d" % k, vectors[:, k::m] @ inverse[k::m, :]) for k in range(m)])
    constant = rieszbasis.sign_pattern_constant(family, seed=seed)
    estimate = rieszbasis.verify_projection_estimate(family, constant, seed=seed)
    return inner, p_quad, p_oracle, estimate


def _projection_check(out) -> bool:
    inner, p_quad, p_oracle, estimate = out
    return (numerics.opnorm(p_quad - p_oracle) <= ORACLE_GATE
            and projections.rank_of_projection(p_quad) == inner
            and estimate.two_sided_holds and estimate.chain_holds)


def projection_oracle(seed: int, workdir: str):
    """One op per instance seed: circle Riesz projection against the
    eigendecomposition oracle, then an exhaustive sign-pattern family."""
    first = seed * ORACLE_BLOCK
    return [(lambda s=s: _projection_op(s), _projection_check)
            for s in range(first, first + ORACLE_BLOCK)]


WORKLOADS = {
    "enclosure-sweep": enclosure_sweep,
    "hamiltonian-family": hamiltonian_family,
    "projection-oracle": projection_oracle,
}
