"""Seeded instance generators shared by the CLI sweeps and the test suite.

All randomness flows from a single seed through ``numerics.subrng`` (spawn
key 10 for enclosure instances, 20 for diagonalizable ones).
"""

from __future__ import annotations

import math

import numpy as np

from . import enclosure as enclosure_mod
from . import numerics, operators

_TWO_PI = 2.0 * np.pi

#: instance grids for the enclosure sweep
_P_GRID = (0.0, 0.3, 0.5, 0.7)
_N_GRID = (16, 32, 64)
_RAY_GRID = (1, 2, 4)


def _ray_angles(rng: np.random.Generator, count: int) -> np.ndarray:
    """Random ray directions with pairwise separation >= 0.5 rad."""
    while True:
        thetas = np.sort(rng.uniform(0.0, _TWO_PI, size=count))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + _TWO_PI]]))
        if count == 1 or gaps.min() >= 0.5:
            return thetas


def enclosure_instance(seed: int):
    """One seeded enclosure-sweep instance.

    Returns (system, info).  The perturbation is a small dense background
    plus a skew coupling of two equal-modulus eigenvalues planted at the
    largest radius, so the subordination bound is known by construction
    (b ~ b_target) and the planted eigenvalue pair is displaced off its ray
    by the full bound — outside the certified ball, inside the lobes.
    """
    idx = int(seed)
    p = _P_GRID[idx % len(_P_GRID)]
    n = _N_GRID[(idx // len(_P_GRID)) % len(_N_GRID)]
    n_rays = _RAY_GRID[(idx // (len(_P_GRID) * len(_N_GRID))) % len(_RAY_GRID)]
    rng = numerics.subrng(seed, 10)

    b_target = float(rng.uniform(0.1, 0.5))
    psi = min(math.pi / 4.0, 0.5 * 0.5)  # conservative: half of min separation floor
    alpha_est = 1.1 * b_target * 1.1
    eps_est = (b_target * 1.1 / alpha_est + 1.0) / 2.0
    r0_est = enclosure_mod.certified_r0(b_target * 1.1, p, alpha_est, eps_est, psi)
    r_max = max(40.0, 4.0 * r0_est)

    thetas = _ray_angles(rng, n_rays)
    # log-uniform radii in [1, r_max]; last two entries form the planted pair
    radii = np.exp(rng.uniform(0.0, np.log(r_max), size=n))
    radii = np.clip(radii, 1.0, r_max)
    radii[-2:] = r_max
    assign = rng.integers(0, n_rays, size=n)
    assign[-2:] = 0
    rays = []
    for j, theta in enumerate(thetas):
        rs = sorted(radii[assign == j])
        if rs:
            rays.append(operators.Ray(theta=float(theta), radii=tuple(rs)))
    ray_spec = operators.RaySpectrumSpec(rays=tuple(rays))
    g = ray_spec.eigenvalues()

    # the planted pair: the last two radii of ray 0, first in G's diagonal
    i, j = len(rays[0].radii) - 2, len(rays[0].radii) - 1
    strength = b_target * r_max**p
    s = np.zeros((len(g), len(g)), dtype=complex)
    phase = np.exp(1j * thetas[0])
    s[i, j] = strength * phase
    s[j, i] = -strength * phase
    bg = numerics.gaussian(rng, (len(g), len(g)))
    bg *= 0.1 * b_target / numerics.opnorm(bg)
    s += bg

    system = operators.assemble(g, s, p, ray_spec=ray_spec)
    info = {"seed": idx, "n": int(len(g)), "p": float(p), "rays": int(len(rays)),
            "bTarget": b_target, "rMax": float(r_max)}
    return system, info


def run_enclosure_case(seed: int, alpha_factor: float = 1.1) -> dict:
    """Full enclosure check for one seeded instance.

    Builds the instance, runs ``enclosure.enclose`` on it and records the
    narrowed negative control (alpha = b / 2, same ball).
    """
    system, info = enclosure_instance(seed)
    run = enclosure_mod.enclose(system, alpha_factor)
    b, report = run.parameters["b"], run.report
    neg_alpha = 0.5 * b if b > 0.0 else 0.05
    neg_region = enclosure_mod.EnclosureRegion(run.region.r0, system.ray_spec.thetas, neg_alpha,
                                               system.p)
    neg_violators = np.count_nonzero(~enclosure_mod.contains(neg_region, report.eigenvalues))
    return {
        **info,
        **run.parameters,
        "allInside": bool(report.all_inside),
        "violators": [[z.real, z.imag] for z in report.violators.tolist()],
        "negativeControl": {"alpha": float(neg_alpha), "violatorCount": int(neg_violators)},
    }


def diagonalizable_instance(seed: int, n: int = 16):
    """Random diagonalizable matrix with two well-separated eigenvalue groups.

    Returns (matrix, values, vectors, inner_count): eigenvalues with modulus
    <= 1 (inner group) and >= 3 (outer group), eigenvector matrix with
    condition below 1e4; the circle |z| = 2 separates the groups.
    """
    rng = numerics.subrng(seed, 20)
    inner_count = int(rng.integers(1, n))
    values = np.empty(n, dtype=complex)
    phases = np.exp(1j * rng.uniform(0.0, _TWO_PI, size=n))
    values[:inner_count] = rng.uniform(0.2, 1.0, size=inner_count) * phases[:inner_count]
    values[inner_count:] = rng.uniform(3.0, 6.0, size=n - inner_count) * phases[inner_count:]
    while True:
        v = np.eye(n) + 0.35 * numerics.gaussian(rng, (n, n))
        if np.linalg.cond(v) < 1e4:
            break
    matrix = v @ np.diag(values) @ np.linalg.inv(v)
    return matrix, values, v, inner_count
