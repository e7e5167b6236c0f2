"""Command-line interface.

Subcommands operate on a JSON system specification and write JSON reports
(complex numbers as [re, im] pairs) and CSV point clouds.  ``write_report``
gives every report its header: the command, schemaVersion, the input path and
digest for subcommands that read a spec and, for subcommands that take
``--seed``, the driving seed; with ``--no-timestamp`` repeated runs are
byte-identical.  Each subcommand accepts only the options it reads.  A
malformed spec, seed range or abscissa list, or a negative seed, is an input
error (exit 2).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import functools
import hashlib
import json
import math
import reprlib
import sys

import numpy as np

from . import blockop as blockop_mod
from . import contours as contours_mod
from . import enclosure as enclosure_mod
from . import instances, numerics, operators, projections, rieszbasis, spectra, subordination
from .errors import DimensionError, InputError, SpeclocError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


# ---------------------------------------------------------------------------
# input parsing


@contextlib.contextmanager
def _reading(what: str):
    """Report a KeyError, TypeError, ValueError or OverflowError (an infinite
    integer) raised while reading ``what`` from the user as an InputError;
    usable as a decorator."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError("malformed %s: %s %s" % (what, type(exc).__name__, exc)) from exc


def _matrix_from_json(rows):
    """The complex matrix of a list of rows whose entries are all numbers or all
    [re, im] pairs; the pairs are read bit for bit."""
    with contextlib.suppress(ValueError):  # a ragged or mixed matrix
        m = np.array(rows)
        if m.dtype.kind in "biuf" and m.ndim == 2:
            return m.astype(complex)
        if m.dtype.kind in "biuf" and m.shape[2:] == (2,) and m.ndim == 3:
            return np.ascontiguousarray(m, dtype=float).view(complex)[..., 0]
    raise InputError("expected a number or [re, im] pair in every entry, got %s"
                     % reprlib.repr(rows))


def load_spec(path: str) -> dict:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw.decode("utf-8"))
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc
    except (ValueError, UnicodeDecodeError) as exc:
        raise InputError("%s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise InputError("%s: top level must be an object" % path)
    version = data.get("schemaVersion", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InputError("unsupported schemaVersion %r" % version)
    data["_digest"] = hashlib.sha256(raw).hexdigest()
    data["_path"] = path
    return data


def ray_spec_from_json(data: dict) -> operators.RaySpectrumSpec:
    g = data.get("G")
    if not isinstance(g, dict) or "rays" not in g:
        raise InputError("spec needs G.rays")
    rays = []
    for ray in g["rays"]:
        rays.append(operators.Ray(theta=float(ray["theta"]),
                                  radii=tuple(float(r) for r in ray["radii"])))
    return operators.RaySpectrumSpec(rays=tuple(rays))


def perturbation_from_json(data: dict, n: int) -> np.ndarray:
    """The n x n matrix S of the spec's ``S`` section."""
    s = data.get("S")
    if not isinstance(s, dict) or "kind" not in s:
        raise InputError("spec needs S.kind")
    kind = s["kind"]
    if kind == "dense":
        m = _matrix_from_json(s["entries"])
    elif kind == "randomGaussian":
        m = operators.random_gaussian(n, int(s["seed"]), float(s["scale"]))
    elif kind == "banded":
        m = operators.banded(n, int(s["seed"]), float(s["scale"]), int(s["bandwidth"]))
    elif kind == "offdiagonalBlock":
        m = operators.offdiagonal_block(_matrix_from_json(s["B"]), _matrix_from_json(s["C"]))
    else:
        raise InputError("unknown perturbation kind %r" % kind)
    if m.shape != (n, n):
        raise DimensionError("S is %r, expected %dx%d" % (m.shape, n, n))
    return m


@_reading("system spec")
def system_from_json(data: dict) -> operators.PerturbedSystem:
    ray_spec = ray_spec_from_json(data)
    n = ray_spec.dimension
    declared = data.get("dimension")
    if declared is not None and int(declared) != n:
        raise InputError("declared dimension %r != ray dimension %d" % (declared, n))
    if "p" not in data:
        raise InputError("spec needs the subordination exponent p")
    s = perturbation_from_json(data, n)
    return operators.assemble(ray_spec.eigenvalues(), s, float(data["p"]), ray_spec=ray_spec)


@_reading("hamiltonian spec")
def hamiltonian_from_json(data: dict) -> blockop_mod.HamiltonianModel:
    h = data.get("hamiltonian")
    if not isinstance(h, dict):
        raise InputError("spec needs a hamiltonian section")
    n = len(h["rSeq"])

    def block(value):
        if isinstance(value, dict):
            if value.get("kind") == "identity":
                return float(value.get("scale", 1.0)) * np.eye(n, dtype=complex)
            if value.get("kind") == "randomSpd":
                spread = float(value.get("spread", 1.0))
                if not 0.0 <= spread < math.inf:
                    raise InputError("randomSpd spread must be finite and non-negative")
                rng = numerics.subrng(int(value.get("seed", 0)), 30)
                q, _ = np.linalg.qr(numerics.gaussian(rng, (n, n)))
                lam = float(value["gamma"]) + rng.uniform(0.0, spread, n)
                return (q * lam) @ q.conj().T
            raise InputError("unknown block kind %r" % value.get("kind"))
        return _matrix_from_json(value)

    return blockop_mod.HamiltonianModel(
        r_seq=tuple(float(r) for r in h["rSeq"]),
        b_mat=block(h["B"]), c_mat=block(h["C"]),
        gamma=float(h["gamma"]), l=float(h["l"]),
    )


@_reading("gapModel spec")
def gap_model_from_json(data: dict) -> spectra.GapSequenceModel:
    gm = data.get("gapModel")
    if not isinstance(gm, dict):
        raise InputError("spec needs a gapModel section")
    asym = gm.get("asymptotic")
    if "radii" in gm:
        model_asym = None
        if asym:
            model_asym = spectra.AsymptoticModel(c=float(asym["c"]), q=float(asym["q"]),
                                                 d_tail=tuple(asym.get("dTail", ())))
        return spectra.GapSequenceModel(radii=tuple(float(r) for r in gm["radii"]),
                                        l=float(gm["l"]), p=float(gm["p"]),
                                        asymptotic=model_asym)
    if asym:
        return spectra.from_asymptotic(c=float(asym["c"]), q=float(asym["q"]),
                                       l=float(gm["l"]), p=float(gm["p"]),
                                       k_max=int(gm.get("kMax", 1000)),
                                       d_tail=tuple(asym.get("dTail", ())))
    raise InputError("gapModel needs radii or asymptotic")


# ---------------------------------------------------------------------------
# output helpers


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def write_report(report: dict, args) -> None:
    """Write ``report`` under the shared header (see the module docstring)."""
    header = {"command": args.command, "schemaVersion": SCHEMA_VERSION}
    if "spec" in args:
        header["input"] = {"path": args.spec["_path"], "digest": args.spec["_digest"]}
    if "seed" in args:
        header["seed"] = args.seed
    if not args.no_timestamp:
        header["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    text = json.dumps(_jsonify({**report, **header}), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_points_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


# ---------------------------------------------------------------------------
# subcommands


def cmd_subord(args) -> int:
    system = system_from_json(args.spec)
    result = subordination.subordination_bound(system.s, system.g, system.p)
    violations = []
    if math.isfinite(result.bound):
        violations = subordination.verify_bound(system.s, system.g, system.p, result.bound,
                                                sample_count=1000, seed=args.seed)
    write_report({
        "p": system.p,
        "bound": result.bound,
        "lowerBound": result.lower,
        "witness": None if result.witness is None else list(result.witness),
        "sampleViolations": len(violations),
    }, args)
    return EXIT_OK if not violations else EXIT_CHECK_FAILED


def cmd_enclosure(args) -> int:
    run = enclosure_mod.enclose(system_from_json(args.spec), args.alpha_factor, args.epsilon,
                                args.psi)
    region, report = run.region, run.report
    if args.points:
        z = report.eigenvalues
        write_points_csv(args.points, ("re", "im", "inside"),
                         zip(z.real, z.imag, enclosure_mod.contains(region, z).astype(int)))
    if args.lobes:
        x_max = max(float(np.max(np.abs(report.eigenvalues))), region.r0, 1.0) * 1.1
        write_points_csv(args.lobes, ("theta", "x", "y_upper", "y_lower"),
                         enclosure_mod.lobe_boundary(region, x_max))
    write_report({
        **run.parameters,
        "allInside": report.all_inside,
        "violators": report.violators,
    }, args)
    return EXIT_OK if report.all_inside else EXIT_CHECK_FAILED


def cmd_gaps(args) -> int:
    model = gap_model_from_json(args.spec)
    report = spectra.check_gap_sequence(model)
    verdict = None
    if model.asymptotic is not None:
        verdict = spectra.classify_asymptotic_gap(model.asymptotic.c, model.asymptotic.q,
                                                  model.l, model.p)
    write_report({
        "l": model.l, "p": model.p,
        "allHold": report.all_hold,
        "firstHoldIndex": report.first_hold_index,
        "failures": report.k[~report.holds].tolist(),
        "asymptoticVerdict": verdict,
    }, args)
    return EXIT_OK


def _gap_family(args):
    """Build the gap projection family of project/rieszconst from the spec.

    Returns (t, abscissae, theta, family); theta defaults to the first ray's
    angle.
    """
    system = system_from_json(args.spec)
    with _reading("--abscissas"):
        abscissae = [float(x) for x in args.abscissas.split(",")]
    theta = args.theta if args.theta is not None else float(system.ray_spec.rays[0].theta)
    family = projections.family_from_gaps(system.t, abscissae, args.alpha, system.p,
                                          theta=theta)
    return system.t, abscissae, theta, family


def cmd_project(args) -> int:
    t, abscissae, theta, family = _gap_family(args)
    # ||T P - P T|| on the original T checks the Schur-coordinate route
    commutators = family.commutator_residuals(t)
    write_report({
        "abscissas": abscissae, "alpha": args.alpha, "theta": theta,
        "projections": [{"label": e.label, "rank": e.rank, "gateMargin": e.gate_margin,
                         "idempotencyResidual": e.idempotency_residual,
                         "commutatorResidual": commutator}
                        for e, commutator in zip(family.entries, commutators)],
        "crossTalk": family.cross_talk,
        "sumResidual": family.sum_residual,
    }, args)
    return EXIT_OK


def cmd_rieszconst(args) -> int:
    _, _, _, family = _gap_family(args)
    search = rieszbasis.sign_pattern_constant(family, seed=args.seed, report=True)
    c_hat, c_upper = projections.projection_sum_bound(family, search.constant, search.upper)
    estimate = rieszbasis.verify_projection_estimate(family, search.constant)
    write_report({
        "cHat": c_hat, "cUpper": c_upper,
        "signPatternConstant": estimate.constant,
        "signPatternUpper": search.upper,
        "signPatternsNormed": search.normed,
        "signPatternEigensolves": search.eigensolves,
        "signPatternsExhaustive": search.exhaustive,
        "twoSidedHolds": estimate.two_sided_holds,
        "basisConstant": estimate.basis_constant,
        "complete": estimate.complete,
        "chainHolds": estimate.chain_holds,
    }, args)
    return EXIT_OK if estimate.two_sided_holds and estimate.chain_holds else EXIT_CHECK_FAILED


def cmd_blockop(args) -> int:
    model = hamiltonian_from_json(args.spec)
    system = blockop_mod.build_hamiltonian(model)
    report = blockop_mod.verify_hamiltonian(system, model, tol=args.tol)
    write_report({
        "b": model.subordination_norm,
        "j1SkewResidual": report.j1_skew_residual,
        "pairingDefects": list(report.pairing_defects),
        "realPartFloorViolations": list(report.real_part_floor_violations),
        "discViolations": list(report.disc_violations),
        "perDiscCounts": list(report.per_disc_counts),
        "discSimple": list(report.disc_simple),
        "eigenvectorCondition": report.eigenvector_condition,
    }, args)
    return EXIT_OK if report.clean else EXIT_CHECK_FAILED


@_reading("--seeds")
def _parse_seed_range(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(s) for s in text.split(",")]
    if not seeds or min(seeds) < 0:
        raise InputError("need a non-empty range of non-negative seeds, got %r" % text)
    return seeds


def cmd_sweep(args) -> int:
    if args.suite != "enclosure":
        raise InputError("unknown sweep suite %r" % args.suite)
    seeds = _parse_seed_range(args.seeds)
    cases = [instances.run_enclosure_case(s, alpha_factor=args.alpha_factor) for s in seeds]
    all_inside = all(c["allInside"] for c in cases)
    neg_frac = sum(1 for c in cases if c["negativeControl"]["violatorCount"] > 0) / len(cases)
    write_report({
        "suite": args.suite,
        "seeds": seeds,
        "alphaFactor": args.alpha_factor,
        "cases": cases,
        "allInside": all_inside,
        "negativeControlViolatorFraction": neg_frac,
    }, args)
    return EXIT_OK if all_inside else EXIT_CHECK_FAILED


def cmd_demo(args) -> int:
    if args.what != "figure4":
        raise InputError("unknown demo %r" % args.what)
    # built-in instance: quadratically spaced radii on one ray, p = 1/2
    k = np.arange(1, 13)
    radii = (k**2).astype(float)
    ray_spec = operators.RaySpectrumSpec(rays=(operators.Ray(theta=0.0, radii=tuple(radii)),))
    s = operators.random_gaussian(ray_spec.dimension, args.seed, 0.8)
    system = operators.assemble(ray_spec.eigenvalues(), s, 0.5, ray_spec=ray_spec)
    b = subordination.subordination_bound(system.s, system.g, system.p).bound
    alpha = 1.5 * b
    abscissae = [float((x + 0.5) ** 2) for x in k[:-1]]
    rows = []
    for z in numerics.eig(system.t).values:
        rows.append(("eigenvalue", float(z.real), float(z.imag)))
    for xl, xr in zip(abscissae, abscissae[1:]):
        contour = contours_mod.gap_contour(xl, xr, alpha, 0.5)
        for z in contour.nodes:
            rows.append(("contour[%g,%g]" % (xl, xr), float(z.real), float(z.imag)))
    xs = np.linspace(0.0, radii[-1] * 1.1, 400)
    for x in xs:
        rows.append(("parabola_upper", float(x), float(alpha * x**0.5)))
        rows.append(("parabola_lower", float(x), float(-alpha * x**0.5)))
    if args.points:
        write_points_csv(args.points, ("kind", "x", "y"), rows)
    write_report({
        "what": args.what,
        "b": b,
        "alpha": alpha,
        "abscissas": abscissae,
        "pointRows": len(rows),
    }, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: argparse keeps no state between parses."""
    parser = argparse.ArgumentParser(prog="specloc",
                                     description="spectral localization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="system spec JSON")
        p.add_argument("--out", help="report JSON path (default: stdout)")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit wall-clock fields for byte-identical reruns")

    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("subord", help="p-subordination bound")
    common(p)
    seed(p)
    p.set_defaults(func=cmd_subord)

    p = sub.add_parser("enclosure", help="certified spectral enclosure check")
    common(p)
    p.add_argument("--alpha-factor", type=float, default=1.1)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--psi", type=float, default=None)
    p.add_argument("--points", help="eigenvalue cloud CSV path")
    p.add_argument("--lobes", help="lobe boundary CSV path")
    p.set_defaults(func=cmd_enclosure)

    p = sub.add_parser("gaps", help="spectral gap sequence check")
    common(p)
    p.set_defaults(func=cmd_gaps)

    p = sub.add_parser("project", help="Riesz projections over gap contours")
    common(p)
    p.add_argument("--abscissas", required=True, help="comma list of cut abscissae")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("rieszconst", help="Riesz basis constants of a gap family")
    common(p)
    seed(p)
    p.add_argument("--abscissas", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_rieszconst)

    p = sub.add_parser("blockop", help="Hamiltonian block operator checks")
    common(p)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_blockop)

    p = sub.add_parser("sweep", help="randomized verification sweep")
    common(p, needs_input=False)
    p.add_argument("--suite", default="enclosure")
    p.add_argument("--seeds", default="0..49", help="range lo..hi or comma list")
    p.add_argument("--alpha-factor", type=float, default=1.1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="built-in demonstration datasets")
    common(p, needs_input=False)
    seed(p)
    p.add_argument("what", nargs="?", default="figure4")
    p.add_argument("--points", help="CSV path for the point cloud")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if "seed" in args and args.seed < 0:
            raise InputError("--seed must be non-negative, got %d" % args.seed)
        if "input" in args:
            args.spec = load_spec(args.input)
        return args.func(args)
    except InputError as exc:
        print("specloc: input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SpeclocError as exc:
        print("specloc: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
