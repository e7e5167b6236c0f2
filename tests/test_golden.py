"""Golden reports: the identity check a refactor runs against its parent.

``tests/golden/`` holds the ``--no-timestamp`` reports, the CSV artifacts and
the exit codes of a fixed set of runs: ``blockop``, ``project``,
``rieszconst`` and ``subord`` on four Hamiltonian specs of the benchmark's
kind (n = 24 with seeds 0, 3 and 7919, n = 64 with seed 0), ``blockop`` on a
mixed-sign ``rSeq``, ``enclosure`` (with ``--points`` and ``--lobes``) and
``subord`` on the small specs of ``test_cli.py`` and on a ``banded`` spec,
``gaps`` on a ``radii`` spec that carries its ``asymptotic`` law and on an
asymptotic-only spec with ``kMax``, ``sweep --seeds 0..199`` and ``demo
figure4 --points``.  ``test_golden_reports`` regenerates them in
process and compares them field by field: exit codes, verdicts, counts,
ranks, labels, keys and lengths exactly, floats within the tolerances below.
It does not gate on bytes, since OpenBLAS picks its kernels by CPU, but it
prints whether every file matches byte for byte.

A change that moves a golden report rewrites the set with
``PYTHONPATH=src python tests/test_golden.py``, which prints each moved float
field of each changed golden with its largest move, and records which fields
moved, by how much, and why.
"""

import csv
import json
import math
import os
import pathlib
import tempfile

# before numpy: importing specloc pins one BLAS thread, as the command line does
from specloc import cli

import numpy as np

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
EXIT_CODES = "exit_codes.json"

#: (rtol, atol) of a float field by its name, the atol in units of the run's
#: operator scale (its largest |eigenvalue of G|, at least 1); fields not
#: listed take DEFAULT_TOL
DEFAULT_TOL = (1e-9, 1e-12)
#: the subordination bracket is 1e-6 wide, and another rounding may close a
#: different cell inside it; alpha, epsilon and r0 (a power up to 1/(1 - p)
#: of b, p <= 0.7 in the sweep) follow b, and so do the lobes and contours of
#: the CSV artifacts
BRACKET_TOL = (1e-5, 1e-12)
#: residuals sit at the rounding level and moved by up to 4x across BLAS
#: thread counts: absolute only
RESIDUAL_TOL = (0.0, 1e-12)
TOLERANCES = {
    **dict.fromkeys(("b", "bound", "lowerBound", "alpha", "epsilon", "r0"), BRACKET_TOL),
    **dict.fromkeys(("j1SkewResidual", "idempotencyResidual", "commutatorResidual",
                     "crossTalk", "sumResidual"), RESIDUAL_TOL),
    "eigenvectorCondition": (1e-6, 0.0),
    #: a unit vector, compared after its phase is aligned with the golden one;
    #: another witness in the bracket moves it as far as the bracket allows
    "witness": (0.0, 1e-6),
}
CSV_TOL = BRACKET_TOL

#: the benchmark's Hamiltonian instances (n, seed) and their spawn key
HAMILTONIANS = ((24, 0), (24, 3), (24, 7919), (64, 0))
_HAMILTONIAN_KEY = 90


def _hermitian(rng, n):
    """Random Hermitian matrix with spectrum in [0.5, 1.3]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (q * rng.uniform(0.5, 1.3, n)) @ q.conj().T
    return 0.5 * (m + m.conj().T)


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def hamiltonian_spec(seed, n):
    """T = [[iR, B], [C, iR]] with R = diag(4, 8, ..., 4n), held as a
    ``hamiltonian`` section and as G.rays plus an off-diagonal block S, drawn
    as the benchmark's ``hamiltonian-family`` workload draws it."""
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


def specs():
    """Spec name -> (payload, operator scale)."""
    out = {"ham%d-%d" % (n, seed): (hamiltonian_spec(seed, n), 4.0 * n)
           for n, seed in HAMILTONIANS}
    out["mixed-sign"] = ({"hamiltonian": {
        "rSeq": [-12.0, -8.0, -4.0, 0.0, 4.0, 8.0], "B": {"kind": "identity"},
        "C": {"kind": "randomSpd", "seed": 3, "gamma": 0.5, "spread": 0.5},
        "gamma": 0.5, "l": 1.5}}, 12.0)
    # the basic, triple and hamiltonian fixtures of test_cli.py
    out["basic"] = ({"schemaVersion": 1, "G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0]}]},
                     "S": {"kind": "dense", "entries": [[0.0, 1.0], [0.0, 0.0]]}, "p": 0.5},
                    4.0)
    out["triple"] = ({"G": {"rays": [{"theta": 0.0, "radii": [1.0, 5.0, 9.0]}]},
                      "S": {"kind": "randomGaussian", "seed": 7, "scale": 0.2}, "p": 0.5}, 9.0)
    out["ham3"] = ({"G": {"rays": [{"theta": math.pi / 2, "radii": [4.0, 8.0, 12.0] * 2}]},
                    "S": {"kind": "offdiagonalBlock",
                          "B": [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 1.1]],
                          "C": [[0.9, -0.1, 0.0], [-0.1, 1.2, 0.2], [0.0, 0.2, 0.7]]},
                    "p": 0.0}, 12.0)
    out["banded"] = ({"G": {"rays": [{"theta": 0.0, "radii": [1.0, 4.0, 9.0, 16.0, 25.0]},
                                     {"theta": math.pi, "radii": [2.0, 6.0, 12.0]}]},
                      "S": {"kind": "banded", "seed": 5, "scale": 0.5, "bandwidth": 1},
                      "p": 0.5}, 25.0)
    # gap sequences: explicit radii that also carry their law, and the law alone
    out["gaps-radii"] = ({"gapModel": {
        "radii": [1.0, 4.0, 9.0, 16.0, 25.0, 36.0], "l": 1.2, "p": 0.5,
        "asymptotic": {"c": 1.0, "q": 2.0}}}, 36.0)
    out["gaps-asymptotic"] = ({"gapModel": {
        "asymptotic": {"c": 1.0, "q": 2.0, "dTail": [0.5, -0.25]}, "kMax": 50,
        "l": 0.9, "p": 0.5}}, 2500.0)
    return out


def runs():
    """Run name -> (argv without --out and --no-timestamp, spec name or None,
    CSV artifacts as (option, file suffix) pairs)."""
    table = {}
    for n, seed in HAMILTONIANS:
        spec = "ham%d-%d" % (n, seed)
        gaps = ["--abscissas", ",".join(repr(4.0 * k + 2.0) for k in range(n + 1)),
                "--alpha", "2"]
        table["blockop-" + spec] = (["blockop"], spec, ())
        table["project-" + spec] = (["project", *gaps], spec, ())
        table["rieszconst-" + spec] = (["rieszconst", *gaps, "--seed", str(seed)], spec, ())
        table["subord-" + spec] = (["subord"], spec, ())
    table["blockop-mixed-sign"] = (["blockop"], "mixed-sign", ())
    for spec in ("basic", "triple", "ham3"):
        table["enclosure-" + spec] = (["enclosure"], spec,
                                      (("--points", "points"), ("--lobes", "lobes")))
        table["subord-" + spec] = (["subord"], spec, ())
    # alpha = 4b gives r0 = 8.76, so the eigenvalues near 9, 12, 16 and 25 sit in lobes
    table["enclosure-banded"] = (["enclosure", "--alpha-factor", "4"], "banded",
                                 (("--points", "points"), ("--lobes", "lobes")))
    table["subord-banded"] = (["subord"], "banded", ())
    for spec in ("gaps-radii", "gaps-asymptotic"):
        table[spec] = (["gaps"], spec, ())
    table["sweep"] = (["sweep", "--seeds", "0..199"], None, ())
    table["demo-figure4"] = (["demo", "figure4"], None, (("--points", "points"),))
    return table


def generate(workdir):
    """Write every spec and run every golden run in ``workdir``, which must be
    the working directory (reports name their inputs by relative path)."""
    workdir = pathlib.Path(workdir)
    (workdir / "specs").mkdir()
    for name, (payload, _) in specs().items():
        (workdir / "specs" / (name + ".json")).write_text(json.dumps(payload))
    codes = {}
    for name, (argv, spec, artifacts) in runs().items():
        argv = argv + ["--out", name + ".json", "--no-timestamp"]
        if spec is not None:
            argv += ["--input", "specs/%s.json" % spec]
        for option, suffix in artifacts:
            argv += [option, "%s.%s.csv" % (name, suffix)]
        codes[name] = cli.main(argv)
    (workdir / EXIT_CODES).write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


def _close(got, want, tol, scale):
    rtol, atol = tol
    return abs(got - want) <= rtol * abs(want) + atol * scale


def _aligned(got, want):
    """``got`` times the unit phase that best aligns it with ``want`` at the
    golden vector's largest entry (both lists of [re, im] pairs)."""
    g = np.array([complex(*z) for z in got])
    w = np.array([complex(*z) for z in want])
    k = int(np.argmax(np.abs(w)))
    if g[k] != 0.0:
        g = g * (w[k] / g[k]) / abs(w[k] / g[k])
    return [[z.real, z.imag] for z in g.tolist()]


def _record(moves, field, got, want):
    """Keep the largest (relative, absolute) move of ``field`` in ``moves``;
    the relative move is absolute where the golden value is zero."""
    if moves is not None and got != want:
        move = abs(got - want)
        rel, absolute = moves.get(field, (0.0, 0.0))
        moves[field] = (max(rel, move / abs(want) if want else move), max(absolute, move))


def compare(got, want, scale, field="", where="", errors=None, moves=None):
    """The differences between a regenerated report ``got`` and its golden
    ``want`` as a list of strings: keys, lengths, strings, booleans, integers
    and nulls exactly, floats within the tolerance of their field.  A dict
    ``moves`` collects each moved float field's largest move (``_record``)."""
    errors = [] if errors is None else errors
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            errors.append("%s: keys %r != %r" % (where, sorted(got), sorted(want)))
            return errors
        for key in want:
            compare(got[key], want[key], scale, key, "%s.%s" % (where, key), errors, moves)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            errors.append("%s: %r is not a list of length %d" % (where, got, len(want)))
            return errors
        if field == "witness" and want and isinstance(want[0], list):
            got = _aligned(got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            compare(g, w, scale, field, "%s[%d]" % (where, i), errors, moves)
    elif type(want) is float and type(got) is float:
        if not _close(got, want, TOLERANCES.get(field, DEFAULT_TOL), scale):
            errors.append("%s: %r != %r" % (where, got, want))
        _record(moves, field, got, want)
    elif type(got) is not type(want) or got != want:
        errors.append("%s: %r != %r" % (where, got, want))
    return errors


def _number(cell):
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell


def compare_csv(got_text, want_text, scale, moves=None):
    """The differences between two CSV artifacts: the same rows, the same
    strings and integers, and floats within CSV_TOL; ``moves`` as in
    ``compare``, by the column's header."""
    got = [[_number(c) for c in row] for row in csv.reader(got_text.splitlines())]
    want = [[_number(c) for c in row] for row in csv.reader(want_text.splitlines())]
    if [len(row) for row in got] != [len(row) for row in want]:
        return ["row lengths differ: %d rows against %d" % (len(got), len(want))]
    errors = []
    for i, (grow, wrow) in enumerate(zip(got, want)):
        for j, (g, w) in enumerate(zip(grow, wrow)):
            if type(w) is float and type(g) is float:
                ok = _close(g, w, CSV_TOL, scale)
                _record(moves, want[0][j], g, w)
            else:
                ok = type(g) is type(w) and g == w
            if not ok:
                errors.append("row %d column %d: %r != %r" % (i, j, g, w))
    return errors


def differences(workdir, moves=None):
    """Golden name -> its differences (``compare``, ``compare_csv``) for each
    file of the regenerated ``workdir`` that is not byte-identical to its
    golden; ``moves``, a dict, collects golden name -> moved float fields."""
    scales = {name: scale for name, (_, scale) in specs().items()}
    table = runs()
    errors = {}
    for name in sorted(p.name for p in GOLDEN.iterdir()):
        got, want = (workdir / name).read_bytes(), (GOLDEN / name).read_bytes()
        if got == want:
            continue
        scale = scales.get(table.get(name.split(".")[0], (None, None))[1], 1.0)
        moved = None if moves is None else moves.setdefault(name, {})
        if name.endswith(".csv"):
            errors[name] = compare_csv(got.decode(), want.decode(), scale, moved)
        else:
            errors[name] = compare(json.loads(got), json.loads(want), scale, moves=moved)
    return errors


def test_golden_reports(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    generate(tmp_path)
    names = sorted(p.name for p in GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == names
    errors = differences(tmp_path)
    print("golden: %d of %d files byte-identical%s"
          % (len(names) - len(errors), len(names),
             "; differing: " + ", ".join(errors) if errors else ""))
    assert {name: e[:5] for name, e in errors.items() if e} == {}


def test_rieszconst_goldens_take_both_ends_of_c_from_the_search():
    # gap families have no tail, and the sign patterns decide both ends of
    # C = sup sum_k |(P_k x | y)|: C's lower end is the largest pattern norm
    # and its upper end the screen's
    for n, seed in HAMILTONIANS:
        report = json.loads((GOLDEN / ("rieszconst-ham%d-%d.json" % (n, seed))).read_text())
        assert report["cHat"] == report["signPatternConstant"] <= report["signPatternUpper"]
        assert report["cUpper"] == report["signPatternUpper"]
        assert report["signPatternsExhaustive"] is False  # 24 and 64 gaps: sampled


if __name__ == "__main__":
    # rewrite tests/golden from the current source, printing for each changed
    # golden its moved float fields with their largest moves
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        generate(tmp)
        if GOLDEN.is_dir():
            moves = {}
            for name, errors in differences(pathlib.Path(tmp), moves).items():
                print("%s: %s" % (name, "%d fields out of tolerance" % len(errors) if errors
                                  else "within tolerance"))
                for field, (rel, absolute) in sorted(moves[name].items()):
                    print("    %-24s largest relative move %.3g (absolute %.3g)"
                          % (field, rel, absolute))
        GOLDEN.mkdir(exist_ok=True)
        for old in GOLDEN.iterdir():
            old.unlink()
        for path in pathlib.Path(tmp).iterdir():
            if path.is_file():
                (GOLDEN / path.name).write_bytes(path.read_bytes())
