"""Golden bytes: fixed CLI invocations must reproduce the stored output exactly.

The stored files under ``tests/data/golden/`` pin the ``infimum`` CSV, JSON and
table output (with embedded curve samples) for all four families, the same
three formats of ``infimum`` (all four families) and ``root`` on one seeded sweep
batch with kappa at 1, just above 1 and at the inverse Gaussian limit, the
``infimum --curve-out`` output (stdout and the curve file) for the CSV and
table formats, the ``root`` CSV, the ``verify --budget quick --seed 1`` JSON report,
a set of ``eval --coord`` lines, and click's own text: five usage errors (stderr and
exit code) and two help pages at 80 columns.  The ``verify --budget full --seed 1`` JSON
report is pinned by its SHA-256 instead of a file.  Any refactoring that changes a
single printed digit fails here.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py

which also prints the new digest of the full-budget report and the
``FROZEN_QUADRATURE`` lists of ``tests/test_oracles.py``.
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kappainf.cli import main
from kappainf.curves import IG_KAPPA_MAX

DATA = Path(__file__).parent / "data" / "golden"

# distinct kappa over [1e-3, 1e3]: both sides of 1, exactly 1, and just above 1
SWEEP = "0.001,0.1,0.5,0.999,1,1.0001,1.01,1.5,2,10,1000"
ROOT_SWEEP = "1.0001,1.01,1.5,2,10,1000"
FAMILIES = ["inverse-gaussian", "log-normal", "gumbel", "logistic"]
EXTENSIONS = {"csv": "csv", "json": "json", "table": "txt"}

CASES = {
    f"infimum-{family}.{ext}": ["infimum", "--family", family, "--kappa", SWEEP,
                                "--format", fmt, "--curve-points", "50"]
    for family in FAMILIES
    for fmt, ext in EXTENSIONS.items()
}
CASES["root.csv"] = ["root", "--kappa", ROOT_SWEEP, "--format", "csv"]
# a sweep batch: 50 seeded log-uniform kappa in [1e-3, 1e3] as a benchmark round
# draws them, then kappa = 1, the next float above 1, 1 + 1e-10 and the inverse
# Gaussian limit; ``root`` takes the batch's kappa > 1
BATCH = [*(10.0 ** np.random.default_rng(20230611).uniform(-3.0, 3.0, 50)).tolist(),
         1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-10, IG_KAPPA_MAX]
BATCH_SWEEP = ",".join(map(repr, BATCH))
BATCH_ROOT = ",".join(repr(k) for k in BATCH if k > 1.0)
CASES.update({
    f"batch-infimum-{family}.{ext}": ["infimum", "--family", family, "--kappa", BATCH_SWEEP,
                                      "--format", fmt]
    for family in FAMILIES
    for fmt, ext in EXTENSIONS.items()
})
CASES.update({f"batch-root.{ext}": ["root", "--kappa", BATCH_ROOT, "--format", fmt]
              for fmt, ext in EXTENSIONS.items()})
CASES["verify-quick-seed1.json"] = ["verify", "--budget", "quick", "--seed", "1",
                                    "--format", "json"]

# ``--curve-out``: the stdout file as named, the curve file as <stem>.curve.csv;
# a repeated kappa writes its curve once per occurrence
CURVE_OUT_KAPPA = "0.5,1,1.0001,2,2"
CURVE_OUT_CASES = {
    f"curve-out-{family}.{EXTENSIONS[fmt]}": [
        "infimum", "--family", family, "--kappa", CURVE_OUT_KAPPA,
        "--format", fmt, "--curve-points", "40"]
    for family, fmt in [("inverse-gaussian", "csv"), ("logistic", "table")]
}

# (family, kappa, coord) for ``eval --coord``; one output line each
EVAL_POINTS = [
    ("inverse-gaussian", "0.5", "3"),
    ("inverse-gaussian", "2", "1"),
    ("inverse-gaussian", "1000", "0.01"),
    ("log-normal", "0.001", "2.5"),
    ("log-normal", "2", "1"),
    ("log-normal", "50", "0.3"),
    ("gumbel", "1", "0"),
    ("gumbel", "0.7", "-4"),
    ("gumbel", "3", "12"),
    ("logistic", "1", "3.7"),
    ("logistic", "0.2", "-1.5"),
    ("logistic", "5", "0.25"),
]
EVAL_FILE = "eval-coord.txt"

# click's own text, as the console entry prints it at a fixed width: the stderr
# and exit code of usage errors, one block each, and the help pages
USAGE_ERRORS = [
    ["infimum", "--family", "weibull", "--kappa", "2"],
    ["infimum", "--family", "gumbel"],
    ["infimum", "--family", "gumbel", "--kappa", "abc"],
    ["infimum", "--family", "gumbel", "--kappa", "2", "--curve-points", "1"],
    ["infimum", "--family", "gumbel", "--kappa", "2", "--bogus", "1"],
]
USAGE_FILE = "usage-errors.txt"
HELP_CASES = {"help.txt": ["--help"], "help-infimum.txt": ["infimum", "--help"]}

# the only budget that draws 1e6 samples per Monte Carlo case, through many
# sampler chunks and on every worker thread
VERIFY_FULL_ARGS = ["verify", "--budget", "full", "--seed", "1", "--format", "json"]
VERIFY_FULL_SHA256 = "dab66d5e11f3c3bd3cc0f1d7dc93cd291f5bb28cf84cc2312f14f42a85fba828"


def _run(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, (args, result.output)
    return result.output


def _curve_name(name):
    return name.rsplit(".", 1)[0] + ".curve.csv"


def _run_curve_out(args, directory):
    """(stdout, curve file bytes) of one ``--curve-out`` invocation."""
    path = Path(directory) / "curve.csv"
    stdout = _run(args + ["--curve-out", str(path)])
    return stdout, path.read_bytes()


def _click_run(args):
    return CliRunner().invoke(main, args, prog_name="kappainf", env={"COLUMNS": "80"})


def _usage_text():
    return "".join(f"$ kappainf {' '.join(args)}\nexit {result.exit_code}\n{result.stderr}"
                   for args in USAGE_ERRORS for result in [_click_run(args)])


def _help_text(args):
    result = _click_run(args)
    assert result.exit_code == 0, (args, result.output)
    return result.stdout


def _eval_lines():
    return "".join(
        f"{family} {kappa} {coord} "
        + _run(["eval", "--family", family, "--kappa", kappa, "--coord", coord])
        for family, kappa, coord in EVAL_POINTS
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name):
    assert _run(CASES[name]) == (DATA / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CURVE_OUT_CASES))
def test_curve_out_matches_golden_bytes(name, tmp_path):
    stdout, curve = _run_curve_out(CURVE_OUT_CASES[name], tmp_path)
    assert stdout == (DATA / name).read_text(encoding="utf-8")
    assert curve == (DATA / _curve_name(name)).read_bytes()


def test_eval_coord_matches_golden_bytes():
    assert _eval_lines() == (DATA / EVAL_FILE).read_text(encoding="utf-8")


def test_usage_errors_match_golden_bytes():
    assert _usage_text() == (DATA / USAGE_FILE).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(HELP_CASES))
def test_help_matches_golden_bytes(name):
    assert _help_text(HELP_CASES[name]) == (DATA / name).read_text(encoding="utf-8")


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_verify_full_budget_matches_its_digest():
    assert _digest(_run(VERIFY_FULL_ARGS)) == VERIFY_FULL_SHA256


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, args in CASES.items():
        (DATA / name).write_text(_run(args), encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in CURVE_OUT_CASES.items():
            stdout, curve = _run_curve_out(args, tmp)
            (DATA / name).write_text(stdout, encoding="utf-8")
            (DATA / _curve_name(name)).write_bytes(curve)
    (DATA / EVAL_FILE).write_text(_eval_lines(), encoding="utf-8")
    (DATA / USAGE_FILE).write_text(_usage_text(), encoding="utf-8")
    for name, args in HELP_CASES.items():
        (DATA / name).write_text(_help_text(args), encoding="utf-8")
    print("VERIFY_FULL_SHA256 =", _digest(_run(VERIFY_FULL_ARGS)))
    from test_oracles import FROZEN_QUADRATURE, quadrature_batches, quadrature_digests
    print("FROZEN_QUADRATURE = {")
    for budget, seed in FROZEN_QUADRATURE:
        print(f'    ("{budget}", {seed}): [')
        for digest in quadrature_digests(quadrature_batches(budget, seed)):
            print(f'        "{digest}",')
        print("    ],")
    print("}")
