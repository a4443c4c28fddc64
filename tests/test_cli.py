"""End-to-end CLI behaviour: output formats, round-trips, exit codes."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import kappainf.special
from kappainf import (DistParams, Family, NumericalError, ig_critical_point, ig_peak_coord,
                      ig_stationarity_scaled, reduce_params, reduced_prob)
from kappainf.curves import IG_KAPPA_MAX
from kappainf.distributions import SCALE_NAME
from kappainf.oracles import GridSpec
from kappainf import cli
from kappainf.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_version_needs_no_installed_metadata(runner):
    # the version is the package's own, so a run from the source tree works
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0, result.output
    assert result.output == "kappainf, version 0.1.0\n"


def test_package_version_is_the_project_version():
    # tomllib is 3.11+, so pyproject.toml is read with a pattern
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1]
    assert kappainf.__version__ == re.search(r'^version = "([^"]+)"$', project, re.M).group(1)


class TestEval:
    def test_logistic_unit_multiplier(self, runner):
        result = runner.invoke(
            main, ["eval", "--family", "logistic", "--kappa", "1", "--coord", "3.7"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0.5"

    def test_native_params_match_reduced_coord(self, runner):
        # (mu=1000, sigma=1): the log-normal mean e^{mu+sigma^2/2} overflows,
        # but the probability is scale-free and must still print
        cases = [(DistParams.inverse_gaussian(1.0, 1.0), 2.0),
                 (DistParams.log_normal(1000.0, 1.0), 2.0)]
        rng = np.random.default_rng(11)
        for family in Family:
            for _ in range(5):
                if family is Family.INVERSE_GAUSSIAN:
                    mu = 10.0 ** rng.uniform(-2, 2)
                else:
                    mu = rng.uniform(-1000.0, 1000.0)
                params = DistParams(family, mu, 10.0 ** rng.uniform(-1, 1))
                cases.append((params, 10.0 ** rng.uniform(-3, 3)))
        for params, kappa in cases:
            family = params.family.value
            by_params = runner.invoke(
                main,
                ["eval", "--family", family, "--kappa", repr(kappa),
                 "--mu", repr(params.p1), f"--{SCALE_NAME[params.family]}", repr(params.p2)],
            )
            by_coord = runner.invoke(
                main,
                ["eval", "--family", family, "--kappa", repr(kappa),
                 "--coord", repr(reduce_params(params))],
            )
            assert by_params.exit_code == by_coord.exit_code == 0, (params, kappa)
            assert by_params.output == by_coord.output, (params, kappa)

    def test_gumbel_constant_digits(self, runner):
        result = runner.invoke(
            main, ["eval", "--family", "gumbel", "--kappa", "1", "--coord", "0"]
        )
        assert result.exit_code == 0
        assert result.output.strip() == "0.570376001675023"

    def test_fifteen_significant_digits(self, runner):
        result = runner.invoke(
            main, ["eval", "--family", "log-normal", "--kappa", "2", "--coord", "1"]
        )
        value = float(result.output)
        assert format(value, ".15g") == result.output.strip()

    def test_coord_and_params_together_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["eval", "--family", "logistic", "--kappa", "1", "--coord", "1",
             "--mu", "0", "--beta", "1"],
        )
        assert result.exit_code == 2

    def test_wrong_param_pair_is_usage_error(self, runner):
        result = runner.invoke(
            main,
            ["eval", "--family", "inverse-gaussian", "--kappa", "2",
             "--mu", "1", "--sigma", "1"],
        )
        assert result.exit_code == 2

    def test_invalid_domain_is_exit_2_with_stderr_line(self, runner):
        result = runner.invoke(
            main,
            ["eval", "--family", "inverse-gaussian", "--kappa", "2",
             "--mu=-1", "--lambda", "1"],
        )
        assert result.exit_code == 2

    def test_overflowing_reduced_coord_names_its_formula(self, runner):
        # no --coord was given: the message names the coordinate's formula
        # and the native values it came from
        result = runner.invoke(
            main,
            ["eval", "--family", "inverse-gaussian", "--kappa", "2",
             "--mu", "1e-320", "--lambda", "1e300"],
        )
        assert result.exit_code == 2
        assert result.stderr == ("error: coord must be finite, got inf "
                                 "(coord = sqrt(lambda/mu) at mu=1e-320, lambda=1e+300)\n")

    @pytest.mark.parametrize("kappa, coord, limit", [
        ("1e-300", "1e100", "0"), ("1e100", "1e300", "1"), ("5e-324", "1e154", "0"),
    ])
    def test_ig_overflowing_intermediate_prints_its_limit(self, runner, kappa, coord, limit):
        # an intermediate of the curve overflows to +-inf; the exact limit
        # prints, with nothing on stderr
        result = runner.invoke(
            main, ["eval", "--family", "inverse-gaussian", "--kappa", kappa, "--coord", coord]
        )
        assert result.exit_code == 0
        assert result.stdout == f"{limit}\n"
        assert result.stderr == ""

    def test_unknown_family_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["eval", "--family", "cauchy", "--kappa", "1", "--coord", "0"]
        )
        assert result.exit_code == 2

    def test_log_normal_tiny_sigma_prints_its_limit(self, runner):
        # log(kappa)/sigma overflows here; the curve's exact limit is printed
        for kappa, expected in (("2", "1"), ("1", "0.5"), ("0.5", "0")):
            result = runner.invoke(
                main, ["eval", "--family", "log-normal", "--kappa", kappa, "--coord", "1e-320"]
            )
            assert result.exit_code == 0, result.output
            assert result.stdout.strip() == expected


# past sqrt(DBL_MAX) the inverse Gaussian formulas would square kappa + 1 into inf
HUGE_KAPPA_CALLS = [
    ["infimum", "--family", "inverse-gaussian", "--kappa", "2,1e200"],
    ["root", "--kappa", "1e200"],
    ["eval", "--family", "inverse-gaussian", "--kappa", "1e200", "--coord", "1e-100"],
]


@pytest.mark.parametrize("args", HUGE_KAPPA_CALLS, ids=lambda a: a[0])
def test_huge_ig_kappa_is_exit_2_naming_the_limit(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "kappa must be <= 1.3407807929942596e+154" in result.stderr
    assert "1e+200" in result.stderr


# each command with the library call it makes, which the test below makes fail
NUMERICAL_FAILURE_CALLS = [
    ("reduced_prob", ["eval", "--family", "logistic", "--kappa", "2", "--coord", "1"]),
    ("infimum", ["infimum", "--family", "gumbel", "--kappa", "2"]),
    ("ig_critical_point", ["root", "--kappa", "2"]),
    ("run_verification", ["verify", "--budget", "quick", "--seed", "1"]),
]


@pytest.mark.parametrize("name, args", NUMERICAL_FAILURE_CALLS,
                         ids=[args[0] for _, args in NUMERICAL_FAILURE_CALLS])
def test_numerical_failure_is_exit_3_without_traceback(runner, monkeypatch, name, args):
    def fail(*_args, **_kwargs):
        raise NumericalError("boom")

    monkeypatch.setattr(cli, name, fail)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == "numerical failure: boom\n"


# each flag that names an output file, with a command that writes it
OUTPUT_FLAG_CALLS = [
    ("--out", ["infimum", "--family", "gumbel", "--kappa", "2"]),
    ("--curve-out", ["infimum", "--family", "gumbel", "--kappa", "2", "--curve-points", "5"]),
    ("--out", ["root", "--kappa", "2"]),
    ("--out", ["verify", "--budget", "quick", "--seed", "1"]),
]


@pytest.mark.parametrize("flag, args", OUTPUT_FLAG_CALLS,
                         ids=[f"{args[0]}{flag}" for flag, args in OUTPUT_FLAG_CALLS])
def test_unopenable_output_path_is_exit_2_naming_it(runner, tmp_path, flag, args):
    path = str(tmp_path / "missing" / "x.csv")
    result = runner.invoke(main, [*args, flag, path])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == f"error: cannot write {path}: No such file or directory\n"


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([f.value for f in Family]), finite_floats, finite_floats)
def test_any_finite_input_exits_0_2_or_3_without_traceback(family, kappa, coord):
    runner = CliRunner()  # not the fixture: hypothesis reruns the body per example
    for args in (["eval", "--family", family, "--kappa", repr(kappa), "--coord", repr(coord)],
                 ["infimum", "--family", family, "--kappa", repr(kappa)],
                 ["root", "--kappa", repr(kappa)]):
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 2, 3), (args, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), args


class TestInfimumCommand:
    def test_log_normal_sweep_rows(self, runner):
        result = runner.invoke(
            main,
            ["infimum", "--family", "log-normal", "--kappa", "0.5,1,2",
             "--format", "csv"],
        )
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        assert [r["kappa"] for r in rows] == ["0.5", "1.0", "2.0"]
        assert rows[0]["value"] == "0.0"
        assert rows[0]["attained"] == "false"
        assert rows[0]["limit_direction"] == "coord->0+"
        assert rows[1]["value"] == "0.5"
        assert float(rows[2]["value"]) == pytest.approx(
            float(kappainf.special.std_normal_cdf(math.sqrt(2 * math.log(2.0)))), abs=1e-15
        )
        assert rows[2]["attained"] == "true"
        assert float(rows[2]["argmin"]) == pytest.approx(math.sqrt(2 * math.log(2.0)))

    def test_ig_unit_multiplier_row(self, runner):
        result = runner.invoke(
            main,
            ["infimum", "--family", "inverse-gaussian", "--kappa", "1",
             "--format", "csv"],
        )
        row = parse_csv(result.output)[0]
        assert row["value"] == "0.5"
        assert row["attained"] == "false"
        assert row["limit_direction"] == "coord->+inf"

    def test_gumbel_above_one_row(self, runner):
        result = runner.invoke(
            main, ["infimum", "--family", "gumbel", "--kappa", "2", "--format", "csv"]
        )
        row = parse_csv(result.output)[0]
        assert row["value"] == "0.0"
        assert row["limit_direction"] == "coord->-inf"

    def test_csv_round_trip_bit_exact(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        curves_out = tmp_path / "curves.csv"
        result = runner.invoke(
            main,
            ["infimum", "--family", "inverse-gaussian", "--kappa", "1.5,2,5",
             "--format", "csv", "--out", str(out),
             "--curve-points", "64", "--curve-out", str(curves_out)],
        )
        assert result.exit_code == 0
        for row in parse_csv(out.read_text()):
            if row["attained"] == "true":
                revalued = reduced_prob(
                    Family(row["family"]), float(row["kappa"]), float(row["argmin"])
                )
                assert abs(revalued - float(row["value"])) <= 1e-12
        curve_rows = parse_csv(curves_out.read_text())
        assert len(curve_rows) == 3 * 64
        for row in curve_rows:
            revalued = reduced_prob(
                Family(row["family"]), float(row["kappa"]), float(row["coord"])
            )
            assert abs(revalued - float(row["g"])) <= 1e-12

    def test_json_schema_and_embedded_curve(self, runner):
        result = runner.invoke(
            main,
            ["infimum", "--family", "logistic", "--kappa", "0.5,2",
             "--format", "json", "--curve-points", "16"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["schema"] == "kappainf-infimum/1"
        assert len(payload["results"]) == 2
        first = payload["results"][0]
        assert set(first) == {"family", "kappa", "value", "attained", "constant",
                              "argmin", "limit_direction", "curve"}
        for sample_pt in first["curve"]:
            revalued = reduced_prob(Family("logistic"), first["kappa"], sample_pt["coord"])
            assert abs(revalued - sample_pt["g"]) <= 1e-12

    def test_repeated_kappa_embeds_its_curve_once(self, runner):
        result = runner.invoke(
            main,
            ["infimum", "--family", "log-normal", "--kappa", "2,2",
             "--curve-points", "3", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert [len(r["curve"]) for r in payload["results"]] == [3, 3]

    def test_curve_out_without_curve_points_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "curves.csv"
        result = runner.invoke(main, ["infimum", "--family", "gumbel", "--kappa", "2",
                                      "--curve-out", str(path)])
        assert result.exit_code == 2
        assert result.stdout == "" and not path.exists()
        assert result.stderr == "error: --curve-out needs --curve-points\n"

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_one_file_for_out_and_curve_out_is_usage_error(self, runner, tmp_path, spelling):
        path = tmp_path / "both.csv"
        other = path if spelling == "same" else tmp_path / "sub" / ".." / "both.csv"
        result = runner.invoke(main, ["infimum", "--family", "gumbel", "--kappa", "2",
                                      "--curve-points", "5", "--format", "csv",
                                      "--out", str(path), "--curve-out", str(other)])
        assert result.exit_code == 2
        assert result.stdout == "" and not path.exists()
        assert result.stderr == "error: --out and --curve-out name the same file\n"

    def test_bad_kappa_list_is_usage_error(self, runner):
        for bad in ("", "0", "-1,2", "a,b"):
            result = runner.invoke(
                main, ["infimum", "--family", "logistic", "--kappa", bad]
            )
            assert result.exit_code == 2

    def test_non_positive_kappa_is_the_library_error(self, runner):
        # the library checks kappa, so the rows before the bad one never print
        result = runner.invoke(main, ["infimum", "--family", "logistic", "--kappa", "2,0"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: kappa must be > 0, got 0.0\n"


@st.composite
def curve_exports(draw):
    """(family, 1-4 kappa, perhaps with a repeat, the family's default grid of
    2-9 points); short kappa such as 0.5 give the table's kappa column padding."""
    family = draw(st.sampled_from(list(Family)))
    kappa = draw(st.lists(st.floats(1e-3, 1e3) | st.sampled_from([0.5, 1.0, 2.0, 1e3]),
                          min_size=1, max_size=3))
    if draw(st.booleans()):
        kappa.append(draw(st.sampled_from(kappa)))
    return family, kappa, GridSpec.default_for(family, draw(st.integers(2, 9))).points()


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=200, deadline=None)
@given(curve_exports(), st.integers(1, 4))
@example((Family.LOGISTIC, [2.0, 2.0], GridSpec.default_for(Family.LOGISTIC, 3).points()), 1)
@example((Family.INVERSE_GAUSSIAN, [0.5, 123.456789],
          GridSpec.default_for(Family.INVERSE_GAUSSIAN, 5).points()), 2)
def test_curve_writers_match_the_generic_renderers(export, block):
    # blocks of 1-4 points put their seams inside each curve and at its ends;
    # the block writers against _render_csv and _render_table over
    # [family, kappa, coord, g] rows and json.dumps(indent=2) over {coord, g} dicts
    family, kappa, grid = export
    coords, curves = grid.tolist(), [reduced_prob(family, k, grid).tolist() for k in kappa]

    def doc(curve):
        return {"schema": "kappainf-infimum/1", "results": [
            {"family": family.value, "kappa": k, "value": 0.5, "attained": True,
             "constant": False, "argmin": None, "limit_direction": "coord->+inf",
             "curve": curve(gs)} for k, gs in zip(kappa, curves)]}

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_BLOCK", block)
        csv_text = "".join(cli._curve_rows(family, kappa, grid, "csv"))
        table_text = "".join(cli._curve_rows(family, kappa, grid, "table"))
        json_text = "".join(cli._json_curves(json.dumps(doc(lambda gs: cli._STAND_IN), indent=2),
                                             family, kappa, grid))
    rows = [[family.value, k, c, g] for k, gs in zip(kappa, curves) for c, g in zip(coords, gs)]
    assert csv_text == cli._render_csv(cli._CURVE_HEADERS, rows)
    assert table_text == cli._render_table(cli._CURVE_HEADERS, rows)
    assert json_text == json.dumps(doc(lambda gs: [
        {"coord": c, "g": g} for c, g in zip(coords, gs)]), indent=2)
    json.loads(json_text, parse_constant=refuse_constant)


CSV_CELLS = st.one_of(st.none(), st.booleans(), st.floats(),
                     st.text(alphabet=st.sampled_from('ab -,"\n\r')))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 7).flatmap(
    lambda n: st.lists(st.lists(CSV_CELLS, min_size=n, max_size=n), min_size=1, max_size=6)))
def test_csv_renderer_writes_the_text_of_csv_writer(lines):
    # the joined fast path and its fallback against csv.writer over the cell texts
    # (empty for None, true/false, floats by repr); a comma, quote or line break
    # in a cell is quoted
    headers, *rows = lines
    _assert_csv_writer_text([_csv_cell(h) for h in headers], rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(
    st.sampled_from([st.none(), st.booleans(), st.floats(),
                     st.text(alphabet=st.sampled_from('ab -,"\n\r'))]).flatmap(
        lambda kind: st.lists(kind, min_size=n, max_size=n)),
    min_size=2, max_size=7)))
def test_csv_renderer_writes_typed_columns_as_csv_writer(columns):
    # columns whose values share one type, as infimum and root rows have them,
    # take one formatter each; the text is still csv.writer's
    headers = [f"h{i}" for i in range(len(columns))]
    _assert_csv_writer_text(headers, [list(row) for row in zip(*columns)])


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _assert_csv_writer_text(headers, rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([headers, *[[_csv_cell(v) for v in row]
                                                              for row in rows]])
    assert cli._render_csv(headers, rows) == buf.getvalue().rstrip("\n")


def test_small_blocks_write_the_default_bytes(runner, tmp_path, monkeypatch):
    args = ["infimum", "--family", "inverse-gaussian", "--kappa", "0.5,1,2,2",
            "--curve-points", "50"]

    def export(tag):
        paths = [tmp_path / f"{tag}.{ext}" for ext in ("csv", "curve.csv", "json", "txt")]
        for extra in (["--format", "csv", "--out", str(paths[0]), "--curve-out", str(paths[1])],
                      ["--format", "json", "--out", str(paths[2])],
                      ["--format", "table", "--out", str(paths[3])]):
            assert runner.invoke(main, [*args, *extra]).exit_code == 0
        return [path.read_bytes() for path in paths]

    default = export("default")
    sizes = []

    def spy(family, kappa, coord):
        sizes.append(np.size(coord))
        return reduced_prob(family, kappa, coord)

    monkeypatch.setattr(cli, "_BLOCK", 7)
    monkeypatch.setattr(cli, "reduced_prob", spy)
    assert export("blocks") == default
    assert sizes and max(sizes) == 7  # 50 points: seven blocks of 7 and one of 1


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_stdout_gets_the_bytes_of_out(runner, tmp_path, monkeypatch, fmt):
    args = ["infimum", "--family", "log-normal", "--kappa", "0.5,1,2", "--curve-points", "30",
            "--format", fmt]
    monkeypatch.setattr(cli, "_BLOCK", 7)  # several pieces per curve
    path = tmp_path / f"out.{fmt}"
    assert runner.invoke(main, [*args, "--out", str(path)]).exit_code == 0
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stdout_bytes == path.read_bytes()


def test_closed_stdout_pipe_exits_0_without_stderr():
    # the reader takes one line of a 1e6-point export and closes the pipe, as
    # ``| head -1`` does, while the export is still writing
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "kappainf", "infimum", "--family", "gumbel",
                             "--kappa", "2", "--curve-points", "1000000", "--format", "csv"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"family,kappa,value")
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(), stderr) == (0, b"")


class TestRootCommand:
    def test_reference_value(self, runner):
        result = runner.invoke(main, ["root", "--kappa", "2", "--format", "csv"])
        assert result.exit_code == 0
        row = parse_csv(result.output)[0]
        assert float(row["critical_coord"]) == pytest.approx(0.6479001883889423, rel=1e-12)
        assert float(row["upper_bound"]) == pytest.approx(math.sqrt(2.0 / 3.0))
        assert abs(float(row["residual"])) <= 1e-12
        assert float(row["value"]) > 0.5

    def test_no_critical_point_regime_is_exit_2(self, runner):
        result = runner.invoke(main, ["root", "--kappa", "1"])
        assert result.exit_code == 2

    def test_first_float_above_one(self, runner):
        # the stationarity at the peak rounds to 0 there, and the peak is the root
        result = runner.invoke(main, ["root", "--kappa", "1.0000000000000002", "--format", "csv"])
        assert result.exit_code == 0, result.output
        row = parse_csv(result.output)[0]
        assert row["critical_coord"] == row["upper_bound"] == "47453132.81212578"
        assert row["residual"] == "0.0"

    def test_nan_kappa_is_exit_2(self, runner):
        result = runner.invoke(main, ["root", "--kappa", "nan"])
        assert result.exit_code == 2
        assert "kappa must be finite, got nan" in result.stderr


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(1.0, IG_KAPPA_MAX, exclude_min=True),
                          st.floats(1.0, 2.0, exclude_min=True)), min_size=1, max_size=4))
@example([1.0 + 2.0 ** -52, 1.0 + 1e-10, 2.0, IG_KAPPA_MAX])
def test_root_cells_are_the_checked_public_calls(kappas):
    # the root rows take their kernels unchecked; each cell has the bits of the
    # public call on the same kappa
    result = CliRunner().invoke(main, ["root", "--kappa", ",".join(map(repr, kappas)),
                                       "--format", "csv"])
    assert result.exit_code == 0, result.output
    rows = parse_csv(result.output)
    assert len(rows) == len(kappas)
    for k, row in zip(kappas, rows):
        x0 = ig_critical_point(k)
        assert row == {"kappa": repr(k), "critical_coord": repr(x0),
                       "upper_bound": repr(ig_peak_coord(k)),
                       "value": repr(reduced_prob(Family.INVERSE_GAUSSIAN, k, x0)),
                       "residual": repr(ig_stationarity_scaled(k, x0))}


class TestVerifyCommand:
    def test_quick_budget_passes_seed_1(self, runner):
        result = runner.invoke(main, ["verify", "--budget", "quick", "--seed", "1"])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    def test_quick_budget_passes_seed_2(self, runner):
        result = runner.invoke(main, ["verify", "--budget", "quick", "--seed", "2"])
        assert result.exit_code == 0, result.output

    def test_negative_seed_is_exit_2_without_traceback(self, runner):
        result = runner.invoke(main, ["verify", "--seed", "-1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.stderr == "error: seed must be >= 0, got -1\n"

    def test_json_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--budget", "quick", "--seed", "1", "--format", "json"]
        )
        payload = json.loads(result.output)
        assert payload["passed"] == payload["total"]
        assert all(r["status"] == "PASS" for r in payload["reports"])

    @pytest.mark.parametrize("name", ["std_normal_cdf", "_phi"])
    def test_corrupted_normal_cdf_fails_the_suite(self, runner, monkeypatch, name):
        # fault injection: a half-speed CDF must be caught by the oracles,
        # both in the checked entry and in the unchecked Phi of the curves
        true_cdf = getattr(kappainf.special, name)

        def corrupted(z):
            return true_cdf(np.asarray(z) / 2.0)

        monkeypatch.setattr(kappainf.special, name, corrupted)
        result = runner.invoke(main, ["verify", "--budget", "quick", "--seed", "1"])
        assert result.exit_code == 3


def _click_parses(ctx, args):
    """A stand-in for ``cli._plain_params`` that leaves every list to click."""
    return None


# (valid, invalid) values of each option kind for the two-path property: "invalid"
# ones are rejected by click or the library, or are valid only in click's spelling
_FLOATS = (["2", "0.5", "1.0001", "1000"],
           ["-1", "0", "", "1_0", " 2", "nan", "1e400", "abc"])
_KAPPAS = (["2", "0.5,1,2", "1.0001,1.01,2"],
           ["2,", ",", "-1,2", "0", "1_0", " 2", "nan", "1e400", "a,b", ""])
_POINTS = (["5", "2"], ["1", "0", "1000001", "-3", "3.5", "1_0", " 4", ""])
_PATHS = (["new.csv", "old.csv"], ["dir", "missing/x.csv", ""])  # old.csv and dir exist
_SEEDS = (["1"], ["-1", "x", ""])  # verify runs at one seed only
_BOGUS = ["--kappa=2", "--kap", "-h", "--help", "--", "--version", "extra"]


def _values(param):
    if param.callback is not None:  # --kappa of infimum and root
        return _KAPPAS
    if isinstance(param.type, click.Choice):
        choices = [c for c in param.type.choices if c != "full"]  # verify at quick only
        return choices, [choices[0].upper(), "bogus", ""]
    return {click.Path: _PATHS, click.IntRange: _POINTS}.get(
        type(param.type), _SEEDS if param.type is click.INT else _FLOATS)


@st.composite
def _arg_lists(draw):
    """Mostly valid lists: each required option given 7 times in 8, each value drawn
    from the valid ones 2 times in 3 (else from all), an option given twice 1 time
    in 6, a bogus token 1 time in 4."""
    name = draw(st.sampled_from([*main.commands, "infimun"]))
    args = [name]
    command = main.commands.get(name)
    for param in draw(st.permutations(command.params)) if command else []:
        if draw(st.integers(0, 7)) if param.required else draw(st.booleans()):
            valid, invalid = _values(param)
            for _ in range(1 + (draw(st.integers(0, 5)) == 0)):
                pool = valid if draw(st.integers(0, 2)) else valid + invalid
                args += [param.opts[0], draw(st.sampled_from(pool))]
    if draw(st.integers(0, 3)) == 0:
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(_BOGUS)))
    return args


def _outcome(args, plain_params):
    """Exit code, stdout, stderr, exception type and the files written of ``args``
    in a fresh directory holding old.csv and dir/."""
    runner = CliRunner()
    with runner.isolated_filesystem(), mock.patch.object(cli, "_plain_params", plain_params):
        Path("old.csv").write_text("old\n")
        Path("dir").mkdir()
        result = runner.invoke(main, args, prog_name="kappainf")
        files = {str(p): p.read_bytes() for p in sorted(Path().rglob("*")) if p.is_file()}
    return result.exit_code, result.stdout, result.stderr, type(result.exception), files


@settings(max_examples=200, deadline=None)
@given(_arg_lists())
@example(["infimum", "--family", "gumbel", "--kappa", "0.5,2", "--curve-points", "5",
          "--format", "json", "--out", "new.csv"])
@example(["root", "--kappa", "2", "--out", "dir"])
@example(["infimum", "--family", "gumbel", "--kappa", "a,b"])  # the callback rejects it
@example(["infimum", "--family", "GUMBEL", "--kappa", "2"])  # the type rejects it
@example(["verify", "--seed", "x"])
def test_plain_parse_gives_the_bytes_of_clicks(args):
    assert _outcome(args, cli._plain_params) == _outcome(args, _click_parses), args


def _parse_args_calls(monkeypatch, args):
    """How many times click's parser ran for ``args``, and the exit code."""
    calls = []
    parse_args = click.Command.parse_args

    def counted(self, ctx, args):
        calls.append(self.name)
        return parse_args(self, ctx, args)

    monkeypatch.setattr(click.Command, "parse_args", counted)
    result = CliRunner().invoke(main, args)
    return len(calls), result.exit_code


# the invocation shapes of the benchmark workloads
BENCHMARK_SHAPES = [
    ["infimum", "--family", "gumbel", "--kappa", "0.5,1,2", "--format", "csv"],
    ["root", "--kappa", "1.0001,1.5,2", "--format", "csv"],
    ["root", "--kappa", "1.000001", "--format", "csv"],
    ["infimum", "--family", "inverse-gaussian", "--kappa", "0.5,1,2", "--curve-points", "50",
     "--format", "csv", "--curve-out", "curve.csv"],
    ["infimum", "--family", "log-normal", "--kappa", "0.5,1,2", "--curve-points", "50",
     "--format", "json", "--out", "main.json"],
    ["verify", "--budget", "quick", "--seed", "1", "--format", "json"],
]


@pytest.mark.parametrize("args", BENCHMARK_SHAPES, ids=["infimum-csv", "root-csv", "edge-root",
                                                        "curve-csv", "curve-json", "verify-json"])
def test_plain_lists_skip_clicks_parser(monkeypatch, tmp_path, args):
    monkeypatch.chdir(tmp_path)
    assert _parse_args_calls(monkeypatch, args) == (0, 0)


@pytest.mark.parametrize("args", [
    ["root", "--kappa=2"],
    ["root", "--help"],
    ["root", "--kappa", "2", "--kappa", "3"],
])
def test_other_lists_go_to_clicks_parser(monkeypatch, args):
    calls, code = _parse_args_calls(monkeypatch, args)
    assert calls > 0 and code == 0


@pytest.mark.parametrize("args", [
    ["root"],
    ["infimum", "--family", "gumbel"],
    ["infimum", "--kappa", "2"],
    ["eval", "--family", "gumbel", "--coord", "1"],
])
def test_a_missing_required_option_goes_to_clicks_parser(monkeypatch, args):
    # click before 8.3 declares a required option's default None, not a sentinel:
    # the list must reach click's parser, which reports the missing option, either way
    for param in main.commands[args[0]].params:
        if param.required:
            monkeypatch.setattr(param, "default", None)
    assert _parse_args_calls(monkeypatch, args)[0] > 0


def test_shell_completion_still_parses_with_click():
    args = ["infimum", "--family", "gumbel", "--kappa", "2"]
    ctx = main.make_context("kappainf", args, resilient_parsing=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # protected_args is deprecated
        assert ctx.protected_args == ["infimum"]
    result = CliRunner().invoke(main, [], prog_name="kappainf", env={
        "_KAPPAINF_COMPLETE": "bash_complete", "COMP_CWORD": "4",
        "COMP_WORDS": "kappainf infimum --family gumbel --fo"})
    assert (result.exit_code, result.stdout) == (0, "plain,--format\n")


FULL_DISK_CALLS = [
    ["infimum", "--family", "gumbel", "--kappa", "2", "--out", "/dev/full"],
    ["infimum", "--family", "gumbel", "--kappa", "2", "--curve-points", "5",
     "--curve-out", "/dev/full"],
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", FULL_DISK_CALLS, ids=["out", "curve-out"])
def test_full_disk_is_exit_2_naming_the_file(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.stderr == "error: cannot write /dev/full: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", [["infimum", "--family", "gumbel", "--kappa", "2"],
                                  ["eval", "--family", "gumbel", "--kappa", "2", "--coord", "1"]],
                         ids=lambda a: a[0])
def test_full_disk_on_stdout_is_exit_2_naming_stdout(args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "kappainf", *args], stdout=full,
                              stderr=subprocess.PIPE, env=env)
    assert (proc.returncode, proc.stderr) == (
        2, b"error: cannot write stdout: No space left on device\n")
