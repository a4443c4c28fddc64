"""End-to-end CLI behaviour: output formats, round-trips, exit codes."""

import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import kappainf.special
from kappainf import DistParams, Family, NumericalError, reduce_params, reduced_prob
from kappainf.distributions import SCALE_NAME
from kappainf import cli
from kappainf.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    def test_bad_kappa_list_is_usage_error(self, runner):
        for bad in ("", "0", "-1,2", "a,b"):
            result = runner.invoke(
                main, ["infimum", "--family", "logistic", "--kappa", bad]
            )
            assert result.exit_code == 2


# floats a curve file must carry bit for bit, besides any that hypothesis draws
# (nan and +-inf included)
EDGE_FLOATS = [-0.0, 5e-324, 1e308, 0.0, 1.0]
curve_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


@st.composite
def curve_exports(draw):
    """(family, 1-4 kappa, perhaps with a repeat, the coordinate array, one
    value array per kappa)."""
    n = draw(st.integers(2, 6))
    kappa = draw(st.lists(curve_floats, min_size=1, max_size=3))
    if draw(st.booleans()):
        kappa.append(draw(st.sampled_from(kappa)))
    arrays = st.lists(curve_floats, min_size=n, max_size=n).map(np.array)
    return (draw(st.sampled_from([f.value for f in Family])), kappa, draw(arrays),
            [draw(arrays) for _ in kappa])


@settings(max_examples=200, deadline=None)
@given(curve_exports())
@example(("logistic", [2.0, 2.0], np.array([-0.0, 5e-324]), [np.array([1e308, 0.0])] * 2))
def test_curve_writers_match_the_generic_renderers(export):
    # the column writers against csv.writer + _cell over [family, kappa,
    # coord, g] rows and json.dumps(indent=2) over {coord, g} dicts
    family, kappa, coords, curves = export
    coord_text, curve_text = cli._reprs(coords), [cli._reprs(g) for g in curves]
    rows = [[family, k, c, g] for k, g_arr in zip(kappa, curves)
            for c, g in zip(coords.tolist(), g_arr.tolist())]
    assert (cli._curve_csv(family, kappa, coord_text, curve_text)
            == cli._render_csv(cli._CURVE_HEADERS, rows))

    def doc(curve):
        return {"schema": "kappainf-infimum/1", "results": [
            {"family": family, "kappa": k, "value": 0.5, "attained": True,
             "constant": False, "argmin": None, "limit_direction": "coord->+inf",
             "curve": curve(g_arr)} for k, g_arr in zip(kappa, curves)]}

    embedded = cli._embed_curves(json.dumps(doc(lambda g: cli._STAND_IN), indent=2),
                                 coord_text, curve_text)
    assert embedded == json.dumps(doc(lambda g: [
        {"coord": c, "g": v} for c, v in zip(coords.tolist(), g.tolist())]), indent=2)
    assert "nan" not in embedded


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
