"""Command line surface: eval, infimum, root, verify.

Exit codes are a stable contract: 0 success, 2 usage or domain error,
3 numerical failure (including any failed verification report).  CSV and
JSON outputs print floats in shortest round-trip form, so re-reading a file
and re-evaluating the curve reproduces the written values bit for bit.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from typing import Callable, Optional

import click
import numpy as np

from .curves import reduce_params, reduced_prob
from .distributions import SCALE_NAME, DistParams, Family
from .errors import DomainError, NumericalError, RegimeError
from .oracles import GridSpec
from .solver import InfimumResult, ig_critical_point, infimum
from .verification import BUDGETS, run_verification
from . import curves

_FAMILY_NAMES = [f.value for f in Family]


def _parse_kappas(ctx, param, value: str) -> list[float]:
    try:
        kappas = [float(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"expected a comma list of numbers, got {value!r}")
    if not kappas:
        raise click.BadParameter("at least one kappa value is required")
    if any(not k > 0 for k in kappas):
        raise click.BadParameter("every kappa must be > 0")
    return kappas


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_csv(headers: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue().rstrip("\n")


def _render_table(headers: list[str], rows: list[list]) -> str:
    def show(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, float):
            return format(value, ".15g")
        return str(value)

    cells = [[show(v) for v in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines)


def _render(fmt: str, headers: list[str], rows: list[list], doc: Callable[[], dict]) -> str:
    """rows as CSV or an aligned table; for JSON, the document ``doc()``
    (built only when asked for, so CSV and table output never pay for it)."""
    if fmt == "json":
        return json.dumps(doc(), indent=2)
    return (_render_csv if fmt == "csv" else _render_table)(headers, rows)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)  # no text + "\n": a curve file's text can be ~100 MB
            fh.write("\n")
    else:
        click.echo(text)


class _Main(click.Group):
    """Maps library errors to the exit-code contract for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (DomainError, RegimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
@click.version_option(package_name="kappainf", prog_name="kappainf")
def main() -> None:
    """Probabilities P(X <= kappa*E[X]) and their infima for the inverse
    Gaussian, log-normal, Gumbel and logistic families."""


@main.command("eval")
@click.option("--family", required=True, type=click.Choice(_FAMILY_NAMES))
@click.option("--kappa", required=True, type=float)
@click.option("--coord", type=float, default=None,
              help="Reduced coordinate (sqrt(lambda/mu), sigma, or mu/beta).")
@click.option("--mu", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None, help="Inverse Gaussian shape.")
@click.option("--sigma", type=float, default=None, help="Log-normal log-scale.")
@click.option("--beta", type=float, default=None, help="Gumbel/logistic scale.")
def cmd_eval(family, kappa, coord, mu, lam, sigma, beta) -> None:
    """Print P(X <= kappa*E[X]) for one family member (15 significant digits)."""
    fam = Family(family)
    native = {name: value for name, value in
              (("mu", mu), ("lambda", lam), ("sigma", sigma), ("beta", beta))
              if value is not None}
    if coord is None:
        # the probability is scale-free: evaluate at the reduced coordinate,
        # so both forms print the same digits and no moment is ever formed
        expected = {"mu", SCALE_NAME[fam]}
        if set(native) != expected:
            flags = " and ".join(f"--{name}" for name in sorted(expected))
            raise DomainError(f"family {fam.value} takes exactly {flags} (or --coord)")
        coord = reduce_params(DistParams(fam, native["mu"], native[SCALE_NAME[fam]]))
    elif native:
        raise DomainError("supply either --coord or native parameters, not both")
    click.echo(format(reduced_prob(fam, kappa, coord), ".15g"))


def _infimum_row(result: InfimumResult) -> list:
    """Values in _INFIMUM_HEADERS order."""
    return [
        result.family.value,
        float(result.kappa),
        float(result.value),
        bool(result.attained),
        bool(result.constant),
        float(result.argmin) if result.argmin is not None else None,
        result.limit_direction.value if result.limit_direction is not None else None,
    ]


_INFIMUM_HEADERS = ["family", "kappa", "value", "attained", "constant",
                    "argmin", "limit_direction"]
_CURVE_HEADERS = ["family", "kappa", "coord", "g"]
# each JSON result holds this string as its "curve" until the curve's text
# replaces it after json.dumps; no other string in the document holds a NUL
_STAND_IN = "\0"


def _reprs(values: np.ndarray) -> list[str]:
    """Shortest round-trip text of each value, as ``_cell`` writes a float."""
    return list(map(repr, values.tolist()))


def _curve_csv(family: str, kappa: list[float], coords: list[str],
               curves: list[list[str]]) -> str:
    """The family,kappa,coord,g rows, one per point and kappa, in the bytes
    ``_render_csv`` writes: none of these cells needs quoting."""
    lines = [",".join(_CURVE_HEADERS)]
    for k, gs in zip(kappa, curves):
        prefix = f"{family},{k!r}"
        lines += [f"{prefix},{c},{g}" for c, g in zip(coords, gs)]
    return "\n".join(lines)


def _embed_curves(text: str, coords: list[str], curves: list[list[str]]) -> str:
    """JSON ``text`` with its i-th stand-in replaced by the i-th curve, laid out
    as json.dumps(..., indent=2) writes [{"coord": c, "g": g}, ...] there."""
    first, *rest = text.split(json.dumps(_STAND_IN))
    parts = [first]
    for gs, tail in zip(curves, rest):
        curve = "[" + ",".join([
            f'\n        {{\n          "coord": {c},\n          "g": {g}\n        }}'
            for c, g in zip(coords, gs)]) + "\n      ]"
        # repr writes the non-finite floats as nan, inf, -inf and json.dumps as
        # NaN, Infinity, -Infinity; neither key holds these letters
        parts += [curve.replace("nan", "NaN").replace("inf", "Infinity"), tail]
    return "".join(parts)


@main.command("infimum")
@click.option("--family", required=True, type=click.Choice(_FAMILY_NAMES))
@click.option("--kappa", required=True, callback=_parse_kappas,
              help="Comma list of positive mean multipliers, e.g. 0.5,1,2.")
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--curve-points", type=click.IntRange(2, 1_000_000), default=None,
              help="Also sample the curve at this many coordinates per kappa.")
@click.option("--curve-out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write curve samples (CSV columns family,kappa,coord,g) here.")
def cmd_infimum(family, kappa, fmt, out, curve_points, curve_out) -> None:
    """Infimum of the probability over the parameter space, one row per kappa."""
    fam = Family(family)
    rows = [_infimum_row(infimum(fam, k)) for k in kappa]
    # one curve array per kappa; CSV and JSON render them from the repr of
    # each value, written once, the table from the floats
    grid, curves_g, coords, curves_text = None, [], [], []
    if curve_points is not None:
        grid = GridSpec.default_for(fam, curve_points).points()
        curves_g = [reduced_prob(fam, k, grid) for k in kappa]
        if fmt != "table" or curve_out is not None:
            coords, curves_text = _reprs(grid), [_reprs(g) for g in curves_g]

    def doc() -> dict:
        results = [dict(zip(_INFIMUM_HEADERS, row)) for row in rows]
        if curves_g:
            for result in results:
                result["curve"] = _STAND_IN
        return {"schema": "kappainf-infimum/1", "results": results}

    text = _render(fmt, _INFIMUM_HEADERS, rows, doc)
    if fmt == "json" and curves_g:
        text = _embed_curves(text, coords, curves_text)
    elif curves_g and curve_out is None:
        if fmt == "csv":
            text += "\n\n" + _curve_csv(fam.value, kappa, coords, curves_text)
        else:
            pts = grid.tolist()
            text += "\n\ncurve samples\n" + _render_table(_CURVE_HEADERS, [
                [fam.value, k, c, g] for k, g_arr in zip(kappa, curves_g)
                for c, g in zip(pts, g_arr.tolist())])
    _emit(text, out)
    if curves_g and curve_out is not None:
        _emit(_curve_csv(fam.value, kappa, coords, curves_text), curve_out)


_ROOT_HEADERS = ["kappa", "critical_coord", "upper_bound", "value", "residual"]


@main.command("root")
@click.option("--kappa", required=True, callback=_parse_kappas,
              help="Comma list of multipliers > 1.")
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def cmd_root(kappa, fmt, out) -> None:
    """Critical coordinate of the inverse Gaussian curve (kappa > 1 only)."""
    rows = []
    for k in kappa:
        x0 = ig_critical_point(k)
        rows.append([
            float(k),
            float(x0),
            float(curves.ig_peak_coord(k)),
            float(reduced_prob(Family.INVERSE_GAUSSIAN, k, x0)),
            float(curves.ig_stationarity(k, x0)),
        ])
    _emit(_render(fmt, _ROOT_HEADERS, rows, lambda: {
        "schema": "kappainf-root/1",
        "results": [dict(zip(_ROOT_HEADERS, row)) for row in rows]}), out)


_VERIFY_HEADERS = ["status", "method", "analytic", "estimate", "tolerance", "detail"]


@main.command("verify")
@click.option("--budget", type=click.Choice(sorted(BUDGETS)), default="quick",
              show_default=True)
@click.option("--seed", type=int, default=1, show_default=True,
              help="Drives all randomness in the run.")
@click.option("--format", "fmt", type=click.Choice(["table", "csv", "json"]),
              default="table", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def cmd_verify(budget, seed, fmt, out) -> None:
    """Re-derive every analytic claim numerically; exit 0 only if all pass."""
    reports = run_verification(budget=budget, seed=seed)
    rows = [
        ["PASS" if r.passed else "FAIL", r.method, float(r.analytic),
         float(r.estimate), float(r.tolerance), r.detail]
        for r in reports
    ]
    n_pass = sum(r.passed for r in reports)
    text = _render(fmt, _VERIFY_HEADERS, rows, lambda: {
        "schema": "kappainf-verify/1", "budget": budget, "seed": seed,
        "passed": n_pass, "total": len(reports),
        "reports": [dict(zip(_VERIFY_HEADERS, row)) for row in rows]})
    if fmt == "table":
        text += f"\n\n{n_pass}/{len(reports)} checks passed"
    _emit(text, out)
    if n_pass != len(reports):
        sys.exit(3)
