"""Command line surface: eval, infimum, root, verify.

Exit codes are a stable contract: 0 success, 2 usage or domain error
(including an output path or stdout that cannot be opened or written), 3
numerical failure (including any failed verification report).  CSV and JSON
outputs print floats in shortest round-trip form, so re-reading a file and
re-evaluating the curve reproduces the written values bit for bit.  Every format
writes curve samples a block of points at a time, to a file or stdout as each
block is made, so memory stays flat in the point count and the number of kappa.

A plain argument list, a command name and ``--option value`` pairs, is parsed from
the commands' click declarations without click's parser (``_plain_params``); click
parses every other list, and writes every help, usage and error text.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Optional

import click
import numpy as np

from . import __version__
from .curves import ig_peak_coord, ig_stationarity_scaled, reduce_params, reduced_prob
from .distributions import SCALE_NAME, DistParams, Family, _ig_curve
from .errors import DomainError, NumericalError, RegimeError
from .oracles import GridSpec
from .solver import InfimumResult, LimitDirection, ig_critical_point, infimum
from .verification import BUDGETS, run_verification

_FAMILY_NAMES = [f.value for f in Family]


def _parse_kappas(ctx, param, value: str) -> list[float]:
    try:
        kappas = [float(part) for part in value.split(",") if part.strip() != ""]
    except ValueError:
        raise click.BadParameter(f"expected a comma list of numbers, got {value!r}")
    if not kappas:
        raise click.BadParameter("at least one kappa value is required")
    return kappas


# A CSV cell's text by the value's type: floats in shortest round-trip form.
_CELL = {float: float.__repr__, bool: {True: "true", False: "false"}.__getitem__,
         type(None): {None: ""}.__getitem__}


def _column_cells(column: tuple) -> Iterable[str]:
    """The CSV texts of one column's values: one map of the type's formatter
    when they share a type, else a dispatch per cell."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        return map(_CELL.get(kinds.pop(), str), column)
    return [_CELL.get(type(v), str)(v) for v in column]


def _render_csv(headers: list[str], rows: list[list]) -> str:
    """The text csv.writer writes for headers and rows of two or more cells.  It
    quotes only a cell holding a comma, a quote or a line break, so text whose
    cells hold none is the cells joined (writerow takes ~1.5 us a row).  The
    cells are formatted a column at a time."""
    lines = [headers, *zip(*map(_column_cells, zip(*rows)))]
    text = "\n".join(map(",".join, lines))
    if ('"' in text or "\r" in text or text.count("\n") >= len(lines)
            or text.count(",") != sum(map(len, lines)) - len(lines)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(lines)
        text = buf.getvalue().rstrip("\n")
    return text


def _show(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".15g")
    return str(value)


def _pad(headers: list[str], columns: list[list[str]]) -> list[str]:
    widths = [max([len(h), *map(len, texts)]) for h, texts in zip(headers, columns)]
    for texts, width in zip(columns, widths):
        for i, text in enumerate(texts):  # in place: a 1e6-point curve keeps one list
            texts[i] = text.ljust(width)
    return [h.ljust(w) for h, w in zip(headers, widths)]


def _render_table(headers: list[str], rows: list[list]) -> str:
    columns = [[_show(row[i]) for row in rows] for i in range(len(headers))]
    return "\n".join("  ".join(line).rstrip() for line in [_pad(headers, columns), *zip(*columns)])


def _render(fmt: str, headers: list[str], rows: list[list], doc: Callable[[], dict]) -> str:
    """rows as CSV or an aligned table; for JSON, the document ``doc()``
    (built only when asked for, so CSV and table output never pay for it)."""
    if fmt == "json":
        return json.dumps(doc(), indent=2)
    return (_render_csv if fmt == "csv" else _render_table)(headers, rows)


def _emit(pieces: Iterable[str], out: Optional[str]) -> None:
    """The text of ``pieces`` and a newline, a piece at a time: to the file ``out``,
    else to stdout.  A write error names its target, the path or "stdout"."""
    try:
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
            fh.writelines(pieces)
            fh.write("\n")
            fh.flush()  # so a closed stdout pipe raises here, where invoke handles it
    except OSError as exc:  # a failed write (a full disk) names no file
        raise OSError(exc.errno, exc.strerror, out or "stdout") from None


_PLAIN = "kappainf.plain"  # the ctx.meta key of a plain list's command context


def _plain_params(ctx, args: list[str]) -> Optional[click.Context]:
    """The command's context of a plain list: a command name, then ``--option value``
    pairs of its declared options, each option at most once and each value neither
    empty nor starting with "-".  Each value is converted by its option's type and
    callback, defaults fill the rest.  None for any other list, or one that click
    would reject, so that click parses it and writes the help or the error."""
    command = ctx.command.get_command(ctx, args[0]) if args else None
    if command is None or command.context_settings or len(args) % 2 == 0:
        return None
    options = {opt: param for param in command.params for opt in param.opts
               if opt.startswith("--")}
    given = {}
    for opt, raw in zip(args[1::2], args[2::2]):
        param = options.get(opt)
        if param is None or param.name in given or not raw or raw.startswith("-"):
            return None
        given[param.name] = raw
    # converted in a context of the command, as click converts them
    sub_ctx = command.context_class(command, info_name=args[0], parent=ctx)
    try:
        for param in command.params:
            if param.required and param.name not in given:
                return None
            raw = given.get(param.name, param.default)
            if (not isinstance(param, click.Option) or param.is_flag or param.multiple
                    or param.nargs != 1 or param.envvar or param.prompt is not None
                    or not (raw is None or isinstance(raw, (str, int, float)))):
                return None
            value = param.type(raw, param, sub_ctx)
            sub_ctx.params[param.name] = (value if param.callback is None
                                          else param.callback(sub_ctx, param, value))
    except click.ClickException:
        return None
    return sub_ctx


def _quiet_stdout() -> None:
    """Point stdout at the null device, so that the exit flush of what it still
    holds cannot fail again."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Main(click.Group):
    """Maps library errors to the exit-code contract for every command.

    A plain argument list (``_plain_params``) skips click's parser: make_context
    converts its values from the options' own declarations into the command's
    context, and invoke runs the command in it.  Click parses every other list,
    and writes every help, usage and error text."""

    def make_context(self, info_name, args, parent=None, **extra):
        # the group's own options, --version and --help, are flags: a plain list has none
        if parent is None and not extra and not self.context_settings:
            ctx = self.context_class(self, info_name=info_name)
            sub_ctx = _plain_params(ctx, args)
            if sub_ctx is not None:
                ctx.meta[_PLAIN] = sub_ctx
                return ctx
        return super().make_context(info_name, args, parent, **extra)

    def invoke(self, ctx):
        try:
            # popped, so that ctx.meta, which sub_ctx shares, stops holding sub_ctx
            sub_ctx = ctx.meta.pop(_PLAIN, None)
            if sub_ctx is None:
                return super().invoke(ctx)
            with ctx:
                ctx.invoked_subcommand = sub_ctx.info_name
                click.Command.invoke(self, ctx)  # the group's callback
                with sub_ctx:
                    return sub_ctx.command.invoke(sub_ctx)
        except (DomainError, RegimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
        except BrokenPipeError:  # stdout's reader has closed it, as ``| head`` does
            _quiet_stdout()
            sys.exit(0)
        except OSError as exc:
            if exc.filename is None:  # not a write of _emit's, which names its target
                raise
            if exc.filename == "stdout":
                _quiet_stdout()
            click.echo(f"error: cannot write {exc.filename}: {exc.strerror}", err=True)
            sys.exit(2)


@click.group(cls=_Main)
@click.version_option(__version__, prog_name="kappainf")
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
    _emit([format(reduced_prob(fam, kappa, coord), ".15g")], None)


# the text of None and of each Family and LimitDirection member, read from a
# dict instead of through Enum's ``.value`` property (~0.1 us a read)
_TEXT = {None: None, **{member: member.value for member in (*Family, *LimitDirection)}}


def _infimum_row(result: InfimumResult) -> list:
    """Values in _INFIMUM_HEADERS order, of a result that ``infimum`` made: its
    kappa, value and argmin are floats (or argmin None), its flags bools."""
    return [_TEXT[result.family], result.kappa, result.value, result.attained,
            result.constant, result.argmin, _TEXT[result.limit_direction]]


_INFIMUM_HEADERS = ["family", "kappa", "value", "attained", "constant",
                    "argmin", "limit_direction"]
_CURVE_HEADERS = ["family", "kappa", "coord", "g"]
# each JSON result holds this string as its "curve" until the curve's text
# replaces it after json.dumps; no other string in the document holds a NUL
_STAND_IN = "\0"
_BLOCK = 65_536  # curve points formatted at a time: memory flat in points and kappa


def _curve_blocks(fam: Family, k: float, grid: np.ndarray, coords: list[str], cell) -> Iterator:
    """(coordinate texts, ``cell`` texts of the values) of each block of the curve at
    ``k``; the curve maths is element-wise, so a block has the bits of a whole-grid call."""
    for i in range(0, len(grid), _BLOCK):
        yield coords[i:i + _BLOCK], map(cell, reduced_prob(fam, k, grid[i:i + _BLOCK]).tolist())


def _curve_rows(fam: Family, kappa: list[float], grid: np.ndarray, fmt: str) -> Iterator:
    """family, kappa, coord, g rows as ``_render_csv`` (fmt "csv"; no cell needs quoting)
    or ``_render_table`` writes them; its lines are stripped, so no g text sets a width."""
    cell, sep = (repr, ",") if fmt == "csv" else (_show, "  ")
    columns = [[fam.value], list(map(cell, kappa)), list(map(cell, grid.tolist()))]
    heads = _CURVE_HEADERS[:-1] if fmt == "csv" else _pad(_CURVE_HEADERS, columns)
    (family,), kappa_texts, coords = columns
    yield sep.join([*heads, _CURVE_HEADERS[-1]])
    for k, k_text in zip(kappa, kappa_texts):
        prefix = f"\n{family}{sep}{k_text}{sep}"
        for cs, gs in _curve_blocks(fam, k, grid, coords, cell):
            yield "".join([f"{prefix}{c}{sep}{g}" for c, g in zip(cs, gs)])


def _json_curves(text: str, fam: Family, kappa: list[float], grid: np.ndarray) -> Iterator:
    """JSON ``text`` with its i-th stand-in replaced by the curve at the i-th kappa,
    laid out as json.dumps(..., indent=2) writes [{"coord": c, "g": g}, ...]."""
    first, *rest = text.split(json.dumps(_STAND_IN))
    coords = list(map(repr, grid.tolist()))
    yield first
    for k, tail in zip(kappa, rest):
        for i, (cs, gs) in enumerate(_curve_blocks(fam, k, grid, coords, repr)):
            yield ("," if i else "[") + ",".join([
                f'\n        {{\n          "coord": {c},\n          "g": {g}\n        }}'
                for c, g in zip(cs, gs)])
        yield "\n      ]" + tail


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
    if curve_out is not None and curve_points is None:
        raise DomainError("--curve-out needs --curve-points")
    if out and curve_out and os.path.realpath(out) == os.path.realpath(curve_out):
        raise DomainError("--out and --curve-out name the same file")
    rows = [_infimum_row(infimum(fam, k)) for k in kappa]
    grid = None if curve_points is None else GridSpec.default_for(fam, curve_points).points()

    def doc() -> dict:
        curve = {} if grid is None else {"curve": _STAND_IN}
        return {"schema": "kappainf-infimum/1",
                "results": [{**dict(zip(_INFIMUM_HEADERS, row)), **curve} for row in rows]}

    # every check has run; the curves are formatted a block at a time from here
    pieces = [_render(fmt, _INFIMUM_HEADERS, rows, doc)]
    if fmt == "json" and grid is not None:
        pieces = _json_curves(pieces[0], fam, kappa, grid)
    elif grid is not None and curve_out is None:
        title = "\n\n" if fmt == "csv" else "\n\ncurve samples\n"
        pieces = itertools.chain(pieces, [title], _curve_rows(fam, kappa, grid, fmt))
    _emit(pieces, out)
    if curve_out is not None:
        _emit(_curve_rows(fam, kappa, grid, "csv"), curve_out)


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
        x0 = ig_critical_point(k)  # checks k, so the value takes infimum's unchecked kernel
        rows.append([k, x0, ig_peak_coord(k), _ig_curve(k, x0), ig_stationarity_scaled(k, x0)])
    _emit([_render(fmt, _ROOT_HEADERS, rows, lambda: {
        "schema": "kappainf-root/1",
        "results": [dict(zip(_ROOT_HEADERS, row)) for row in rows]})], out)


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
    rows = [["PASS" if r.passed else "FAIL", r.method, r.analytic, r.estimate, r.tolerance,
             r.detail] for r in reports]
    n_pass = sum(r.passed for r in reports)
    text = _render(fmt, _VERIFY_HEADERS, rows, lambda: {
        "schema": "kappainf-verify/1", "budget": budget, "seed": seed,
        "passed": n_pass, "total": len(reports),
        "reports": [dict(zip(_VERIFY_HEADERS, row)) for row in rows]})
    if fmt == "table":
        text += f"\n\n{n_pass}/{len(reports)} checks passed"
    _emit([text], out)
    if n_pass != len(reports):
        sys.exit(3)
