"""Output checks for every benchmark invocation.

Runs as its own process (``python3 check.py --serve``), started by the
workload process and fed one JSON request per line on stdin.  Keeping the
checks out of the workload process means their time, their memory and
their own calls into ``kappainf`` never reach the measured process, its
peak RSS or its trace.  The workload process waits for each answer before
its next call, so the two never run at once.

A verdict is ``ok`` (exit 0 and the output passes), ``failed`` (the
program declared a failure: non-zero exit or an escaped exception) or
``wrong`` (exit 0 but the output is rejected).  Both of the latter count
toward ``fail_ratio``; only ``wrong`` makes a run incorrect.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

from kappainf.curves import ig_peak_coord, reduced_prob
from kappainf.distributions import Family
from kappainf.oracles import GridSpec
from kappainf.special import std_normal_cdf

EULER_GAMMA = 0.5772156649015329
GUMBEL_CONSTANT = math.exp(-math.exp(-EULER_GAMMA))
INFIMUM_HEADERS = ["family", "kappa", "value", "attained", "constant", "argmin",
                   "limit_direction"]
ROOT_HEADERS = ["kappa", "critical_coord", "upper_bound", "value", "residual"]
CURVE_HEADER = "family,kappa,coord,g"
SAMPLED_ROWS = 32  # curve rows per kappa re-evaluated bit for bit
LN_ULPS = 8  # the log-normal argmin is sqrt(2 ln kappa), not the curve's root


class CheckError(Exception):
    """The output of an invocation is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _bool(cell: str) -> bool:
    expect(cell in ("true", "false"), f"boolean cell {cell!r}")
    return cell == "true"


def _csv_rows(text: str, headers: list[str]) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    expect(next(reader, None) == headers, "header row")
    rows = [cells for cells in reader if cells]
    expect(all(len(cells) == len(headers) for cells in rows), "cell count")
    return [dict(zip(headers, cells)) for cells in rows]


def _typed_infimum(cells: dict) -> dict:
    return {
        "family": cells["family"],
        "kappa": float(cells["kappa"]),
        "value": float(cells["value"]),
        "attained": _bool(cells["attained"]),
        "constant": _bool(cells["constant"]),
        "argmin": float(cells["argmin"]) if cells["argmin"] else None,
        "limit_direction": cells["limit_direction"] or None,
    }


def check_infimum_row(family: str, kappa: float, row: dict) -> None:
    """One infimum result against the regime table of the README."""
    expect(row["family"] == family, f"family {row['family']!r}")
    expect(row["kappa"] == kappa, f"kappa {row['kappa']!r} != {kappa!r}")
    fam = Family(family)
    value, argmin = row["value"], row["argmin"]
    where = f"{family} kappa={kappa!r}"
    if fam in (Family.INVERSE_GAUSSIAN, Family.LOG_NORMAL) and kappa > 1.0:
        expect(row["attained"] and not row["constant"] and row["limit_direction"] is None
               and argmin is not None, f"{where}: not an attained row")
        expect(value > 0.5, f"{where}: value {value!r} not above 1/2")
        curve = reduced_prob(fam, kappa, argmin)
        if fam is Family.INVERSE_GAUSSIAN:
            expect(0.0 < argmin <= ig_peak_coord(kappa), f"{where}: argmin outside bracket")
            expect(value == curve, f"{where}: value {value!r} != curve {curve!r}")
        else:
            sigma = math.sqrt(2.0 * math.log(kappa))
            expect(abs(argmin - sigma) <= LN_ULPS * math.ulp(sigma), f"{where}: argmin")
            closed = std_normal_cdf(argmin)
            expect(value == closed, f"{where}: value {value!r} != Phi(argmin) {closed!r}")
            expect(abs(value - curve) <= LN_ULPS * math.ulp(curve), f"{where}: value vs curve")
        return
    if fam in (Family.GUMBEL, Family.LOGISTIC) and kappa == 1.0:
        const = GUMBEL_CONSTANT if fam is Family.GUMBEL else 0.5
        expect(row["constant"] and not row["attained"] and argmin is None
               and row["limit_direction"] is None and value == const,
               f"{where}: not the constant row")
        return
    if fam is Family.INVERSE_GAUSSIAN:
        direction = "coord->+inf"
    elif fam is Family.LOG_NORMAL:
        direction = "coord->0+"
    else:
        direction = "coord->+inf" if kappa < 1.0 else "coord->-inf"
    expected = 0.5 if kappa == 1.0 else 0.0
    expect(not row["attained"] and not row["constant"] and argmin is None
           and row["limit_direction"] == direction and value == expected,
           f"{where}: expected limit {expected!r} {direction}, got {row!r}")


def check_infimum_csv(spec: dict, text: str) -> int:
    rows = _csv_rows(text, INFIMUM_HEADERS)
    expect(len(rows) == len(spec["kappas"]), f"{len(rows)} rows for {len(spec['kappas'])} kappa")
    for kappa, cells in zip(spec["kappas"], rows):
        check_infimum_row(spec["family"], kappa, _typed_infimum(cells))
    return len(rows)


def check_root_csv(spec: dict, text: str) -> int:
    rows = _csv_rows(text, ROOT_HEADERS)
    expect(len(rows) == len(spec["kappas"]), f"{len(rows)} rows for {len(spec['kappas'])} kappa")
    for kappa, cells in zip(spec["kappas"], rows):
        x0, bound, value = (float(cells[h]) for h in ("critical_coord", "upper_bound", "value"))
        where = f"root kappa={kappa!r}"
        expect(float(cells["kappa"]) == kappa, f"{where}: kappa cell {cells['kappa']!r}")
        expect(bound == ig_peak_coord(kappa), f"{where}: upper bound {bound!r}")
        expect(0.0 < x0 <= bound, f"{where}: critical coord {x0!r} outside (0, {bound!r}]")
        expect(value > 0.5, f"{where}: value {value!r} not above 1/2")
        curve = reduced_prob(Family.INVERSE_GAUSSIAN, kappa, x0)
        expect(value == curve, f"{where}: value {value!r} != curve {curve!r}")
        expect(math.isfinite(float(cells["residual"])), f"{where}: residual")
    return len(rows)


def _check_curve_block(spec: dict, kappa: float, coords: list, g: list, seed: int) -> None:
    fam, n = Family(spec["family"]), spec["points"]
    where = f"curve {spec['family']} kappa={kappa!r}"
    expect(len(coords) == n, f"{where}: {len(coords)} points, expected {n}")
    grid = GridSpec.default_for(fam, n).points()
    coords = np.fromiter(map(float, coords), dtype=float, count=n)
    expect(np.array_equal(coords, grid), f"{where}: coords off the grid")
    g = np.fromiter(map(float, g), dtype=float, count=n)
    expect(bool(np.all((g >= 0.0) & (g <= 1.0))), f"{where}: g outside [0, 1]")
    rng = np.random.default_rng(seed)
    idx = np.unique(np.concatenate([[0, n - 1], rng.integers(0, n, SAMPLED_ROWS)]))
    expect(np.array_equal(g[idx], reduced_prob(fam, kappa, grid[idx])),
           f"{where}: g differs from the curve at a sampled row")


def check_curve_csv(spec: dict, stdout: str, files: dict) -> int:
    check_infimum_csv(spec, stdout)
    lines = files[spec["curve_out"]].split("\n")
    expect(lines[0] == CURVE_HEADER, "curve header")
    body = [line.split(",") for line in lines[1:] if line]
    n, kappas = spec["points"], spec["kappas"]
    expect(len(body) == n * len(kappas), f"{len(body)} curve rows, expected {n * len(kappas)}")
    for i, kappa in enumerate(kappas):
        block = body[i * n:(i + 1) * n]
        expect(all(len(c) == 4 and c[0] == spec["family"] and float(c[1]) == kappa
                   for c in block), f"curve block {i}: family/kappa cells")
        _check_curve_block(spec, kappa, [c[2] for c in block], [c[3] for c in block],
                           spec["check_seed"] + i)
    return len(body)


def check_curve_json(spec: dict, stdout: str, files: dict) -> int:
    payload = json.loads(files[spec["out"]])
    expect(payload.get("schema") == "kappainf-infimum/1", "schema")
    results = payload["results"]
    expect(len(results) == len(spec["kappas"]), f"{len(results)} results")
    for i, (kappa, row) in enumerate(zip(spec["kappas"], results)):
        expect(set(row) == {*INFIMUM_HEADERS, "curve"}, f"result keys {sorted(row)}")
        check_infimum_row(spec["family"], kappa, row)
        curve = row["curve"]
        expect(all(set(p) == {"coord", "g"} for p in curve), "curve entry keys")
        _check_curve_block(spec, kappa, [p["coord"] for p in curve], [p["g"] for p in curve],
                           spec["check_seed"] + i)
    return spec["points"] * len(results)


def check_verify_json(spec: dict, stdout: str, files: dict) -> int:
    payload = json.loads(stdout)
    expect(payload.get("schema") == "kappainf-verify/1", "schema")
    expect(payload["budget"] == spec["budget"] and payload["seed"] == spec["seed"],
           "budget/seed echo")
    reports = payload["reports"]
    n_pass = sum(r["status"] == "PASS" for r in reports)
    expect(payload["total"] == len(reports) > 0, f"total {payload['total']} vs {len(reports)}")
    expect(payload["passed"] == n_pass == len(reports),
           f"passed {payload['passed']}, PASS rows {n_pass}, total {len(reports)}")
    return len(reports)


def failed_rows(stdout: str) -> str:
    """The FAIL rows of a verify report, which says nothing on stderr."""
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError):
        return ""
    return "; ".join(f"FAIL {r.get('method')}: {r.get('detail')}" for r in reports
                     if isinstance(r, dict) and r.get("status") != "PASS")


CHECKS = {
    "infimum": lambda spec, stdout, files: check_infimum_csv(spec, stdout),
    "root": lambda spec, stdout, files: check_root_csv(spec, stdout),
    "edge": lambda spec, stdout, files: check_root_csv(spec, stdout),
    "curve_csv": check_curve_csv,
    "curve_json": check_curve_json,
    "verify": check_verify_json,
}


def judge(request: dict, files: dict) -> dict:
    """Verdict on one invocation: status ok | failed | wrong, and its items."""
    if request["code"] != 0:
        said = request["stderr"].strip() or failed_rows(request["stdout"])
        return {"status": "failed", "items": 0,
                "why": f"exit {request['code']}: {said[:200]}"}
    try:
        items = CHECKS[request["kind"]](request["spec"], request["stdout"], files)
    except (CheckError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return {"status": "wrong", "items": 0, "why": f"{type(exc).__name__}: {exc}"[:300]}
    return {"status": "ok", "items": items, "why": ""}


# --- self-test corruptions -------------------------------------------------
# Each takes the checker's own copy of an output and changes one row; the
# program and the files it wrote are never touched.

def _nudge_csv_row(text: str, column: str, row: int) -> str:
    lines = text.split("\n")
    headers = lines[0].split(",")
    cells = lines[1 + row].split(",")
    col = headers.index(column)
    cells[col] = repr(math.nextafter(float(cells[col]), 2.0))
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


def _drop_csv_row(text: str, row: int) -> str:
    lines = text.split("\n")
    del lines[1 + row]
    return "\n".join(lines)


def _corrupt_json(text: str, how: str, rng: np.random.Generator) -> str:
    payload = json.loads(text)
    if "reports" in payload:  # verify
        i = int(rng.integers(len(payload["reports"])))
        if how == "nudge":
            payload["reports"][i]["status"] = "FAIL"
        else:
            del payload["reports"][i]
    else:
        row = payload["results"][int(rng.integers(len(payload["results"])))]
        j = int(rng.integers(len(row["curve"])))
        if how == "nudge":
            row["curve"][j]["coord"] = math.nextafter(row["curve"][j]["coord"], math.inf)
        else:
            del row["curve"][j]
    return json.dumps(payload, indent=2)


def corrupted(request: dict, files: dict, how: str) -> tuple[dict, dict]:
    """A copy of (request, files) with one output row nudged or dropped."""
    rng = np.random.default_rng(len(request["stdout"]))
    request, files = dict(request), dict(files)
    kind = request["kind"]
    if kind in ("infimum", "root", "edge"):
        n = len(request["spec"]["kappas"])
        row = int(rng.integers(n))
        request["stdout"] = (_nudge_csv_row(request["stdout"], "value", row) if how == "nudge"
                             else _drop_csv_row(request["stdout"], row))
    elif kind == "curve_csv":
        path = request["spec"]["curve_out"]
        row = int(rng.integers(files[path].count("\n") - 1))
        files[path] = (_nudge_csv_row(files[path], "coord", row) if how == "nudge"
                       else _drop_csv_row(files[path], row))
    elif kind == "curve_json":
        path = request["spec"]["out"]
        files[path] = _corrupt_json(files[path], how, rng)
    else:
        request["stdout"] = _corrupt_json(request["stdout"], how, rng)
    return request, files


def handle(request: dict) -> dict:
    files = {}
    for path in request["files"]:
        with open(path, encoding="utf-8") as fh:
            files[path] = fh.read()
    verdict = judge(request, files)
    if request.get("corrupt") and verdict["status"] == "ok":
        verdict["corruptions"] = {
            how: judge(*corrupted(request, files, how))["status"] for how in ("nudge", "drop")
        }
    return verdict


def serve() -> None:
    """Answer one JSON request line with one JSON verdict line until EOF."""
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        print(json.dumps(handle(json.loads(line))), flush=True)


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: check.py --serve")
    serve()
