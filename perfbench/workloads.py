"""Seeded inputs of the benchmark workloads, as lists of CLI invocations.

A run is a fixed plan of whole *rounds* of invocations, drawn from one
``numpy.random.Generator`` seeded with the benchmark seed.  The number of
rounds is ``--seconds`` times the workload's nominal rounds per second
(``ROUNDS_PER_S``, measured on a 2-vCPU VM with the checks included), so a
run measures about ``--seconds`` there, and the same seed and seconds give
the same invocations, hence the same attempted and failed counts, on every
run.  The program only ever sees the generated command lines.

* ``sweep``: a round is a batch of ``SWEEP_BATCH`` kappa, log-uniform over
  [1e-3, 1e3]: one ``infimum`` call per family and one ``root`` call on
  its kappa > 1 subset, followed by one *edge* call: ``root`` on a single
  kappa = 1 + 10^u, u in [-10, -2], the kappa -> 1+ side of the phase
  transition.  Edge calls are separate so a failure there voids nothing but
  itself.  Their u run through [-10, -2] in a fixed low-discrepancy order
  (the golden-ratio sequence), the same for every seed, so how many of them
  hit the known failure depends on the number of rounds only.
* ``curve_export``: a round is three calls of ``CURVE_KAPPAS`` kappa (one
  below 1, exactly 1, the rest above) with ``CURVE_POINTS`` curve points
  per kappa: CSV (curve to a file), JSON (everything to a file), CSV; the
  family switches between inverse Gaussian and log-normal from one round to
  the next.  JSON calls are the slower cluster; at one in three, the median
  call stays inside the CSV cluster and the tail inside the JSON one.
* ``verify``: a round is two ``--budget quick`` runs, then one ``--budget
  full`` run, each with its own derived ``--seed``.  The 2:1 round keeps the
  median call inside the quick cluster and the tail inside the full one,
  instead of on the gap between them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOADS = ("sweep", "curve_export", "verify")

FAMILIES = ("inverse-gaussian", "log-normal", "gumbel", "logistic")
SWEEP_BATCH = 50
LOG10_KAPPA = (-3.0, 3.0)
EDGE_LOG10_GAP = (-10.0, -2.0)
CURVE_KAPPAS = 4
CURVE_POINTS = 5000
ROUNDS_PER_S = {"sweep": 7.5, "curve_export": 1.4, "verify": 0.6}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what the checker needs to judge its output."""

    kind: str  # infimum | root | edge | curve_csv | curve_json | verify
    args: tuple[str, ...]
    spec: dict

    def output_files(self) -> list[str]:
        return [self.spec[k] for k in ("out", "curve_out") if k in self.spec]


def _kappa_list(kappas) -> str:
    return ",".join(repr(float(k)) for k in kappas)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size=None):
    return 10.0 ** rng.uniform(lo, hi, size=size)


def _sweep(rng: np.random.Generator, rounds: int) -> Iterator[Call]:
    lo, hi = EDGE_LOG10_GAP
    for i in range(rounds):
        kappas = [float(k) for k in _log_uniform(rng, *LOG10_KAPPA, SWEEP_BATCH)]
        for family in FAMILIES:
            yield Call("infimum",
                       ("infimum", "--family", family, "--kappa", _kappa_list(kappas),
                        "--format", "csv"),
                       {"family": family, "kappas": kappas})
        above = [k for k in kappas if k > 1.0]
        if above:
            yield Call("root", ("root", "--kappa", _kappa_list(above), "--format", "csv"),
                       {"kappas": above})
        edge = [1.0 + 10.0 ** (lo + (hi - lo) * ((i + 0.5) * GOLDEN % 1.0))]
        yield Call("edge", ("root", "--kappa", _kappa_list(edge), "--format", "csv"),
                   {"kappas": edge})


def _curve_export(rng: np.random.Generator, rounds: int, work_dir: str) -> Iterator[Call]:
    out = os.path.join(work_dir, "main.json")
    curve_out = os.path.join(work_dir, "curve.csv")
    for i in range(3 * rounds):
        family = ("inverse-gaussian", "log-normal")[(i // 3) % 2]
        below = float(_log_uniform(rng, LOG10_KAPPA[0], 0.0))
        above = sorted(float(k) for k in _log_uniform(rng, 0.0, LOG10_KAPPA[1],
                                                      CURVE_KAPPAS - 2))
        kappas = [below, 1.0, *above]
        spec = {"family": family, "kappas": kappas, "points": CURVE_POINTS,
                "check_seed": int(rng.integers(2**31))}
        base = ("infimum", "--family", family, "--kappa", _kappa_list(kappas),
                "--curve-points", str(CURVE_POINTS))
        if i % 3 != 1:
            yield Call("curve_csv", base + ("--format", "csv", "--curve-out", curve_out),
                       {**spec, "curve_out": curve_out})
        else:
            yield Call("curve_json", base + ("--format", "json", "--out", out),
                       {**spec, "out": out})


def _verify(rng: np.random.Generator, rounds: int) -> Iterator[Call]:
    for budget in ("quick", "quick", "full") * rounds:
        seed = int(rng.integers(1, 2**31))
        yield Call("verify",
                   ("verify", "--budget", budget, "--seed", str(seed), "--format", "json"),
                   {"budget": budget, "seed": seed})


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds in a plan meant to measure ``seconds`` on the nominal machine."""
    return max(1, round(seconds * ROUNDS_PER_S[workload]))


def plan(workload: str, seed: int, seconds: float, work_dir: str) -> list[Call]:
    """The seed-determined invocations of one run of ``seconds``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    rounds = rounds_for(workload, seconds)
    if workload == "sweep":
        return list(_sweep(rng, rounds))
    if workload == "curve_export":
        return list(_curve_export(rng, rounds, work_dir))
    return list(_verify(rng, rounds))
