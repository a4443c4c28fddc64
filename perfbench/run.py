#!/usr/bin/env python3
"""kappainf benchmark: end-to-end metrics of three CLI workloads, per-layer
metrics from a traced run, and a self-test of the benchmark itself.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1         # every workload
    python3 perfbench/run.py --workload verify --trace 1     # per-layer metrics
    python3 perfbench/run.py --self-test                     # ~1 minute

Each workload runs in its own child process (child.py) that imports the
program from ``src/`` and drives ``kappainf.cli.main`` in-process; this
process never imports ``kappainf``.  Before it, ``SETUP_STARTS`` probe
processes each time one interpreter start plus ``import kappainf.cli``;
``setup_s`` is the median of those and the workload process's own start.
Every output is checked by check.py.  Each timing is scaled to the nominal
speed of a fixed piece of work (reference.py) timed just before and after
it; the report shows the raw values beside them.  The report lists every metric with
its unit and sample counts, then the run's provenance, and the last stdout
line is one JSON object with the keys correct, attempted, failed and
metrics (the ``end_to_end`` metrics of BENCHMARK.json, or with ``--trace
1`` its ``per_layer`` metrics).  Exit status is 0 when a result was
printed, 2 when the benchmark could not run (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import reference  # numpy only; this process never imports kappainf
from spans import UNITS as LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "curve_export", "verify")
SETUP_STARTS = 12
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
DEADLINE_S = 170.0  # a run must end within 180 s
SELF_TEST_SECONDS = 2.0

UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "1",
    "fail_ratio": "1",
}
CHOSEN_FOR = {  # layers whose self time should dominate each workload's trace
    "sweep": ("solver", "curves", "special"),
    "curve_export": ("cli", "curves"),
    "verify": ("oracles", "verification", "distributions"),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one closed-loop caller, no helper threads
    return env


def start_child(args: list[str], env: dict, timeout: float) -> tuple[float, float, dict]:
    """Run child.py to the end; returns (set-up seconds, its reference scale,
    last JSON line)."""
    ref = reference.sample()
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its checker process
        proc.communicate()
        raise BenchError(f"child {' '.join(args)} timed out after {timeout:.0f} s")
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{err[-3000:]}")
    setup = json.loads(lines[0])["ready"] - t0
    return setup, reference.scale(ref, reference.sample()), json.loads(lines[-1])


def tail(durations: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples above it) of the highest percentile that
    leaves at least TAIL_BEYOND samples above it, by nearest rank."""
    s, n = sorted(durations), len(durations)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    pct = math.floor(1000 * (n - TAIL_BEYOND) / n) / 10
    rank = math.ceil(pct / 100 * n)
    return s[rank - 1], pct, n - rank


def summarize(records: list) -> dict:
    """Counts and timings of a list of call records; ``*_s`` are scaled to
    the nominal speed, ``raw_*_s`` are as measured."""
    failed = sum(r[2] != "ok" for r in records)
    durations = [r[1] * reference.scale(r[5]) for r in records]
    raw = [r[1] for r in records]
    tail_s, pct, beyond = tail(durations)
    kinds = {}
    for kind in dict.fromkeys(r[0] for r in records):
        ds = [d for d, r in zip(durations, records) if r[0] == kind]
        kinds[kind] = {"calls": len(ds), "p50_ms": statistics.median(ds) * 1e3,
                       "failed": sum(r[2] != "ok" for r in records if r[0] == kind)}
    return {
        "attempted": len(records),
        "failed": failed,
        "wrong": sum(r[2] == "wrong" for r in records),
        "items": sum(r[3] for r in records),
        "timed_s": sum(durations),
        "p50_s": statistics.median(durations),
        "tail_s": tail_s,
        "tail_pct": pct,
        "tail_beyond": beyond,
        "raw_timed_s": sum(raw),
        "raw_p50_s": statistics.median(raw),
        "raw_tail_s": tail(raw)[0],
        "ref_s": statistics.median(r[5] for r in records),
        "kinds": kinds,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 self_test: bool, started: float) -> dict:
    if not (ROOT / "src" / "kappainf" / "cli.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'kappainf'}")
    env = child_env()
    setup, setup_scales = [], []

    def start(args):
        s, factor, last = start_child(args, env, DEADLINE_S - (time.monotonic() - started))
        setup.append(s)
        setup_scales.append(factor)
        return last

    for _ in range(SETUP_STARTS):
        start(["--probe"])
    work_dir = ROOT / ".perfbench_work" / f"run-{os.getpid()}-{workload}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--work-dir", str(work_dir)]
    try:
        result = start(args + (["--self-test"] if self_test else []))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    summary = summarize(result["calls"])
    raw = {
        "setup_s": statistics.median(setup),
        "items_per_s": summary["items"] / summary["raw_timed_s"],
        "call_p50_ms": summary["raw_p50_s"] * 1e3,
        "call_tail_ms": summary["raw_tail_s"] * 1e3,
    }
    metrics = {
        "setup_s": statistics.median(s * f for s, f in zip(setup, setup_scales)),
        "items_per_s": summary["items"] / summary["timed_s"],
        "call_p50_ms": summary["p50_s"] * 1e3,
        "call_tail_ms": summary["tail_s"] * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "success_ratio": 1.0 - summary["failed"] / summary["attempted"],
        "fail_ratio": summary["failed"] / summary["attempted"],
    }
    attempted, failed, wrong = summary["attempted"], summary["failed"], summary["wrong"]
    why = list(result["why"])
    traced = result["trace"]
    if traced:
        replay = summarize(traced["calls"])
        attempted += replay["attempted"]
        failed += replay["failed"]
        wrong += replay["wrong"]
        why += traced["why"]
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "metrics": metrics, "raw": raw, "summary": summary, "setup_samples": setup,
            "reference": {"nominal_ms": reference.NOMINAL_S * 1e3,
                          "setup_scale": statistics.median(setup_scales),
                          "calls_ms": summary["ref_s"] * 1e3},
            "attempted": attempted, "failed": failed, "correct": wrong == 0,
            "planned": result["planned"], "left_out": result["left_out"], "why": why, "traced": traced, "corruptions": result["corruptions"]}


def provenance(run: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    s = run["summary"]
    return {
        "workload": run["workload"], "seed": run["seed"], "seconds": run["seconds"],
        "trace": run["trace"], "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "click": version("click"),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit, "src_sha256": digest.hexdigest(),
        "planned_calls": run["planned"], "left_out": run["left_out"],
        "setup_samples": len(run["setup_samples"]),
        "call_p50_samples": s["attempted"],
        "call_tail": {"percentile": s["tail_pct"], "samples": s["attempted"],
                      "beyond": s["tail_beyond"]},
        "timed_s": s["timed_s"], "items": s["items"], "reference": run["reference"],
    }


def selected(wanted: list[dict], units: dict, values: dict) -> dict:
    out = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values or units.get(name) != entry["unit"]:
            raise BenchError(f"metric {name} [{entry['unit']}] is not produced as declared")
        out[name] = {"value": values[name], "unit": entry["unit"]}
    return out


def report(run: dict, spec: dict) -> dict:
    """Print the human-readable report; return the result object."""
    s, m = run["summary"], run["metrics"]
    print(f"== {run['workload']}  seed={run['seed']}  seconds={run['seconds']:g}  "
          f"trace={run['trace']}")
    notes = {
        "setup_s": f"median of {len(run['setup_samples'])} starts",
        "items_per_s": f"{s['items']} items in {s['timed_s']:.3f} s of timed calls",
        "call_p50_ms": f"{s['attempted']} invocations",
        "call_tail_ms": f"p{s['tail_pct']:g}, {s['tail_beyond']} of {s['attempted']} above",
        "peak_rss_mb": "workload process",
        "success_ratio": f"{s['attempted'] - s['failed']} of {s['attempted']} succeeded",
        "fail_ratio": f"{s['failed']} of {s['attempted']} failed, {s['wrong']} wrong",
    }
    for name, unit in UNITS.items():
        scaled = f"raw {run['raw'][name]:.6g}; " if name in run["raw"] else ""
        print(f"  {name:<16}{m[name]:>14.6g} {unit:<8} {scaled}{notes[name]}")
    for kind, k in s["kinds"].items():
        print(f"  kind {kind:<11} calls={k['calls']:<6} p50={k['p50_ms']:.3f} ms "
              f"failed={k['failed']}")
    for line in run["why"]:
        print(f"  not ok: {line}")
    if run["left_out"]:
        print(f"  cut: {run['left_out']} planned invocations left out, the run "
              f"overran its length")
    if run["trace"]:
        traced = run["traced"]
        print(f"  traced replay: {traced['spans']} spans -> {traced['file']}")
        for name, unit in LAYER_UNITS.items():
            print(f"  {name:<30}{traced['metrics'][name]:>14.6g} {unit}")
        shares = traced["shares"]
        print("  self-time share: " + "  ".join(f"{k}={v:.1%}" for k, v in shares.items()))
        chosen = CHOSEN_FOR[run["workload"]]
        total = sum(shares[layer] for layer in chosen)
        print(f"  chosen for {'+'.join(chosen)}: {total:.1%} of traced self time "
              f"({'dominant' if total > 0.5 else 'NOT dominant'})")
    print("provenance " + json.dumps(provenance(run)))
    if run["trace"]:
        metrics = selected(spec["per_layer"], LAYER_UNITS, run["traced"]["metrics"])
    else:
        metrics = selected(spec["end_to_end"], UNITS, m)
    return {"correct": run["correct"], "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def self_test(spec: dict) -> list[str]:
    """Short runs of every workload; returns the problems found."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = run_workload(workload, 1, SELF_TEST_SECONDS, trace, True, time.monotonic())
            result = report(run, spec)
            print(json.dumps(result))
            wanted = spec["per_layer" if trace else "end_to_end"]
            for entry in wanted:
                got = result["metrics"].get(entry["name"])
                if not got or got["unit"] != entry["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"{workload}/trace={trace}: {entry['name']} missing")
            if not run["correct"]:
                problems.append(f"{workload}/trace={trace}: checks rejected an intact output")
            if trace:
                continue
            for kind in sorted(run["summary"]["kinds"]):
                verdicts = run["corruptions"].get(kind)
                if verdicts is None:
                    problems.append(f"{workload}: no intact {kind} output to corrupt")
                elif any(v != "wrong" for v in verdicts.values()):
                    problems.append(f"{workload}: corrupted {kind} row accepted: {verdicts}")
                else:
                    print(f"self-test: corrupted {kind} rows rejected ({', '.join(verdicts)})")
    return problems


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.self_test:
            problems = self_test(spec)
            for p in problems:
                print(f"self-test FAIL: {p}")
            print("self-test " + ("FAILED" if problems else "passed"))
            return 1 if problems else 0
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds or float(spec["run_seconds"])
        if args.workload != "all":
            run = run_workload(args.workload, args.seed, seconds, args.trace, False, started)
            print(json.dumps(report(run, spec)))
            return 0
        results = {}
        for workload in WORKLOADS:
            run = run_workload(workload, args.seed, seconds, args.trace, False,
                               time.monotonic())
            results[workload] = report(run, spec)
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
