"""Workload process: one workload through ``kappainf.cli.main``, in-process.

Started by run.py, never run by hand.  Its first act is ``import
kappainf.cli``; the moment that returns is printed as the first stdout line
(``{"ready": <time.monotonic()>}``), which ends the set-up the parent
times.  ``--probe`` stops there.

Otherwise the process runs the workload's plan (workloads.py: a fixed,
seed-determined list of invocations sized to about ``--seconds``) one call
after the other from a single caller (a closed loop, no threads).  Only
the call itself is timed; right after it the reference work is timed, then
the output goes to the checker process (check.py) before the next call
starts.  A plan that runs past ``OVERRUN`` times its nominal length is cut
there, so a very slow machine still ends in time; the result says so.
With ``--trace 1`` the plan is sized to half the seconds, run untraced,
then replayed under the tracer; the ratio of the two scaled totals is the
tracing overhead.  The last stdout line is one JSON result object.
"""

import sys
import time

import kappainf.cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import plan  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OK = "ok"
OVERRUN = 3.0


def invoke(args, tracer=None, cli_fid=None):
    """Run one CLI invocation; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    main = kappainf.cli.main.main
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            if tracer is None:
                main(args=list(args), prog_name="kappainf", standalone_mode=True)
            else:
                tracer.call(cli_fid, 1, main, args=list(args), prog_name="kappainf",
                            standalone_mode=True)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaped exception is a failed call, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    if code is None:
        code = 0
    return dt, code, out.getvalue(), err.getvalue()


class Checker:
    """The check.py process, one request and one verdict per line."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "check.py"), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._read()  # wait until its imports are done

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker exited with {self.proc.wait()}")
        return json.loads(line)

    def judge(self, call, code, stdout, stderr, corrupt=False) -> dict:
        request = {"kind": call.kind, "spec": call.spec, "code": code, "stdout": stdout,
                   "stderr": stderr, "files": call.output_files() if code == 0 else [],
                   "corrupt": corrupt}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Run:
    """Per-call records of one phase: kind, seconds, status, items, bytes and
    the call's reference time (geometric mean of the samples around it)."""

    def __init__(self, checker: Checker, self_test: bool):
        self.checker = checker
        self.self_test = self_test
        self.ref = reference.sample()
        self.records = []
        self.why = []
        self.corruptions = {}

    def all(self, calls, seconds, tracer=None, cli_fid=None) -> int:
        """Run ``calls`` in order; stop once ``seconds`` have passed.
        Returns how many calls were left out."""
        deadline = time.monotonic() + seconds
        for i, call in enumerate(calls):
            if time.monotonic() > deadline:
                return len(calls) - i
            self.one(call, tracer, cli_fid)
        return 0

    def one(self, call, tracer=None, cli_fid=None) -> None:
        for path in call.output_files():  # so a stale file is never judged
            if os.path.exists(path):
                os.remove(path)
        dt, code, stdout, stderr = invoke(call.args, tracer, cli_fid)
        before, self.ref = self.ref, reference.sample()
        nbytes = len(stdout.encode()) + sum(
            os.path.getsize(p) for p in call.output_files() if os.path.exists(p))
        corrupt = self.self_test and call.kind not in self.corruptions
        verdict = self.checker.judge(call, code, stdout, stderr, corrupt)
        if "corruptions" in verdict:
            self.corruptions[call.kind] = verdict["corruptions"]
        if verdict["status"] != OK and len(self.why) < 5:
            self.why.append(f"{call.kind} {' '.join(call.args)[:160]} -> {verdict['why']}")
        self.records.append([call.kind, dt, verdict["status"], verdict["items"], nbytes,
                             math.sqrt(before * self.ref)])


def measure(args, work_dir: str) -> dict:
    seconds = args.seconds / 2 if args.trace else args.seconds
    calls = plan(args.workload, args.seed, seconds, work_dir)
    checker = Checker()
    try:
        invoke(calls[0].args)  # warm-up: lazy imports and first-touch costs
        run = Run(checker, args.self_test)
        left_out = run.all(calls, OVERRUN * seconds)
        done = calls[:len(calls) - left_out]
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result = {"ready": READY, "calls": run.records, "why": run.why,
                  "corruptions": run.corruptions, "peak_rss_kb": peak_rss_kb,
                  "planned": len(calls), "left_out": left_out, "trace": None}
        if args.trace:
            result["trace"] = traced_replay(done, seconds, run.records, checker, args,
                                            work_dir)
            result["left_out"] += result["trace"]["left_out"]
        return result
    finally:
        checker.close()


def traced_replay(done, seconds, untraced_records, checker, args, work_dir) -> dict:
    """Replay the untraced phase's invocations under the tracer."""
    tracer = Tracer()
    cli_fid = tracer.name_id("cli")
    replay = Run(checker, False)
    tracer.install()
    try:
        left_out = replay.all(done, 2 * OVERRUN * seconds, tracer, cli_fid)
    finally:
        tracer.uninstall()
    done = done[:len(done) - left_out]
    untraced_records = untraced_records[:len(done)]
    trace_path = os.path.join(os.path.dirname(work_dir), f"trace-{args.workload}.npz")
    tracer.write(trace_path)
    untraced = sum(r[1] / r[5] for r in untraced_records)
    traced = sum(r[1] / r[5] for r in replay.records)
    bytes_out = sum(r[4] for r in replay.records) / len(done)
    metrics, shares = tracer.metrics(len(done), bytes_out, traced / untraced)
    return {"metrics": metrics, "shares": shares, "calls": replay.records,
            "why": replay.why, "spans": len(tracer.fid), "file": trace_path,
            "left_out": left_out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--work-dir")
    args = ap.parse_args()
    proto = sys.stdout
    print(json.dumps({"ready": READY}), file=proto, flush=True)
    if args.probe:
        return 0
    os.makedirs(args.work_dir, exist_ok=True)
    try:
        result = measure(args, args.work_dir)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
