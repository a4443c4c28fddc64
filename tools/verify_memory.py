"""Minor page faults and peak memory of ``verify`` calls, in one process.

Runs ``run_verification`` CALLS times at ``quick``, then CALLS times at
``full``, all with seed 1, and prints one line per call: its wall time, the
minor page faults it took (``ru_minflt`` of this process before and after
the call) and the process's peak resident set so far (``ru_maxrss``, in
MB).  Nothing is gated: both counts depend on the C library's allocator.

    PYTHONPATH=src python3 tools/verify_memory.py             # 3 quick, then 3 full
    PYTHONPATH=src python3 tools/verify_memory.py --calls 6
"""

from __future__ import annotations

import argparse
import resource
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=3, help="calls per budget (default: 3)")
    args = parser.parse_args(argv)

    from kappainf.verification import run_verification

    print("budget  call  wall_ms  minflt  maxrss_mb")
    for budget in ("quick", "full"):
        for call in range(args.calls):
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            rows = run_verification(budget, 1)
            wall_ms = 1e3 * (time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_SELF)
            failed = sum(not row.passed for row in rows)
            note = f"  ({failed} rows failed)" if failed else ""
            print(f"{budget:6}  {call:4}  {wall_ms:7.1f}  {after.ru_minflt - before.ru_minflt:6}"
                  f"  {after.ru_maxrss / 1024:9.1f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
