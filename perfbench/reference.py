"""A fixed piece of work that measures how fast the machine runs right now.

On a shared 2-vCPU VM the same code runs up to twice as fast or as slow
from one few-second stretch to the next, and every wall-clock timing drifts
with it.  The workload process therefore times this work after every
invocation (outside its timed region), and each invocation's time is
reported at the nominal speed, where the work takes ``NOMINAL_S``:
multiplied by ``NOMINAL_S`` over the geometric mean of the reference
samples taken just before and just after it.  Set-up is scaled the same
way, by samples the parent takes just before it starts a process and just
after the process has ended.  The raw timings are printed beside the
scaled ones.

The work mixes what the program spends its time on: Python dicts and
float ``repr`` (CLI rendering), many numpy calls on small arrays (the
scalar curve path) and one larger array operation.  It does not use
``kappainf``, so a change to the program never moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.00043  # about its median on the 2-vCPU VM the benchmark was tuned on

_SMALL = np.linspace(0.05, 5.0, 256)
_LARGE = np.linspace(0.0, 1.0, 20_000)


def _work() -> float:
    rows = [{"coord": 0.37 * i, "g": 1.0 / (i + 1.0)} for i in range(150)]
    text = ",".join(repr(r["coord"] * r["g"]) for r in rows)
    acc = 0.0
    for k in range(1, 20):
        acc += float(np.exp(-_SMALL * (k / 20.0)).sum())
    return len(text) + acc + float(np.sqrt(_LARGE + acc).sum())


def sample() -> float:
    """Median seconds of three runs of the reference work."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def scale(*samples_s: float) -> float:
    """Factor taking a timing made among these reference samples to the
    nominal speed (divide rates by it)."""
    return NOMINAL_S / statistics.geometric_mean(samples_s)
