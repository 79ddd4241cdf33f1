"""Host-speed reference for the indpoly benchmark.

On a shared host the CPU speed available to one process changes in phases
of seconds to minutes (the same job can take 1.7 times as long in a slow
phase), and CPU time tracks wall time, so the slowdown is host speed, not
descheduling.  To compare runs made at different times, the benchmark
times a fixed reference task next to every job and reports times adjusted
to a host on which that task takes ``NOMINAL_S``:

    adjusted = measured * NOMINAL_S / (median of the reference times
                                       measured around it)

The reference task is pure Python of the same kind as the package's
kernel (bitmask branching with a memo over big integers) and shares no
code with the package, so a change to the package never moves it.  It
must never change: every adjusted figure is relative to it.

Set-up time (a fresh process importing numpy and the package, then
generating inputs and running one job) follows the reference task less
closely: process start-up and imports slow down in phases of their own.
A set-up time is therefore scaled to a host on which a reference set-up
takes ``SETUP_NOMINAL_S``.  The reference set-up is a fresh interpreter
importing numpy and the standard modules the package uses, timed inside
it, plus ``SETUP_TASKS`` reference tasks.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

NOMINAL_S = 0.002
WINDOW = 9  # reference samples in the rolling median around a measurement

SETUP_NOMINAL_S = 0.18
SETUP_TASKS = 40
_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import argparse, dataclasses, fractions, json, random, tempfile, numpy\n"
    "print(time.perf_counter() - t)\n"
)

_N = 26
_MASKS = tuple(
    sum(1 << j for j in (i - 5, i - 1, i + 1, i + 5) if 0 <= j < _N) for i in range(_N)
)


def reference_task() -> int:
    """Count the independent sets of a fixed 26-vertex band graph 40 times
    by memoised branching on the lowest vertex."""
    total = 0
    for _ in range(40):
        memo = {}

        def count(m):
            if m == 0:
                return 1
            value = memo.get(m)
            if value is None:
                low = m & -m
                value = count(m ^ low) + count(m & ~low & ~_MASKS[low.bit_length() - 1])
                memo[m] = value
            return value

        total += count((1 << _N) - 1)
    return total


def time_reference() -> float:
    """Wall seconds of one reference task."""
    started = time.perf_counter()
    reference_task()
    return time.perf_counter() - started


def adjust(measured, refs) -> list:
    """Scale each measured time by NOMINAL_S over the median of the WINDOW
    reference times centred on it; ``refs[i]`` was timed right after
    ``measured[i]``."""
    half = WINDOW // 2
    out = []
    for i, t in enumerate(measured):
        lo = max(0, min(i - half, len(refs) - WINDOW))
        out.append(t * NOMINAL_S / statistics.median(refs[lo:lo + WINDOW]))
    return out


def time_import() -> float:
    """Seconds a fresh interpreter takes for the reference set-up's imports,
    timed inside it (interpreter start-up excluded)."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, check=True, timeout=60)
    return float(proc.stdout)


def adjust_setup(measured: float, import_s: float, refs) -> float:
    """Scale a set-up time by SETUP_NOMINAL_S over the reference set-up:
    ``import_s`` from ``time_import`` and SETUP_TASKS reference tasks at
    the median of ``refs``, timed around the measurement."""
    return measured * SETUP_NOMINAL_S / (import_s + SETUP_TASKS * statistics.median(refs))
