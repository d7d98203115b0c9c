"""Machine speed, measured beside every timed unit of work.

On a shared host the same work runs at different speeds from one minute to
the next: two cores of a machine whose other tenants come and go. The same
run_experiment call with the same seed took anywhere from 0.47 to 0.86 s,
with CPU time equal to wall time, in phases of seconds to minutes, so ten
runs of unchanged code spread by a quarter or more of their median.

Every timed unit is therefore bracketed by a fixed reference kernel, timed
just before and just after it, and its wall time is rescaled to a machine
on which that kernel takes REFERENCE_S:

    scaled_s = wall_s * REFERENCE_S / mean(kernel before, kernel after)

A change to the program moves wall_s and leaves the kernel alone, so the
scaled times compare commits as the raw ones would, without most of the
phases: in the slowest phases seen, the interpreter-heavy chain workloads
slowed up to a tenth more than the kernel did.

The kernel mixes the three kinds of work the program does: interpreter
loops, many calls on small numpy arrays, and a sort of a large array. Calls
on small arrays weigh most (0.6 of its 1.1 ms in a fast phase, against 0.3
and 0.15): of the three parts they tracked the slow phases best, above all
on the numpy-heavy estimator_batch. Each part is timed as the best of REPS
calls, so an interruption of the kernel itself does not count as a slow
machine. The kernel and
REFERENCE_S are fixed on purpose: changing either rescales every scaled
time and breaks comparison with earlier results.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on the 2-core Intel Xeon the benchmark was tuned on,
# in its faster phases, so scaled times there read close to wall times.
REFERENCE_S = 1.0e-3
REPS = 5

_LARGE = np.random.default_rng(0).random(25_000)


def _interpreter():
    s = 0
    for j in range(5_000):
        s += j * j % 7
    return s


def _small_arrays():
    a = np.arange(256.0)
    for _ in range(400):
        a = np.sqrt(a + 1.0)
    return a


def _large_array():
    return np.sort(_LARGE)


PARTS = (_interpreter, _small_arrays, _large_array)


def kernel_s() -> float:
    """The reference kernel's time now: each part's best of REPS, summed."""
    clock = time.perf_counter
    total = 0.0
    for part in PARTS:
        best = math.inf
        for _ in range(REPS):
            t0 = clock()
            part()
            best = min(best, clock() - t0)
        total += best
    return total


def bracket(fn, *args):
    """fn(*args) between two kernel timings. Returns its result and the
    factor REFERENCE_S / mean kernel time that rescales wall times measured
    inside it."""
    before = kernel_s()
    result = fn(*args)
    return result, 2.0 * REFERENCE_S / (before + kernel_s())
