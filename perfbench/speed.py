"""Machine-speed probe: reference-kernel slices sampled during timed calls.

The benchmark runs on a few vCPUs of a shared host, and two things slow a
run that are not the program.  The hypervisor takes the vCPU away for a
while (steal time, at times 40% of a second), and other tenants on the same
cores slow the vCPU while it runs (a fixed slice of work takes up to 1.75
times as long).  Timing CPU time (`time.process_time`) leaves the first out,
because the guest kernel charges stolen time to no process.  `SpeedProbe`
measures the second alongside the program: while it is active, a SIGALRM
handler runs a fixed slice of reference work (RK4 steps on 4-vectors, small
solves, number formatting and scalar loops: the mix of the puosc integrator
and its output, written without puosc code) every `period` seconds and
records the CPU time the slice took.  That time is counted in `spent` so
the caller can take it out of its timings.  `speed_factor` is
REFERENCE_SLICE_S over the trimmed mean slice time: multiplying a measured
time by it gives the time the same work takes on a machine that runs one
slice in REFERENCE_SLICE_S.  A change to puosc moves only the measured time.

Python runs signal handlers in the main thread between bytecodes, so the
slices never overlap the program's work and no thread is started.
"""

from __future__ import annotations

import json
import math
import signal
from time import process_time

SLICE_STEPS = 100
# a typical slice time on the 2-vCPU Xeon host the benchmark was tuned on;
# only the scale of the normalised times depends on it
REFERENCE_SLICE_S = 0.004
TRIM = 0.1

# first-order form of q'''' + 5 q'' + 4 q = 0, a free oscillator with
# frequencies 1 and 2
_FLOW = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
         (0.0, 0.0, 0.0, 1.0), (-4.0, 0.0, -5.0, 0.0))


def reference_slice() -> float:
    """A fixed amount of work in the program's style but none of its code:
    classical RK4 steps on 4-vectors with CSV-style number formatting, a
    few 4x4 solves and a JSON dump, then a tight loop of scalar and
    small-array arithmetic."""
    # imported here so that run.py sets the BLAS thread variables first
    import numpy as np

    flow = np.array(_FLOW)
    z = np.array([0.0, 0.5, 0.0, -2.0])
    h = 0.05
    acc = 0.0
    rows = []
    for i in range(SLICE_STEPS):
        k1 = flow @ z
        k2 = flow @ (z + 0.5 * h * k1)
        k3 = flow @ (z + 0.5 * h * k2)
        k4 = flow @ (z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc += math.sqrt(float(z @ z))
        if i % 4 == 0:
            rows.append(",".join(f"{v:.17g}" for v in z))
    solves = {}
    for i in range(SLICE_STEPS // 20):
        x = np.linalg.solve(flow + (1.0 + i) * np.eye(4), z)
        solves[str(i)] = [float(v) for v in x]
    acc += len(json.dumps({"rows": rows, "solves": solves}))
    y = z.copy()
    for i in range(3 * SLICE_STEPS):
        k = y * 0.999 + 0.001
        y = k - 1e-3 * (k * k)
        acc += float(y[i & 3]) * 1.0000001
        rows.append((i, acc))
    return acc


def timed_slice() -> float:
    """CPU seconds of one reference slice."""
    t0 = process_time()
    reference_slice()
    return process_time() - t0


def trimmed_mean(values) -> float:
    """Mean of `values` without the lowest and highest TRIM share."""
    ordered = sorted(values)
    k = int(len(ordered) * TRIM)
    kept = ordered[k:len(ordered) - k] or ordered
    return sum(kept) / len(kept)


def speed_factor(slices) -> float:
    """REFERENCE_SLICE_S over the trimmed mean of the measured slice times.

    The host switches between a fast and a slow state (a slice takes about
    1.75 times as long in the slow one), and a call slows in proportion to
    the time it spends in the slow state, so the mean tracks the program
    where a median would jump from one state to the other; trimming drops
    slices that a preemption stretched."""
    return REFERENCE_SLICE_S / trimmed_mean(slices)


class SpeedProbe:
    """Context manager sampling reference slices on a wall-clock timer."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.slices: list = []      # CPU seconds of each slice
        self.spent = 0.0            # CPU seconds spent in the handler
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = process_time()
        reference_slice()
        self.slices.append(process_time() - t0)
        self.spent += process_time() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
