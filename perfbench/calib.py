"""Host speed calibration, sampled inside each job.

The benchmark host is shared: the same CPU-bound loop runs up to 1.7x slower
for seconds to minutes at a time, which swamps the changes the benchmark must
resolve.  Every job therefore runs a short fixed kernel of the same kind of
work as the workloads (small matrix products and elementwise numpy calls
driven from Python) from a timer signal every PERIOD_S, plus TAIL_BURSTS
times after the CLI returns.  A window's calibrated seconds are its wall
seconds minus the kernel's own time, each stretch weighted by
``REFERENCE_S / kernel seconds`` around it: a slow-down of the host stretches
the kernel and the job alike and cancels.  A change to ``immimo`` cannot
move the kernel.
"""

import signal
import time

import numpy as np

ITERATIONS = 150
PERIOD_S = 0.1
TAIL_BURSTS = 5
# about the kernel's time on an unloaded core of the benchmark host
REFERENCE_S = 0.002


class Sampler:
    """Times the kernel every PERIOD_S of wall time; samples are (start, s)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.h = rng.standard_normal((12, 8))
        self.w = rng.standard_normal((64, 40))
        self.y = rng.standard_normal((14, 12))
        self.samples = []

    def burst(self, *_):
        start = time.monotonic()
        for _ in range(ITERATIONS):
            x = self.y @ self.h
            u = np.concatenate([x, x, x, x, x], axis=1)
            np.maximum(u @ self.w.T, 0.0).sum()
        self.samples.append((start, time.monotonic() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(TAIL_BURSTS):
            self.burst()


def calibrate(samples, start, end):
    """Calibrated seconds of the wall window [start, end).

    Kernel time inside the window is not the job's and is removed; the rest
    is scaled by the mean speed factor of the kernel runs inside the window,
    or of all of the job's kernel runs when none fell inside.
    """
    inside = [s for t, s in samples if start <= t < end]
    busy = (end - start) - sum(inside)
    durations = inside or [s for _, s in samples]
    return busy * float(np.mean([REFERENCE_S / s for s in durations]))
