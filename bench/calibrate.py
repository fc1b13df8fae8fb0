"""Machine-speed calibration: a fixed reference kernel sampled during the run.

This host's effective speed moves by up to +-30 % over seconds to minutes,
for numpy and pure Python alike, so a raw wall time says as much about the
neighbours as about the program.  The calibrator runs a short reference
kernel, which does not touch cwlab, from a SIGALRM handler every PERIOD_S
seconds of wall time.  A timed interval then reports

    (wall time - time spent in the handler) * REF_NOMINAL_S / mean(reference samples in it)

that is, its wall time at the machine speed at which the kernel takes
REF_NOMINAL_S seconds.  A program change moves this figure exactly as it
moves the wall time; a slower moment of the machine moves the kernel too and
cancels out.  On a 256-point `nonlinear_response` repeated for 150 s the
kernel's mean and the operation time correlate at 0.98, and the calibrated
time varies 2.7 % where the wall time varies 14 %.

Python runs the handler between bytecodes of the main thread, so a sample
waits for a running numpy call to return; the kernel's cost (about 3 % of
the wall time) is taken out of every interval it falls into.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
REF_NOMINAL_S = 5.5e-3   # the kernel's typical time on a 2-vCPU Xeon VM
MIN_SAMPLES = 5          # fewer in an interval: use every sample of the run
WARMUP = 10              # unrecorded kernels before the first sample

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((64, 64))
_MID = _RNG.standard_normal((256, 256))   # the solver's grid at 256 points
_STREAM = np.ones(1 << 18)                # 2 MiB: more than a core's L2


def reference_kernel() -> float:
    """Interpreter loop, small and 256x256 2D FFTs and a stream through
    memory; returns its wall time."""
    t = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(4):
        np.fft.ifft2(np.fft.fft2(_SMALL))
    np.fft.ifft2(np.fft.fft2(_MID))
    _STREAM.sum()
    _STREAM.sum()
    return time.perf_counter() - t


class Calibrator:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(reference_kernel())
        self.spent += time.perf_counter() - t

    def start(self):
        # The warm-up is the benchmark's own cost: count it as handler time.
        # Its last MIN_SAMPLES kernels are recorded, so that an interval as
        # short as set-up has samples of its own.
        t = time.perf_counter()
        for _ in range(WARMUP):
            reference_kernel()
        for _ in range(MIN_SAMPLES):
            self.samples.append(reference_kernel())
        self.spent += time.perf_counter() - t
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def mark(self) -> tuple[float, float, int]:
        """A point in time: (wall clock, handler time so far, samples so far)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def interval(self, since: tuple[float, float, int]) -> dict:
        """Wall time since `since`, the kernel's mean time over it, and the
        part of the interval spent in the program at the nominal speed."""
        now, spent, count = self.mark()
        wall = now - since[0]
        own = wall - (spent - since[1])
        window = self.samples[since[2]:count]
        if len(window) < MIN_SAMPLES:
            window = self.samples   # start() records MIN_SAMPLES of them
        ref = statistics.fmean(window)
        return {"wall_s": wall, "ref_s": ref, "calibrated_s": own * REF_NOMINAL_S / ref}
