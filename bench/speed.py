"""CPU-speed sampling, so timings can be stated at a fixed reference speed.

On a shared machine the speed a process gets changes from one second to the
next.  On the 2-core machine this benchmark was written on (Python 3.11.7), a
fixed loop moved between about 38 and 60 ms, and the same round of commands
took from 8.1 to 11.5 s.  A wall time there says as much about the
neighbours' load as about covtrans.

While a run measures, a 20 Hz interval timer times a fixed calibration
workload from a signal handler in the main thread.  The workload is
small-integer arithmetic with function calls, a dict store and 4096-bit
integer shifts and ands, the kinds of work covtrans does.  The handler holds
the interpreter lock while it runs, as covtrans does, so time covtrans loses
to its own threads still shows.  The mean calibration time over the samples
taken during a set of commands, divided by REFERENCE_S, is their slowdown.
Their wall time divided by the slowdown is their time at reference speed.
The handler costs about 1% of the run.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# The calibration workload's time on an uncontended core of that machine
# (5th percentile of 2000 samples).
REFERENCE_S = 0.00039
INTERVAL_S = 0.05

_BIG = random.Random(1).getrandbits(4096)
_MASK = (1 << 4096) - 1


def _step(a: int, b: int) -> int:
    return (a + b) % 1000003


def calibration_workload() -> int:
    x = 0
    for i in range(1500):
        x ^= (i * 2654435761) & 0xFFFFFFFF
    table = {}
    acc = _BIG
    for i in range(300):
        x = _step(x, i)
        table[i & 63] = x
        acc &= ((_BIG << (i & 31)) | (_BIG >> 17)) & _MASK
    return x ^ acc


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_workload()
    return time.perf_counter() - start


class SpeedSampler:
    """Times the calibration workload every INTERVAL_S while it is running."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_calibration())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, spans: list[tuple[int, int]]) -> float:
        """Mean calibration time over the samples in [start, end) marks, over the reference.

        Falls back to every sample taken so far when the spans caught none.
        """
        caught = [s for start, end in spans for s in self.samples[start:end]]
        return statistics.fmean(caught or self.samples) / REFERENCE_S


def reference_time(measure) -> float:
    """Run `measure` (returns seconds) between calibrations; its time at reference speed."""
    before = [time_calibration() for _ in range(5)]
    elapsed = measure()
    after = [time_calibration() for _ in range(5)]
    return elapsed * REFERENCE_S / statistics.fmean(before + after)
