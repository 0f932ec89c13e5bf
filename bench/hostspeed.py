"""Correction of run times for the drifting speed of a shared host.

On the 2-core reference host, which shares its physical machine with other
virtual machines, a fixed kernel runs at full speed or 1.6-1.9 times slower,
switching between the two over a fraction of a second to many minutes. The
slowdown shows in process CPU time as much as in wall time and not as steal
time, so no clock of this process can tell it apart from a slower program,
and the fastest of several runs does not remove it once a slow stretch
outlasts a whole benchmark run.

`HostProbe` times a fixed kernel that does not touch ionrewire right before
and right after each timed call. The kernel's time there, over its fastest
time anywhere in the benchmark run, is the slowdown the host imposed around
the call; the call's time divided by it is its time at the host's best
observed speed. On a quiet host the two agree to a few per cent. The kernel
mixes interpreter-bound work and number formatting (as in the CSV writer)
with numpy array work (as in the evolution), so that it slows down with
the program. It cannot see a slowdown that the program itself causes in it,
such as threads left running after a call returns.
"""

import time

import numpy as np

REPEATS = 2  # kernel runs per probe, about 8 ms each on the reference host


class HostProbe:
    """Times calls together with the host's speed around each of them."""

    def __init__(self):
        self._values = np.random.default_rng(0).standard_normal(1 << 16)
        self._kernel_s = []
        self._probe()  # the first run pays for lazy set-up in numpy

    def _kernel(self):
        total = 0.0
        for x in self._values[:40000].tolist():
            total += x * x
        text = ",".join(repr(x) for x in self._values[:8000].tolist())
        spectrum = np.abs(np.fft.rfft(self._values)) ** 2
        order = np.argsort(self._values)
        return total + len(text) + spectrum[1] + order[0]

    def _probe(self) -> float:
        """Mean kernel time over REPEATS runs; each run is kept for `best`."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self._kernel_s += times
        return sum(times) / len(times)

    def timed(self, call):
        """Runs `call()` between two probes. Returns its result, its wall
        time and the mean kernel time around it."""
        before = self._probe()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        return result, elapsed, (before + self._probe()) / 2

    def corrected(self, elapsed: float, around: float) -> float:
        """`elapsed` at the best host speed the probe has seen in this run."""
        return elapsed * min(self._kernel_s) / around

    def slowdown(self, around: float) -> float:
        return around / min(self._kernel_s)
