"""Machine-speed sampler: rescales wall times to a fixed reference speed.

On a shared machine, neighbours on the same physical cores slow this
process down by up to ~1.9x, in bursts that last from a second to more
than half a minute.  CPU time grows with wall time, so neither clock
removes it, and medians over a run's operations swing with the share of
the run spent in a burst.

`SpeedSampler` starts this file as a separate process, which the
scheduler puts on the CPU the benchmark leaves idle.  Every INTERVAL_S
it times a fixed ~1 ms kernel (numpy on short arrays plus a 4096-point
FFT, the kind of work coupledcs does); the bursts slow it in step with
the benchmark, and it keeps its CPU about 2% busy.  A sample that took
t seconds means the machine ran at speed REFERENCE_KERNEL_S / t.  An
interval of wall time is worth its length times the mean speed of the
samples taken in it, widened to MIN_SAMPLES samples (one second) for
short intervals such as operator round trips: that is its time in
reference seconds.

On the 2-vCPU box below, sets of ten seeded runs of the benchmark's
operations spread (quartile distance over median) 0.17-0.30 in wall
seconds and 0.015-0.19 in reference seconds.  The rescaling tracks the
benchmark only while the neighbours load both CPUs alike, and it
over-corrects the memory-bound operator round trips, which contention
slows less than it slows the kernel.  Pinning the benchmark and the
sampler to one CPU tracked no better and slowed the benchmark by a
quarter.
"""

import bisect
import select
import subprocess
import sys
import time

import numpy as np

INTERVAL_S = 0.05
# typical kernel time in the sampling process on the 2-vCPU Xeon (2.1 GHz)
# the benchmark was written on, so that reference seconds come out close
# to wall seconds there; it only fixes the unit of the rescaled times
REFERENCE_KERNEL_S = 1.5e-3
MIN_SAMPLES = 20
STOP_TIMEOUT_S = 60

_SMALL = np.linspace(0.0, 1.0, 256)
_FFT_IN = np.exp(1j * np.linspace(0.0, 40.0, 4096))


def _kernel():
    total = 0.0
    for _ in range(16):
        x = _SMALL
        for _ in range(8):
            x = np.exp(-x) + 0.5
        total += float(x[0]) + float(np.fft.fft(_FFT_IN)[1].real)
    return total


class SpeedSampler:
    """Runs the sampling process for the duration of a `with` block."""

    def __enter__(self):
        self.starts, self.speeds = [], []
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("speed sampler did not start")
        return self

    def __exit__(self, *exc):
        # closing its stdin tells the sampler to write its samples and exit
        try:
            out, _ = self._proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.communicate()
            raise
        for line in out.splitlines():
            start, seconds = map(float, line.split())
            self.starts.append(start)
            self.speeds.append(REFERENCE_KERNEL_S / seconds)

    def speed(self, t0, t1):
        """Mean sampled speed over [t0, t1], widened to at least MIN_SAMPLES samples."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        window = self.speeds[lo:hi]
        return sum(window) / len(window) if window else 1.0

    def reference_seconds(self, t0, t1):
        return (t1 - t0) * self.speed(t0, t1)


def _sample_until_stdin_closes():
    samples = []
    clock = time.perf_counter   # CLOCK_MONOTONIC: comparable with the parent's clock
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = clock()
        _kernel()
        samples.append((start, clock() - start))
    sys.stdout.write("".join(f"{start!r} {seconds!r}\n" for start, seconds in samples))


if __name__ == "__main__":
    _sample_until_stdin_closes()
