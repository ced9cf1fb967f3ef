"""A fixed reference kernel that gauges how fast the machine runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds and minutes, for reasons the benchmark cannot
see (CPU time tracks wall time, so it is not time stolen by other
processes).  Runs of the same code therefore spread wider than a real
regression.  A workload process runs this kernel between ops, outside
every op timer, for a fixed share of its op time.  The kernel never calls
backaction, so a change to the program cannot change its time; only the
machine can.  Each op's time is scaled by ``NOMINAL_NS`` over the median
of the kernel runs nearest to it in time, and set-up time by the median
of runs made right after set-up: the figures ``run.py`` reports are what
the run would have measured on a machine that runs the kernel in
``NOMINAL_NS``.  Raw figures are printed beside them.

The kernel mixes the three kinds of work the workloads do: interpreted
Python (validation, YAML, report building), many tiny numpy calls (the 4x4
moment engine) and a 256^2 complex FFT (the grid route).
"""

import bisect
import statistics
import time

import numpy as np

# Median kernel time on a 2 vCPU Intel Xeon (Python 3.11.7, numpy 2.4.6)
# with BLAS pinned to one thread.  Any fixed value would do: it sets the
# scale of the reported times, not their spread.
NOMINAL_NS = 2_400_000

# Kernel time per op time in the timed phase.
SHARE = 0.15

# Kernel runs that gauge the speed around one op.
NEAREST = 9

# Kernel runs that gauge the speed right after set-up.
CALIBRATION_RUNS = 60

PY_STEPS = 3000
SOLVES = 45
FFT_N = 256


class Reference:
    """The kernel, with the CPU time and the wall-clock end (ns) of each run.

    Like op times, kernel times are CPU times of this thread, so that a
    stretch in which the OS runs something else on the core counts in
    neither.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.rhs = rng.standard_normal((4, 4))
        self.spd = 4.0 * np.eye(4) + self.rhs @ self.rhs.T
        self.field = (rng.standard_normal((FFT_N, FFT_N))
                      + 1j * rng.standard_normal((FFT_N, FFT_N)))
        self.ends = []
        self.samples = []
        self.busy_ns = 0

    def run(self):
        start = time.thread_time_ns()
        table = {}
        for i in range(PY_STEPS):
            key = i & 63
            table[key] = table.get(key, 0.0) + i * 0.5
        for _ in range(SOLVES):
            np.linalg.solve(self.spd, self.rhs).sum()
        np.fft.fft2(self.field)
        cpu = time.thread_time_ns() - start
        self.ends.append(time.perf_counter_ns())
        self.samples.append(cpu)
        self.busy_ns += cpu

    def keep_up(self, op_ns):
        """Run the kernel until its CPU time reaches SHARE of ``op_ns``."""
        while self.busy_ns < SHARE * op_ns:
            self.run()

    def scale(self):
        """Nominal over median kernel time, over every run so far."""
        return NOMINAL_NS / statistics.median(self.samples)

    def scales(self, spans):
        """Nominal over local kernel time, per wall-clock (start, end) span.

        The local kernel time is the median of the NEAREST kernel runs
        that ended closest to the middle of the span.
        """
        factors = []
        for start, end in spans:
            middle = (start + end) // 2
            i = bisect.bisect(self.ends, middle)
            lo = max(0, min(i - NEAREST // 2, len(self.ends) - NEAREST))
            near = self.samples[lo:lo + NEAREST]
            factors.append(NOMINAL_NS / statistics.median(near))
        return factors
