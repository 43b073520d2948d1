"""Host speed, measured by a fixed kernel run between the timed ops.

This benchmark runs on shared virtual machines.  How fast a guest's CPU
runs swings with what the other guests on the host do: the hypervisor
withholds the CPU for a share of each second (``steal_frac``), and
while it runs, neighbours compete for caches, memory bandwidth and
sibling hyperthreads.  On the 2-CPU development guest a fleet point's
wall time swung by 3x within four minutes and its CPU time by 1.5x.
Over the same minutes the median CPU time of fifteen fleet points
divided by the median CPU time of this kernel, run between them,
spread by 6 % (inter-quartile distance over median, across windows).

So every workload runs :meth:`HostSpeed.kernel` about every
:data:`EVERY_S` seconds between its ops, and reports CPU times scaled
to the reference host: ``cpu_s * REFERENCE_S / median kernel CPU s``
over the run.  A single kernel run is noisy (its CPU time changes by
about 25 % from one run to the next), so only the median of the run's
kernel runs is used.  The kernel touches nothing of the program, so a
change to the program moves scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median CPU seconds of a kernel run on the reference host, the 2-CPU
#: Intel Xeon development guest while its host was lightly loaded.
REFERENCE_S = 0.045
#: Wall seconds between kernel runs.
EVERY_S = 1.0
#: Elements of the kernel's arrays: 16 MiB each, far beyond L2.
KERNEL_SIZE = 1 << 21


class HostSpeed:
    """The kernel runs of one benchmark run, and the scale they give."""

    def __init__(self) -> None:
        self._a = np.ones(KERNEL_SIZE)
        #: CPU seconds of each kernel run
        self.samples: list[float] = []
        self._last = -math.inf
        self.kernel()  # first-run costs stay out of the samples

    def kernel(self) -> None:
        """Stream a 16 MiB array through fresh 16 MiB results: memory
        traffic and page faults, as the workloads' numpy code makes."""
        a = self._a
        for _ in range(4):
            b = a * 1.5
            b.sum()
            b += a

    def sample(self) -> float:
        """Run the kernel once; returns its CPU seconds."""
        c0 = time.process_time()
        self.kernel()
        cpu = time.process_time() - c0
        self._last = time.perf_counter()
        self.samples.append(cpu)
        return cpu

    def tick(self) -> None:
        """Run the kernel if :data:`EVERY_S` have passed since the last
        run (or there was none)."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self) -> float:
        """``REFERENCE_S`` over the median CPU time of the kernel runs."""
        if not self.samples:
            raise RuntimeError("no kernel run to scale by")
        return REFERENCE_S / statistics.median(self.samples)
