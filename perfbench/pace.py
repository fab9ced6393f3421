"""The speed of the machine during a run, from a fixed reference kernel.

A shared machine changes speed by a fifth or more within tens of seconds,
and stays fast or slow for minutes at a time. No statistic over the units of
one run removes that. So the runner times this kernel between the timed items
of a run, and scales every end-to-end time of the run by

    REFERENCE_S / median kernel time in the run

A scaled time reads as it would on a machine on which the kernel takes
REFERENCE_S; the unscaled values are kept in the run's detail line. The
kernel mixes an interpreted loop with small matrix products, as the program
does, and it never changes, so a change to the program does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# median kernel time on the machine the baseline was measured on (2-vCPU
# Intel Xeon VM, Python 3.11, numpy 2.4 with OpenBLAS on one thread)
REFERENCE_S = 4.0e-3

_A = np.random.default_rng(0).standard_normal((256, 64))
_B = np.random.default_rng(1).standard_normal((64, 256))


def kernel():
    total = 0
    for i in range(20000):
        total += i * i % 7
    for _ in range(8):
        total += int((_A @ _B).sum() > 0)
    return total


class Pace:
    """Kernel times taken between the timed items of one run."""

    def __init__(self):
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_S / statistics.median(self.samples)
