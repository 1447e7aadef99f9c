"""Timings at a fixed reference speed of a shared host.

On a shared virtual machine the host's other tenants slow this process down
by up to a factor of two, for seconds or minutes at a time, and the CPU time
grows with the wall time, so neither repeating a query nor taking the fastest
repetition removes the slowdown. Instead, a fixed pure-Python kernel from
reference.py (never the library) is timed right before and right after every
query, and the query's latency is scaled by REF_S over the mean of the two:
the latency the query would have had at the speed at which the kernel takes
REF_S. A change to the library moves the scaled times as it moves the raw
ones, since the kernel does not call it.
"""

from __future__ import annotations

import os
import statistics
import time

import reference

KERNEL_ALPHA = (2, 2, 2, 1)
# the kernel's time at which timings are reported: about its median on the
# two-vCPU machine the benchmark was defined on, when that machine was quiet
REF_S = 0.6e-3
SETUP_KERNELS = 3


def kernel_s() -> float:
    """Seconds for one run of the calibration kernel."""
    t0 = time.perf_counter()
    reference.gamma_partition_counts(KERNEL_ALPHA)
    reference.kostant_table(KERNEL_ALPHA)
    return time.perf_counter() - t0


def setup_kernel_s() -> float:
    return statistics.median(kernel_s() for _ in range(SETUP_KERNELS))


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """seconds at the reference speed, from the kernel times around it."""
    return seconds * REF_S * 2 / (kernel_before + kernel_after)


def pin_to(cpu: int):
    """A preexec_fn that keeps a child process, and its children, on one CPU.

    The calibration kernel then runs on the CPU its queries run on; the
    host's tenants slow each CPU down independently.
    """

    def pin() -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # not allowed here: the child runs unpinned
            pass

    return pin


def cpus() -> list[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control on this platform
        return []
