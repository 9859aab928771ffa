"""The machine's speed, sampled while a run measures, and times scaled to it.

The reference machine is a few vCPUs of a shared host whose speed drifts: a
fixed pure-Python loop takes 0.09 s at one moment and 0.17 s a minute later,
and every workload slows with it. A run therefore times a small fixed kernel
(``kernel``) again and again while it measures, and reports each time
scaled to the speed at which the kernel takes ``REFERENCE_KERNEL_S``:

    time at reference speed = measured time * REFERENCE_KERNEL_S / mean kernel time

Inside a child run, :class:`Sampler` takes a sample from a ``SIGALRM``
handler every ``INTERVAL_S`` seconds of wall time, so the samples are spread
evenly over the run, inside sdrkit's long calls too (Python runs the handler
between bytecodes). The time the handler takes is counted in
``Sampler.spent`` and taken out of every measured interval. A run's wall
time is scaled by the mean of all its samples; the latency of one query by
the mean of the samples taken within ``WINDOW_S`` of it
(:func:`local_scales`), because the speed drifts within a run too. For set-up,
which is a whole process start, the parent takes samples just before and
just after the start (:func:`burst`).

Over blocks of about 3 s of sdrkit calls, the mean sample time follows the
calls' own time with a correlation of 0.95, and calls scaled by it vary by
4 % where unscaled they vary by 11 %.
"""
from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from typing import Dict, List

# kernel steps: about 0.25 ms on the reference machine; one sample is the
# mean of REPEATS kernels, so a sample costs about 2.5 ms with its warm-up
KERNEL_STEPS = 1000
REPEATS = 8
# mean time of one kernel sample on the reference machine at a middling
# moment; a scaled time is the time the run would have taken at that speed
REFERENCE_KERNEL_S = 3.0e-4
# a sample every quarter second costs about 1 % of the run
INTERVAL_S = 0.25
# a query's latency is scaled by the samples at most this far from it,
# about eight of them
WINDOW_S = 1.0
BURST_SAMPLES = 10

_TABLE = {i: (i * 2654435761) & 0xFFFF for i in range(4096)}


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Integer arithmetic and dict reads; allocates no tracked objects, so
    it never starts a garbage collection."""
    x, acc, table = 1, 0, _TABLE
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc ^= table[x & 4095]
    return acc


def _timed_kernel() -> float:
    """Mean time of one kernel over REPEATS back to back. The untimed first
    one brings the kernel back into the caches the workload has just used:
    a single cold kernel measures what the workload left in the caches, not
    the machine's speed."""
    kernel()
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        kernel()
    return (time.perf_counter() - t0) / REPEATS


def burst(samples: int = BURST_SAMPLES) -> List[float]:
    """Kernel times of ``samples`` samples in a row."""
    return [_timed_kernel() for _ in range(samples)]


def scale(kernel_times: List[float]) -> float:
    """Factor that takes a time measured while the kernel took these times
    to the reference speed; 1 when there are none (a run shorter than one
    interval is reported unscaled)."""
    if not kernel_times:
        return 1.0
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_times)


def local_scales(sample_t: List[float], sample_s: List[float], at: List[float]) -> List[float]:
    """For each time in ``at``, the factor of the samples taken within
    ``WINDOW_S`` of it (``sample_t`` ascending), or of all samples when
    none is that close."""
    prefix = [0.0]
    for s in sample_s:
        prefix.append(prefix[-1] + s)
    overall = scale(sample_s)
    out = []
    for t in at:
        lo = bisect_left(sample_t, t - WINDOW_S)
        hi = bisect_right(sample_t, t + WINDOW_S)
        out.append(REFERENCE_KERNEL_S * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo else overall)
    return out


class Sampler:
    """Times the kernel every ``INTERVAL_S`` s of wall time while started.

    ``samples`` holds every kernel time and ``times`` the ``perf_counter``
    at which each sample began; ``spent`` is the total time the handler
    took. A disabled sampler samples nothing, and ``spent`` stays 0.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self.times: List[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(_timed_kernel())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> Dict[str, object]:
        return {
            "kernel_s": self.samples,
            "kernel_t": self.times,
            "spent_s": self.spent,
        }
