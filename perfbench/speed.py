"""Wall times scaled to a reference machine speed.

The hosts this benchmark runs on are shared: the speed of one core drifts by
up to 1.8x within seconds and between minutes, so raw wall times of the same
code spread by 15-45% from run to run.  A small fixed kernel (small numpy
ops kept as tape-like nodes, dict updates and a paper-shape GEMM, the mix
this program executes) is timed right before and after each measured call
and, from a timer signal, every ``PERIOD_S`` during it.  The call's wall time, minus the time those
samples took, is scaled by ``REFERENCE_S`` over their trimmed mean, which
gives seconds at the speed the kernel has when it takes ``REFERENCE_S``.
The kernel is part of the benchmark, so a change to the program cannot move
it.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.001  # about the kernel time amid this program on a 2-vCPU KVM guest
PERIOD_S = 0.1

_SMALL = np.ones((16, 32))
_ROWS = np.ones((32, 490))
_GATE = np.ones((490, 490))


class BenchmarkTimeout(BaseException):
    """Raised from the timer signal once the run's deadline has passed; a
    BaseException so that the program's own ``except Exception`` cannot
    swallow it."""


class _Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents):
        self.data = data
        self.parents = parents


def kernel_seconds() -> float:
    """About 1 ms of small numpy ops recorded as tape-like nodes, dict
    updates and one gate GEMM at paper width."""
    start = time.perf_counter()
    a = _SMALL
    nodes = []
    for _ in range(60):
        a = np.tanh(a * 0.5 + 0.1)
        nodes.append(_Node(a, (len(nodes),)))
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    _ROWS @ _GATE
    return time.perf_counter() - start


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


@dataclass(frozen=True)
class Timing:
    net_s: float  # wall time minus the kernel samples taken inside it
    scaled_s: float


class SpeedProbe:
    """Context manager that samples machine speed while it is active."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self._samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        if time.perf_counter() > self.deadline:
            raise BenchmarkTimeout("benchmark run exceeded its time limit")
        self._samples.append(kernel_seconds())

    def time(self, fn, repeats: int = 1):
        """Call ``fn()`` ``repeats`` times between two kernel samples;
        returns the last result and the ``Timing`` of one call."""
        before = kernel_seconds()
        mark = len(self._samples)
        start = time.perf_counter()
        try:
            for _ in range(repeats):
                result = fn()
        finally:
            wall = time.perf_counter() - start
            inside = self._samples[mark:]
            after = kernel_seconds()
        net = (wall - sum(inside)) / repeats
        return result, Timing(net, net * REFERENCE_S / _trimmed_mean([before, after, *inside]))
