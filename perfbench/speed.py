"""How fast the machine runs while a child works, sampled from inside the child.

On a shared host the machine a benchmark child runs on slows down and
speeds up by a third or more within seconds, and the slowdown reaches the
benchmark's own process as wall time it did not get to compute.  A
``Sampler`` times a fixed snippet of pure-Python work from a ``SIGALRM``
handler every ``PERIOD_S`` of wall time, in the child's own thread, so the
snippets see the same slowdowns as the work around them.  A child's wall
time, less the time spent in snippets, divided by the mean snippet time
over ``SNIPPET_S`` (one snippet on the unloaded machine), is its time at
that machine's speed.  The snippets take about 3 % of a child's wall time.

The snippet imports nothing from ``ramops``, so a change to the library
never changes it.  It runs with the cyclic garbage collector off, so it
never pays for a collection of the child's own objects.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
# mean wall seconds of one snippet, timed from the handler during a job, on
# the 2-vCPU Xeon VM the benchmark was written on at its fastest
SNIPPET_S = 0.00022


def snippet() -> int:
    """A fixed amount of work: ``Fraction`` arithmetic and a small dict of tuple keys."""
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 3) * Fraction(3, k + 1)
    counts: dict = {}
    for k in range(60):
        key = (k % 7, k % 5)
        counts[key] = counts.get(key, 0) + k
    return acc.denominator % 1000 + len(counts)


class Sampler:
    """Times ``snippet`` every ``PERIOD_S`` of wall time inside its ``with`` block."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self._previous = signal.SIG_DFL

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        snippet()
        self.total_s += perf_counter() - started
        self.count += 1
        if collecting:
            gc.enable()

    def __enter__(self) -> "Sampler":
        """Start sampling from zero."""
        self.count = 0
        self.total_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean snippet time over ``SNIPPET_S``; 1.0 before the first sample."""
        return self.total_s / self.count / SNIPPET_S if self.count else 1.0

    def report(self) -> dict:
        return {"slowdown": self.slowdown(), "sampled_s": self.total_s, "samples": self.count}


def scaled(wall_s: float, report: dict) -> float:
    """Wall seconds less the sampled snippets, at the unloaded machine's speed."""
    return (wall_s - report["sampled_s"]) / report["slowdown"]
