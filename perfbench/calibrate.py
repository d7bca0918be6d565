"""A fixed pure-Python loop that tells how fast the machine runs right now.

The benchmark runs on a few cores of a shared host, where the speed of the
interpreter flips between a fast and a slow state many times a second, and
the share of slow time drifts over minutes.  A pass therefore times this loop
all through itself, in its own process: between queries, and on a CPU-time
timer (``SIGPROF``) inside long queries.  ``run.py`` reports the pass's wall
time divided by the loop's mean time in the same pass (``wall_rel``): the
pass's cost in loops, which the host's drift largely cancels out of.  The
loop's own time is left out of the query times.  The loop never touches
confcohom, so no change to the program can move it.

A CLI pass spends its time starting interpreters, which the host slows in
its own way.  There a sample is a fresh interpreter that runs this file,
and so the loop once (``spawn``), timed between invocations only.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time


def _partitions(n: int, k: int, prefix: tuple):
    if n == 0:
        yield prefix
        return
    for i in range(min(n, k), 0, -1):
        yield from _partitions(n - i, i, prefix + (i,))


def loop(rounds: int = 4) -> int:
    """The kind of work confcohom does: recursion building tuples, dict
    updates keyed by tuples, big-integer products.  About 3 ms a round."""
    acc: dict = {}
    for r in range(rounds):
        for p in _partitions(22, 22, ()):
            key = p[:3]
            acc[key] = acc.get(key, 0) + len(p) * (r + 1)
        big = 1
        for i in range(1, 400):
            big = big * (i + r) + acc.get((i % 7 + 1,), 0)
        acc[("big", r)] = big % 1000003
    return len(acc)


class Calibrator:
    """Times ``loop`` (or, with ``spawn``, an interpreter that runs it) about
    every ``every_s`` seconds while it is started.

    ``spent`` is the total time taken by the loop so far, so that a caller
    can take it out of a query's time.
    """

    def __init__(self, every_s: float, spawn: bool = False):
        self.every_s = every_s
        self.spawn = spawn
        self.samples: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")
        self.busy = False

    def sample(self) -> None:
        self.busy = True
        t0 = time.perf_counter()
        if self.spawn:
            subprocess.run([sys.executable, __file__], check=True)
        else:
            loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += t1 - t0
        self.last = t1
        self.busy = False

    def between(self) -> None:
        """Called between queries: sample if the last sample is old enough."""
        if time.perf_counter() - self.last >= self.every_s:
            self.sample()

    def _on_timer(self, _signum, _frame) -> None:
        # The timer counts this process's CPU time, which long library
        # queries use and a CLI pass waiting for its children does not.
        if not self.busy and time.perf_counter() - self.last >= self.every_s / 2:
            self.sample()

    def start(self) -> None:
        # One core for the pass, its CLI children and the loop: the cores of
        # a shared host run at different speeds, and a process that moves
        # between them mixes those speeds from one moment to the next.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if not self.spawn:
            signal.signal(signal.SIGPROF, self._on_timer)
            signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)

    def stop(self) -> None:
        if not self.spawn:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()


if __name__ == "__main__":
    loop()
