"""Reference-speed clock: wall time rescaled by the speed of a fixed probe.

On a shared host the same CPU-bound code runs at two or more speeds, and the
speed switches from one second, or one minute, to the next (a loop that
takes 2.5 ms takes 4.5 ms a moment later), so raw wall times of identical
runs spread by a third.  This clock runs a fixed probe, which shares no code
with the package, before and after every timed interval and, if
``interval_s`` is set, every ``interval_s`` seconds inside it (from a
SIGALRM handler, so long queries are sampled too).  An interval's *reference
seconds* are its wall time, less the probes run inside it, times ``ref_s``
times the mean of 1 / probe time over the probes that ran inside it or
within ``window_s`` of its ends.  If the work and the probe slow down alike,
that is the time the interval would take at the probe's reference speed.
Raw wall seconds are kept alongside.

Two probes: ``probe``, small numpy object-array and dict work, for work
done in this process, and ``child_probe``, a fresh interpreter that imports
numpy and a few standard modules, for work done in child processes.
Process start and imports slow down in ways an in-process probe does not
see (page faults, loading shared objects), and a CLI call is mostly process
start and imports.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

PROBE_ROUNDS = 120
REF_PROBE_S = 0.0025  # about probe()'s time on the quiet reference machine
CHILD_PROBE_CODE = "import numpy, json, decimal, fractions"
REF_CHILD_PROBE_S = 0.25  # about child_probe()'s time on the quiet reference machine


def probe() -> float:
    """Seconds taken by fixed work of the package's kind, written independently.

    Small numpy object arrays of Python ints filled entry by entry and
    multiplied, plus tuples and dicts: allocation, boxing and short C calls,
    the mix that dominates the package's small queries.
    """
    t0 = perf_counter()
    keep = []
    for i in range(PROBE_ROUNDS):
        a = np.empty((6, 6), dtype=object)
        for r in range(6):
            for c in range(6):
                a[r, c] = (r * 7 + c * 3 + i) % 11 - 5
        keep.append(tuple(np.dot(a, a)[0]))
        keep.append({j: (j, i) for j in range(30)})
    return perf_counter() - t0


def child_probe() -> float:
    """Seconds taken to start a fresh interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", CHILD_PROBE_CODE], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
    return perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU, so probes see its speed."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Interval:
    """One timed interval: wall seconds, and reference seconds once rescaled."""

    __slots__ = ("start", "end", "raw_s", "seconds", "probes")

    def __init__(self, start: float, end: float, raw_s: float):
        self.start = start
        self.end = end
        self.raw_s = raw_s
        self.seconds = float("nan")
        self.probes = 0


class RefClock:
    """Probes every ``interval_s`` (0: never by alarm), and between intervals
    unless one ran less than ``spacing_s`` ago; so short intervals can run
    back to back, each described by the probes within ``window_s`` of it."""

    def __init__(self, interval_s: float = 0.0, probe=probe, ref_s: float = REF_PROBE_S,
                 spacing_s: float = 0.0, window_s: float = 0.01):
        self.interval_s = interval_s
        self.probe = probe
        self.ref_s = ref_s
        self.spacing_s = spacing_s
        self.window_s = window_s
        self.samples: list[tuple[float, float]] = []  # (start, end) of each probe, in order
        self.probe_wall = 0.0  # wall time spent in probes, handler overhead included
        self._previous = None
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during a probe: that probe is enough
            return
        self._busy = True
        t0 = perf_counter()
        p = self.probe()
        self.samples.append((t0, t0 + p))
        self.probe_wall += perf_counter() - t0
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    def start(self) -> None:
        if self.interval_s > 0:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if self.interval_s > 0:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def begin(self, since: float | None = None) -> tuple[float, float]:
        """Start an interval: a probe unless one just ran, then the mark to end against.

        ``since`` backdates the start, for work done before the clock existed.
        """
        self._maybe_sample()
        return self.probe_wall, perf_counter() if since is None else since

    def end(self, mark) -> Interval:
        t1, probe_wall1 = perf_counter(), self.probe_wall
        probe_wall0, t0 = mark
        self._maybe_sample()  # the probe after it, which the next interval can share
        return Interval(t0, t1, (t1 - t0) - (probe_wall1 - probe_wall0))

    def _maybe_sample(self) -> None:
        if not self.samples or perf_counter() - self.samples[-1][1] > self.spacing_s:
            self.sample()

    def rescale(self, intervals) -> None:
        """Set each interval's reference seconds from the probes near it."""
        starts = [a for a, _ in self.samples]
        ends = [b for _, b in self.samples]
        for iv in intervals:
            near = self.samples[bisect_left(ends, iv.start - self.window_s):
                                bisect_right(starts, iv.end + self.window_s)]
            iv.probes = len(near)
            iv.seconds = iv.raw_s * self.ref_s * sum(1 / (b - a) for a, b in near) / len(near)

    def durations(self) -> list[float]:
        return [b - a for a, b in self.samples]

