"""Wall time scaled to a reference host speed, from probes taken in-process.

The shared host the benchmark runs on changes speed by up to ~2x for
stretches of a second or more (a busy neighbour on the same physical
core; the guest sees no steal time and CPU time slows as much as wall
time).  A run's median round time then reflects the host more than the
program.  To take that out, a timer signal runs a small fixed probe in
the measured thread every ``PERIOD_S``.  The "numpy" probe is a loop of
scalar numpy draws and integer arithmetic, the same kind of work as the
program's per-step loops; over paths-long rounds it tracked the rounds'
speed to 2%, against 6% for integer arithmetic alone.  The
"interpreter" probe is that arithmetic alone: it needs no import, so it
times a process that is still importing numpy (the set-up probe).  Each
stretch of wall time between probes is scaled by how fast the probes
around it ran, relative to the probe's reference time ``REF_S``:

    scaled = sum over stretches of  length * REF_S / probe_time

so a stretch run at half speed counts half.  The probes' own time is left
out.  The result is the wall time the same work takes at the reference
speed, in seconds.  Python runs signal handlers between bytecodes, so a
probe never lands inside a numpy call; a long call is covered by the
probe that follows it.
"""
from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.02
# Median probe times on the 2-vCPU host the benchmark was sized on.
REF_S = {"numpy": 4.3e-4, "interpreter": 3.4e-4}
_SMOOTH = 5  # probes per rolling median: one slow probe is noise, not a level


def _median(xs):
    # Not statistics.median: the set-up probe would time that import.
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


class HostSpeed:
    """Probes on a timer while active; scales windows of wall time."""

    def __init__(self, kind: str = "numpy"):
        self.ref_s = REF_S[kind]
        self.probes = []  # (start, end) of every probe while active
        if kind == "numpy":
            import numpy as np

            rng = np.random.default_rng(0)

            def work():
                x = 0
                for _ in range(300):
                    x = (3 * x + int(rng.poisson(2.0))) % 1000003
        else:
            def work():
                x = 0
                for i in range(3000):
                    x = (3 * x + i) % 1000003
        self._work = work

    def _probe(self, signum, frame):
        start = time.perf_counter()
        self._work()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self):
        self.probes = []
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        durations = [end - start for start, end in self.probes]
        half = _SMOOTH // 2
        self._starts = [start for start, _ in self.probes]
        self._factor = [
            self.ref_s / _median(durations[max(0, i - half):i + half + 1])
            for i in range(len(durations))
        ]
        return False

    def factor(self) -> float:
        """Mean speed factor over the probes: reference time per second."""
        return sum(self._factor) / len(self._factor) if self._factor else 1.0

    def probe_s(self) -> float:
        """Seconds spent in the probes."""
        return sum(end - start for start, end in self.probes)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of the window [a, b] at the reference speed, probes left out.

        Each stretch takes the factor of the first probe that starts after
        it (the last probe's, past the end of the series).  With no probes
        at all the window is returned unscaled.
        """
        if not self.probes:
            return b - a
        total, t = 0.0, a
        i = bisect.bisect_left(self._starts, a)
        while t < b:
            if i < len(self.probes):
                start, end = self.probes[i]
                stop = min(start, b)
                total += max(0.0, stop - t) * self._factor[i]
                t = max(t, end)
                i += 1
            else:
                total += (b - t) * self._factor[-1]
                break
        return total
