"""Timings in reference seconds, steady against the host's speed drifts.

The host's CPU speed drifts: the same loop takes from 1x to over 2x its
usual time, in phases from well under a second to minutes, so raw
latencies of the same work spread far more than any change worth
measuring. A fixed pure-Python reference loop is therefore timed
PROBE_REPS times right before and right after the timed work and, from a
timer signal, once every TICK_S while it runs. The ticks' own time is taken
out of the measurement, and the rest, t, is reported as

    t * NOMINAL_S / median(all reference loop times around and inside it)

the time the work would take on the host at the speed at which the loop
takes NOMINAL_S. The loop never changes with the library, so a faster or
slower library moves the scaled figures in full.
"""

import atexit
import signal
import statistics
import time

PROBE_REPS = 3
TICK_S = 0.02
NOMINAL_S = 2.5e-4  # about the loop's time on an uncontended core of the defining host


def reference_loop():
    """Integer arithmetic, dict stores and small tuples: the interpreter's staples."""
    d = {}
    s = 0
    for i in range(1000):
        s = (s * 31 + i) % 1000003
        d[s & 255] = i
    for k in range(150):
        t = tuple((k * j) % 97 for j in range(8))
        s ^= hash(t) & 7
    return s


def probe():
    """PROBE_REPS timings of the reference loop, in seconds."""
    out = []
    for _ in range(PROBE_REPS):
        t = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t)
    return out


class Clock:
    """Times one stretch of work at a time, with reference loop ticks inside it."""

    def __init__(self):
        self.ticks = []  # (start, seconds) of each reference loop run by the signal
        signal.signal(signal.SIGALRM, self._tick)
        # a timer still armed at exit would kill the process with SIGALRM
        atexit.register(signal.setitimer, signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        t = time.perf_counter()
        reference_loop()
        self.ticks.append((t, time.perf_counter() - t))

    def start(self) -> float:
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return time.perf_counter()

    def stop(self, t0: float):
        """(seconds since `t0` less the ticks' time, the ticks' loop times)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        # the handler runs between bytecodes of this thread, so a tick that
        # started before t1 also ended before it
        inside = [d for s, d in self.ticks if s < t1]
        self.ticks = []
        return t1 - t0 - sum(inside), inside


def scaled(seconds: float, loop_times) -> float:
    """`seconds` measured among reference loop times `loop_times`, in reference seconds."""
    return seconds * NOMINAL_S / statistics.median(loop_times)
