"""Host-speed sampler: expresses measured times at a fixed reference speed.

The benchmark shares a virtual machine whose speed drifts by tens of percent
within minutes, with CPU time tracking wall time (so it is not steal time).
A time measured once is therefore mostly a measurement of the host. To take
the host out, the process that does the timed work also samples its own
speed: an interval timer (SIGALRM, every PERIOD_S of wall time) runs a signal
handler that times one burst of a fixed pure-Python reference loop, about a
millisecond long. Python runs the handler in the main thread between two
bytecodes of whatever it is doing, so the work and the bursts run interleaved
on the same thread and core, at the same speed, and the bursts sample that
speed continuously, inside long calls as well as between them and while the
process waits for a child.

`scale(t0, t1)` is NOMINAL_S over the mean burst time around [t0, t1]; a raw
time multiplied by it is in seconds at the reference speed, the speed at
which one burst takes NOMINAL_S. The reference loop imports nothing from the
package, so a change to the package cannot move it. The bursts take about 5%
of the process's time; that share is the same on every commit. Interval
timers are not inherited by child processes.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

NOMINAL_S = 0.0008  # one burst at the reference speed
PERIOD_S = 0.02     # interval timer period
PAD_S = 0.1         # bursts this close to an interval also describe it
BURST_REPS = 10


# the reference loop's only containers, allocated once: a burst creates no
# object the garbage collector tracks, so it never starts a collection, whose
# cost would grow with the heap the package has built
_MATRIX = [[0] * 6 for _ in range(6)]
_SEEN: dict = {}


def reference(reps: int = BURST_REPS) -> int:
    """Fixed work resembling the package's: small integer elimination on a
    list of lists and an int-keyed dict."""
    m, seen, acc = _MATRIX, _SEEN, 0
    for s in range(reps):
        for i in range(6):
            row = m[i]
            for j in range(6):
                row[j] = (i * 7 + j * 13 + s) % 11 - 5
        prev = 1
        for k in range(5):
            piv = m[k][k] or 1
            for i in range(k + 1, 6):
                for j in range(k + 1, 6):
                    m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
            prev = piv
        seen.clear()
        for i in range(200):
            key = (i % 7) * 64 + (i % 5) * 8 + s
            seen[key] = seen.get(key, 0) + i
        acc += m[5][5] + len(seen)
    return acc


class SpeedSampler:
    """Times reference bursts from a SIGALRM handler; see the module
    docstring. Only one may run in a process, started from the main thread."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.times = array("d")

    def _burst(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)

    def start(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._burst)
        self.resume()
        self._burst(signal.SIGALRM, None)
        return self

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean burst in [t0 - PAD_S, t1 + PAD_S]
        (perf_counter times); the nearest bursts if none fall inside."""
        starts, times = self.starts, self.times
        lo = bisect.bisect_left(starts, t0 - PAD_S)
        hi = bisect.bisect_right(starts, t1 + PAD_S)
        if hi - lo < 3:
            lo, hi = max(0, min(lo, len(times) - 3)), min(len(times), hi + 3)
        window = times[lo:hi]
        if not window:
            raise RuntimeError("the speed sampler has recorded no burst")
        return NOMINAL_S * len(window) / sum(window)
