"""Host-speed probe: how fast the CPU is running while an operation runs.

On a shared VM each vCPU flips between a fast and a slow state, up to about
2x apart, several times a second, and the share of slow time drifts over
minutes; the same work then takes tens of percent longer in one run than in
the next. The probe measures that speed from inside the timed process: an
interval timer (SIGALRM) runs a fixed pure-Python loop, integer arithmetic
and string parsing, every INTERVAL_S between bytecodes of the main thread,
so on the same vCPU and at the same moment as the work it interrupts.

An operation's host-corrected time is its wall time without the probe's
own time, times (REF_PROBE_S / p) ** sensitivity, where p is the median of
the probe's samples during that operation (the median, not the mean,
ignores the few samples during which the process was switched out, up to
20x the others): about the time it would take on a host whose probe takes
REF_PROBE_S. A run reports the median over its operations. The sensitivity
says how much of the probe's slowdown the operation shares: fitted over
about 30 operations each, the log of an operation's time moved 0.85-0.97
times as much as the log of its probe time on road-sparse (pure-Python
parsing), 0.69 on corpus-n64 (mostly numpy solves) and 0.72-0.80 on
simtest-cli (mostly imports). run.py gives each workload its own. The
probe does not depend on canclust, so a change to the program moves the
corrected time exactly as much as it moves the work.

This module uses only the standard library, so a fresh interpreter can
start the probe before it times `import canclust.cli`.
"""

import signal
import statistics
import time

INTERVAL_S = 0.02
# the probe's median time on the 2-vCPU VM the baseline was measured on
REF_PROBE_S = 2.4e-4
# the sensitivity of `import canclust.cli` (setup_s), as fitted for simtest-cli queries
IMPORT_SENSITIVITY = 0.8
_LINES = tuple(f"{i * 0.05:.3f},{i % 37:x},{i * 0.37:.6f}" for i in range(200))


def _work():
    total = 0
    for i in range(1000):
        total += i * i % 7
    table = {}
    for line in _LINES:
        stamp, ident, value = line.split(",")
        table[ident] = float(stamp) + float(value)
    return total, table


def sample():
    """Time one run of the probe loop."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Probe:
    """Context manager sampling the host's speed while its block runs.

    One sample is taken on entry, outside the block's timing, so even a block
    shorter than INTERVAL_S has one; the others interrupt the block, and
    their time (overhead_s) is part of the block's wall time.
    """

    def __enter__(self):
        self.first = sample()
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame):
        self.ticks.append(sample())

    def summary(self):
        return {"samples": [self.first, *self.ticks], "overhead_s": sum(self.ticks)}


def corrected(wall_s, summary, sensitivity):
    """Host-corrected time of one operation; a summary of None (the operation failed early) corrects nothing."""
    if summary is None:
        return wall_s
    factor = (REF_PROBE_S / statistics.median(summary["samples"])) ** sensitivity
    return (wall_s - summary["overhead_s"]) * factor


def corrected_median(timed, sensitivity):
    """Median host-corrected time of [(wall_s, probe summary), ...], and the median uncorrected wall time."""
    return (statistics.median(corrected(wall, summary, sensitivity) for wall, summary in timed),
            statistics.median(wall for wall, _ in timed))
