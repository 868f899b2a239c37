"""Wall time scaled to a fixed reference CPU speed.

The benchmark's host gives a process a CPU whose speed drifts by up to a
factor of two within seconds to minutes (a fixed pure-Python loop took
0.18 s to 0.33 s between repeats, with CPU steal near zero and wall time
equal to CPU time).  Raw solve times then measure the host, not ddro.

SpeedClock gauges the speed with a probe: a fixed pure-Python loop that
touches nothing of ddro.  A probe runs at every mark() and, from a
SIGALRM timer, every PROBE_EVERY_S seconds in between, also in the middle
of a solve: Python runs the handler between two bytecodes, so a probe
never splits a HiGHS call.  The time between two marks is cut into
segments at the probes; each segment's length is scaled by
REFERENCE_PROBE_S over the mean of the probes at its two ends, and the
probes' own time is left out.
"""

from __future__ import annotations

import signal
import time

PROBE_LOOPS = 100_000
PROBE_EVERY_S = 0.25
# Median probe seconds on the host of the reference figures in
# perfbench/README.md: times are reported as if the CPU ran at that speed.
REFERENCE_PROBE_S = 0.011


def probe_loop(loops: int = PROBE_LOOPS) -> int:
    acc = 0
    for i in range(loops):
        acc += i * i % 7
    return acc


class SpeedClock:
    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.probe = probe_loop  # run.py wraps it in a span in traced rounds
        self.every_s = every_s
        self.probes: list[tuple[float, float]] = []  # (begin, end), in time order
        self._busy = False

    def _run_probe(self) -> int:
        self._busy = True
        try:
            begin = time.perf_counter()
            self.probe()
            self.probes.append((begin, time.perf_counter()))
            return len(self.probes) - 1
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._run_probe()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """Probe now; returns the probe's index for between()."""
        return self._run_probe()

    def between(self, first: int, last: int) -> tuple[float, float]:
        """(seconds at the reference speed, wall seconds) from the end of
        probe `first` to the start of probe `last`, without the probes
        that ran in between."""
        scaled = wall = 0.0
        for (b0, e0), (b1, e1) in zip(self.probes[first:last], self.probes[first + 1:last + 1]):
            seg = b1 - e0
            wall += seg
            scaled += seg * 2.0 * REFERENCE_PROBE_S / ((e0 - b0) + (e1 - b1))
        return scaled, wall
