"""A clock that reads wall time, and wall time at the reference host speed.

The vCPUs of a shared host slow down by up to about 2x, for spells of a
tenth of a second to minutes, as other tenants load them, and a slice of a
process's work slows with its vCPU.  So while the clock runs, a SIGALRM
handler runs a fixed pure-Python ``Fraction`` snippet (no repo code) every
PERIOD_S and times it.  Each slice of work between two snippets is booked
once as it took (``raw_s``), and once scaled by REF_S over the mean time of
the two snippets around it (``ref_s``): the seconds the slice would take at
the host speed at which the snippet takes REF_S.  Snippet time is in
neither.  The snippet costs about 2.5% of the process's time while the clock
runs.

This module imports nothing but the standard library, so that a unit can
start the clock before it imports degderange.
"""

import signal
import statistics
from fractions import Fraction
from time import perf_counter


class HostClock:
    PERIOD_S = 0.02
    REF_S = 0.0005  # the snippet's time on the reference VM when it is not slowed

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.snippet_s = 0.0  # total snippet time, for callers that time work themselves
        self.snippets: list[float] = []
        self._busy = False
        self._first_start = None
        self._last_end = None
        self._last_c = 0.0

    @staticmethod
    def _snippet() -> Fraction:
        acc = Fraction(0)
        for i in range(1, 101):
            acc = Fraction(i, i + 1) * Fraction(i + 2, i + 3) + Fraction(1, i % 97 + 1)
        return acc

    def tick(self, *_signal_args) -> None:
        """Time one snippet and book the slice of work before it."""
        if self._busy:  # an alarm during an explicit tick
            return
        self._busy = True
        start = perf_counter()
        self._snippet()
        end = perf_counter()
        c = end - start
        if self._last_end is None:
            self._first_start = start
        else:
            dt = start - self._last_end
            self.raw_s += dt
            self.ref_s += dt * self.REF_S / ((c + self._last_c) / 2)
        self._last_end, self._last_c = end, c
        self.snippet_s += c
        self.snippets.append(c)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        """Stop the alarms; the last slice is booked by a final tick."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        # Ignored rather than default: a late alarm must not end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.tick()

    def span_s(self) -> float:
        """Wall time from the first snippet's start to the last one's end."""
        return self._last_end - self._first_start

    def snippet_p50_ms(self) -> float:
        return statistics.median(self.snippets) * 1e3
