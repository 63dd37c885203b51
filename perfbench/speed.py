"""Machine-speed probe, for timings that survive a host whose speed drifts.

On a shared host the speed of the same code drifts by up to 2-3x, in spells
that last from under a second to minutes, while the ratio of two pieces of
similar code run side by side on the same CPU holds within about 10%.  So
the benchmark runs on one CPU, runs a fixed probe between its timed calls,
and multiplies each call's wall time by

    REFERENCE_S / (mean block time of the probes around the call)

which gives it at the reference speed: the speed at which a probe block
takes REFERENCE_S.  A probe catches the speed of one instant, and a call
of a second spans several spells, so the mean is taken over a stretch
several times as long as the call.  The probe mixes the kinds of code
rydeit runs, so that it slows down with the host as rydeit's code does.  No
rydeit code runs in it, so a change to rydeit leaves it unchanged.
"""

import bisect
import dataclasses
import json
import math
import os
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3  # one probe block at the reference speed
PROBE_BLOCKS = 3      # a probe is the median of this many blocks
PROBE_EVERY_S = 0.1   # least wall time between two probes in a loop
WINDOW_S = 1.0        # probes within max(WINDOW_S, WINDOW_CALLS * length)
WINDOW_CALLS = 5      # of a call scale it

_NODES = np.linspace(0.05, 1.0, 15)
_GRID = np.linspace(-1.0, 1.0, 401)
_TABLE = {"columns": ["x", "y", "note"],
          "rows": [[k / 7.0, k * 1e-3, f"row {k}"] for k in range(30)]}


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _block():
    """A mix of the kinds of code rydeit runs: small complex numpy
    expressions and per-point parameter objects, as in a sweep's quadrature,
    interpreter arithmetic, whole-grid numpy, and rendering."""
    acc = 0.0
    point = _Point(0.1, 0.2)
    for k in range(30):
        n = 0.3 + _NODES * (1.0 + 1e-3 * k) + 0.02j
        c = n / (0.5 - (0.6 + 1.0j) * n)
        acc += float(np.abs(c.imag).sum())
        point = dataclasses.replace(point, x=point.x + 1e-3)
        acc += math.exp(-point.x) * math.hypot(point.x, point.y)
    for k in range(3800):
        acc += k * k % 7
    t = np.exp(-np.abs(np.sin(3.0 * _GRID)))
    acc += float(_GRID[int(np.argmax(t))]) + float(np.interp(0.3, _GRID, t))
    text = json.dumps(_TABLE) + ",".join(f"{v:.17g}" for v in t[::8])
    return acc + len(json.loads(json.dumps(text)))


def probe(clock=time.perf_counter):
    """Wall seconds of one probe block, the median of PROBE_BLOCKS."""
    times = []
    for _ in range(PROBE_BLOCKS):
        t0 = clock()
        _block()
        times.append(clock() - t0)
    return statistics.median(times)


def pin_to_one_cpu():
    """Keep this process, and the processes it starts, on the first CPU it
    may use, so that the probe shares the timed code's CPU: the drift need
    not be the same on every CPU.  Returns that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Probes taken between the timed calls of a run."""

    def __init__(self, clock=time.perf_counter, measure=probe):
        self.clock = clock
        self.measure = measure
        self.at = []        # probe end times, increasing
        self.seconds = []   # probe block times

    def tick(self, force=False):
        """Probe now, unless one ended less than PROBE_EVERY_S ago."""
        if force or not self.at or self.clock() - self.at[-1] >= PROBE_EVERY_S:
            value = self.measure()
            self.at.append(self.clock())
            self.seconds.append(value)

    def factor(self, start, end):
        """REFERENCE_S over the mean block time of the probes that ended
        within max(WINDOW_S, WINDOW_CALLS * (end - start)) of the call from
        `start` to `end`."""
        window = max(WINDOW_S, WINDOW_CALLS * (end - start))
        lo = bisect.bisect_left(self.at, start - window)
        hi = bisect.bisect_right(self.at, end + window)
        if lo == hi:
            raise ValueError("no probe near the call")
        return REFERENCE_S / statistics.fmean(self.seconds[lo:hi])
