"""Machine-speed probes: times are reported at a fixed reference speed.

The benchmark runs on a shared virtual machine whose speed wanders: a fixed
pure-Python loop takes anywhere from 0.7 to 1.3 times its usual time, in
stretches of a second to a few minutes, and memory-heavy code (the DP's memo
tables) swings by up to twice. A run of half a minute cannot average that out.
So the benchmark times a probe, a fixed piece of work that does not use
posetcones, all through a run, and scales each task's time by
reference / (median probe time around the task): it reads as the time the
task would take on a machine where the probe takes the reference time. Time
spent probing is excluded from every measurement through `Speedometer.clock`.

Two probes, one for each kind of work:

- `probe()`, for work done in the benchmark's own process, runs on a timer
  that interrupts the main thread every INTERVAL_S. It mixes an integer loop
  with the tuple, dict and frozenset work the library's memoized routes do;
  on the machine it was tuned on it tracks the tasks' slowdowns with a
  correlation of about 0.85 to 0.9.
- `bare_start()`, for work done in fresh processes (the import measured by
  `setup_s`, the CLI calls), times a bare `python -c pass` from outside. It
  pays the same process start, page faults and start-up imports a CLI call
  does, which the in-process probe does not see.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.015      # one probe() every INTERVAL_S of wall time
REFERENCE_S = 0.0006    # probe() time that defines the reference speed
REFERENCE_START_S = 0.08  # bare_start() time that defines it for processes
PAD = 2                 # probes taken on each side of an interval as well


def probe():
    """A fixed piece of interpreter work, about half a millisecond."""
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    memo = {}
    base = frozenset((1, 2, 3))
    for i in range(400):
        key = (i & 31, i % 5)
        memo[key] = memo.get(key, 0) + 1
        acc += len(base | {i & 15}) + i * i % 7
    return acc + len(memo)


def probe_times(k):
    """k probe times in a row, in seconds."""
    out = []
    for _ in range(k):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


def bare_start(root, env):
    """Seconds a bare interpreter takes to start and exit, timed from outside.
    No timeout: with one, subprocess polls for the exit in steps of up to
    50 ms, which would show in the time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Speedometer:
    """Times `probe` (a callable) against `reference` seconds.

    With an `interval`, the probe runs on a timer while the Speedometer is
    entered; without one, the caller runs it between tasks through `take()`.
    `clock()` is perf_counter minus the time spent probing, so intervals
    measured with it hold only the work in between. Probe stamps are on that
    clock too.
    """

    def __init__(self, probe=probe, reference=REFERENCE_S, interval=INTERVAL_S):
        self.probe = probe
        self.reference = reference
        self.interval = interval
        self.spent = 0.0
        self.stamps = []
        self.durations = []
        self._old = None

    def clock(self):
        return time.perf_counter() - self.spent

    def take(self):
        t0 = time.perf_counter()
        self.probe()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.spent)
        self.durations.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def _tick(self, signum, frame):
        self.take()

    def __enter__(self):
        if self.interval:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, start, end):
        """The reference over the median probe time in [start, end] (clock()
        times), widened by PAD probes on each side; 1.0 before any probe."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        near = self.durations[max(0, lo - PAD):hi + PAD]
        return self.reference / statistics.median(near) if near else 1.0
