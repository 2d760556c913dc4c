"""Host speed sampled while the timed work runs, to scale the gated timings.

On a host shared with other tenants the same work runs up to 1.5 times
slower for stretches of a second to several minutes.  A SIGALRM timer
runs a fixed pure-Python kernel every INTERVAL_S in whichever process is
doing the timed work: the benchmark process during in-process operations,
or the CLI process (under bench/sampled_cli.py) during a command, while
the benchmark's own timer is paused.  The kernel's time is taken out of
the operation's time ("stolen"), and each operation is scaled by the
kernel times sampled while it ran: dividing by (kernel time / REFERENCE_S)
reports it at the speed the host had when the reference was recorded.
The kernel is benchmark code, so a change to rallystats cannot move it.

This module imports nothing heavy: CLI processes load it before
rallystats.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.05
# Median kernel time on the reference host (2-vCPU Intel Xeon, 2.1 GHz).
REFERENCE_S = 0.0009


def kernel() -> float:
    """A small dynamic programme over Python lists and floats, like the
    engines' scalar loops."""
    row = [1.0] * 16
    for _ in range(400):
        new = [0.0] * 16
        for j in range(1, 16):
            new[j] = 0.6 * row[j] + 0.4 * new[j - 1] + 0.01
        row = new
    return row[-1]


class Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self.stolen = 0.0  # seconds spent in the kernel, here and in adopted processes

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.stolen += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    @contextlib.contextmanager
    def paused(self):
        """While a child process does the timed work: a kernel running
        here would compete with it for the CPU."""
        self.stop()
        try:
            yield
        finally:
            self.start()

    def record(self) -> dict:
        return {"samples": self.samples, "stolen": self.stolen}

    def adopt(self, record: dict) -> None:
        """Take over the samples of a child process.  time.perf_counter is
        CLOCK_MONOTONIC, so the two processes' clocks agree."""
        self.samples += [tuple(s) for s in record["samples"]]
        self.stolen += record["stolen"]

    def factor(self, t0: float, t1: float) -> float:
        """How much slower than at the reference the host ran from t0 to
        t1: the kernel samples in that interval (widened by one interval
        on each side), or the nearest one."""
        near = [dt for t, dt in self.samples if t0 - INTERVAL_S <= t <= t1 + INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return statistics.fmean(near) / REFERENCE_S

    @property
    def run_factor(self) -> float:
        return statistics.fmean(dt for _, dt in self.samples) / REFERENCE_S
