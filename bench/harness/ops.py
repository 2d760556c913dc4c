"""Operations and their outcomes.

An operation is one call the benchmark makes to the program and then
checks.  Only the call is timed.  It fails on an exception (a non-zero
CLI exit included) or on a failed output check; a refusal is a failure.
A recorder given a Sampler (harness/sampler.py) takes the sampler's own
time out of each operation's and can scale each operation by the host
speed sampled while it ran.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable


class CheckFailed(Exception):
    """The program's output is wrong."""


@dataclass
class Op:
    name: str
    call: Callable[[Any], Any]  # receives the tracer
    check: Callable[[Any], None] = lambda result: None
    work: int = 1  # units of work the call does (grid points, games, ...)


@dataclass
class Sample:
    name: str
    seconds: float
    ok: bool
    work: int = 1
    wrong: bool = False  # failed an output check, as opposed to erroring
    error: str | None = None
    start: float = 0.0
    end: float = 0.0
    factor: float | None = None  # host slowdown while it ran, set by Recorder.scale

    @property
    def scaled(self) -> float:
        """Seconds at the reference host speed."""
        return self.seconds / self.factor


def require_finite(*values) -> None:
    for v in values:
        if not math.isfinite(v):
            raise CheckFailed(f"non-finite value {v!r}")


class Recorder:
    def __init__(self, sampler=None):
        self.samples: list[Sample] = []
        self.sampler = sampler

    def _stolen(self) -> float:
        return self.sampler.stolen if self.sampler is not None else 0.0

    def run(self, op: Op, tracer) -> Sample:
        stolen = self._stolen()
        t0 = time.perf_counter()
        try:
            result = op.call(tracer)
        except Exception as exc:  # every program error counts as a failed operation
            t1 = time.perf_counter()
            sample = Sample(op.name, 0.0, False, op.work, error=f"{type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            sample = Sample(op.name, 0.0, True, op.work)
        sample.start, sample.end = t0, t1
        sample.seconds = t1 - t0 - (self._stolen() - stolen)
        if sample.ok:
            try:
                op.check(result)
            except Exception as exc:  # a check that cannot even run is a failed check
                sample.ok = False
                sample.wrong = True
                sample.error = f"{type(exc).__name__}: {exc}"
        self.samples.append(sample)
        return sample

    def scale(self) -> None:
        """Scale every sample by the host speed sampled while it ran."""
        for s in self.samples:
            s.factor = self.sampler.factor(s.start, s.end)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)
