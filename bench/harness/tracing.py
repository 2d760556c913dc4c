"""In-memory spans recorded around the benchmark's calls into rallystats.

A span has a name, start and end (``time.perf_counter``, which is
CLOCK_MONOTONIC on Linux and therefore comparable between the benchmark
and the CLI processes it starts), the id of the span that caused it and
the id of the benchmark operation it belongs to.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; `notes` maps a span name to a function that turns the
    traced call's result into span attributes (bins, convergence, ...)."""

    def __init__(self, notes: dict | None = None):
        self.spans: list[Span] = []
        self.notes = notes or {}
        self.op: int | None = None
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent=parent, op=self.op)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        with self.span(name) as sp:
            result = fn(*args, **kwargs)
            note = self.notes.get(name)
            if note is not None:
                sp.attrs.update(note(result))
            return result

    def wrap(self, name_of, fn):
        """Wrapper for monkeypatching `fn`; `name_of(args, kwargs)` names
        each span, so one function can feed several layer names."""

        def traced(*args, **kwargs):
            return self.call(name_of(args, kwargs), fn, *args, **kwargs)

        return traced

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Attach spans recorded by a child process below `parent`."""
        base = len(self.spans)
        for rec in records:
            sp = Span(**rec)
            sp.id += base
            sp.parent = parent.id if sp.parent is None else sp.parent + base
            sp.op = parent.op
            self.spans.append(sp)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Stand-in used by untraced runs: calls go straight through."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield Span(-1, name, 0.0)

    def call(self, name: str, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval covered by the union
    of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for ch in sorted(children.get(sp.id, []), key=lambda c: c.start):
            lo = max(ch.start, cursor)
            hi = min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[sp.id] = sp.duration - covered
    return out
