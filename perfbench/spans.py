"""In-memory span tracer that wraps library functions where their callers look them up.

A span records a name, start and end times, the span that was open when it
started, and the trial it belongs to.  Wrappers count exceptions by type at
their boundary and re-raise them unchanged; a hook may derive counts from a
call's arguments and result.  Nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    trial: int | None


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it that its children cover.

    Children are clipped to the parent and overlapping children count once.
    """
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, reach)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


class Tracer:
    """Records spans, counts and exceptions for one process; single-threaded."""

    def __init__(self, trial_span: str):
        self.trial_span = trial_span
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.exceptions: Counter = Counter()   # (span name, parent name, exception type)
        self._stack: list[Span] = []
        self._trials = 0

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span; hook(counts, args, kwargs, result) runs on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if name == self.trial_span:
                trial = self._trials
                self._trials += 1
            else:
                trial = parent.trial if parent else None
            span = Span(id=len(self.spans), name=name, start=0.0, end=0.0,
                        parent=parent.id if parent else None,
                        root=parent.root if parent else len(self.spans), trial=trial)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.exceptions[(name, parent.name if parent else None, type(exc).__name__)] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                out.setdefault(s.parent, []).append(s)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts),
                "exceptions": [{"span": n, "parent": p, "type": t, "count": c}
                               for (n, p, t), c in sorted(self.exceptions.items(),
                                                          key=lambda kv: str(kv[0]))],
            }, fh)


class Patches:
    """Replace module attributes with traced wrappers; restore them on exit."""

    def __init__(self, tracer: Tracer, sites):
        self.tracer = tracer
        self.sites = sites  # (module, attribute, span name, hook or None)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        for module, attr, name, hook in self.sites:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(name, original, hook))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
