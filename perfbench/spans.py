"""In-memory spans recorded from outside the package, and self times.

A span is (id, parent, name, round, start, end).  Spans are only recorded by
wrappers that `Tracer.patched` installs on module attributes of the package,
so the package itself is never edited; the wrappers are removed on exit.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    round: tuple[str, int]
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round: tuple[str, int] = ("", 0)      # (phase, index), set by the caller
        self._stack: list[int] = []
        self._next = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, self.round, start, end))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace each (module, attribute, span name) by a traced wrapper."""
        saved = []
        try:
            for module, attr, name in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    The tracer is single-threaded and stack-based, so child spans never
    overlap one another and lie inside their parent."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
