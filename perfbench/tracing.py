"""In-memory span recorder that wraps a program's functions from outside.

A wrapped call records one span: its name, start and end (``perf_counter``
seconds), the index of the span that was open when it started, and a run
id. Spans stay in memory until the caller writes them out. ``restore``
puts every replaced attribute back, so the program is untouched after a
traced run.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "count")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index into Tracer.spans, or None for a root
        self.run = run
        self.count = 0  # work done in the call, when the wrapper counts any

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def as_row(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run, self.count]


class Tracer:
    """Records nested spans for one thread.

    A span whose name is in ``run_names`` starts a new run id; every other
    span inherits the run id of its parent (roots get 0).
    """

    def __init__(self, run_names=(), clock=time.perf_counter):
        self.clock = clock
        self.run_names = frozenset(run_names)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        if name in self.run_names:
            self._runs += 1
            run = self._runs
        else:
            run = self.spans[parent].run if parent is not None else 0
        rec = Span(name, 0.0, parent, run)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = self.clock()
        return rec

    def _close(self, rec: Span) -> None:
        rec.end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` gives
        the work the call did, stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec.count = int(count(args, out))
            return out

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None, aliases=()) -> None:
        """Replace ``owner.attr`` with a traced wrapper, and every module in
        ``aliases`` that bound the same object under any name."""
        original = vars(owner)[attr]
        wrapper = self.wrap(original, name, count)
        targets = [(owner, attr)]
        for mod in aliases:
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) != (owner, attr):
                    targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one thread nest without overlap, so the children's durations
    add up to the part of the parent interval they cover.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p is not None:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def span_cost(calls: int = 20_000) -> float:
    """Seconds one traced call costs on top of the call itself."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer.wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - plain, 0.0) / calls
