"""Spans recorded from outside a program by wrapping its functions.

A `Tracer` replaces chosen functions and methods with timing wrappers while it
is installed, keeps every span in memory, and restores the originals when it
is removed.  Each span records its parent: the innermost span open on the
same thread, or an explicit parent for work handed to another thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import types
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def children(spans) -> dict[int, list[Span]]:
    out = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_times(spans) -> dict[str, float]:
    """Per span name, the summed duration minus what child spans cover.

    Overlapping children (work run on several threads) are counted once, and
    a child is clipped to its parent's interval.
    """
    kids = children(spans)
    out = defaultdict(float)
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(kids[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.name] += s.duration - covered
    return dict(out)


class Tracer:
    """Collects spans and counters; `install` swaps the wrappers in."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    def current(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def wrap(self, name: str, fn, count=None):
        """A traced stand-in for fn; count(result) returns counters to add."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if count is not None:
                self.add(count(result))
            return result

        return traced

    def wrap_dispatch(self, name: str, fn):
        """A traced stand-in for a dispatcher fn(callback, ...).

        Each callback runs in a span named after the module that defined it,
        as '<module>.chunk', whose parent is the dispatcher's span on
        whichever thread the callback runs.
        """

        @functools.wraps(fn)
        def traced(callback, *args, **kwargs):
            def body():
                parent = self.current()
                layer = callback.__module__.rsplit(".", 1)[-1]

                def chunk(*a, **kw):
                    return self.call(f"{layer}.chunk", callback, a, kw, parent=parent)

                return fn(chunk, *args, **kwargs)

            return self.call(name, body)

        return traced

    def install(self, owner, attr: str, replacement, modules=()) -> None:
        """Replace owner.attr until `uninstall`.

        For a module-level function every global in `modules` bound to it is
        replaced too, so that copies made by `from m import f` are traced.
        """
        original = getattr(owner, attr)
        if not isinstance(owner, types.ModuleType):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            return
        for module in {owner, *modules}:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((namespace, key, value))
                    namespace[key] = replacement

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
