"""Span recording for the benchmark's traced (``--trace 1``) runs.

Wrappers are installed from here, around the public functions of each
layer; no program file changes. Every span has a name, a start, an end
and a parent (the span open below it on the same thread), and its self
time is its duration minus the time its child spans cover.

Hot spans (millions of ``visit`` calls) are kept only as in-memory
aggregates per ``(name, parent)`` pair. Spans created with ``raw=True``
also keep every record, for the metrics that read single calls
(construction-cache build time, service queue wait and serve time). A
span that opens directly inside a span of the same name (a union
blocking asking its parts, the instrumented eviction wrapper calling
the real policy) is folded into the outer one, so ``calls`` counts
calls into the layer, not delegation inside it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

CountFn = Callable[[tuple, Any, dict], None]


class _Thread:
    """One thread's open spans and its aggregates."""

    def __init__(self) -> None:
        # Open spans as [name, child_seconds].
        self.stack: list[list] = []
        # (name, parent) -> [calls, self_s]
        self.agg: dict[tuple[str, str | None], list] = {}
        # name -> [(start, end, outermost)]
        self.raw: dict[str, list[tuple[float, float, bool]]] = {}
        self.counts: dict[str, float] = {}


class SpanRecorder:
    """Collects spans from every thread that enters a wrapped call."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[type, str, Any]] = []

    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _Thread()
            self._local.state = state
            with self._lock:
                self._threads.append(state)
        return state

    # -- recording -------------------------------------------------------

    def _close(
        self, state: _Thread, frame: list, start: float, end: float, raw: bool
    ) -> None:
        stack = state.stack
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        key = (frame[0], parent[0] if parent is not None else None)
        rec = state.agg.get(key)
        if rec is None:
            state.agg[key] = [1, duration - frame[1]]
        else:
            rec[0] += 1
            rec[1] += duration - frame[1]
        if raw:
            outermost = all(f[0] != frame[0] for f in stack)
            state.raw.setdefault(frame[0], []).append((start, end, outermost))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open a span around a block of the benchmark's own code."""
        state = self._thread()
        frame = [name, 0.0]
        state.stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(state, frame, start, time.perf_counter(), False)

    def wrap(
        self,
        name: str,
        fn: Callable,
        raw: bool = False,
        count: CountFn | None = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``count(args, result, counts)`` may
        add named counts after each outermost call returns."""
        local = self._local
        new_thread = self._thread
        close = self._close
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            state = getattr(local, "state", None) or new_thread()
            stack = state.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(state, frame, start, perf(), raw)
            if count is not None:
                count(args, result, state.counts)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def patch(
        self,
        name: str,
        cls: type,
        method: str,
        raw: bool = False,
        count: CountFn | None = None,
    ) -> None:
        """Wrap ``cls.method`` (only where ``cls`` defines it)."""
        original = cls.__dict__[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, self.wrap(name, original, raw=raw, count=count))

    def unpatch(self) -> None:
        """Restore every patched method, newest first."""
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)

    # -- reading -----------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self_s)`` summed over parents and threads."""
        out: dict[str, list] = {}
        for state in self._threads:
            for (name, _parent), (calls, self_s) in state.agg.items():
                rec = out.setdefault(name, [0, 0.0])
                rec[0] += calls
                rec[1] += self_s
        return {name: (rec[0], rec[1]) for name, rec in out.items()}

    def records(self, name: str) -> list[tuple[float, float, bool]]:
        """Raw records of a ``raw`` span, in start order."""
        out = [r for state in self._threads for r in state.raw.get(name, ())]
        out.sort()
        return out

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = {}
        for state in self._threads:
            for key, value in state.counts.items():
                merged[key] = merged.get(key, 0) + value
        return merged
