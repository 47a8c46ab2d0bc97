"""Span recording for the benchmark's traced runs.

A :class:`SpanRecorder` wraps functions from outside the program: each
call of a wrapped function becomes one span ``(id, name, start, end,
parent, n)`` kept in memory, where ``parent`` is the enclosing wrapped
call on the same thread and ``n`` an optional count the wrapper takes
from the call (events stepped, bytes written, cache hit, ...).
Generator functions get one span per ``next()``, with ``n = 1`` for
each item yielded.

Processes forked while a recorder is installed (the CLI's ``--workers``
pools) start with an empty buffer; each appends its spans to
``<spill_dir>/spans-<pid>.jsonl`` whenever its outermost wrapped call
returns, because pool workers leave through ``os._exit`` and never run
exit handlers.  :meth:`SpanRecorder.drain` gathers those files.

Times come from ``time.perf_counter``, which on Linux reads
``CLOCK_MONOTONIC`` and so is comparable across processes.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

__all__ = ["Span", "SpanRecorder", "coverage", "self_times"]

#: ``(id, name, start, end, parent id or None, count, pid)``
Span = tuple


class SpanRecorder:
    """Collects spans from wrapped calls in this process and its forks."""

    def __init__(self, spill_dir: Optional[str | Path] = None):
        self.spans: list[Span] = []
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._ids = itertools.count()
        self._local = threading.local()
        self._forked = False
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._forked = True
        self._pid = os.getpid()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> tuple:
        """Open a span; pass the token to :meth:`exit`."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return (span_id, name, parent, time.perf_counter())

    def exit(self, token: tuple, n: int = 0, end: Optional[float] = None) -> None:
        """Close the span ``token`` opened, with an optional count."""
        if end is None:
            end = time.perf_counter()
        span_id, name, parent, start = token
        stack = self._stack()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, n, self._pid))
        if self._forked and not stack:
            self.spill()

    def spill(self) -> None:
        """Append this process's buffered spans to its spill file."""
        if self.spill_dir is None or not self.spans:
            return
        spans, self.spans = self.spans, []
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    def drain(self) -> list[Span]:
        """Take this process's spans plus every spilled file's, and reset."""
        spans, self.spans = self.spans, []
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                spans.extend(read_spans(path))
                path.unlink()
        return spans

    # -- wrappers ------------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[..., int]] = None,
        before: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn`` (per ``next()``
        for a generator function).

        ``before(args, kwargs)`` runs ahead of the call and
        ``count(args, kwargs, result, before_value)`` after it; the
        integer ``count`` returns is stored on the span.  Return values,
        exceptions and generator ``send``/``throw``/``close`` pass
        through unchanged.
        """
        recorder = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                value: Any = None
                error: Optional[BaseException] = None
                while True:
                    token = recorder.enter(name)
                    yielded = 0
                    try:
                        if error is None:
                            item = gen.send(value)
                        else:
                            item = gen.throw(error)
                        yielded = 1
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        recorder.exit(token, yielded)
                    error = None
                    value = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # noqa: BLE001 - re-thrown into gen
                        error = thrown

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            token = recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.exit(token)
                raise
            end = time.perf_counter()
            n = count(args, kwargs, result, state) if count is not None else 0
            recorder.exit(token, n, end)
            return result

        return wrapper


def read_spans(path: str | Path) -> list[Span]:
    """Load a spill file written by :meth:`SpanRecorder.spill`."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def write_spans(path: str | Path, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Each span's duration minus the time its child spans cover.

    Children share the parent's process and thread and nest inside it,
    so their durations can be subtracted directly.  Keyed by
    ``(pid, span id)``.
    """
    own = {(s[6], s[0]): s[3] - s[2] for s in spans}
    for span in spans:
        if span[4] is not None:
            key = (span[6], span[4])
            if key in own:
                own[key] -= span[3] - span[2]
    return own


def coverage(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for a, b in clipped:
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
