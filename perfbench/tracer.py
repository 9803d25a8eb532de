"""In-memory span tracer that wraps the program's public layer functions.

The program itself is not modified: :meth:`Tracer.wrap` swaps a module
or class attribute for a wrapper that records a span around each call,
and :meth:`Tracer.unwrap_all` puts the original back.  Spans carry
``(id, name, start, end, parent, op)``; the parent is the innermost span
open on the calling thread, and ``op`` is the benchmark operation the
span belongs to (inherited from the parent unless given).  Spans stay in
memory until :meth:`Tracer.write` dumps them once the run has ended.

A span's *self time* is its duration minus the part of its interval
that its children cover; children may nest or overlap each other (work
from several threads), so covered time is the length of their union.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[int, float]:
    """``span id -> self seconds`` for every span in *spans*."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.sid, ())
            if end > span.start and start < span.end
        ]
        result[span.sid] = (span.end - span.start) - union_length(clipped)
    return result


class _CountingSocket:
    """Socket stand-in that counts the bytes passed to ``sendall``."""

    def __init__(self, sock, tally) -> None:
        self._sock = sock
        self._tally = tally

    def sendall(self, data) -> None:
        self._tally(len(data))
        self._sock.sendall(data)


class Tracer:
    """Records spans and counts from wrapped layer functions."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op: int | None = None) -> None:
        """Open a span on this thread's stack (closed by :meth:`close`)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[3]
        stack.append(
            (next(self._ids), name, parent[0] if parent else None, op,
             self.clock())
        )

    def close(self, record: bool = True) -> None:
        """Close the innermost open span; ``record=False`` drops it."""
        sid, name, parent, op, start = self._stack().pop()
        if record:
            self.spans.append(Span(sid, name, start, self.clock(), parent, op))

    def span(self, name: str, op: int | None = None) -> "_SpanContext":
        return _SpanContext(self, name, op)

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- wrapping -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, counter=None, op_of=None):
        """Record a span *name* around every call of ``owner.attr``.

        *counter* ``(args, kwargs, result) -> None`` runs after each call
        (to tally rows or calls); *op_of* ``(args, kwargs) -> op`` names
        the operation when the call starts a new one (a worker thread
        picking up a request).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.open(name, op_of(args, kwargs) if op_of else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
            if counter is not None:
                counter(args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return original

    def wrap_send_frame(self, owner, name: str) -> None:
        """Span + frame/byte counts around ``owner.send_frame``."""
        original = owner.send_frame
        tracer = self

        def tally(n_bytes: int) -> None:
            tracer.count("backends.frames")
            tracer.count("backends.frame_bytes", n_bytes)

        def send_frame(sock, *args, **kwargs):
            with tracer.span(name):
                return original(_CountingSocket(sock, tally), *args, **kwargs)

        send_frame.__wrapped__ = original
        owner.send_frame = send_frame
        self._patches.append((owner, "send_frame", original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "op")

    def __init__(self, tracer: Tracer, name: str, op: int | None) -> None:
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> None:
        self.tracer.open(self.name, self.op)

    def __exit__(self, *exc_info) -> None:
        self.tracer.close()
