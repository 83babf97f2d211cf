"""In-memory spans around calls into the program, and their self times.

A :class:`Tracer` replaces chosen functions and methods of the program
with wrappers that record one span per call: name, start, end, parent
span and a request id. Nothing in the program knows it is being traced;
:meth:`Tracer.uninstall` puts every original back. Spans stay in memory
until :meth:`Tracer.dump` writes them out when the run ends.

A span's *self time* is its duration minus the part of its interval
that its direct child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    rid: Optional[str]
    attr: object


class Tracer:
    """Records spans from any thread into one in-memory list."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.marks: List[Tuple[float, str, object]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> list:
        """Open a span on this thread; close it with :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[4]
        frame = [next(self._ids), parent[0] if parent else None, name,
                 self.clock(), rid]
        stack.append(frame)
        return frame

    def end(self, frame: list, attr: object = None) -> None:
        end = self.clock()
        stack = self._stack()
        while stack:
            if stack.pop() is frame:
                break
        self.spans.append(
            Span(frame[0], frame[1], frame[2], frame[3], end, frame[4], attr)
        )

    def span(self, name: str, rid: Optional[str] = None):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        return _SpanContext(self, name, rid)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        rid: Optional[str] = None,
        attr: object = None,
    ) -> None:
        """Add a finished span with no parent (an interval seen from outside,
        such as a job's wait in a queue)."""
        self.spans.append(Span(next(self._ids), None, name, start, end, rid, attr))

    def set_request(self, rid: str) -> None:
        """Name the request the current thread's outermost open span serves."""
        stack = self._stack()
        if stack:
            stack[0][4] = rid
            for frame in stack[1:]:
                if frame[4] is None:
                    frame[4] = rid

    def mark(self, label: str, value: object = None) -> None:
        self.marks.append((self.clock(), label, value))

    # -- wrapping ------------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        rid_of: Optional[Callable[[tuple], Optional[str]]] = None,
        note: Optional[Callable[[tuple, object], object]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a module function, a method or a class
        method) with a span-recording wrapper.

        ``rid_of(args)`` may name the request a root call serves;
        ``note(args, result)`` computes the span's attribute.
        """
        original = inspect.getattr_static(owner, attr)
        fn = original.__func__ if isinstance(original, classmethod) else original
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.begin(name, rid_of(args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(frame, "error")
                raise
            tracer.end(frame, note(args, result) if note else None)
            return result

        self.replace(
            owner, attr,
            classmethod(wrapper) if isinstance(original, classmethod) else wrapper,
        )

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the marks, then every span with its request id resolved
        (one JSON array per line)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"marks": self.marks}) + "\n")
            for span in resolve_requests(self.spans):
                fh.write(json.dumps(list(span)) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "rid", "frame")

    def __init__(self, tracer: Tracer, name: str, rid: Optional[str]) -> None:
        self.tracer, self.name, self.rid = tracer, name, rid

    def __enter__(self) -> list:
        self.frame = self.tracer.begin(self.name, self.rid)
        return self.frame

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.frame)


# -- analysis ----------------------------------------------------------------------


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def resolve_requests(spans: Iterable[Span]) -> List[Span]:
    """Give every span without a request id its nearest ancestor's."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        rid, cursor = s.rid, s
        while rid is None and cursor.parent is not None:
            cursor = by_id.get(cursor.parent)
            if cursor is None:
                break
            rid = cursor.rid
        out.append(s if rid == s.rid else s._replace(rid=rid))
    return out
