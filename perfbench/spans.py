"""Span recording around the program's public functions, and its arithmetic.

A :class:`Tracer` patches functions of the program (class methods, generator
methods, module functions) with wrappers that record one span per call: name,
start, end, parent span and the id of the request or record being worked on.
Spans stay in memory and are written out once, when the run ends.  Nothing
under ``src/`` is edited; :meth:`Tracer.restore` undoes every patch.

The arithmetic below (:func:`self_times`, :func:`layer_busy`,
:func:`coverage`) is pure so the unit tests can check it on hand-built spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple


_INHERITED = object()


class Span(NamedTuple):
    span_id: int
    parent_id: int  # 0 for a root span
    name: str
    start: float
    end: float
    ident: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_ident", "_id", "_parent", "_start", "_frame_ident")

    def __init__(self, tracer: "Tracer", name: str, ident: str | None) -> None:
        self._tracer = tracer
        self._name = name
        self._ident = ident

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        stack = tracer._stack()
        if stack:
            self._parent, parent_ident = stack[-1]
        else:
            self._parent, parent_ident = 0, tracer.root_ident
        ident = self._ident if self._ident is not None else parent_ident
        self._id = next(tracer._ids)
        self._frame_ident = ident
        stack.append((self._id, ident))
        self._start = tracer.clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        end = tracer.clock()
        tracer._stack().pop()
        tracer.spans.append(
            Span(self._id, self._parent, self._name, self._start, end, self._frame_ident)
        )


class Tracer:
    """In-memory span and counter store with function patching."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        #: Ident given to root spans that name none (set by the workload loop).
        self.root_ident = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, ident: str | None = None) -> _SpanContext:
        return _SpanContext(self, name, ident)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Drop the spans and counts recorded inside the block (off-the-clock checks)."""
        mark, counts = len(self.spans), Counter(self.counts)
        try:
            yield
        finally:
            del self.spans[mark:]
            self.counts = counts

    # ------------------------------------------------------------- patching
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        # A class attribute inherited from a base is restored by deleting the
        # patch, not by copying the base's function onto the subclass.
        original = vars(owner).get(attr, _INHERITED)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        ident: Callable[..., str | None] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Record a span around every call of ``owner.attr``.

        ``ident(*args)`` names the request or record the call works on;
        ``after(result, *args)`` records counts from the call's result.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name, ident(*args) if ident is not None else None):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Record one span per ``next()`` on the generator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            generator = original(*args, **kwargs)

            def traced():
                while True:
                    with tracer.span(name):
                        try:
                            item = next(generator)
                        except StopIteration:
                            return
                    yield item

            return traced()

        self._patch(owner, attr, wrapper)

    def replace(self, owner: Any, attr: str, factory: Callable[[Any], Any]) -> None:
        """Patch ``owner.attr`` with ``factory(original)`` (for bespoke wrappers)."""
        self._patch(owner, attr, factory(getattr(owner, attr)))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---------------------------------------------------------------- output
    def write(self, path: Path) -> Path:
        """Write every span as one JSON line (the run's trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")
        return path


def read_spans(path: Path) -> list[Span]:
    with path.open(encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle if line.strip()]


# -------------------------------------------------------------- arithmetic
def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    result = {}
    for span in spans:
        covered = _union_length(
            (max(start, span.start), min(end, span.end))
            for start, end in children.get(span.span_id, ())
            if end > span.start and start < span.end
        )
        result[span.span_id] = span.duration - covered
    return result


def layer_busy(spans: Iterable[Span], name: str) -> float:
    """Total time inside spans called ``name``, counting nested repeats once."""
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != name:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            total += span.duration
    return total


def layer_self(spans: Iterable[Span], name: str, selfs: dict[int, float]) -> float:
    """Summed self time of every span called ``name``."""
    return sum((selfs[span.span_id] for span in spans if span.name == name), 0.0)


def coverage(selfs: dict[int, float], wall: float) -> float:
    """Share of the wall time attributed to some span (summed self time / wall)."""
    return sum(selfs.values()) / wall if wall > 0 else 0.0
