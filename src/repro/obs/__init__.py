"""Dependency-free observability: metrics, spans and explain telemetry.

Public surface:

* :class:`MetricsRegistry` — thread-safe counters / gauges / streaming
  histograms / nested span timings, with JSON snapshot export.
* :class:`StreamingHistogram` — bounded-memory p50/p95/p99 estimates.
* :func:`get_recorder` / :func:`use_recorder` — the recorder the
  instrumented library records into, scoped per thread and per asyncio task
  (a :class:`contextvars.ContextVar`); defaults to :data:`NULL_RECORDER` so
  the disabled path costs ~nothing.
* :class:`Stopwatch` — the benchmarks' wall-clock timing primitive.
"""

from .histogram import DEFAULT_GROWTH, SNAPSHOT_QUANTILES, StreamingHistogram
from .registry import (
    NULL_RECORDER,
    SNAPSHOT_VERSION,
    MetricsRegistry,
    NullRecorder,
    Stopwatch,
    get_recorder,
    use_recorder,
)

__all__ = [
    "DEFAULT_GROWTH",
    "SNAPSHOT_QUANTILES",
    "SNAPSHOT_VERSION",
    "StreamingHistogram",
    "MetricsRegistry",
    "NullRecorder",
    "NULL_RECORDER",
    "Stopwatch",
    "get_recorder",
    "use_recorder",
]
