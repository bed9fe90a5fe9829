"""Regression tests for torn cross-counter reads in serving statistics.

``ServiceStats.record_batch`` updates several metrics that must move together
(pairs scored, batch count, scoring seconds, the batch-size histogram).
Before the atomic ``MetricsRegistry.apply``/``values`` pair, a snapshot taken
mid-update could observe, say, the pair counter incremented but not yet the
batch counter — breaking invariants like ``pairs_scored == batch_size *
batches``.  These tests hammer the stats from writer threads while snapshots
run on the main thread and assert the invariants hold in *every* snapshot.
"""

from __future__ import annotations

import threading

from repro.obs import MetricsRegistry
from repro.serve import ServiceStats

WRITER_THREADS = 4
ITERATIONS = 2_000
BATCH_SIZE = 7


def _hammer(target, iterations=ITERATIONS, threads=WRITER_THREADS):
    """Run ``target(i)`` from several threads; yields a stop event for readers."""
    start = threading.Barrier(threads + 1)
    done = threading.Event()

    def worker():
        start.wait()
        for index in range(iterations):
            target(index)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for worker_thread in workers:
        worker_thread.start()
    start.wait()
    return workers, done


def test_snapshot_never_sees_torn_batch_counters():
    stats = ServiceStats()

    workers, _ = _hammer(lambda i: stats.record_batch(BATCH_SIZE, 1e-6))

    observed = 0
    while any(worker.is_alive() for worker in workers):
        snapshot = stats.snapshot()
        # The invariant a torn read breaks: every record_batch call moves the
        # pair counter and the batch counter together.
        assert snapshot["pairs_scored"] == BATCH_SIZE * snapshot["batches"]
        if snapshot["batches"]:
            assert snapshot["mean_batch_size"] == BATCH_SIZE
        observed += 1
    for worker in workers:
        worker.join()

    final = stats.snapshot()
    assert final["batches"] == WRITER_THREADS * ITERATIONS
    assert final["pairs_scored"] == BATCH_SIZE * WRITER_THREADS * ITERATIONS
    assert observed > 0


def test_snapshot_never_sees_torn_cache_counters():
    stats = ServiceStats()

    # Every call records 3 hits and 2 misses — any snapshot must keep the
    # 3:2 ratio exactly, or the read tore between the two counters.
    workers, _ = _hammer(lambda i: stats.record_cache(hits=3, misses=2))

    while any(worker.is_alive() for worker in workers):
        snapshot = stats.snapshot()
        assert 2 * snapshot["cache_hits"] == 3 * snapshot["cache_misses"]
        if snapshot["cache_hits"]:
            assert abs(snapshot["cache_hit_rate"] - 0.6) < 1e-12
    for worker in workers:
        worker.join()

    final = stats.snapshot()
    assert final["cache_hits"] == 3 * WRITER_THREADS * ITERATIONS
    assert final["cache_misses"] == 2 * WRITER_THREADS * ITERATIONS


def test_registry_apply_is_atomic_across_metrics():
    registry = MetricsRegistry()

    def write(_):
        registry.apply(
            counters={"a": 1, "b": 2},
            observations={"size": 4.0},
            gauge_maxima={"largest": 4.0},
        )

    workers, _ = _hammer(write)

    while any(worker.is_alive() for worker in workers):
        counters, _gauges = registry.values()
        assert counters.get("b", 0) == 2 * counters.get("a", 0)
        # Counter and histogram move in one transaction too: the full
        # snapshot (one lock hold) must agree with itself.
        snapshot = registry.snapshot()
        histogram = snapshot["histograms"].get("size")
        if histogram is not None:
            assert histogram["count"] == snapshot["counters"]["a"]
            assert histogram["sum"] == 4.0 * snapshot["counters"]["a"]
    for worker in workers:
        worker.join()

    counters, gauges = registry.values()
    total = WRITER_THREADS * ITERATIONS
    assert counters == {"a": total, "b": 2 * total}
    assert gauges == {"largest": 4.0}
    assert registry.histogram("size").count == total
